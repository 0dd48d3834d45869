"""Momentum residual over the stream-function/pressure parametrization.

A candidate trajectory is parametrized all-at-once by a ControlVector:
stream-function values at free interior nodes (the boundary layer and the
first interior layer are clamped to zero, enforcing no-slip strongly) and
pressure values at interior nodes, both for time levels 1..nt.  Every
control yields a feasible triplet by construction: the velocity is the
exactly solenoidal curl of the stream function, and the model-error field
is *defined* as the momentum residual of the assembled state.

The residual and all norms over the space-time domain are evaluated on
interior nodes at levels 1..nt only, with uniform quadrature weights;
one-sided boundary stencils never enter the misfit directly.

The momentum residual has one implementation, momentum_residual, which the
assembly, residual_y and the reference solver call: momentum_operator, a
pressure gradient and advection less the forcing, each linear map followed
by its transpose.  The pressure field itself (pressure_map) is built only
for output and field-level checks.

The linear maps multiply by read-only, C-contiguous blocks of the 1D
matrices, cached once per grid (_grid_blocks: velocity_map's d1y[1:-1, 2:-2]
and -d1x[1:-1, 2:-2]^T, velocity_gradient's d1x[1:-1]^T; the pressure
gradient's dx^T and the fast diagonalization's vx^T with their factors) and
once per (grid, nu) (_viscous_blocks: nu d2x[1:-1]^T and nu d2y[1:-1] for
momentum_operator, -nu d2x[1:-1] and (-nu d2y[1:-1])^T for its transpose).

Almost all of the chain's arithmetic is local to one time level; only the
backward time difference couples neighbours.  _over_levels runs such work
in tiles of levels, on two threads once the control is large enough
(_SPLIT_SIZE), each tile writing its slice of arrays its caller allocated.
Every reduction over levels stays serial on the full arrays, so the bits
depend neither on the split nor on the core or BLAS thread count.
"""

import contextvars
import os
from collections import deque
# imported with the module: its 7 ms (it imports logging) would otherwise land
# inside the first split, in the timed chain of a short run
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import (
    GridSpec, ScalarField, VectorField, check_finite, curl_kernel, zero_mean_kernel, _d1_matrix,
)
from .norms import dot


def extend_interior(levels, grid):
    """Extend (nt, ny-2, nx-2) interior values to (nt, ny, nx) full levels.

    Boundary values are second-order extrapolations, so centered first
    derivatives of the extended field at interior nodes coincide with
    one-sided interior-only stencils: pressure_gradient.  Each end row is
    3a0 - 3a1 + a2 of the three nearest interior rows; the end columns are
    then extrapolated the same way over the full height, so a corner
    combines both directions.  The work is O(1) per node.
    """
    out = np.empty((levels.shape[0], grid.ny, grid.nx))
    out[:, 1:-1, 1:-1] = levels
    out[:, 0, 1:-1] = 3.0 * levels[:, 0] - 3.0 * levels[:, 1] + levels[:, 2]
    out[:, -1, 1:-1] = levels[:, -3] - 3.0 * levels[:, -2] + 3.0 * levels[:, -1]
    out[..., 0] = 3.0 * out[..., 1] - 3.0 * out[..., 2] + out[..., 3]
    out[..., -1] = out[..., -4] - 3.0 * out[..., -3] + 3.0 * out[..., -2]
    return out


@dataclass
class ControlVector:
    """Optimization degrees of freedom: stream function and pressure.

    psi has shape (nt, ny-4, nx-4): values at free interior nodes (two
    clamped layers on every side) for levels 1..nt.  pr has shape
    (nt, ny-2, nx-2): pressure at interior nodes, normalized to zero
    trapezoidal mean per level (constant shifts are invisible to the
    misfit, so iterates may drift along them harmlessly).
    """

    grid: GridSpec
    psi: np.ndarray
    pr: np.ndarray

    def __post_init__(self):
        g = self.grid
        self.psi = np.asarray(self.psi, dtype=np.float64)
        self.pr = np.asarray(self.pr, dtype=np.float64)
        if self.psi.shape != (g.nt, g.ny - 4, g.nx - 4):
            raise ConfigurationError(
                f"psi dofs shape {self.psi.shape} != {(g.nt, g.ny - 4, g.nx - 4)}")
        if self.pr.shape != (g.nt, g.ny - 2, g.nx - 2):
            raise ConfigurationError(
                f"pressure dofs shape {self.pr.shape} != {(g.nt, g.ny - 2, g.nx - 2)}")
        check_finite(self.psi, "control vector")
        check_finite(self.pr, "control vector")

    @classmethod
    def zeros(cls, grid):
        return cls(grid,
                   np.zeros((grid.nt, grid.ny - 4, grid.nx - 4)),
                   np.zeros((grid.nt, grid.ny - 2, grid.nx - 2)))

    def normalized(self):
        """Remove the per-level trapezoidal mean from the pressure block."""
        return ControlVector(self.grid, self.psi.copy(), zero_mean_kernel(self.pr))

    def to_flat(self):
        return np.concatenate([self.psi.ravel(), self.pr.ravel()])

    @classmethod
    def from_flat(cls, grid, vec):
        """The control whose blocks are views of vec: pass a vector nothing else writes."""
        n_psi = grid.nt * (grid.ny - 4) * (grid.nx - 4)
        psi = vec[:n_psi].reshape(grid.nt, grid.ny - 4, grid.nx - 4)
        pr = vec[n_psi:].reshape(grid.nt, grid.ny - 2, grid.nx - 2)
        return cls(grid, psi, pr)


@dataclass
class PhysicsSetup:
    """Viscosity, forcing, initial data, and the misfit weight."""

    grid: GridSpec
    nu: float
    lam: float
    f: VectorField
    u0: np.ndarray  # (ny, nx, 2), divergence-free, zero on the boundary
    include_advection: bool = True  # diagnostic switch for linear sanity checks

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu <= 0.0:
            raise ConfigurationError(f"nu must be positive, got {self.nu}")
        if not (0.0 < self.lam < 1.0):
            raise ConfigurationError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.f.grid != self.grid:
            raise ConfigurationError("forcing grid does not match setup grid")
        g = self.grid
        self.u0 = np.asarray(self.u0, dtype=np.float64)
        if self.u0.shape != (g.ny, g.nx, 2):
            raise ConfigurationError(
                f"u0 shape {self.u0.shape} != {(g.ny, g.nx, 2)}")
        check_finite(self.u0, "u0")
        ring = np.concatenate([
            self.u0[0].ravel(), self.u0[-1].ravel(),
            self.u0[:, 0].ravel(), self.u0[:, -1].ravel()])
        scale = max(1.0, float(np.abs(self.u0).max()))
        if np.abs(ring).max() > 1e-12 * scale:
            raise ConfigurationError("u0 does not vanish on the boundary")
        grad = velocity_gradient(np.moveaxis(self.u0, -1, 0), g)
        grad_scale = max(float(np.abs(grad).max()), 1e-30)
        if np.abs(grad[0] + grad[3]).max() > 1e-10 * grad_scale + 1e-14:
            raise ConfigurationError("u0 is not discretely divergence-free")


def state_from_control(c, setup):
    """Assemble (velocity, pressure) fields from a control vector.

    The velocity is the curl of the zero-padded stream function with the
    boundary ring zeroed (no-slip holds exactly) and level 0 replaced by the
    given initial data; it is exactly divergence-free at interior nodes.
    The pressure extends the interior values quadratically to the boundary
    and removes the trapezoidal spatial mean per level.
    """
    g = setup.grid
    if c.grid != g:
        raise ConfigurationError("control grid does not match setup grid")
    return state_fields(velocity_map(c.psi, g), pressure_map(c.pr, g), setup)


def state_fields(u, p, setup):
    """Velocity and pressure fields over all levels from levels 1..nt.

    u (2, nt, ny, nx), component axis first, and p (nt, ny, nx) are values
    of velocity_map and pressure_map; level 0 holds setup.u0 and zero
    pressure.
    """
    u = np.concatenate([setup.u0[None], np.moveaxis(u, 0, -1)])
    p = np.pad(p, ((1, 0), (0, 0), (0, 0)))
    return VectorField(setup.grid, u), ScalarField(setup.grid, p)


def pressure_map(pr, grid):
    """Pressure at levels 1..nt from the pressure block (linear).

    The extension to the boundary minus the trapezoidal mean per level; its
    centred gradient at interior nodes is pressure_gradient(pr).
    """
    return zero_mean_kernel(extend_interior(pr, grid))


# ---------------------------------------------------------------------------
# level tiles: the chain's level-local work on two threads

# A grid whose control has at least this many entries runs the level-local
# work on two threads: up to 36x36x27 (58,860 entries) on one, from 40x40x30
# (82,200) on two.
_SPLIT_SIZE = 70_000
# The work is called on tiles of whole levels holding at most this many
# interior nodes (one level at least), so the temporaries of a call stay
# small: 48x48x36 takes six tiles of 6 levels, 24x24x18 is one tile.
_TILE_NODES = 13_000


@lru_cache(maxsize=None)
def _worker():
    """The one-thread pool that runs the second thread's tiles, started by the first split."""
    return ThreadPoolExecutor(1, thread_name_prefix="nsassim-levels")


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread: it starts its own
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _cores():
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _over_levels(fn, n, grid):
    """Run fn(lo, hi) over the level range [0, n), tile by tile, on one thread or two.

    The range is cut into consecutive tiles of whole levels holding at most
    _TILE_NODES interior nodes (one level at least).  When the grid's
    control has at least _SPLIT_SIZE entries and the process may run on two
    cores, the calling thread takes the tiles from the front while _worker
    takes them from the back, until the two meet: near the middle when both
    cores run at one speed, and farther from a core that runs slower.  The
    worker runs in a copy of the caller's context, so numpy's errstate
    holds in both.  Otherwise the calling thread runs every tile, with no
    pool.  fn writes its levels' slices of arrays the caller allocated,
    with the same per-level arithmetic whichever thread runs a tile, so the
    bits depend neither on the threads nor on the tiles; every reduction
    over levels stays with the caller.  fn must not split again.  Both
    threads have ended when this returns or raises; the caller's exception
    comes first.
    """
    nodes = (grid.ny - 2) * (grid.nx - 2)
    if n * nodes <= _TILE_NODES:  # one tile, and a control far below _SPLIT_SIZE
        fn(0, n)
        return
    step = max(1, _TILE_NODES // nodes)
    tiles = deque(range(0, n, step))  # pops at either end are thread-safe

    def work(take):
        while True:
            try:
                lo = take()
            except IndexError:  # every tile is taken
                return
            fn(lo, min(lo + step, n))

    if n * (nodes + (grid.ny - 4) * (grid.nx - 4)) < _SPLIT_SIZE or _cores() < 2:
        work(tiles.popleft)
        return
    future = _worker().submit(contextvars.copy_context().run, work, tiles.pop)
    try:
        work(tiles.popleft)
    finally:
        future.exception()  # waits for the worker without raising its error over the caller's
    future.result()


# ---------------------------------------------------------------------------
# linear maps, each followed by its transpose; component axis first.  The
# momentum operators apply the interior rows of the 1D matrices only.  The
# blocks are C-contiguous because numpy's batched matmul takes about twice
# as long with a transposed view as its right operand.

def _frozen(a):
    """A read-only C-contiguous copy of a."""
    out = np.array(a, order="C")
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _grid_blocks(grid):
    """velocity_map's d1y[1:-1, 2:-2] and -d1x[1:-1, 2:-2]^T, velocity_gradient's d1x[1:-1]^T."""
    d1x, d1y = grid.d1x(), grid.d1y()
    return _frozen(d1y[1:-1, 2:-2]), _frozen(-d1x[1:-1, 2:-2].T), _frozen(d1x[1:-1].T)


@lru_cache(maxsize=None)
def _viscous_blocks(grid, nu):
    """momentum_operator's nu d2x[1:-1]^T and nu d2y[1:-1], its transpose's
    -nu d2x[1:-1] and (-nu d2y[1:-1])^T, once per (grid, nu)."""
    d2x, d2y = grid.d2x()[1:-1], grid.d2y()[1:-1]
    return _frozen(nu * d2x.T), _frozen(nu * d2y), _frozen(-nu * d2x), _frozen((-nu * d2y).T)


def velocity_map(psi, grid, out=None):
    """Velocity from stream-function dofs (nt, ny-4, nx-4), any nt (linear).

    The curl of the zero-padded stream function with the boundary ring
    zeroed: shaped (2, nt, ny, nx).  Only the interior blocks of the 1D
    matrices meet nonzero values, so each component is one matmul into the
    block it fills; out, when given, must be zero outside those blocks.
    """
    curl_y, curl_x_t = _grid_blocks(grid)[:2]
    u = np.zeros((2, psi.shape[0], grid.ny, grid.nx)) if out is None else out
    np.matmul(curl_y, psi, out=u[0, :, 1:-1, 2:-2])
    np.matmul(psi, curl_x_t, out=u[1, :, 2:-2, 1:-1])
    return u


def velocity_map_transpose(ubar, grid, out=None):
    """Transpose of velocity_map: (2, nt, ny, nx) -> (nt, ny-4, nx-4), into out if given.

    With the velocity ring zero and two clamped stream-function layers, only
    the interior block of each 1D matrix enters.
    """
    d1x, d1y = grid.d1x()[1:-1, 2:-2], grid.d1y()[1:-1, 2:-2]
    out = np.matmul(d1y.T, ubar[0, :, 1:-1, 2:-2], out=out)
    out -= ubar[1, :, 2:-2, 1:-1] @ d1x
    return out


def velocity_gradient(u, grid, out=None):
    """Spatial gradient of a velocity at interior nodes.

    u (2, ..., ny, nx) -> (4, ..., ny-2, nx-2), in the order du1/dx, du1/dy,
    du2/dx, du2/dy; written into out when given.
    """
    if out is None:
        out = np.empty((4,) + u.shape[1:-2] + (grid.ny - 2, grid.nx - 2))
    np.matmul(u[..., 1:-1, :], _grid_blocks(grid)[2], out=out[0::2])
    np.matmul(grid.d1y()[1:-1], u[..., 1:-1], out=out[1::2])
    return out


def velocity_gradient_transpose(gbar, grid, ubar):
    """Add the transpose of velocity_gradient applied to gbar into ubar.

    gbar is (4, ..., ny-2, nx-2) and ubar (2, ..., ny, nx); returns ubar.
    """
    ubar[..., 1:-1, :] += gbar[0::2] @ grid.d1x()[1:-1]
    ubar[..., 1:-1] += grid.d1y()[1:-1].T @ gbar[1::2]
    return ubar


def momentum_operator(u, grid, nu, u_init=None, out=None):
    """Linear velocity terms D_t u - nu Lap u of the momentum at interior nodes.

    u (2, ..., nt, ny, nx) is the velocity at levels 1..nt on the full
    grid.  D_t is the backward time difference along the level axis,
    u_init (2, ..., ny-2, nx-2) the interior slice before level 1 (zero when
    None).  Returns (2, ..., nt, ny-2, nx-2), written into out when given.
    """
    visc_x_t, visc_y = _viscous_blocks(grid, nu)[:2]
    ui = u[..., 1:-1, 1:-1]
    if out is None:
        out = np.empty(ui.shape)
    np.subtract(ui[..., 1:, :, :], ui[..., :-1, :, :], out=out[..., 1:, :, :])
    out[..., 0, :, :] = ui[..., 0, :, :] if u_init is None else ui[..., 0, :, :] - u_init
    out *= 1.0 / grid.dt
    lap = np.matmul(u[..., 1:-1, :], visc_x_t)
    lap += visc_y @ u[..., 1:-1]
    out -= lap
    return out


def momentum_operator_transpose(ybar, grid, nu, y_next=None):
    """Transpose of momentum_operator with a zero u_init.

    ybar (2, ..., nt, ny-2, nx-2) -> the full-grid velocity cotangent
    (2, ..., nt, ny, nx).  Level k of the velocity feeds the time
    differences of levels k and k+1; y_next (2, ..., ny-2, nx-2) is the
    cotangent of the level after the last, zero when None, so that a block
    of levels gives its slice of the whole transpose.
    """
    visc_x, visc_y_t = _viscous_blocks(grid, nu)[2:]
    ubar = np.empty((2,) + ybar.shape[1:-2] + (grid.ny, grid.nx))
    ubar[..., 0, :] = 0.0
    ubar[..., -1, :] = 0.0
    np.matmul(ybar, visc_x, out=ubar[..., 1:-1, :])
    ubar[..., 1:-1] += visc_y_t @ ybar
    s = ybar * (1.0 / grid.dt)
    ui = ubar[..., 1:-1, 1:-1]
    ui += s
    ui[..., :-1, :, :] -= s[..., 1:, :, :]
    if y_next is not None:
        ui[..., -1, :, :] -= y_next * (1.0 / grid.dt)
    return ubar


def pressure_gradient(pr, grid):
    """G pr: the gradient of the pressure block at interior nodes (linear).

    pr (..., ny-2, nx-2) -> (2, ..., ny-2, nx-2), with G the first-derivative
    matrices of the interior subgrid, one-sided at its ends.  Equal to the
    centred gradient of pressure_map(pr) at interior nodes, up to round-off.
    """
    dy, _, dx_t = _pressure_gradient_factors(grid)[:3]
    out = np.empty((2,) + pr.shape)
    np.matmul(pr, dx_t, out=out[0])
    np.matmul(dy, pr, out=out[1])
    return out


def pressure_gradient_transpose(v, grid, out=None):
    """Transpose of pressure_gradient: (2, ..., ny-2, nx-2) -> (..., ny-2, nx-2), into out if given."""
    dy, dx = _pressure_gradient_factors(grid)[:2]
    out = np.matmul(v[0], dx, out=out)
    out += dy.T @ v[1]
    return out


def advection(a, grad_b):
    """(a.D)b from a velocity a (2, ...) and the gradient of b (4, ...).

    grad_b is in velocity_gradient's order; the result is shaped like a.
    Linear in each argument, with advection_transpose_a and
    advection_transpose_grad_b the two partial transposes.
    """
    out = a[0] * grad_b[0::2]
    out += a[1] * grad_b[1::2]
    return out


def advection_transpose_a(ybar, grad_b):
    """Transpose of advection in a: ybar (2, ...) -> (2, ...)."""
    abar = ybar[0] * grad_b[0:2]
    abar += ybar[1] * grad_b[2:4]
    return abar


def advection_transpose_grad_b(ybar, a):
    """Transpose of advection in grad_b: ybar (2, ...) -> (4, ...)."""
    out = np.empty((4,) + ybar.shape[1:])
    np.multiply(ybar[:, None], a[None], out=out.reshape((2, 2) + ybar.shape[1:]))
    return out


def momentum_residual(u, setup, pressure=None, grad_u=None, u0=None, first=0, out=None):
    """momentum_operator(u) + pressure gradient + (u.D)u - f at interior nodes, levels 1..nt.

    u (2, n, ny, nx) is the full-grid velocity at levels first+1..first+n,
    all of them by default, and grad_u its velocity_gradient, computed when
    None; the result is shaped like momentum_operator's and written into
    out when given.  pressure returns the pressure-gradient term, or is
    None for none: a callable, so that its array is built after
    momentum_operator's temporaries are freed.  u0 (ny, nx, 2) is the
    slice before u's first level, default setup.u0, which opens level 1.
    """
    g = setup.grid
    if u0 is None:
        u0 = setup.u0
    elif u0.shape != (g.ny, g.nx, 2):
        raise ConfigurationError(f"u0 shape {u0.shape} != {(g.ny, g.nx, 2)}")
    y = momentum_operator(u, g, setup.nu, np.moveaxis(u0[1:-1, 1:-1], -1, 0), out)
    if pressure is not None:
        y += pressure()
    if setup.include_advection:
        y += advection(u[..., 1:-1, 1:-1], velocity_gradient(u, g) if grad_u is None else grad_u)
    y -= np.moveaxis(setup.f.values[1 + first:1 + first + y.shape[1], 1:-1, 1:-1], -1, 0)
    return y


def residual_y(u, p, setup, u0=None):
    """momentum_residual of the fields (u, p), zero on the boundary and at level 0.

    The pressure term is the centred gradient of p, which carries its own
    boundary values; u0 may override the initial slice, with level 0 of a
    manufactured u for example.  Under a zero forcing the result is the
    forcing that cancels the residual of (u, p), to the bit.
    """
    g = setup.grid
    if u.grid != g or p.grid != g:
        raise ConfigurationError("field grids do not match setup grid")
    pv = p.values[1:]

    def centred_gradient():
        return np.stack([pv[..., 1:-1, :] @ _grid_blocks(g)[2], g.d1y()[1:-1] @ pv[..., 1:-1]])

    y = momentum_residual(np.moveaxis(u.values[1:], -1, 0), setup, centred_gradient, u0=u0)
    return VectorField.from_interior(g, np.moveaxis(y, 0, -1))


# ---------------------------------------------------------------------------
# reference forward solver (twin-experiment truth)

@dataclass
class ReferenceSolution:
    """Truth trajectory in control form plus its assembled state fields."""

    u: VectorField
    p: ScalarField
    control: ControlVector
    sup_residual: float
    tol_ref: float


_CGLS_TOL = 1e-13  # CGLS stops at |A^T P r| <= _CGLS_TOL |A^T P b|


def _fast_diagonalization(dy, dx, null_mode):
    """dy^T dy (x) I + I (x) dx^T dx diagonalized: vy, vx, vx^T and 1 / eigenvalue.

    vy, vx are the eigenvectors of the two terms, all four read-only and
    C-contiguous.  With null_mode the smallest eigenvalue, a constant null
    mode, gets inverse 0.
    """
    (ly, vy), (lx, vx) = np.linalg.eigh(dy.T @ dy), np.linalg.eigh(dx.T @ dx)
    lam = ly[:, None] + lx
    if null_mode:
        lam[0, 0] = np.inf
    return _frozen(vy), _frozen(vx), _frozen(vx.T), _frozen(1.0 / lam)


def _diagonalized_solve(s, vy, vx, vx_t, inv, out=None):
    """The Kronecker-sum inverse of _fast_diagonalization applied to s (..., ny, nx).

    Written into out when given, which must not overlap s.
    """
    a = vy.T @ s
    b = np.matmul(a, vx, out=out)
    b *= inv
    np.matmul(vy, b, out=a)
    return np.matmul(a, vx_t, out=b)


@lru_cache(maxsize=None)
def _pressure_gradient_factors(grid):
    """The 1D matrices dy, dx, dx^T of the interior pressure gradient G, G^T G diagonalized.

    G^T G = I (x) dx^T dx + dy^T dy (x) I; its only null mode is the constant.
    """
    dy, dx = _d1_matrix(grid.ny - 2, grid.hy), _d1_matrix(grid.nx - 2, grid.hx)
    return (dy, dx, _frozen(dx.T)) + _fast_diagonalization(dy, dx, null_mode=True)


@lru_cache(maxsize=None)
def _curl_gram_factors(grid):
    """C^T C diagonalized, C = velocity_map on one level.

    velocity_map_transpose(velocity_map(psi)) = d1y^T d1y psi + psi d1x^T d1x
    exactly, with the interior blocks d1y, d1x velocity_map_transpose uses.
    """
    d1x, d1y = grid.d1x()[1:-1, 2:-2], grid.d1y()[1:-1, 2:-2]
    return _fast_diagonalization(d1y, d1x, null_mode=False)


@lru_cache(maxsize=None)
def _time_gram_inverse(nt):
    """(B^T B)^-1 over levels 1..nt, read-only: entries 1 + min(i, j).

    B is the unit backward difference with level 0 fixed; its inverse L is
    the lower-triangular matrix of ones, and (B^T B)^-1 = L L^T.
    """
    idx = np.arange(nt)
    out = 1.0 + np.minimum.outer(idx, idx)
    out.flags.writeable = False
    return out


def stream_metric_inverse(psi, grid, out=None):
    """M_psi^-1 psi for M_psi = (B^T B) (x) (C^T C), psi (nt, ny-4, nx-4).

    M_psi is the Gram matrix of the residual's leading stream-function term,
    the backward time difference of velocity_map, up to the factor 1/dt^2:
    C^T C inverted per level by the fast diagonalization of
    _curl_gram_factors, in tiles of levels, then one cached nt x nt product
    over the levels, written into out (C-contiguous) when given.
    Symmetric.
    """
    nt, factors = psi.shape[0], _curl_gram_factors(grid)
    levels = np.empty(psi.shape)
    _over_levels(lambda lo, hi: _diagonalized_solve(psi[lo:hi], *factors, out=levels[lo:hi]),
                 nt, grid)
    if out is None:
        out = np.empty(psi.shape)
    np.matmul(_time_gram_inverse(nt), levels.reshape(nt, -1), out=out.reshape(nt, -1))
    return out


@lru_cache(maxsize=None)
def _pressure_metric_factors(grid, kappa):
    """vy, vx, vx^T of _pressure_gradient_factors and 1 / (h^2 lambda + kappa), 1 on the constant.

    lambda are the eigenvalues of G^T G and h = min(hx, hy).
    """
    vy, vx, vx_t, inv = _pressure_gradient_factors(grid)[3:]
    out = inv / (min(grid.hx, grid.hy) ** 2 + kappa * inv)
    out[0, 0] = 1.0
    return vy, vx, vx_t, _frozen(out)


def pressure_metric_inverse(pr, grid, kappa, out=None):
    """(h^2 G^T G + kappa I)^-1 pr per level, pr (n, ny-2, nx-2), h = min(hx, hy).

    h^2 G^T G is the Gram matrix of the residual's pressure term in the
    pressure block scaled by h (optim.preconditioner_scales), and kappa > 0
    bounds its inverse where h G is small.  The constant, G's null mode on
    every level, is mapped to itself.  Applied through the fast
    diagonalization of _pressure_gradient_factors, in tiles of levels, and
    written into out when given; symmetric.
    """
    factors = _pressure_metric_factors(grid, kappa)
    if out is None:
        out = np.empty(pr.shape)
    _over_levels(lambda lo, hi: _diagonalized_solve(pr[lo:hi], *factors, out=out[lo:hi]),
                 pr.shape[0], grid)
    return out


def _pressure_fit(v, grid):
    """(G^T G)^+ G^T v: the minimum-norm pressure whose gradient best fits v."""
    return _diagonalized_solve(pressure_gradient_transpose(v, grid),
                               *_pressure_gradient_factors(grid)[3:])


def _level_lstsq(psi, b, a, setup):
    """min over one level's psi of |P (A psi - b)|, by preconditioned CGLS from psi.

    P = I - G (G^T G)^+ G^T projects out the pressure gradient.  A is
    momentum_operator on velocity_map from a zero initial slice, plus the
    advection lagged in a unless a is None.  The preconditioner is the
    curl Gram C^T C of velocity_map: the time difference dominates A, so
    A^T P A is close to C^T C / dt^2.  Stops at |A^T P r| <= _CGLS_TOL
    |A^T P b|; raises SolverError after as many iterations as unknowns.
    """
    g, nu = setup.grid, setup.nu
    factors = _curl_gram_factors(g)

    def apply(x):  # P A x
        u = velocity_map(x, g)
        y = momentum_operator(u, g, nu)
        if a is not None:
            y += advection(a, velocity_gradient(u, g))
        return y - pressure_gradient(_pressure_fit(y, g), g)

    def apply_transpose(y):  # A^T y
        ubar = momentum_operator_transpose(y, g, nu)
        if a is not None:
            velocity_gradient_transpose(advection_transpose_grad_b(y, a), g, ubar)
        return velocity_map_transpose(ubar, g)

    r = b - pressure_gradient(_pressure_fit(b, g), g)  # P b
    s = apply_transpose(r)
    stop = _CGLS_TOL ** 2 * dot(s, s)
    r -= apply(psi)
    s = apply_transpose(r)
    d = _diagonalized_solve(s, *factors)
    gamma = dot(s, d)
    for _ in range(psi.size):
        if dot(s, s) <= stop:
            return psi
        q = apply(d)
        alpha = gamma / dot(q, q)
        psi = psi + alpha * d
        r -= alpha * q
        s = apply_transpose(r)
        z = _diagonalized_solve(s, *factors)
        gamma, gamma_prev = dot(s, z), gamma
        d = z + (gamma / gamma_prev) * d
    if dot(s, s) > stop:
        raise SolverError(f"reference level solve did not converge in {psi.size} iterations")
    return psi


def reference_solve(setup, tol_ref=None, advection_sweeps=3):
    """Stream-function time stepping producing the twin-experiment truth.

    Marches levels 1..nt: diffusion implicit in the new level, advection
    explicit in an advecting field refreshed over a fixed number of lagged
    sweeps.  The clamped stream-function space over-determines the interior
    momentum collocation, so each level and sweep takes the least-squares
    step of _level_lstsq, started from the previous level.  The pressure is
    the least-squares fit of its gradient to the remaining momentum terms,
    all levels at once, normalized to zero trapezoidal mean.

    The achieved sup-norm of the momentum residual is reported on the
    returned solution together with tol_ref (default 1e-3 times the data
    scale).  The clamped parametrization pins the tangential velocity to
    zero on the first interior layer, which keeps the attainable residual
    at a viscosity- and amplitude-dependent floor; bundled configurations
    pick a tol_ref the grid can actually meet.
    """
    g = setup.grid
    umax = max(1.0, float(np.abs(setup.u0).max()))
    cfl = 0.5 * min(g.hx, g.hy) / umax
    if g.dt > cfl:
        raise SolverError(
            f"dt={g.dt:.4g} violates the advective CFL bound {cfl:.4g}; "
            "increase nt or shrink t_end")

    f = np.moveaxis(setup.f.values[:, 1:-1, 1:-1], -1, 0)
    u_adv = np.moveaxis(setup.u0, -1, 0)[:, None]
    psi = np.zeros((g.nt + 1, g.ny - 4, g.nx - 4))  # level 0 starts level 1
    if advection_sweeps < 1:
        raise ConfigurationError(f"advection_sweeps must be at least 1, got {advection_sweeps}")
    sweeps = advection_sweeps if setup.include_advection else 1
    for k in range(1, g.nt + 1):
        b = u_adv[..., 1:-1, 1:-1] / g.dt + f[:, k:k + 1]
        psi[k] = psi[k - 1]
        for _ in range(sweeps):
            a = u_adv[..., 1:-1, 1:-1] if setup.include_advection else None
            psi[k:k + 1] = _level_lstsq(psi[k:k + 1], b, a, setup)
            u_adv = velocity_map(psi[k:k + 1], g)

    target = -momentum_residual(velocity_map(psi[1:], g), setup)
    control = ControlVector(g, psi[1:], _pressure_fit(target, g)).normalized()
    u, p = state_from_control(control, setup)
    sup_res = float(np.abs(residual_y(u, p, setup).values).max())
    if tol_ref is None:
        tol_ref = 1e-3 * max(1.0, float(np.abs(u.values).max()),
                             float(np.abs(setup.f.values).max()))
    return ReferenceSolution(u, p, control, sup_res, tol_ref)


# ---------------------------------------------------------------------------
# presets used by the CLI and tests

def stream_bump(grid, amplitude=1.0, power=2):
    """Tensor-product bump sin^power(pi x/lx) sin^power(pi y/ly), clamped.

    The boundary layer and first interior layer are zeroed, so the curl of
    the result lies exactly in the control parametrization.
    """
    xx, yy = grid.mesh()
    psi = amplitude * np.sin(np.pi * xx / grid.lx) ** power \
        * np.sin(np.pi * yy / grid.ly) ** power
    psi[:2, :] = 0.0
    psi[-2:, :] = 0.0
    psi[:, :2] = 0.0
    psi[:, -2:] = 0.0
    return psi


def initial_velocity_preset(grid, name, amplitude):
    """Built-in initial data: 'zero' or a clamped no-flow-through 'vortex'."""
    if name == "zero":
        return np.zeros((grid.ny, grid.nx, 2))
    if name == "vortex":
        u = curl_kernel(stream_bump(grid, amplitude, power=2)[None], grid)[0]
        return np.pad(u[1:-1, 1:-1], ((1, 1), (1, 1), (0, 0)))  # no-slip: a zero ring
    raise ConfigurationError(f"unknown u0 preset {name!r}")


def forcing_preset(grid, name, amplitude):
    """Built-in forcings: 'none' or 'swirl', the 'vortex' velocity held steady."""
    if name == "none":
        return VectorField.zeros(grid)
    if name == "swirl":
        f_slice = initial_velocity_preset(grid, "vortex", amplitude)
        return VectorField(grid, np.broadcast_to(f_slice, (grid.nt + 1,) + f_slice.shape).copy())
    raise ConfigurationError(f"unknown forcing preset {name!r}")
