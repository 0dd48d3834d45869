"""Uniform space-time grids, field containers, and finite-difference kernels.

The domain is a node-centered rectangle [0,lx] x [0,ly] sampled at nx x ny
nodes, with nt time levels after t = 0 (level 0 holds initial data).  All
spatial derivatives are second-order: centered three-point stencils at
interior nodes, one-sided second-order stencils at boundary nodes.  The
kernels here (curl, gradient, divergence, zero-mean projection) act on raw
full-grid arrays over the trailing (ny, nx[, component]) axes.  The
momentum operator, the interior velocity gradient and the advection term,
each with its transpose, live in nse: they apply only the interior rows of
the 1D matrices.

Derivative operators along each axis are dense 1D matrices applied by
matmul, so operators acting on different axes commute exactly.  That makes
the discrete divergence of a stream-function curl vanish to round-off,
which is what keeps the velocity parametrization exactly solenoidal.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, InvalidFieldError


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time sampling of the domain rectangle.

    nx, ny   node counts per spatial axis (>= 5, centered stencils need two
             interior layers)
    nt       number of time levels strictly after t = 0 (>= 2)
    lx, ly   domain side lengths
    t_end    final time
    """

    nx: int
    ny: int
    nt: int
    lx: float = 1.0
    ly: float = 1.0
    t_end: float = 1.0

    def __post_init__(self):
        if self.nx < 5 or self.ny < 5:
            raise ConfigurationError(f"nx, ny must be >= 5, got {self.nx}, {self.ny}")
        if self.nt < 2:
            raise ConfigurationError(f"nt must be >= 2, got {self.nt}")
        for name in ("lx", "ly", "t_end"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ConfigurationError(f"{name} must be positive and finite, got {v}")

    @property
    def hx(self):
        return self.lx / (self.nx - 1)

    @property
    def hy(self):
        return self.ly / (self.ny - 1)

    @property
    def dt(self):
        return self.t_end / self.nt

    def x_nodes(self):
        return np.linspace(0.0, self.lx, self.nx)

    def y_nodes(self):
        return np.linspace(0.0, self.ly, self.ny)

    def t_nodes(self):
        return np.linspace(0.0, self.t_end, self.nt + 1)

    def mesh(self):
        """Spatial meshgrid (X, Y), each of shape (ny, nx)."""
        return np.meshgrid(self.x_nodes(), self.y_nodes(), indexing="xy")

    @property
    def n_interior(self):
        """Number of interior spatial nodes."""
        return (self.ny - 2) * (self.nx - 2)

    def interior_weight(self):
        """Uniform quadrature weight over interior nodes x levels 1..nt.

        The space-time quadrature is the normalized counting measure on
        interior nodes at time levels 1..nt (sum of weights is one), matching
        the averaged-norm convention used throughout.
        """
        return 1.0 / (self.nt * self.n_interior)

    # 1D derivative matrices, cached per (n, h)
    def d1x(self):
        return _d1_matrix(self.nx, self.hx)

    def d1y(self):
        return _d1_matrix(self.ny, self.hy)

    def d2x(self):
        return _d2_matrix(self.nx, self.hx)

    def d2y(self):
        return _d2_matrix(self.ny, self.hy)


@lru_cache(maxsize=None)
def _d1_matrix(n, h):
    """Dense first-derivative matrix: centered interior, one-sided ends."""
    d = np.zeros((n, n))
    for i in range(1, n - 1):
        d[i, i - 1] = -0.5 / h
        d[i, i + 1] = 0.5 / h
    d[0, 0], d[0, 1], d[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    d[n - 1, n - 1], d[n - 1, n - 2], d[n - 1, n - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def _d2_matrix(n, h):
    """Dense second-derivative matrix: 3-point interior, one-sided ends."""
    d = np.zeros((n, n))
    h2 = h * h
    for i in range(1, n - 1):
        d[i, i - 1] = 1.0 / h2
        d[i, i] = -2.0 / h2
        d[i, i + 1] = 1.0 / h2
    d[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h2
    d[n - 1, n - 4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h2
    d.setflags(write=False)
    return d


def apply_x(a, m):
    """Apply 1D matrix m along the last (x) axis of a."""
    return a @ m.T


def apply_y(a, m):
    """Apply 1D matrix m along the second-to-last (y) axis of a."""
    return np.swapaxes(np.swapaxes(a, -1, -2) @ m.T, -1, -2)


def check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise InvalidFieldError(f"{what} contains non-finite values")


@dataclass
class ScalarField:
    """Scalar samples over all time levels, values shaped (nt+1, ny, nx)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.nt + 1, self.grid.ny, self.grid.nx)
        if self.values.shape != expected:
            raise ConfigurationError(
                f"scalar field shape {self.values.shape} != {expected}")
        check_finite(self.values, "scalar field")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nt + 1, grid.ny, grid.nx)))


@dataclass
class VectorField:
    """Two-component field, values shaped (nt+1, ny, nx, 2).

    Component 0 is the x-velocity u1, component 1 the y-velocity u2.  Time
    level 0 houses initial data.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.nt + 1, self.grid.ny, self.grid.nx, 2)
        if self.values.shape != expected:
            raise ConfigurationError(
                f"vector field shape {self.values.shape} != {expected}")
        check_finite(self.values, "vector field")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nt + 1, grid.ny, grid.nx, 2)))

    @classmethod
    def from_interior(cls, grid, values):
        """Interior values (nt, ny-2, nx-2, 2) at levels 1..nt; ring and level 0 zero."""
        return cls(grid, np.pad(values, ((1, 0), (1, 1), (1, 1), (0, 0))))


# ---------------------------------------------------------------------------
# raw-array kernels

def curl_kernel(psi, grid, axis=-1):
    """(d psi/dy, -d psi/dx) for psi shaped (..., ny, nx), components along axis."""
    return np.stack([apply_y(psi, grid.d1y()), -apply_x(psi, grid.d1x())], axis=axis)


def gradient_kernel(u, grid):
    """Spatial gradient of (..., ny, nx, 2) -> (..., ny, nx, 4)."""
    d1x, d1y = grid.d1x(), grid.d1y()
    u1, u2 = u[..., 0], u[..., 1]
    return np.stack(
        [apply_x(u1, d1x), apply_y(u1, d1y), apply_x(u2, d1x), apply_y(u2, d1y)],
        axis=-1)


def divergence_kernel(u, grid):
    """du1/dx + du2/dy for u shaped (..., ny, nx, 2)."""
    return apply_x(u[..., 0], grid.d1x()) + apply_y(u[..., 1], grid.d1y())


def zero_boundary_ring(u):
    """Zero the boundary-node ring of (..., ny, nx, ncomp) in place-free form."""
    out = u.copy()
    out[..., 0, :, :] = 0.0
    out[..., -1, :, :] = 0.0
    out[..., :, 0, :] = 0.0
    out[..., :, -1, :] = 0.0
    return out


@lru_cache(maxsize=None)
def trapezoid_weights(ny, nx):
    """Normalized trapezoidal quadrature weights on an ny x nx node block.

    Cached per shape and read-only, like the 1D derivative matrices.
    """
    wx = np.ones(nx)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(ny)
    wy[0] = wy[-1] = 0.5
    w = np.outer(wy, wx)
    w = w / w.sum()
    w.setflags(write=False)
    return w


def zero_mean_kernel(p, grid):
    """Subtract the trapezoidal spatial mean from each level of (t, ny, nx)."""
    means = np.einsum("yx,tyx->t", trapezoid_weights(grid.ny, grid.nx), p)
    return p - means[:, None, None]
