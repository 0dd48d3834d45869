"""Observation operators, measured data, and the misfit map with derivatives.

Three built-in observation kinds are provided:

* ``masked-velocity``: the velocity itself, observed at a sparse set of
  spatial nodes; misfit is (u - q) on masked nodes, zero elsewhere.
* ``vorticity``: the scalar curl du2/dx - du1/dy.
* ``speed-squared``: |u|^2.

All built-ins depend only on the state and its spatial gradient, never on
the time derivative or the pressure, so every diagnostic that requires that
restriction applies.  Observation-space fields live on interior nodes at
levels 1..nt, sharing the residual quadrature.  The misfit eval_K, its
tangent eval_K_jvp and their transpose eval_K_vjp work component axis
first, like the nse operators; data_q and ObsField keep it last.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, check_finite
from .nse import velocity_gradient

KINDS = ("masked-velocity", "vorticity", "speed-squared")

_N_COMPONENTS = {"masked-velocity": 2, "vorticity": 1, "speed-squared": 1}
_READS_GRADIENT = ("vorticity",)  # kinds whose Q depends on the velocity gradient


def n_components(kind):
    if kind not in KINDS:
        raise ConfigurationError(f"unknown observation kind {kind!r}")
    return _N_COMPONENTS[kind]


def default_mask(grid, stride=4):
    """Observe every stride-th node in each direction."""
    if stride < 1:
        raise ConfigurationError(f"mask stride must be >= 1, got {stride}")
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    mask[::stride, ::stride] = True
    return mask


@dataclass
class ObservationModel:
    """An observation kind, its data q, and (for masked kinds) the mask.

    data_q is shaped (nt, ny-2, nx-2, N) over interior nodes and time levels
    1..nt.
    """

    kind: str
    grid: GridSpec
    data_q: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        n = n_components(self.kind)
        expected = (self.grid.nt, self.grid.ny - 2, self.grid.nx - 2, n)
        self.data_q = np.asarray(self.data_q, dtype=np.float64)
        if self.data_q.shape != expected:
            raise ConfigurationError(
                f"data_q shape {self.data_q.shape} != {expected} for kind {self.kind!r}")
        check_finite(self.data_q, "observation data")
        if self.kind == "masked-velocity":
            if self.mask is None:
                raise ConfigurationError("masked-velocity requires a mask")
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != (self.grid.ny, self.grid.nx):
                raise ConfigurationError(
                    f"mask shape {self.mask.shape} != {(self.grid.ny, self.grid.nx)}")
            if not self.mask[1:-1, 1:-1].any():
                raise ConfigurationError("mask selects no interior node")

    @property
    def n(self):
        return n_components(self.kind)

    @property
    def reads_gradient(self):
        """Whether Q depends on the velocity gradient, so eval_K_vjp writes gbar."""
        return self.kind in _READS_GRADIENT

    def interior_mask(self):
        return self.mask[1:-1, 1:-1]


@dataclass
class ObsField:
    """Observation-space samples on interior nodes, levels 1..nt."""

    grid: GridSpec
    values: np.ndarray  # (nt, ny-2, nx-2, N)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 4 or self.values.shape[:3] != (
                self.grid.nt, self.grid.ny - 2, self.grid.nx - 2):
            raise ConfigurationError(
                f"observation field shape {self.values.shape} does not match grid")
        check_finite(self.values, "observation field")


def eval_K(u, grad_u, model, first=0, out=None):
    """Misfit K = Q(state) - q at interior nodes, levels 1..nt.

    Component axis first: u is the interior velocity (2, n, ny-2, nx-2) at
    levels first+1..first+n, all of them by default, grad_u its spatial
    gradient (4, ...) in velocity_gradient's order; the result is shaped
    (N, ...) and written into out when given.  eval_K_jvp is its tangent.
    """
    kind = model.kind
    q = np.moveaxis(model.data_q[first:first + u.shape[1]], -1, 0)
    if out is None:
        out = np.empty(q.shape)
    if kind == "masked-velocity":
        np.subtract(u, q, out=out)
        out *= model.interior_mask()
    elif kind == "vorticity":
        np.subtract(grad_u[2], grad_u[1], out=out[0])
        out -= q
    elif kind == "speed-squared":
        np.square(u[0], out=out[0])
        out[0] += np.square(u[1])
        out -= q
    else:
        raise ConfigurationError(f"unknown observation kind {kind!r}")
    return out


def eval_K_jvp(u, du, dgrad, model):
    """Tangent of K at the state u along (du, dgrad), component axis first.

    u and du are velocities shaped (2, nt, ny-2, nx-2), dgrad the tangent
    of the spatial gradient (4, nt, ny-2, nx-2), all on interior nodes; the
    result is shaped (N, nt, ny-2, nx-2).  eval_K_vjp is its transpose.
    """
    kind = model.kind
    if kind == "masked-velocity":
        return du * model.interior_mask()
    if kind == "vorticity":
        return (dgrad[2] - dgrad[1])[None]
    if kind == "speed-squared":
        return (2.0 * (u[0] * du[0] + u[1] * du[1]))[None]
    raise ConfigurationError(f"unknown observation kind {kind!r}")


def eval_K_vjp(u, kbar, model, ubar, gbar):
    """Transpose of eval_K_jvp: add the cotangents of K to ubar and gbar.

    Component axis first, as in eval_K_jvp: u is the interior velocity
    (2, nt, ny-2, nx-2), kbar is shaped like the tangent of K (N, ...), and
    the velocity and gradient cotangents ubar (2, ...) and gbar (4, ...) are
    updated in place; gbar may be None unless model.reads_gradient.  The
    Jacobian entries are 0, +-1 and 2u, so each product is exact or a
    single rounding.
    """
    kind = model.kind
    if kind == "masked-velocity":
        ubar += kbar * model.interior_mask()
    elif kind == "vorticity":
        gbar[1] -= kbar[0]
        gbar[2] += kbar[0]
    elif kind == "speed-squared":
        prod = np.multiply(u, 2.0)
        prod *= kbar
        ubar += prod
    else:
        raise ConfigurationError(f"unknown observation kind {kind!r}")


def synth_data(u_truth, kind, noise_amplitude, seed, mask_stride=4):
    """Twin-experiment data: q = Q(truth) + noise_amplitude * xi.

    xi is i.i.d. uniform on [-1, 1] from a generator seeded with `seed`, so
    the data is deterministic given the seed and bounded by the amplitude.
    With zero amplitude the misfit of the truth state vanishes identically.
    """
    if noise_amplitude < 0.0:
        raise ConfigurationError(f"noise amplitude must be >= 0, got {noise_amplitude}")
    grid = u_truth.grid
    mask = default_mask(grid, mask_stride) if kind == "masked-velocity" else None
    u = np.moveaxis(u_truth.values[1:], -1, 0)
    probe = ObservationModel(
        kind, grid, np.zeros((grid.nt, grid.ny - 2, grid.nx - 2, n_components(kind))),
        mask=mask)
    q = np.moveaxis(eval_K(u[..., 1:-1, 1:-1], velocity_gradient(u, grid), probe), 0, -1)
    if noise_amplitude > 0.0:
        rng = np.random.default_rng(seed)
        q = q + noise_amplitude * rng.uniform(-1.0, 1.0, size=q.shape)
    return ObservationModel(kind, grid, q, mask=mask)
