"""Misfit assembly, its forward-mode tangent and its exact reverse-mode gradient.

The p-misfit of a control is

    (1 - lam) * |K(state)|_p  +  lam * |residual(state)|_p

with averaged dotted norms over interior nodes at levels 1..nt, and the
sup-misfit is the same combination with maxima.  The gradient is the exact
transpose of the assembly chain (differentiate-the-discretization): norm
derivative -> dual weights -> observation derivatives and linearized
momentum operator (including the advection linearization
(u.D)du + (du.D)u) -> curl and zero-mean-projection transposes.  The
p^-2 regularization channel is differentiated too, through the regularized
pointwise magnitude; dropping it breaks finite-difference agreement for
small fields.

Every stencil transpose is the literal matrix transpose of the forward 1D
operator, so analytic directional derivatives match central finite
differences to the tolerance set by floating-point cancellation alone.

tangent_from_state is the forward-mode derivative of the same chain along
one control direction and adjoint_from_state its transpose for arbitrary
cotangents of K and of the residual; gradient_from_state feeds the scaled
dual weights to the latter.  The pair passes the dot-product test
<J dc, (kbar, ybar)> = <dc, J^T (kbar, ybar)> to round-off.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import (
    ScalarField, VectorField, curl_transpose_kernel, gradient_kernel,
    gradient_transpose_kernel, laplacian_transpose_kernel,
    scalar_gradient_transpose_kernel, zero_boundary_ring,
    zero_mean_transpose_kernel,
)
from .norms import (
    PExponent, dual_factor, lp_norm_from_magnitudes, magnitudes, reg_abs,
)
from .nse import (
    ControlVector, extend_interior_transpose, momentum_terms_kernel, pressure_map,
    state_from_control, velocity_map,
)
from .observation import ObsField, eval_K_jvp, eval_K_kernel, eval_K_vjp


@dataclass
class MisfitReport:
    """One misfit evaluation: total, both channel terms, and sup norms."""

    p: PExponent
    e_p: float
    term_K: float
    term_y: float
    sup_K: float
    sup_y: float

    def __post_init__(self):
        if abs(self.e_p - (self.term_K + self.term_y)) > 1e-12 * max(1.0, abs(self.e_p)):
            raise ConfigurationError("misfit terms do not sum to the total")


@dataclass
class AssembledState:
    """Forward chain intermediates shared by value, gradient, diagnostics."""

    u: VectorField
    p: ScalarField
    y: VectorField          # full-grid residual field, ring and level 0 zero
    K: ObsField
    y_int: np.ndarray       # (nt, ny-2, nx-2, 2)
    grad_u: np.ndarray      # (nt, ny, nx, 4), levels 1..nt
    weight: float           # uniform quadrature weight
    _lp: dict = field(default_factory=dict, repr=False, compare=False)  # p -> lp_norms(p)
    _components: tuple = field(default=None, repr=False, compare=False)

    def channels(self):
        """The K and y samples as flat (n, m) arrays, in that order."""
        return tuple(v.reshape(-1, v.shape[-1]) for v in (self.K.values, self.y_int))

    def lp_norms(self, p):
        """(r, norm) per channel (K, y): regularized magnitudes and p-norm.

        Computed once per finite exponent and shared by the report and the
        gradient, with the arithmetic of dotted_lp_norm on the same samples
        (equal to the bit).  The samples were checked finite when
        VectorField and ObsField were built, so nothing is validated here.
        """
        out = self._lp.get(p.value)
        if out is None:
            out = tuple((r, lp_norm_from_magnitudes(r, self.weight, p.value))
                        for r in (reg_abs(flat, p) for flat in self.channels()))
            self._lp[p.value] = out
        return out

    def interior_components(self):
        """Interior u and grad_u, component axis first and contiguous.

        Built once per state for tangent_from_state, whose pointwise
        products run several times faster on separate components than
        on the interleaved trailing axis.
        """
        if self._components is None:
            self._components = tuple(
                np.ascontiguousarray(np.moveaxis(a[:, 1:-1, 1:-1], -1, 0))
                for a in (self.u.values[1:], self.grad_u))
        return self._components

    def dual_weights(self, p):
        """Dual-weight maps of the K and y channels, shaped like their fields.

        Equal to the bit to dual_weight on the same samples.
        """
        return tuple(
            (flat * dual_factor(r, norm, p.value)[:, None]).reshape(v.shape)
            for v, flat, (r, norm) in zip(
                (self.K.values, self.y_int), self.channels(), self.lp_norms(p)))


def assemble_state(c, setup, model):
    """Run the forward chain once: state, residual, misfit fields."""
    g = setup.grid
    if model.grid != g:
        raise ConfigurationError("observation grid does not match setup grid")
    u, pfield = state_from_control(c, setup)
    grad_u = gradient_kernel(u.values[1:], g)
    expr = momentum_terms_kernel(u.values, pfield.values, setup, grad_u=grad_u)
    y_int = expr[:, 1:-1, 1:-1] - setup.f.values[1:, 1:-1, 1:-1]

    yvals = np.zeros_like(u.values)
    yvals[1:, 1:-1, 1:-1] = y_int
    k_int = eval_K_kernel(u.values[1:, 1:-1, 1:-1], grad_u[:, 1:-1, 1:-1], model)

    return AssembledState(
        u=u, p=pfield, y=VectorField(g, yvals), K=ObsField(g, k_int),
        y_int=y_int, grad_u=grad_u, weight=g.interior_weight())


def report_from_state(state, setup, p):
    """Misfit report at exponent p (finite or infinite) for assembled state."""
    p = p if isinstance(p, PExponent) else PExponent(float(p))
    s_k, s_y = (float(np.max(magnitudes(flat))) for flat in state.channels())
    if p.is_finite:
        (_, n_k), (_, n_y) = state.lp_norms(p)
    else:
        n_k, n_y = s_k, s_y
    term_k = (1.0 - setup.lam) * n_k
    term_y = setup.lam * n_y
    return MisfitReport(p=p, e_p=term_k + term_y, term_K=term_k, term_y=term_y,
                        sup_K=s_k, sup_y=s_y)


@dataclass
class Tangent:
    """Forward-mode derivative of the chain along one control direction.

    Every array lives on interior nodes at levels 1..nt with the component
    axis *first*: component i of a field shaped (..., c) elsewhere is
    a[i] here.  Pointwise products and dot products over separate
    components run on unit-stride memory, several times faster than over
    an interleaved trailing axis.
    """

    u: np.ndarray       # velocity, (2, nt, ny-2, nx-2)
    grad_u: np.ndarray  # its spatial gradient, (4, nt, ny-2, nx-2)
    K: np.ndarray       # observation misfit, (N, nt, ny-2, nx-2)
    y: np.ndarray       # momentum residual, (2, nt, ny-2, nx-2)


def tangent_from_state(state, setup, model, dc):
    """Derivative of (u, grad u, K, residual) at the assembled state along dc.

    The state map is linear in the control; the momentum residual is
    linearized with a zero initial slice and (u.D)du + (du.D)u for the
    advection.  adjoint_from_state is its exact transpose.  A block of dc
    that is identically zero moves nothing, so its part of the chain is
    skipped.  Only interior values are needed, so each stencil applies the
    interior rows of its 1D matrix, writing into one block of output
    memory where it can: few large temporaries keep repeated calls cheap.
    """
    g = setup.grid
    u, gu = state.interior_components()
    block = np.zeros((8,) + u.shape[1:])
    du, dgrad, dy = block[:2], block[2:6], block[6:]
    k = np.zeros((model.n,) + u.shape[1:])
    d1x, d1y = g.d1x()[1:-1], g.d1y()[1:-1]
    if dc.psi.any():
        v = velocity_map(dc.psi, g)
        vx, vy = v[:, :, 1:-1], v[..., 1:-1]  # interior rows, interior columns
        du[:] = v[:, :, 1:-1, 1:-1]
        # gradient_kernel's component order: du1/dx, du1/dy, du2/dx, du2/dy
        np.matmul(vx, d1x.T, out=dgrad[0::2])
        np.matmul(d1y, vy, out=dgrad[1::2])
        lap = np.matmul(vx, g.d2x()[1:-1].T)
        lap += np.matmul(g.d2y()[1:-1], vy)
        lap *= setup.nu
        dy[:, 0] = du[:, 0]
        np.subtract(du[:, 1:], du[:, :-1], out=dy[:, 1:])
        dy /= g.dt
        dy -= lap
        if setup.include_advection:
            prod = lap[0]
            for i in range(2):
                for a, b in ((du[0], gu[2 * i]), (du[1], gu[2 * i + 1]),
                             (u[0], dgrad[2 * i]), (u[1], dgrad[2 * i + 1])):
                    dy[i] += np.multiply(a, b, out=prod)
        k = eval_K_jvp(u, du, dgrad, model)
    if dc.pr.any():
        dp = pressure_map(dc.pr, g)
        dy[0] += dp[:, 1:-1] @ d1x.T
        dy[1] += d1y @ dp[:, :, 1:-1]
    return Tangent(u=du, grad_u=dgrad, K=k, y=dy)


def adjoint_from_state(state, setup, model, kbar, ybar):
    """Transpose of tangent_from_state: cotangents of K and y -> control.

    kbar is shaped like state.K.values and ybar like state.y_int, with the
    component axis last; either may be None for a zero cotangent.  Returns
    a ControlVector.
    """
    g = setup.grid
    nt = g.nt
    u_slab = state.u.values[1:]
    ubar = np.zeros((nt, g.ny, g.nx, 2))
    pbar = np.zeros((nt, g.ny, g.nx))
    gbar = np.zeros((nt, g.ny, g.nx, 4))

    if ybar is not None:
        y_full = np.zeros((nt, g.ny, g.nx, 2))
        y_full[:, 1:-1, 1:-1] = ybar
        ybar = y_full

        # backward time difference: level k feeds residuals k and k+1
        ubar += ybar / g.dt
        ubar[:-1] -= ybar[1:] / g.dt
        ubar[..., 0] -= setup.nu * laplacian_transpose_kernel(ybar[..., 0], g)
        ubar[..., 1] -= setup.nu * laplacian_transpose_kernel(ybar[..., 1], g)
        if setup.include_advection:
            gu = state.grad_u
            ubar[..., 0] += ybar[..., 0] * gu[..., 0] + ybar[..., 1] * gu[..., 2]
            ubar[..., 1] += ybar[..., 0] * gu[..., 1] + ybar[..., 1] * gu[..., 3]
            u1, u2 = u_slab[..., 0], u_slab[..., 1]
            gbar[..., 0] += u1 * ybar[..., 0]
            gbar[..., 1] += u2 * ybar[..., 0]
            gbar[..., 2] += u1 * ybar[..., 1]
            gbar[..., 3] += u2 * ybar[..., 1]
        pbar += scalar_gradient_transpose_kernel(ybar, g)

    if kbar is not None:
        eval_K_vjp(u_slab[:, 1:-1, 1:-1], kbar, model,
                   ubar[:, 1:-1, 1:-1], gbar[:, 1:-1, 1:-1])

    ubar += gradient_transpose_kernel(gbar, g)
    return state_map_transpose(ubar, pbar, g)


def state_map_transpose(ubar, pbar, grid):
    """Transpose of nse.velocity_map and nse.pressure_map: cotangents -> control.

    ubar (nt, ny, nx, 2) and pbar (nt, ny, nx) are cotangents of the
    velocity and pressure at levels 1..nt.  Ring zeroing, curl, zero-mean
    projection and extension, transposed.
    """
    psi_bar = curl_transpose_kernel(zero_boundary_ring(ubar), grid)[:, 2:-2, 2:-2]
    pr_bar = extend_interior_transpose(zero_mean_transpose_kernel(pbar, grid), grid)
    return ControlVector(grid, psi_bar, pr_bar)


def gradient_from_state(state, setup, model, p):
    """Exact gradient of the p-misfit with respect to the control DOFs.

    adjoint_from_state applied to the dual weights of both channels, scaled
    by their misfit weights and the quadrature weight; passing either
    cotangent alone to adjoint_from_state gives that channel's gradient.
    """
    p = p if isinstance(p, PExponent) else PExponent(float(p))
    if not p.is_finite:
        raise ConfigurationError("the sup-misfit is not differentiable; use finite p")
    w = state.weight
    m_k, m_y = state.dual_weights(p)
    return adjoint_from_state(state, setup, model, ((1.0 - setup.lam) * w) * m_k,
                              (setup.lam * w) * m_y)
