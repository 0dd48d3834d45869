"""Misfit assembly, its forward-mode tangent and its exact reverse-mode gradient.

The p-misfit of a control is

    (1 - lam) * |K(state)|_p  +  lam * |residual(state)|_p

with averaged dotted norms over interior nodes at levels 1..nt, and the
sup-misfit is the same combination with maxima.  The gradient is the exact
transpose of the assembly chain (differentiate-the-discretization): norm
derivative -> dual weights -> observation derivatives and linearized
momentum operator (including the advection linearization
(u.D)du + (du.D)u) -> state-map transposes.  The p^-2 regularization
channel is differentiated too, through the regularized pointwise
magnitude; dropping it breaks finite-difference agreement for small
fields.

No stencil arithmetic lives here: the chain calls the nse operators and
eval_K_jvp/eval_K_vjp, each transpose the literal matrix transpose of its
forward map, so analytic directional derivatives match central finite
differences to the tolerance set by floating-point cancellation alone.

tangent_from_state is the forward-mode derivative of the chain along one
control direction and adjoint_from_state its transpose for arbitrary
cotangents of K and of the residual; gradient_from_state feeds the scaled
dual weights to the latter.  The pair passes the dot-product test
<J dc, (kbar, ybar)> = <dc, J^T (kbar, ybar)> to round-off.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import ScalarField, VectorField
from .norms import (
    PExponent, dual_factor, lp_norm_from_magnitudes, magnitudes, reg_abs,
)
from .nse import (
    advection, advection_transpose_a, advection_transpose_grad_b, momentum_operator,
    momentum_operator_transpose, momentum_terms_kernel, pressure_map, state_from_control,
    state_map_transpose, velocity_gradient, velocity_gradient_transpose, velocity_map,
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
    u_int: np.ndarray       # interior velocity, (2, nt, ny-2, nx-2)
    grad_u: np.ndarray      # its spatial gradient, (4, nt, ny-2, nx-2)
    weight: float           # uniform quadrature weight
    _lp: dict = field(default_factory=dict, repr=False, compare=False)  # p -> lp_norms(p)

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
    v = np.moveaxis(u.values[1:], -1, 0)
    grad_u = velocity_gradient(v, g)
    y_int = (momentum_terms_kernel(u.values, pfield.values, setup, grad_u=grad_u)
             - setup.f.values[1:, 1:-1, 1:-1])

    yvals = np.zeros_like(u.values)
    yvals[1:, 1:-1, 1:-1] = y_int
    k_int = eval_K_kernel(u.values[1:, 1:-1, 1:-1], np.moveaxis(grad_u, 0, -1), model)

    return AssembledState(
        u=u, p=pfield, y=VectorField(g, yvals), K=ObsField(g, k_int), y_int=y_int,
        u_int=v[..., 1:-1, 1:-1], grad_u=grad_u, weight=g.interior_weight())


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
    axis *first*, as in the nse operators: component i of a field shaped
    (..., c) elsewhere is a[i] here.
    """

    u: np.ndarray       # velocity, (2, nt, ny-2, nx-2)
    grad_u: np.ndarray  # its spatial gradient, (4, nt, ny-2, nx-2)
    K: np.ndarray       # observation misfit, (N, nt, ny-2, nx-2)
    y: np.ndarray       # momentum residual, (2, nt, ny-2, nx-2)


def tangent_from_state(state, setup, model, dc):
    """Derivative of (u, grad u, K, residual) at the assembled state along dc.

    The state maps, then momentum_operator with a zero initial slice and
    the advection linearized as (du.D)u + (u.D)du, then eval_K_jvp.
    adjoint_from_state is its exact transpose.  A block of dc that is
    identically zero moves nothing, so its state map is skipped.
    """
    g = setup.grid
    u, gu = state.u_int, state.grad_u
    v = velocity_map(dc.psi, g) if dc.psi.any() else None
    # with both blocks zero the pressure map still runs, to give dy its shape
    dp = pressure_map(dc.pr, g) if dc.pr.any() or v is None else None
    dy = momentum_operator(v, dp, g, setup.nu)
    if v is None:
        du, dgrad = np.zeros(u.shape), np.zeros(gu.shape)
        return Tangent(u=du, grad_u=dgrad, K=np.zeros((model.n,) + u.shape[1:]), y=dy)
    du, dgrad = v[..., 1:-1, 1:-1], velocity_gradient(v, g)
    if setup.include_advection:
        dy += advection(du, gu)
        dy += advection(u, dgrad)
    return Tangent(u=du, grad_u=dgrad, K=eval_K_jvp(u, du, dgrad, model), y=dy)


def adjoint_from_state(state, setup, model, kbar, ybar):
    """Transpose of tangent_from_state: cotangents of K and y -> control.

    kbar is shaped like state.K.values and ybar like state.y_int, with the
    component axis last; either may be None for a zero cotangent.  The
    steps of the tangent in reverse order; returns a ControlVector.
    """
    g = setup.grid
    u, gu = state.u_int, state.grad_u
    ybar = np.zeros(u.shape) if ybar is None else np.ascontiguousarray(np.moveaxis(ybar, -1, 0))
    ubar, pbar = momentum_operator_transpose(ybar, g, setup.nu)
    gbar = np.zeros(gu.shape)
    if setup.include_advection:
        ubar[..., 1:-1, 1:-1] += advection_transpose_a(ybar, gu)
        gbar = advection_transpose_grad_b(ybar, u)
    if kbar is not None:
        eval_K_vjp(u, np.moveaxis(kbar, -1, 0), model, ubar[..., 1:-1, 1:-1], gbar)
    velocity_gradient_transpose(gbar, g, ubar)
    return state_map_transpose(ubar, pbar, g)


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
