"""Misfit assembly, its forward-mode tangent and its exact reverse-mode gradient.

The p-misfit of a control is

    (1 - lam) * |K(state)|_p  +  lam * |residual(state)|_p

with averaged dotted norms over interior nodes at levels 1..nt, and the
sup-misfit is the same combination with maxima.  The gradient is the exact
transpose of the assembly chain (differentiate-the-discretization): norm
derivative -> dual weights -> observation derivatives and linearized
momentum operator (including the advection linearization
(u.D)du + (du.D)u) -> the velocity-map and pressure-gradient transposes.
The p^-2 regularization channel is differentiated too, through the
regularized pointwise magnitude; dropping it breaks finite-difference
agreement for small fields.

The chain has one array layout, the nse operators': interior nodes at
levels 1..nt, component axis first.  The state, K, the residual, their
dual weights and the cotangents all live in it; AssembledState builds its
component-last fields only when the output stage reads them.  The pressure
enters only through nse.pressure_gradient of the control's pressure block;
its field is built for output only.  No stencil arithmetic lives here: the
chain calls the nse operators and eval_K and its derivatives, each
transpose the literal transpose of its forward map.

tangent_from_state is the forward-mode derivative of the chain along one
control direction and adjoint_from_state its transpose for arbitrary
cotangents of K and of the residual; gradient_from_state feeds the scaled
dual weights to the latter.  The pair passes the dot-product test
<J dc, (kbar, ybar)> = <dc, J^T (kbar, ybar)> to round-off.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grid import VectorField, check_finite
from .norms import PExponent, as_exponent, dual_factor, lp_norm_from_squares
from .nse import (
    ControlVector, PhysicsSetup, advection, advection_transpose_a, advection_transpose_grad_b,
    momentum_operator, momentum_operator_transpose, pressure_gradient,
    pressure_gradient_transpose, pressure_map, state_fields, velocity_gradient,
    velocity_gradient_transpose, velocity_map, velocity_map_transpose,
)
from .observation import ObsField, eval_K, eval_K_jvp, eval_K_vjp


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
    """Forward chain intermediates shared by value, gradient, diagnostics.

    The component-last fields u, p, y, y_int and K that the output stage
    writes and measures are built from the chain's arrays on first access.
    """

    setup: PhysicsSetup
    u_full: np.ndarray      # velocity on the full grid, (2, nt, ny, nx)
    pr: np.ndarray          # the control's pressure block, (nt, ny-2, nx-2)
    u_int: np.ndarray       # interior velocity, a view of u_full
    grad_u: np.ndarray      # its spatial gradient, (4, nt, ny-2, nx-2)
    misfit: np.ndarray      # observation misfit K, (N, nt, ny-2, nx-2)
    residual: np.ndarray    # momentum residual, (2, nt, ny-2, nx-2)
    weight: float           # uniform quadrature weight
    _lp: dict = field(default_factory=dict, repr=False, compare=False)  # p -> lp_norms(p)

    def squared_magnitudes(self):
        """|K|^2 and |y|^2 per node, summed as norms.magnitudes and reg_abs do."""
        return tuple(np.einsum("i...,i...->...", v, v) for v in (self.misfit, self.residual))

    def lp_norms(self, p):
        """(r, norm) per channel (K, y): regularized magnitudes and p-norm.

        Computed once per finite exponent (lp_norm_from_squares) and shared
        by the report, the gradient and the diagnostics.
        """
        out = self._lp.get(p.value)
        if out is None:
            out = tuple(lp_norm_from_squares(sq, self.weight, p.value)
                        for sq in self.squared_magnitudes())
            self._lp[p.value] = out
        return out

    def dual_weights(self, p):
        """Dual-weight maps of the K and y channels, shaped like misfit and residual.

        Equal to the bit to dual_weight on the same samples.
        """
        return tuple(v * dual_factor(r, norm, p.value)
                     for v, (r, norm) in zip((self.misfit, self.residual), self.lp_norms(p)))

    @cached_property
    def _fields(self):
        return state_fields(self.u_full, pressure_map(self.pr, self.setup.grid), self.setup)

    u = property(lambda self: self._fields[0])
    p = property(lambda self: self._fields[1])
    y_int = property(lambda self: np.moveaxis(self.residual, 0, -1))
    y = cached_property(lambda self: VectorField.from_interior(self.setup.grid, self.y_int))
    K = cached_property(lambda self: ObsField(self.setup.grid, np.moveaxis(self.misfit, 0, -1)))


def assemble_state(c, setup, model):
    """Run the forward chain once: state, residual, misfit.

    Raises InvalidFieldError if the velocity, residual or misfit is not
    finite; an overflowing pressure gradient shows in the residual.
    """
    g = setup.grid
    if c.grid != g or model.grid != g:
        raise ConfigurationError("control or observation grid does not match setup grid")
    u = velocity_map(c.psi, g)
    check_finite(u, "velocity")
    u_int, grad_u = u[..., 1:-1, 1:-1], velocity_gradient(u, g)
    y = momentum_operator(u, g, setup.nu, np.moveaxis(setup.u0[1:-1, 1:-1], -1, 0))
    y += pressure_gradient(c.pr, g)
    if setup.include_advection:
        y += advection(u_int, grad_u)
    y -= np.moveaxis(setup.f.values[1:, 1:-1, 1:-1], -1, 0)
    check_finite(y, "momentum residual")
    k = eval_K(u_int, grad_u, model)
    check_finite(k, "observation misfit")
    return AssembledState(setup, u, c.pr, u_int, grad_u, k, y, g.interior_weight())


def report_from_state(state, setup, p):
    """Misfit report at exponent p (finite or infinite) for assembled state."""
    p = as_exponent(p)
    # sqrt is monotone and correctly rounded: the largest magnitude, to the bit
    s_k, s_y = (float(np.sqrt(np.max(sq))) for sq in state.squared_magnitudes())
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
    """Forward-mode derivative of the chain along one control direction."""

    u: np.ndarray       # velocity, (2, nt, ny-2, nx-2)
    grad_u: np.ndarray  # its spatial gradient, (4, nt, ny-2, nx-2)
    K: np.ndarray       # observation misfit, (N, nt, ny-2, nx-2)
    y: np.ndarray       # momentum residual, (2, nt, ny-2, nx-2)


def tangent_from_state(state, setup, model, dc):
    """Derivative of (u, grad u, K, residual) at the assembled state along dc.

    velocity_map, then momentum_operator with a zero initial slice plus
    pressure_gradient and the advection linearized as (du.D)u + (u.D)du,
    then eval_K_jvp.  adjoint_from_state is its exact transpose.  A block
    of dc that is identically zero moves nothing, so its map is skipped.
    """
    g = setup.grid
    u, gu = state.u_int, state.grad_u
    if not dc.psi.any():
        return Tangent(u=np.zeros(u.shape), grad_u=np.zeros(gu.shape),
                       K=np.zeros((model.n,) + u.shape[1:]), y=pressure_gradient(dc.pr, g))
    v = velocity_map(dc.psi, g)
    dy = momentum_operator(v, g, setup.nu)
    if dc.pr.any():
        dy += pressure_gradient(dc.pr, g)
    du, dgrad = v[..., 1:-1, 1:-1], velocity_gradient(v, g)
    if setup.include_advection:
        dy += advection(du, gu)
        dy += advection(u, dgrad)
    return Tangent(u=du, grad_u=dgrad, K=eval_K_jvp(u, du, dgrad, model), y=dy)


def adjoint_from_state(state, setup, model, kbar, ybar):
    """Transpose of tangent_from_state: cotangents of K and y -> control.

    kbar is shaped like state.misfit and ybar like state.residual, component
    axis first; either may be None for a zero cotangent.  The steps of the
    tangent in reverse order; returns a ControlVector.
    """
    g = setup.grid
    u, gu = state.u_int, state.grad_u
    ybar = np.zeros(u.shape) if ybar is None else ybar
    ubar = momentum_operator_transpose(ybar, g, setup.nu)
    gbar = np.zeros(gu.shape)
    if setup.include_advection:
        ubar[..., 1:-1, 1:-1] += advection_transpose_a(ybar, gu)
        gbar = advection_transpose_grad_b(ybar, u)
    if kbar is not None:
        eval_K_vjp(u, kbar, model, ubar[..., 1:-1, 1:-1], gbar)
    velocity_gradient_transpose(gbar, g, ubar)
    return ControlVector(g, velocity_map_transpose(ubar, g), pressure_gradient_transpose(ybar, g))


def gradient_from_state(state, setup, model, p):
    """Exact gradient of the p-misfit with respect to the control DOFs.

    adjoint_from_state applied to the dual weights of both channels, scaled
    by their misfit weights and the quadrature weight; passing either
    cotangent alone to adjoint_from_state gives that channel's gradient.
    """
    p = as_exponent(p)
    if not p.is_finite:
        raise ConfigurationError("the sup-misfit is not differentiable; use finite p")
    w = state.weight
    m_k, m_y = state.dual_weights(p)
    return adjoint_from_state(state, setup, model, ((1.0 - setup.lam) * w) * m_k,
                              (setup.lam * w) * m_y)
