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
component-last fields only when the output stage reads them.  The residual
is nse.momentum_residual, its pressure term nse.pressure_gradient of the
control's pressure block; the pressure field is built for output only.  No
stencil arithmetic lives here: the chain calls the nse operators and eval_K
and its derivatives, each transpose the literal transpose of its forward map.

velocity_tangent, the one linearization of the residual and of K, takes a
velocity direction of nt levels or of one level that broadcasts;
tangent_from_state adds the pressure gradient to it along a control
direction, and adjoint_from_state is its transpose for arbitrary cotangents
of K and of the residual; gradient_from_state feeds the scaled dual weights
to the latter.  The pair passes the dot-product test
<J dc, (kbar, ybar)> = <dc, J^T (kbar, ybar)> to round-off.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grid import VectorField, check_finite
from .norms import check_exponent, dual_factor, lp_terms, squared_magnitudes
from .nse import (
    ControlVector, PhysicsSetup, _over_levels, advection, advection_transpose_a,
    advection_transpose_grad_b, momentum_operator, momentum_operator_transpose,
    momentum_residual, pressure_gradient, pressure_gradient_transpose, pressure_map,
    state_fields, velocity_gradient, velocity_gradient_transpose, velocity_map,
    velocity_map_transpose,
)
from .observation import ObsField, eval_K, eval_K_jvp, eval_K_vjp


@dataclass
class MisfitReport:
    """One misfit evaluation: total, both channel terms, and sup norms."""

    p: float
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

    @cached_property
    def squared_magnitudes(self):
        """|K|^2 and |y|^2 per node, once per state: the sup norms and every lp_norms read it."""
        return tuple(squared_magnitudes(v) for v in (self.misfit, self.residual))

    def lp_norms(self, p):
        """(t, s, norm) per channel (K, y): the p-norm's terms, their weighted sum and the norm.

        Computed once per exponent, an int and its float alike (norms.lp_terms,
        which rejects an infinite one), and shared by the report, the
        gradient and the diagnostics.
        """
        out = self._lp.get(p)
        if out is None:
            out = tuple(lp_terms(sq, self.weight, p) for sq in self.squared_magnitudes)
            self._lp[p] = out
        return out

    def dual_weights(self, p):
        """Dual-weight maps of the K and y channels, shaped like misfit and residual.

        Equal to the bit to dual_weight on the same samples.
        """
        return tuple(v * dual_factor(sq, *terms, p) for v, sq, terms
                     in zip((self.misfit, self.residual), self.squared_magnitudes,
                            self.lp_norms(p)))

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

    Three passes over tiles of levels (nse._over_levels), each followed by
    its finiteness check: the velocity, then its gradient and the residual,
    then K, each tile writing its slice of the state's arrays.  A tile's
    time difference opens with the last velocity level before it.  Raises
    InvalidFieldError if the velocity, residual or misfit is not finite; an
    overflowing pressure gradient shows in the residual.
    """
    g = setup.grid
    if c.grid != g or model.grid != g:
        raise ConfigurationError("control or observation grid does not match setup grid")
    nt, inner = g.nt, (g.ny - 2, g.nx - 2)
    u = np.zeros((2, nt, g.ny, g.nx))
    _over_levels(lambda lo, hi: velocity_map(c.psi[lo:hi], g, u[:, lo:hi]), nt, g)
    check_finite(u, "velocity")
    u_int = u[..., 1:-1, 1:-1]
    grad_u, y = np.empty((4, nt) + inner), np.empty((2, nt) + inner)

    def residual(lo, hi):
        ub = u[:, lo:hi]
        u0 = None if lo == 0 else np.moveaxis(u[:, lo - 1], 0, -1)
        momentum_residual(ub, setup, lambda: pressure_gradient(c.pr[lo:hi], g),
                          velocity_gradient(ub, g, grad_u[:, lo:hi]), u0, lo, y[:, lo:hi])

    _over_levels(residual, nt, g)
    check_finite(y, "momentum residual")
    k = np.empty((model.n, nt) + inner)  # after the residual's temporaries are freed
    _over_levels(lambda lo, hi: eval_K(u_int[:, lo:hi], grad_u[:, lo:hi], model, lo, k[:, lo:hi]),
                 nt, g)
    check_finite(k, "observation misfit")
    return AssembledState(setup, u, c.pr, u_int, grad_u, k, y, g.interior_weight())


def report_from_state(state, setup, p):
    """Misfit report at exponent p (finite or infinite) for assembled state."""
    p = check_exponent(p)  # before the branch: NaN is not finite either
    # sqrt is monotone and correctly rounded: the largest magnitude, to the bit
    s_k, s_y = (float(np.sqrt(np.max(sq))) for sq in state.squared_magnitudes)
    if math.isfinite(p):
        (*_, n_k), (*_, n_y) = state.lp_norms(p)
    else:
        n_k, n_y = s_k, s_y
    term_k = (1.0 - setup.lam) * n_k
    term_y = setup.lam * n_y
    return MisfitReport(p=p, e_p=term_k + term_y, term_K=term_k, term_y=term_y,
                        sup_K=s_k, sup_y=s_y)


@dataclass
class Tangent:
    """Forward-mode derivative of the chain along one direction (velocity_tangent)."""

    u: np.ndarray       # velocity, (2, nt, ny-2, nx-2)
    grad_u: np.ndarray  # its spatial gradient, (4, nt, ny-2, nx-2)
    K: np.ndarray       # observation misfit, (N, nt, ny-2, nx-2)
    y: np.ndarray       # momentum residual, (2, nt, ny-2, nx-2)


def velocity_tangent(state, setup, model, v, u_init=None):
    """Derivative of (u, grad u, K, residual) at the assembled state along a velocity v.

    v (2, nt, ny, nx) is a full-grid direction at levels 1..nt, or one level
    (2, 1, ny, nx) that broadcasts over the state's levels; u_init
    (2, ny-2, nx-2) is the interior slice before its first level, zero when
    None.  momentum_operator plus the advection linearized as
    (v.D)u + (u.D)v, then eval_K_jvp.
    """
    g = setup.grid
    u, gu = state.u_int, state.grad_u
    dv, dgrad = v[..., 1:-1, 1:-1], velocity_gradient(v, g)
    dy = momentum_operator(v, g, setup.nu, u_init)
    if setup.include_advection:
        dy = dy + advection(dv, gu)  # broadcasts a one-level v over the state's levels
        dy += advection(u, dgrad)
    return Tangent(u=dv, grad_u=dgrad, K=eval_K_jvp(u, dv, dgrad, model), y=dy)


def tangent_from_state(state, setup, model, dc):
    """Derivative of (u, grad u, K, residual) at the assembled state along dc.

    velocity_tangent along velocity_map(dc.psi), plus pressure_gradient(dc.pr)
    in the residual.  adjoint_from_state is its exact transpose.
    """
    t = velocity_tangent(state, setup, model, velocity_map(dc.psi, setup.grid))
    t.y += pressure_gradient(dc.pr, setup.grid)
    return t


def adjoint_from_state(state, setup, model, kbar, ybar):
    """Transpose of tangent_from_state: cotangents of K and y -> control.

    kbar is shaped like state.misfit and ybar like state.residual, component
    axis first; either may be None for a zero cotangent, whose branch is
    skipped, as is the velocity-gradient transpose when neither the
    advection nor the observation feeds it.  The steps of the tangent in
    reverse order, over tiles of levels (nse._over_levels) that write their
    slices of the control's blocks; a tile's last level also takes the time
    difference of the next tile's first.  Returns a ControlVector.
    """
    g = setup.grid
    nt = g.nt
    psi_bar = np.empty((nt, g.ny - 4, g.nx - 4))
    pr_bar = (np.zeros if ybar is None else np.empty)(state.pr.shape)

    def tile(lo, hi):
        u, gu = state.u_int[:, lo:hi], state.grad_u[:, lo:hi]
        gbar = None  # the gradient cotangent, built only by a branch that writes it
        if ybar is None:
            ubar = np.zeros((2, hi - lo, g.ny, g.nx))
        else:
            yb = ybar[:, lo:hi]
            ubar = momentum_operator_transpose(yb, g, setup.nu,
                                               None if hi == nt else ybar[:, hi])
            if setup.include_advection:
                ubar[..., 1:-1, 1:-1] += advection_transpose_a(yb, gu)
                gbar = advection_transpose_grad_b(yb, u)
            pressure_gradient_transpose(yb, g, pr_bar[lo:hi])
        if kbar is not None:
            if gbar is None and model.reads_gradient:
                gbar = np.zeros(gu.shape)
            eval_K_vjp(u, kbar[:, lo:hi], model, ubar[..., 1:-1, 1:-1], gbar)
        if gbar is not None:
            velocity_gradient_transpose(gbar, g, ubar)
        velocity_map_transpose(ubar, g, psi_bar[lo:hi])

    _over_levels(tile, nt, g)
    return ControlVector(g, psi_bar, pr_bar)


def gradient_from_state(state, setup, model, p):
    """Exact gradient of the p-misfit with respect to the control DOFs.

    adjoint_from_state applied to the dual weights of both channels, scaled
    by their misfit weights and the quadrature weight; passing either
    cotangent alone to adjoint_from_state gives that channel's gradient.
    The sup-misfit is not differentiable: an infinite p raises.
    """
    w = state.weight
    m_k, m_y = state.dual_weights(p)
    m_k *= (1.0 - setup.lam) * w
    m_y *= setup.lam * w
    return adjoint_from_state(state, setup, model, m_k, m_y)
