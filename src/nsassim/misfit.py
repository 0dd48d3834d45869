"""Misfit assembly and its exact reverse-mode gradient.

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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import (
    ScalarField, VectorField, curl_transpose_kernel, gradient_kernel,
    gradient_transpose_kernel, laplacian_kernel, laplacian_transpose_kernel,
    scalar_gradient_kernel, scalar_gradient_transpose_kernel,
    trapezoid_weights_2d,
)
from .norms import (
    PExponent, dual_factor, lp_norm_from_magnitudes, magnitudes, reg_abs,
)
from .nse import ControlVector, extend_interior_transpose, state_from_control
from .observation import (
    ObsField, eval_K_A_kernel, eval_K_eta_kernel, eval_K_kernel,
)


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
    grad_u = gradient_kernel(u.values[1:], g)

    prev = np.concatenate([setup.u0[None], u.values[1:-1]], axis=0)
    expr = (u.values[1:] - prev) / g.dt
    lap = np.stack(
        [laplacian_kernel(u.values[1:, ..., 0], g), laplacian_kernel(u.values[1:, ..., 1], g)],
        axis=-1)
    expr = expr - setup.nu * lap + scalar_gradient_kernel(pfield.values[1:], g)
    if setup.include_advection:
        u1 = u.values[1:, ..., 0]
        u2 = u.values[1:, ..., 1]
        adv = np.stack(
            [u1 * grad_u[..., 0] + u2 * grad_u[..., 1],
             u1 * grad_u[..., 2] + u2 * grad_u[..., 3]], axis=-1)
        expr = expr + adv
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


def assemble_E_p(c, setup, model, p):
    """Build the state from the control and report the p-misfit."""
    p = p if isinstance(p, PExponent) else PExponent(float(p))
    if not p.is_finite:
        raise ConfigurationError("assemble_E_p requires finite p; use assemble_E_inf")
    return report_from_state(assemble_state(c, setup, model), setup, p)


def assemble_E_inf(c, setup, model):
    """Sup-norm misfit of a control."""
    return report_from_state(assemble_state(c, setup, model), setup, PExponent.infinity())


def gradient_from_state(state, setup, model, p, channels=("obs", "model")):
    """Exact gradient of the p-misfit with respect to the control DOFs.

    channels selects which misfit channel contributes: "obs" is the
    observation term, "model" the residual term.  The full gradient is the
    sum of the two single-channel gradients.
    """
    p = p if isinstance(p, PExponent) else PExponent(float(p))
    if not p.is_finite:
        raise ConfigurationError("the sup-misfit is not differentiable; use finite p")
    for ch in channels:
        if ch not in ("obs", "model"):
            raise ConfigurationError(f"unknown channel {ch!r}")
    g = setup.grid
    w = state.weight
    nt = g.nt
    m_k, m_y = state.dual_weights(p)

    u_slab = state.u.values[1:]
    ubar = np.zeros((nt, g.ny, g.nx, 2))
    pbar = np.zeros((nt, g.ny, g.nx))
    gbar = np.zeros((nt, g.ny, g.nx, 4))

    if "model" in channels:
        ybar = np.zeros((nt, g.ny, g.nx, 2))
        ybar[:, 1:-1, 1:-1] = (setup.lam * w) * m_y

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

    if "obs" in channels:
        kbar = ((1.0 - setup.lam) * w) * m_k
        u_int = u_slab[:, 1:-1, 1:-1]
        k_eta = eval_K_eta_kernel(u_int, model)
        k_a = eval_K_A_kernel(u_int, model)
        ubar[:, 1:-1, 1:-1] += np.einsum("...nc,...n->...c", k_eta, kbar)
        gbar[:, 1:-1, 1:-1] += np.einsum("...nj,...n->...j", k_a, kbar)

    ubar += gradient_transpose_kernel(gbar, g)

    # state-map transposes: ring zeroing, curl, zero-mean projection, extension
    ubar[:, 0, :, :] = 0.0
    ubar[:, -1, :, :] = 0.0
    ubar[:, :, 0, :] = 0.0
    ubar[:, :, -1, :] = 0.0
    psi_bar = curl_transpose_kernel(ubar, g)[:, 2:-2, 2:-2]

    tw = trapezoid_weights_2d(g)
    pbar -= tw[None] * pbar.sum(axis=(1, 2))[:, None, None]
    pr_bar = extend_interior_transpose(pbar, g)

    return ControlVector(g, psi_bar, pr_bar)


def gradient_E_p(c, setup, model, p, channels=("obs", "model")):
    """Gradient of assemble_E_p at c; runs the forward chain internally."""
    state = assemble_state(c, setup, model)
    return gradient_from_state(state, setup, model, p, channels)


def value_and_gradient(c, setup, model, p):
    """One forward pass shared between the report and the gradient."""
    state = assemble_state(c, setup, model)
    report = report_from_state(state, setup, p)
    grad = gradient_from_state(state, setup, model, p)
    return report, grad
