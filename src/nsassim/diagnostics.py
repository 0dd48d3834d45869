"""Dual-weighted measures, concentration metrics, and stationarity checks.

At a computed minimizer the dual-weight map of the residual and of the
observation misfit define cell-weighted vector measures over the space-time
quadrature.  Their total-variation mass never exceeds one (the dual-weight
unit-ball bound), and as the exponent grows they concentrate on the cells
where the underlying field magnitude is close to its maximum.  This module
builds those measures, quantifies the concentration, evaluates the
closed-form density bound, and pairs the stationarity relations against a
fixed bank of admissible test directions.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grid import trapezoid_weights
from .misfit import AssembledState, adjoint_from_state, assemble_state, tangent_from_state
from .norms import as_exponent, dot, dual_factor, lp_norm_from_squares, magnitudes
from .nse import ControlVector, pressure_gradient_transpose, velocity_map_transpose


@dataclass
class DiscreteMeasure:
    """Cell-weighted vector measure over the interior quadrature.

    The measure of a cell is vector_weights[i] * cell_volumes[i]; the mass
    is the total variation sum(cell_volumes * |vector_weights|).  The
    magnitudes of the field the measure was built from are retained for
    sub-level-set queries.
    """

    vector_weights: np.ndarray   # (n, m)
    cell_volumes: np.ndarray     # (n,), normalized to sum 1
    field_magnitudes: np.ndarray  # (n,)

    @cached_property
    def weight_magnitudes(self):
        return magnitudes(self.vector_weights)

    @property
    def mass(self):
        return float(np.sum(self.cell_volumes * self.weight_magnitudes))

    def mass_on(self, cells):
        """Total variation restricted to a boolean cell selection."""
        return float(np.sum(self.cell_volumes[cells] * self.weight_magnitudes[cells]))

    def volume_on(self, cells):
        return float(np.sum(self.cell_volumes[cells]))


def _measure(vals, weight, p):
    """Measure of (..., m) samples sharing one cell weight, as AssembledState.dual_weights."""
    p = as_exponent(p)
    if not p.is_finite:
        raise ConfigurationError("dual weights require a finite exponent")
    flat = vals.reshape(-1, vals.shape[-1])
    sq = np.einsum("...i,...i->...", flat, flat)
    r, norm = lp_norm_from_squares(sq, weight, p.value)
    return DiscreteMeasure(flat * dual_factor(r, norm, p.value)[:, None],
                           np.full(flat.shape[0], weight), np.sqrt(sq, out=sq))


def build_sigma(y_field, p):
    """Dual-weighted measure of the residual VectorField's interior at levels 1..nt."""
    return _measure(y_field.values[1:, 1:-1, 1:-1], y_field.grid.interior_weight(), p)


def build_Sigma(k_field, p):
    """Dual-weighted measure of the observation misfit ObsField at exponent p."""
    return _measure(k_field.values, k_field.grid.interior_weight(), p)


def concentration_mass(measure, eps):
    """Mass on the strict sub-level set {|field| < max|field| - eps}.

    Nonincreasing in eps: a larger eps shrinks the set.
    """
    peak = float(measure.field_magnitudes.max())
    if not (0.0 < eps < peak):
        raise ConfigurationError(f"need 0 < eps < max|field|={peak}, got {eps}")
    return measure.mass_on(measure.field_magnitudes < peak - eps)


def density_bound_check(y_field, p, eps, sup_proxy=None):
    """Closed-form density estimate for the residual measure.

    With M the sup-norm stand-in (by default the field's own maximum), the
    sub-level set A = {|y| <= M - eps} must satisfy

        mass(A) / volume(A)  <=  (1 - eps/(2M - eps))^(p-1).

    Returns (lhs, rhs, passed) with passed allowing 1e-8 relative slack.
    """
    p = as_exponent(p)
    measure = build_sigma(y_field, p)
    m_sup = float(measure.field_magnitudes.max()) if sup_proxy is None else float(sup_proxy)
    if not (0.0 < eps < m_sup):
        raise ConfigurationError(f"need 0 < eps < M={m_sup}, got {eps}")
    sub = measure.field_magnitudes <= m_sup - eps
    vol = measure.volume_on(sub)
    if vol == 0.0:
        raise ConfigurationError("sub-level set is empty; nothing to check")
    lhs = measure.mass_on(sub) / vol
    rhs = (1.0 - eps / (2.0 * m_sup - eps)) ** (p.value - 1.0)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8))


def sigma_infty_support_check(measure, tol):
    """Fraction of mass carried by cells within tol of the peak magnitude.

    A measure with zero mass is supported nowhere in particular; the
    fraction is reported as 1.
    """
    mags = measure.field_magnitudes
    total = measure.mass
    if total == 0.0:
        return 1.0
    near = mags >= mags.max() - tol
    return measure.mass_on(near) / total


# ---------------------------------------------------------------------------
# stationarity-relation residuals against a fixed test bank

@dataclass
class TestPair:
    """One admissible test direction: a stream-function block, a pressure
    block, or both.  Arrays are DOF-shaped like ControlVector blocks."""

    __test__ = False  # domain object, not a pytest case

    label: str
    psi: np.ndarray = None   # (nt, ny-4, nx-4) or None
    pr: np.ndarray = None    # (nt, ny-2, nx-2) or None


def default_test_bank(grid):
    """Twelve fixed test pairs: eight solenoidal bumps, four pressures.

    Velocity-type pairs are tensor-product sine bumps at several spatial
    scales crossed with two temporal profiles vanishing at t = 0; pressure
    pairs are smooth zero-mean cosines.  Everything is generated from fixed
    closed-form formulas, so the bank is reproducible by construction.
    """
    xs = grid.x_nodes()[2:-2] / grid.lx
    ys = grid.y_nodes()[2:-2] / grid.ly
    ts = grid.t_nodes()[1:] / grid.t_end
    xi = grid.x_nodes()[1:-1] / grid.lx
    yi = grid.y_nodes()[1:-1] / grid.ly

    ramp = ts
    swell = np.sin(0.5 * np.pi * ts)
    bank = []
    shapes = [
        ("b1", np.outer(np.sin(np.pi * ys), np.sin(np.pi * xs))),
        ("b2", np.outer(np.sin(2 * np.pi * ys), np.sin(np.pi * xs))),
        ("b3", np.outer(np.sin(np.pi * ys), np.sin(2 * np.pi * xs))),
        ("b4", np.outer(np.sin(2 * np.pi * ys) ** 2, np.sin(2 * np.pi * xs) ** 2)),
    ]
    for name, shape in shapes:
        for tname, prof in (("ramp", ramp), ("swell", swell)):
            psi = prof[:, None, None] * shape[None]
            bank.append(TestPair(label=f"{name}-{tname}", psi=psi))

    wi = trapezoid_weights(grid.ny - 2, grid.nx - 2)
    press_shapes = [
        ("p1", np.cos(np.pi * xi)[None, :] * np.ones((yi.size, 1))),
        ("p2", np.cos(np.pi * yi)[:, None] * np.ones((1, xi.size))),
        ("p3", np.outer(np.cos(np.pi * yi), np.cos(np.pi * xi))),
        ("p4", np.outer(np.cos(2 * np.pi * yi), np.cos(np.pi * xi))),
    ]
    for name, shape in press_shapes:
        pr = (1.0 + 0.5 * ts)[:, None, None] * shape[None]
        means = np.einsum("yx,tyx->t", wi, pr)
        bank.append(TestPair(label=name, pr=pr - means[:, None, None]))
    return bank


def _assembled(state, setup, model):
    """The stage's AssembledState; a ControlVector is assembled first."""
    return state if isinstance(state, AssembledState) else assemble_state(state, setup, model)


def el_residual(state, p, setup, model, test_bank=None):
    """Stationarity defect paired against the test bank.

    state is the minimizer's AssembledState, or its ControlVector.
    For every velocity-type pair the defect pairs the chain's tangent along
    the pair (misfit.tangent_from_state) with the dual weights: the
    observation channel (1-lam) w <dK, m_K> plus the residual channel
    lam w <dy, m_y>, where dy is the linearized momentum operator (time
    difference with zero initial slice, implicit diffusion, advection
    linearized around the minimizer).
    For pressure-type pairs it is the pairing w <dy, m_y> of the test
    pressure gradient against the residual dual weights.  Both are
    normalized by the quadrature norm of the tangent's fields.  At a
    computed minimizer they are small, but they need not shrink in
    proportion to the optimizer tolerance: the fixed bank directions pick
    up a varying share of the remaining gradient.
    """
    g = setup.grid
    if test_bank is None:
        test_bank = default_test_bank(g)
    if len(test_bank) == 0:
        raise ConfigurationError("empty test bank")
    p = as_exponent(p)
    state = _assembled(state, setup, model)
    w = state.weight
    m_k, m_y = state.dual_weights(p)
    lam = setup.lam
    zero = ControlVector.zeros(g)

    r_momentum = 0.0
    r_pressure = 0.0
    for pair in test_bank:
        if pair.psi is not None:
            t = tangent_from_state(state, setup, model, ControlVector(g, pair.psi, zero.pr))
            pairing = (1.0 - lam) * w * dot(t.K, m_k) + lam * w * dot(t.y, m_y)
            scale = math.sqrt(w * (dot(t.u, t.u) + dot(t.grad_u, t.grad_u)
                                   + dot(t.y, t.y)))
            r_momentum = max(r_momentum, abs(pairing) / max(scale, 1e-30))
        if pair.pr is not None:
            t = tangent_from_state(state, setup, model, ControlVector(g, zero.psi, pair.pr))
            scale = math.sqrt(w * dot(t.y, t.y))
            r_pressure = max(r_pressure, abs(w * dot(t.y, m_y)) / max(scale, 1e-30))
    return r_momentum, r_pressure


def bank_pairings(state, p, setup, model, test_bank=None):
    """Raw measure pairings against the bank, for weak*-Cauchy tables.

    state is the minimizer's AssembledState, or its ControlVector.
    Returns rows (label, sigma_pairing, Sigma_pairing) where the residual
    measure pairs against the test velocity and the misfit measure against
    the observation-channel direction; pressure-type pairs report the
    pressure-gradient pairing in the sigma column.  Each measure is pulled
    back to the control once, through the transposed chain, and every pair
    then costs one dot product: <J t, m> = <t, J^T m>.
    """
    g = setup.grid
    if test_bank is None:
        test_bank = default_test_bank(g)
    p = as_exponent(p)
    state = _assembled(state, setup, model)
    w = state.weight
    m_k, m_y = state.dual_weights(p)
    # sigma pairs with the test velocity, or with the test pressure gradient
    sigma_y = w * m_y
    sigma_psi = velocity_map_transpose(np.pad(sigma_y, ((0, 0), (0, 0), (1, 1), (1, 1))), g)
    sigma_pr = pressure_gradient_transpose(sigma_y, g)
    big_sigma = adjoint_from_state(state, setup, model, w * m_k, None)

    rows = []
    for pair in test_bank:
        sig = big = 0.0
        if pair.psi is not None:
            sig = dot(pair.psi, sigma_psi)
            big = dot(pair.psi, big_sigma.psi)
        if pair.pr is not None:
            sig = dot(pair.pr, sigma_pr)
        rows.append((pair.label, sig, big))
    return rows
