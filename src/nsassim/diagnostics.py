"""Dual-weighted measures, concentration metrics, and stationarity checks.

At a computed minimizer the dual-weight map of the residual and of the
observation misfit define cell-weighted vector measures over the space-time
quadrature.  Their total-variation mass never exceeds one (the dual-weight
unit-ball bound), and as the exponent grows they concentrate on the cells
where the underlying field magnitude is close to its maximum.  This module
builds those measures, quantifies the concentration, evaluates the
closed-form density bound, and pairs the stationarity relations against a
fixed bank of admissible test directions, every one separable in time.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grid import zero_mean_kernel
from .misfit import AssembledState, adjoint_from_state, assemble_state, velocity_tangent
from .norms import as_exponent, dot, dual_factor, lp_terms, magnitudes, squared_magnitudes
from .nse import (
    pressure_gradient, pressure_gradient_transpose, velocity_map, velocity_map_transpose,
)


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
    p = as_exponent(p).value
    v = vals.reshape(-1, vals.shape[-1]).T  # component axis first
    sq = squared_magnitudes(v)
    return DiscreteMeasure((v * dual_factor(sq, *lp_terms(sq, weight, p), p)).T,
                           np.full(sq.shape, weight), np.sqrt(sq, out=sq))


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


def density_bound_check(y, p, eps, sup_proxy=None):
    """Closed-form density estimate for the residual measure.

    y is the residual VectorField, or its measure build_sigma(y_field, p)
    at the same p, which is then not rebuilt.  With M the sup-norm stand-in
    (by default the field's own maximum), the sub-level set
    A = {|y| <= M - eps} must satisfy

        mass(A) / volume(A)  <=  (1 - eps/(2M - eps))^(p-1).

    Returns (lhs, rhs, passed) with passed allowing 1e-8 relative slack.
    """
    p = as_exponent(p)
    measure = y if isinstance(y, DiscreteMeasure) else build_sigma(y, p)
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
    """One admissible test direction, separable in time: at level t it is
    profile[t] times a stream-function shape on the free nodes, a one-level
    pressure shape like one level of ControlVector.pr, or both.
    """

    __test__ = False  # domain object, not a pytest case

    label: str
    profile: np.ndarray         # (nt,)
    shape: np.ndarray = None    # (ny-4, nx-4) or None
    pr: np.ndarray = None       # (ny-2, nx-2) or None


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
            bank.append(TestPair(label=f"{name}-{tname}", profile=prof, shape=shape))

    press_shapes = [
        ("p1", np.cos(np.pi * xi)[None, :] * np.ones((yi.size, 1))),
        ("p2", np.cos(np.pi * yi)[:, None] * np.ones((1, xi.size))),
        ("p3", np.outer(np.cos(np.pi * yi), np.cos(np.pi * xi))),
        ("p4", np.outer(np.cos(2 * np.pi * yi), np.cos(np.pi * xi))),
    ]
    for name, shape in press_shapes:
        bank.append(TestPair(label=name, profile=1.0 + 0.5 * ts,
                             pr=zero_mean_kernel(shape[None])[0]))
    return bank


def _assembled(state, setup, model):
    """The stage's AssembledState; a ControlVector is assembled first."""
    return state if isinstance(state, AssembledState) else assemble_state(state, setup, model)


def _level_pairings(state, setup, model, m_k, m_y, shape):
    """Per-level pairings of the tangent along profile (x) shape, any profile.

    The state maps act level by level, so velocity_tangent runs on the
    one-level velocity V of the shape only: along the direction a (x) shape,
    the tangent velocity at level t is a_t V and its gradient a_t Gamma.
    The residual tangent is d_t V + a_t Z_t, with d the backward difference
    of a over dt (zero before level 1) and Z_t the viscous term -nu Lap V
    plus the advection linearized as (V.D)u_t + (u_t.D)V.  The misfit
    tangent is a_t J_t with J = eval_K_jvp(u, V, Gamma), pointwise linear in
    the direction.  Only Z and J meet the state at full size.

    Returns (|V|^2, |Gamma|^2, rows) with rows the per-level pairings
    <J_t, m_K,t>, <Z_t, m_y,t>, <V, m_y,t>, |Z_t|^2 and <Z_t, V>, from which
    el_residual forms the pairing and the scale of every profile.
    """
    v = velocity_map(shape[None], setup.grid)
    vi = v[..., 1:-1, 1:-1]
    # with its own level as the initial slice the time difference vanishes: -nu Lap V
    t = velocity_tangent(state, setup, model, v, vi[:, 0])
    z = np.broadcast_to(t.y, m_y.shape)
    j = np.broadcast_to(t.K, m_k.shape)
    vb = np.broadcast_to(vi, m_y.shape)
    rows = [np.einsum("ctyx,ctyx->t", x, y)
            for x, y in ((j, m_k), (z, m_y), (vb, m_y), (z, z), (z, vb))]
    return dot(vi, vi), dot(t.grad_u, t.grad_u), rows


def el_residual(state, p, setup, model, test_bank=None):
    """Stationarity defect paired against the test bank.

    state is the minimizer's AssembledState, or its ControlVector.
    For every velocity-type pair the defect pairs the chain's tangent along
    the pair with the dual weights: the observation channel
    (1-lam) w <dK, m_K> plus the residual channel lam w <dy, m_y>, where dy
    is the linearized momentum operator (time difference with zero initial
    slice, implicit diffusion, advection linearized around the minimizer).
    For pressure-type pairs it is the pairing w <dy, m_y> of the test
    pressure gradient against the residual dual weights.  Both are
    normalized by the quadrature norm of the tangent's fields.  At a
    computed minimizer they are small, but they need not shrink in
    proportion to the optimizer tolerance: the fixed bank directions pick
    up a varying share of the remaining gradient.

    No tangent is formed: _level_pairings and the one-level pressure
    gradient are reduced per level once per shape, consecutive pairs
    sharing a shape array (the default bank's two profiles) reuse those
    sums, and each profile costs a few length-nt dot products.  The result
    equals the pairing of misfit.tangent_from_state along the pair to
    round-off.
    """
    g = setup.grid
    if test_bank is None:
        test_bank = default_test_bank(g)
    if len(test_bank) == 0:
        raise ConfigurationError("empty test bank")
    state = _assembled(state, setup, model)
    w = state.weight
    m_k, m_y = state.dual_weights(as_exponent(p))
    lam = setup.lam

    r_momentum = r_pressure = 0.0
    shape = pr = None
    for pair in test_bank:
        a = pair.profile
        if pair.shape is not None:
            if pair.shape is not shape:
                shape = pair.shape
                vv, gg, (jm, zm, vm, zz, zv) = _level_pairings(state, setup, model,
                                                               m_k, m_y, shape)
            d = np.diff(a, prepend=0.0) / g.dt
            pairing = (1.0 - lam) * w * dot(a, jm) + lam * w * (dot(a, zm) + dot(d, vm))
            # |du|^2 + |dgrad|^2 + |dy|^2, with dy_t = d_t V + a_t Z_t
            sq = dot(a, a) * (vv + gg) + dot(a * a, zz) + 2.0 * dot(a * d, zv) + dot(d, d) * vv
            r_momentum = max(r_momentum, abs(pairing) / max(math.sqrt(w * sq), 1e-30))
        if pair.pr is not None:
            if pair.pr is not pr:
                pr = pair.pr
                gp = pressure_gradient(pr, g)
                pp, pm = dot(gp, gp), np.einsum("cyx,ctyx->t", gp, m_y)
            scale = math.sqrt(w * dot(a, a) * pp)
            r_pressure = max(r_pressure, abs(w * dot(a, pm)) / max(scale, 1e-30))
    return r_momentum, r_pressure


def bank_pairings(state, p, setup, model, test_bank=None):
    """Raw measure pairings against the bank, for weak*-Cauchy tables.

    state is the minimizer's AssembledState, or its ControlVector.
    Returns rows (label, sigma_pairing, Sigma_pairing) where the residual
    measure pairs against the test velocity and the misfit measure against
    the observation-channel direction; pressure-type pairs report the
    pressure-gradient pairing in the sigma column.  Each measure is pulled
    back to the control once, <J t, m> = <t, J^T m>, reduced per level
    once per shape as in el_residual, and dotted with each pair's profile.
    """
    g = setup.grid
    if test_bank is None:
        test_bank = default_test_bank(g)
    state = _assembled(state, setup, model)
    w = state.weight
    m_k, m_y = state.dual_weights(as_exponent(p))
    # sigma pairs with the test velocity, or with the test pressure gradient
    sigma_y = w * m_y
    sigma_psi = velocity_map_transpose(np.pad(sigma_y, ((0, 0), (0, 0), (1, 1), (1, 1))), g)
    sigma_pr = pressure_gradient_transpose(sigma_y, g)
    big_psi = adjoint_from_state(state, setup, model, w * m_k, None).psi

    rows = []
    shape = pr = None
    for pair in test_bank:
        a, sig, big = pair.profile, 0.0, 0.0
        if pair.shape is not None:
            if pair.shape is not shape:
                shape = pair.shape
                s_rows, b_rows = (np.einsum("tyx,yx->t", x, shape) for x in (sigma_psi, big_psi))
            sig, big = dot(a, s_rows), dot(a, b_rows)
        if pair.pr is not None:
            if pair.pr is not pr:
                pr = pair.pr
                p_rows = np.einsum("tyx,yx->t", sigma_pr, pr)
            sig = dot(a, p_rows)
        rows.append((pair.label, sig, big))
    return rows
