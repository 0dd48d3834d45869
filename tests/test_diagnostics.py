import dataclasses
import math

import numpy as np
import pytest

from nsassim.errors import ConfigurationError
from nsassim.diagnostics import (
    TestPair, bank_pairings, build_Sigma, build_sigma, concentration_mass,
    default_test_bank, density_bound_check, el_residual,
    sigma_infty_support_check,
)
from nsassim.grid import GridSpec, VectorField, curl_kernel, trapezoid_weights
from nsassim.misfit import adjoint_from_state, assemble_state, tangent_from_state
from nsassim.norms import reg_abs
from nsassim.nse import (
    ControlVector, PhysicsSetup, extend_interior, forcing_preset, initial_velocity_preset,
    pressure_gradient_transpose, velocity_map_transpose,
)
from nsassim.observation import ObsField, synth_data
from nsassim.optim import OptimOptions, minimize_E_p


def vec_field(interior):
    """VectorField whose interior at levels 1..nt holds `interior`."""
    nt, ny, nx, _ = interior.shape
    return VectorField.from_interior(GridSpec(nx=nx + 2, ny=ny + 2, nt=nt), interior)


def obs_field(values):
    """ObsField on the grid whose interior matches `values`."""
    nt, ny, nx, _ = values.shape
    return ObsField(GridSpec(nx=nx + 2, ny=ny + 2, nt=nt), values)


class TestMeasures:
    def test_zero_field_zero_measure(self):
        m = build_sigma(vec_field(np.zeros((4, 3, 3, 2))), 8.0)
        assert m.mass == 0.0

    def test_constant_field_closed_form(self):
        c = np.array([0.6, -0.8])  # magnitude 1
        vals = np.tile(c, (2, 3, 3, 1))
        m = build_sigma(vec_field(vals), 4.0)
        expect = 1.0 / float(reg_abs(c, 4.0))
        assert m.mass == pytest.approx(expect, rel=1e-12)
        assert m.mass < 1.0
        per_cell = c / float(reg_abs(c, 4.0))
        assert np.allclose(m.vector_weights, per_cell, atol=1e-13)

    def test_unit_mass_bound_random(self):
        rng = np.random.default_rng(0)
        for p in (2.0, 8.0, 32.0, 128.0):
            vals = rng.standard_normal((3, 5, 4, 2)) * rng.uniform(0.01, 5.0)
            m = build_sigma(vec_field(vals), p)
            assert m.mass <= 1.0 + 1e-10

    def test_field_variants_agree(self):
        # level 0 and the boundary ring carry no mass
        g = GridSpec(nx=6, ny=6, nt=3, t_end=0.3)
        rng = np.random.default_rng(1)
        full = rng.standard_normal((g.nt + 1, g.ny, g.nx, 2))
        from_full = build_sigma(VectorField(g, full), 8.0)
        from_interior = build_sigma(VectorField.from_interior(g, full[1:, 1:-1, 1:-1]), 8.0)
        assert from_full.mass == pytest.approx(from_interior.mass, rel=1e-15)


class TestConcentration:
    def test_constant_magnitude_empty_set(self):
        vals = np.tile([1.0, 0.0], (2, 4, 4, 1))
        m = build_sigma(vec_field(vals), 16.0)
        assert concentration_mass(m, 0.3) == 0.0

    def test_two_level_field_brute_force(self):
        # half the cells at magnitude 1, half at 0.5
        vals = np.zeros((2, 4, 8, 2))
        vals[:, :, :4, 0] = 1.0
        vals[:, :, 4:, 0] = 0.5
        p = 16.0
        m = build_sigma(vec_field(vals), p)
        got = concentration_mass(m, 0.2)
        low = m.field_magnitudes < 0.8
        brute = float(np.sum(m.cell_volumes[low] * m.weight_magnitudes[low]))
        assert got == pytest.approx(brute, rel=1e-15)
        assert got > 0.0

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((3, 6, 6, 2))
        m = build_sigma(vec_field(vals), 8.0)
        peak = m.field_magnitudes.max()
        eps_grid = np.linspace(0.05, 0.9, 12) * peak
        masses = [concentration_mass(m, e) for e in eps_grid]
        assert all(b <= a + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_eps_bounds_checked(self):
        vals = np.tile([1.0, 0.0], (2, 3, 3, 1))
        m = build_sigma(vec_field(vals), 8.0)
        with pytest.raises(ConfigurationError):
            concentration_mass(m, 2.0)
        with pytest.raises(ConfigurationError):
            concentration_mass(m, 0.0)


class TestDensityBound:
    def test_closed_form_value(self):
        # M = 1, eps = 0.2, p = 10: the bound is (8/9)^9
        rhs_expect = (1.0 - 0.2 / (2.0 - 0.2)) ** 9
        vals = np.zeros((2, 3, 3, 2))
        vals[:, 0, 0, 0] = 1.0
        vals[:, 2, 2, 0] = 0.5
        lhs, rhs, ok = density_bound_check(vec_field(vals), 10.0, 0.2, sup_proxy=1.0)
        assert rhs == pytest.approx(rhs_expect, abs=1e-15)
        assert rhs == pytest.approx(0.34643941611461837, abs=1e-12)

    def test_small_eps_limit_is_vacuous(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((2, 5, 5, 2))
        for eps_frac in (1e-3, 1e-5):
            m_sup = float(np.sqrt((vals ** 2).sum(-1)).max())
            lhs, rhs, ok = density_bound_check(vec_field(vals), 12.0, eps_frac * m_sup)
            assert rhs >= 0.98
            assert ok

    def test_empty_sublevel_rejected(self):
        vals = np.tile([1.0, 0.0], (2, 3, 3, 1))
        with pytest.raises(ConfigurationError):
            density_bound_check(vec_field(vals), 8.0, 0.5)

    def test_passes_on_near_equalized_field(self):
        # the estimate's hypothesis is an averaged norm close to the sup,
        # the regime of near-minimax residuals: most cells near the peak,
        # a thin sub-level tail for the set being measured
        rng = np.random.default_rng(4)
        mags = rng.uniform(0.9, 1.0, size=(3, 8, 8))
        tail = rng.uniform(size=(3, 8, 8)) < 0.15
        mags[tail] = rng.uniform(0.4, 0.6, size=int(tail.sum()))
        angles = rng.uniform(0.0, 2 * np.pi, size=(3, 8, 8))
        vals = np.stack([mags * np.cos(angles), mags * np.sin(angles)], axis=-1)
        for p in (8.0, 16.0, 32.0):
            lhs, rhs, ok = density_bound_check(vec_field(vals), p, 0.3)
            assert ok, (p, lhs, rhs)

    @pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
    def test_measure_input_matches_field(self, p):
        # the residual measure built at the same p is not rebuilt
        rng = np.random.default_rng(6)
        y = vec_field(rng.standard_normal((3, 6, 6, 2)))
        m_sup = float(build_sigma(y, p).field_magnitudes.max())
        for eps, proxy in ((0.3 * m_sup, None), (0.5, 1.1 * m_sup)):
            assert density_bound_check(build_sigma(y, p), p, eps, proxy) \
                == density_bound_check(y, p, eps, proxy)


class TestSupportFraction:
    def test_constant_field_full_support(self):
        vals = np.tile([0.7], (2, 3, 3, 1))
        m = build_Sigma(obs_field(vals), 16.0)
        assert sigma_infty_support_check(m, 0.01) == pytest.approx(1.0)

    def test_zero_measure_reports_one(self):
        m = build_Sigma(obs_field(np.zeros((2, 3, 3, 1))), 8.0)
        assert sigma_infty_support_check(m, 0.1) == 1.0

    def test_two_level_field_strong_support(self):
        vals = np.zeros((2, 4, 8, 1))
        vals[:, :, :4, 0] = 1.0
        vals[:, :, 4:, 0] = 0.5
        m = build_Sigma(obs_field(vals), 64.0)
        frac = sigma_infty_support_check(m, 0.1)
        assert frac >= 0.999


def sanity_problem():
    g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
    setup = PhysicsSetup(grid=g, nu=0.02, lam=0.5,
                         f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.1),
                         include_advection=False)
    model = synth_data(VectorField.zeros(g), "masked-velocity", 0.2,
                       seed=3, mask_stride=2)
    return g, setup, model


class TestElResidual:
    def test_zero_pair_gives_zero(self):
        g, setup, model = sanity_problem()
        bank = [zero_pair(g)]
        rm, rp = el_residual(ControlVector.zeros(g), 2.0, setup, model, bank)
        assert rm == 0.0 and rp == 0.0

    def test_pair_profile_is_required(self):
        # every pair is separable: one time profile, one-level shapes, no block
        g = GridSpec(nx=10, ny=10, nt=4, t_end=0.3)
        pair = default_test_bank(g)[0]
        assert [f.name for f in dataclasses.fields(TestPair)] == ["label", "profile", "shape", "pr"]
        assert not hasattr(pair, "psi")
        with pytest.raises(TypeError):
            TestPair("half", shape=pair.shape)

    def test_empty_bank_rejected(self):
        g, setup, model = sanity_problem()
        with pytest.raises(ConfigurationError):
            el_residual(ControlVector.zeros(g), 2.0, setup, model, [])

    def test_default_bank_structure(self):
        g = GridSpec(nx=10, ny=10, nt=4, t_end=0.3)
        bank = default_test_bank(g)
        assert len(bank) == 12
        assert all(b.profile.shape == (g.nt,) for b in bank)
        velocity = [b for b in bank if b.shape is not None]
        assert len(velocity) == 8
        assert all(b.shape.shape == (g.ny - 4, g.nx - 4) and b.pr is None for b in velocity)
        pressure = [b for b in bank if b.pr is not None]
        assert len(pressure) == 4
        w = trapezoid_weights(g.ny - 2, g.nx - 2)
        for b in pressure:
            assert b.pr.shape == (g.ny - 2, g.nx - 2) and b.shape is None
            # zero trapezoidal mean on the one level, hence on every level
            assert abs(np.sum(w * b.pr)) <= 1e-13

    def test_near_zero_at_tight_minimizer(self):
        g, setup, model = sanity_problem()
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 2.0,
                           OptimOptions(max_iters=3000, grad_tol=1e-9))
        assert res.converged
        rm, rp = el_residual(res.control, 2.0, setup, model)
        assert rm <= 1e-8
        assert rp <= 1e-8

    def test_residual_scales_with_tolerance(self):
        g, setup, model = sanity_problem()
        out = {}
        for tol in (1e-5, 1e-7):
            res = minimize_E_p(ControlVector.zeros(g), setup, model, 2.0,
                               OptimOptions(max_iters=4000, grad_tol=tol))
            assert res.converged
            out[tol] = el_residual(res.control, 2.0, setup, model)
        assert out[1e-7][0] < out[1e-5][0]
        assert out[1e-7][1] < out[1e-5][1]

    @pytest.mark.parametrize("p", [math.inf, np.float32(math.inf)])
    def test_infinite_exponent_rejected(self, p):
        # the dual weights need a finite p; inf, a Python float or a numpy
        # scalar, must not read as "stationary"
        g, setup, model = sanity_problem()
        for diagnostic in (el_residual, bank_pairings):
            with pytest.raises(ConfigurationError):
                diagnostic(ControlVector.zeros(g), p, setup, model)

    def test_pairings_table_shape(self):
        g, setup, model = sanity_problem()
        rows = bank_pairings(ControlVector.zeros(g), 2.0, setup, model)
        assert len(rows) == 12
        for label, sig, big in rows:
            assert isinstance(label, str)
            assert np.isfinite(sig) and np.isfinite(big)


def zero_pair(g):
    return TestPair("zero", profile=np.zeros(g.nt), shape=np.zeros((g.ny - 4, g.nx - 4)),
                    pr=np.zeros((g.ny - 2, g.nx - 2)))


def blocks(pair):
    """The pair's (nt, ...) stream-function and pressure blocks, profile (x) shape, or None."""
    return tuple(None if s is None else pair.profile[:, None, None] * s[None]
                 for s in (pair.shape, pair.pr))


def full_grid_laplacian(u, g):
    """Componentwise Laplacian of (..., ny, nx, 2) with the full 1D matrices."""
    return np.stack([u[..., c] @ g.d2x().T + g.d2y() @ u[..., c] for c in (0, 1)], axis=-1)


def full_grid_gradient(u, g):
    """du1/dx, du1/dy, du2/dx, du2/dy of (..., ny, nx, 2) with the full 1D matrices."""
    return np.stack([d for c in (0, 1) for d in (u[..., c] @ g.d1x().T, g.d1y() @ u[..., c])],
                    axis=-1)


def full_grid_advection(a, grad_b):
    """(a.D)b from (..., 2) and (..., 4) arrays, component axis last."""
    return np.stack([a[..., 0] * grad_b[..., 2 * c] + a[..., 1] * grad_b[..., 2 * c + 1]
                     for c in (0, 1)], axis=-1)


def direct_bank_evaluation(c_star, p, setup, model, bank):
    """Reference: every bank direction pushed through the chain on its own.

    The stationarity residuals and pairings written out per direction with
    full-grid stencils, independent of the nse operators, as el_residual
    and bank_pairings evaluated them before the tangent existed.
    """
    g = setup.grid
    state = assemble_state(c_star, setup, model)
    w, lam = state.weight, setup.lam
    # the dual weights in this reference's layout, component axis last
    m_k, m_y = (np.moveaxis(m, 0, -1) for m in state.dual_weights(p))
    u_star = state.u.values[1:]
    gu_star = full_grid_gradient(u_star, g)
    inner = (slice(None), slice(1, -1), slice(1, -1))
    mask = model.interior_mask()[:, :, None] if model.mask is not None else None

    def k_direction(u_t, du_t):
        u_t, du_t = u_t[inner], du_t[inner]
        if model.kind == "masked-velocity":
            return u_t * mask
        if model.kind == "vorticity":
            return (du_t[..., 2] - du_t[..., 1])[..., None]
        return 2.0 * (u_star[inner][..., :1] * u_t[..., :1]
                      + u_star[inner][..., 1:] * u_t[..., 1:])

    r_mom = r_pr = 0.0
    rows = []
    for pair in bank:
        sig = big = 0.0
        psi, pr = blocks(pair)
        if psi is not None:
            psi_full = np.zeros((g.nt, g.ny, g.nx))
            psi_full[:, 2:-2, 2:-2] = psi
            u_t = curl_kernel(psi_full, g)
            u_t[..., 0, :, :] = u_t[..., -1, :, :] = u_t[..., 0, :] = u_t[..., -1, :] = 0.0
            du_t = full_grid_gradient(u_t, g)
            k_dir = k_direction(u_t, du_t)
            prev = np.concatenate([np.zeros_like(u_t[:1]), u_t[:-1]], axis=0)
            lin = (u_t - prev) / g.dt - setup.nu * full_grid_laplacian(u_t, g)
            if setup.include_advection:
                lin = lin + full_grid_advection(u_t, gu_star) + full_grid_advection(u_star, du_t)
            lin = lin[inner]
            pairing = (1 - lam) * w * np.sum(k_dir * m_k) + lam * w * np.sum(lin * m_y)
            scale = np.sqrt(w * (np.sum(u_t[inner] ** 2) + np.sum(du_t[inner] ** 2)
                                 + np.sum(lin ** 2)))
            r_mom = max(r_mom, abs(pairing) / scale)
            sig = w * np.sum(u_t[inner] * m_y)
            big = w * np.sum(k_dir * m_k)
        if pr is not None:
            p_t = extend_interior(pr, g)
            dp = np.stack([p_t @ g.d1x().T, g.d1y() @ p_t], axis=-1)[inner]
            sig = w * np.sum(dp * m_y)
            r_pr = max(r_pr, abs(sig) / np.sqrt(w * np.sum(dp ** 2)))
        rows.append((pair.label, sig, big))
    return (r_mom, r_pr), rows


def bank_problem(kind, advection=True):
    g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
    setup = PhysicsSetup(grid=g, nu=0.02, lam=0.4, f=forcing_preset(g, "swirl", 0.2),
                         u0=initial_velocity_preset(g, "vortex", 0.1),
                         include_advection=advection)
    rng = np.random.default_rng(31)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=5, mask_stride=2)
    c = ControlVector(g, 0.2 * rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                      0.2 * rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
    return setup, model, c


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_diagnostics_match_direct_per_direction_evaluation(kind, advection):
    setup, model, c = bank_problem(kind, advection)
    bank = default_test_bank(setup.grid)
    # one pair with both blocks: el_residual pairs them separately, and the
    # pressure pairing takes the sigma column
    bank.append(TestPair("both", profile=bank[0].profile, shape=bank[0].shape, pr=bank[-1].pr))
    (r_mom, r_pr), rows = direct_bank_evaluation(c, 4.0, setup, model, bank)

    def close(a, b):
        return abs(a - b) <= 1e-10 * abs(b) + 1e-15

    got_mom, got_pr = el_residual(c, 4.0, setup, model, bank)
    assert close(got_mom, r_mom) and close(got_pr, r_pr)
    got_rows = bank_pairings(c, 4.0, setup, model, bank)
    for (label, sig, big), (ref_label, ref_sig, ref_big) in zip(got_rows, rows):
        assert label == ref_label
        assert close(sig, ref_sig), (label, sig, ref_sig)
        assert close(big, ref_big), (label, big, ref_big)
    # the stage's assembled state gives the control's results exactly
    state = assemble_state(c, setup, model)
    assert el_residual(state, 4.0, setup, model, bank) == (got_mom, got_pr)
    assert bank_pairings(state, 4.0, setup, model, bank) == got_rows


@pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_measures_equal_state_dual_weights(kind, p):
    setup, model, c = bank_problem(kind)
    state = assemble_state(c, setup, model)
    m_k, m_y = state.dual_weights(p)
    for measure, dual in ((build_sigma(state.y, p), m_y), (build_Sigma(state.K, p), m_k)):
        last = np.moveaxis(dual, 0, -1)
        assert np.array_equal(measure.vector_weights, last.reshape(-1, last.shape[-1]))
    sq_k, sq_y = state.squared_magnitudes
    assert np.array_equal(build_sigma(state.y, p).field_magnitudes, np.sqrt(sq_y).ravel())
    assert np.array_equal(build_Sigma(state.K, p).field_magnitudes, np.sqrt(sq_k).ravel())


def tangent_bank_evaluation(state, p, setup, model, bank):
    """Reference: el_residual with every pair pushed through the chain tangent."""
    g = setup.grid
    w, lam = state.weight, setup.lam
    m_k, m_y = state.dual_weights(p)
    zero_psi = np.zeros((g.nt, g.ny - 4, g.nx - 4))
    zero_pr = np.zeros((g.nt, g.ny - 2, g.nx - 2))
    r_mom = r_pr = 0.0
    for pair in bank:
        psi, pr = blocks(pair)
        if psi is not None:
            t = tangent_from_state(state, setup, model, ControlVector(g, psi, zero_pr))
            pairing = (1 - lam) * w * np.vdot(t.K, m_k) + lam * w * np.vdot(t.y, m_y)
            scale = np.sqrt(w * (np.vdot(t.u, t.u) + np.vdot(t.grad_u, t.grad_u)
                                 + np.vdot(t.y, t.y)))
            r_mom = max(r_mom, abs(pairing) / max(scale, 1e-30))
        if pr is not None:
            t = tangent_from_state(state, setup, model, ControlVector(g, zero_psi, pr))
            scale = np.sqrt(w * np.vdot(t.y, t.y))
            r_pr = max(r_pr, abs(w * np.vdot(t.y, m_y)) / max(scale, 1e-30))
    return r_mom, r_pr


@pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_el_residual_matches_chain_tangent(kind, advection, p):
    # the per-level sums of the time-separable pairs against the full tangent
    setup, model, c = bank_problem(kind, advection)
    g = setup.grid
    bank = default_test_bank(g)
    bank.append(zero_pair(g))
    bank.append(TestPair("both", profile=bank[1].profile, shape=bank[0].shape, pr=bank[-2].pr))
    state = assemble_state(c, setup, model)
    # the whole bank (consecutive pairs share a shape) and every pair alone
    for sub in [bank] + [[pair] for pair in bank]:
        got = el_residual(state, p, setup, model, sub)
        expect = tangent_bank_evaluation(state, p, setup, model, sub)
        for a, b in zip(got, expect):
            assert abs(a - b) <= 1e-12 * abs(b), (sub[0].label, a, b)


def block_bank_pairings(state, p, setup, model, bank):
    """Reference: bank_pairings as it paired full (nt, ...) test blocks.

    Each measure is pulled back through the transposed chain and dotted
    with the pair's whole stream-function or pressure block.
    """
    g = setup.grid
    w = state.weight
    m_k, m_y = state.dual_weights(p)
    sigma_y = w * m_y
    sigma_psi = velocity_map_transpose(np.pad(sigma_y, ((0, 0), (0, 0), (1, 1), (1, 1))), g)
    sigma_pr = pressure_gradient_transpose(sigma_y, g)
    big_sigma = adjoint_from_state(state, setup, model, w * m_k, None)
    rows = []
    for pair in bank:
        sig = big = 0.0
        psi, pr = blocks(pair)
        if psi is not None:
            sig = np.vdot(psi, sigma_psi)
            big = np.vdot(psi, big_sigma.psi)
        if pr is not None:
            sig = np.vdot(pr, sigma_pr)
        rows.append((pair.label, sig, big))
    return rows


@pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_bank_pairings_match_block_pairings(kind, advection, p):
    # the per-level reductions against the pairings of the full test blocks
    setup, model, c = bank_problem(kind, advection)
    g = setup.grid
    bank = default_test_bank(g)
    bank.append(zero_pair(g))
    # both blocks: the pressure pairing fills the sigma column
    bank.append(TestPair("both", profile=bank[1].profile, shape=bank[0].shape, pr=bank[-2].pr))
    state = assemble_state(c, setup, model)
    got = bank_pairings(state, p, setup, model, bank)
    expect = block_bank_pairings(state, p, setup, model, bank)
    for (label, sig, big), (ref_label, ref_sig, ref_big) in zip(got, expect, strict=True):
        assert label == ref_label
        assert abs(sig - ref_sig) <= 1e-12 * abs(ref_sig), (label, sig, ref_sig)
        assert abs(big - ref_big) <= 1e-12 * abs(ref_big), (label, big, ref_big)
