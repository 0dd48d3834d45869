import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nsassim
import nsassim.nse as nse

from nsassim.errors import ConfigurationError, InvalidFieldError
from nsassim.grid import GridSpec, VectorField
from nsassim.misfit import (
    AssembledState, MisfitReport, adjoint_from_state, assemble_state, gradient_from_state,
    report_from_state, tangent_from_state, velocity_tangent,
)
from nsassim.norms import WeightedSamples, dotted_lp_norm, dual_weight, sup_norm
from nsassim.nse import (
    ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset, residual_y,
    state_from_control, velocity_gradient, velocity_gradient_transpose, velocity_map,
)
from nsassim.observation import (
    KINDS, ObservationModel, default_mask, eval_K, n_components, synth_data,
)


def grid(nx=8, ny=8, nt=6, t_end=0.3):
    return GridSpec(nx=nx, ny=ny, nt=nt, t_end=t_end)


def setup_for(g, lam=0.5, nu=0.01, amp=0.1, advection=True):
    return PhysicsSetup(grid=g, nu=nu, lam=lam,
                        f=forcing_preset(g, "none", 0.0),
                        u0=initial_velocity_preset(g, "vortex", amp),
                        include_advection=advection)


def noisy_model(g, amplitude=0.3, seed=11, stride=2):
    return synth_data(VectorField.zeros(g), "masked-velocity", amplitude,
                      seed=seed, mask_stride=stride)


def report_at(c, setup, model, p):
    return report_from_state(assemble_state(c, setup, model), setup, p)


def gradient_at(c, setup, model, p):
    return gradient_from_state(assemble_state(c, setup, model), setup, model, p)


def random_control(g, rng, scale=0.3):
    return ControlVector(g, scale * rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                         scale * rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))


class TestReports:
    def test_terms_sum(self):
        g = grid()
        rng = np.random.default_rng(0)
        rep = report_at(random_control(g, rng), setup_for(g), noisy_model(g), 4.0)
        assert rep.e_p == pytest.approx(rep.term_K + rep.term_y, abs=1e-15)

    def test_floor_terms(self):
        g = grid()
        lam = 0.3
        rng = np.random.default_rng(1)
        for p in (2.0, 16.0, 128.0):
            rep = report_at(random_control(g, rng), setup_for(g, lam=lam),
                            noisy_model(g), p)
            assert rep.term_K >= (1 - lam) / p - 1e-15
            assert rep.term_y >= lam / p - 1e-15
            assert rep.e_p >= 1.0 / p - 1e-15

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ConfigurationError):
            MisfitReport(2.0, 1.0, 0.2, 0.3, 0.0, 0.0)

    def test_zero_everything_is_floor(self):
        # exact-data configuration: f, u0, q all zero and zero control give
        # identically vanishing K and y, so the misfit sits on its 1/p floor
        g = grid()
        setup = PhysicsSetup(grid=g, nu=0.05, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "zero", 0.0))
        q = np.zeros((g.nt, g.ny - 2, g.nx - 2, n_components("masked-velocity")))
        model = ObservationModel("masked-velocity", g, q, mask=default_mask(g, 2))
        c = ControlVector.zeros(g)
        for p in (2.0, 8.0, 64.0):
            rep = report_at(c, setup, model, p)
            assert rep.e_p == pytest.approx(1.0 / p, abs=1e-15)
        rep_inf = report_at(c, setup, model, math.inf)
        assert rep_inf.e_p == 0.0

    def test_constant_misfit_sup(self):
        # constant K of magnitude c with zero residual: sup-misfit (1-lam)|c|
        g = grid()
        lam = 0.4
        setup = PhysicsSetup(grid=g, nu=0.05, lam=lam,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "zero", 0.0))
        q = np.full((g.nt, g.ny - 2, g.nx - 2, 1), -2.5)
        model = ObservationModel("speed-squared", g, q)
        rep = report_at(ControlVector.zeros(g), setup, model, math.inf)
        assert rep.e_p == pytest.approx((1 - lam) * 2.5, rel=1e-14)
        assert rep.sup_y == 0.0

    def test_lambda_near_one_tracks_residual_norm(self):
        g = grid()
        lam = 0.999
        setup = setup_for(g, lam=lam)
        model = noisy_model(g)
        rng = np.random.default_rng(2)
        c = random_control(g, rng)
        rep = report_at(c, setup, model, 4.0)
        state = assemble_state(c, setup, model)
        y_s = WeightedSamples.uniform(state.y_int.reshape(-1, 2))
        direct = dotted_lp_norm(y_s, 4.0)
        assert rep.term_y == pytest.approx(lam * direct, rel=1e-12)
        assert abs(rep.e_p - direct) <= 2e-3 * max(1.0, direct)

    def test_data_offset_scaling(self):
        # doubling a constant data offset changes only the observation term,
        # consistently with norm homogeneity up to the regularization floor
        g = grid()
        setup = setup_for(g)
        c = ControlVector.zeros(g)
        p = 8.0
        reps = {}
        for d in (0.2, 0.4):
            q = np.full((g.nt, g.ny - 2, g.nx - 2, 2), d)
            model = ObservationModel("masked-velocity", g, q, mask=default_mask(g, 2))
            reps[d] = report_at(c, setup, model, p)
        assert reps[0.2].term_y == pytest.approx(reps[0.4].term_y, rel=1e-13)
        lam = setup.lam
        # masked nodes carry |K| = d, off-mask zero; recompute directly
        m = default_mask(g, 2)[1:-1, 1:-1]
        for d in (0.2, 0.4):
            vals = np.zeros((g.nt, g.ny - 2, g.nx - 2, 2))
            vals[:, m] = -d
            oracle = (1 - lam) * dotted_lp_norm(
                WeightedSamples.uniform(vals.reshape(-1, 2)), p)
            assert reps[d].term_K == pytest.approx(oracle, rel=1e-13)
        ratio = (reps[0.4].term_K) / (reps[0.2].term_K)
        assert 1.0 < ratio <= 2.0 + 1e-12


class TestGradient:
    @pytest.mark.parametrize("p", [2.0, 6.0])
    def test_finite_difference_agreement(self, p):
        g = grid()
        setup = setup_for(g)
        model = noisy_model(g)
        rng = np.random.default_rng(3)
        c = random_control(g, rng)
        flat = gradient_at(c, setup, model, p).to_flat()
        eps = 1e-6
        for _ in range(8):
            d = rng.standard_normal(flat.size)
            d /= np.linalg.norm(d)
            cp = ControlVector.from_flat(g, c.to_flat() + eps * d)
            cm = ControlVector.from_flat(g, c.to_flat() - eps * d)
            fd = (report_at(cp, setup, model, p).e_p
                  - report_at(cm, setup, model, p).e_p) / (2 * eps)
            assert abs(float(flat @ d) - fd) <= 1e-5 * max(abs(fd), 1e-12)

    def test_fd_agreement_without_advection_and_other_kinds(self):
        g = grid()
        rng = np.random.default_rng(4)
        truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
        for kind in ("vorticity", "speed-squared"):
            model = synth_data(truth, kind, 0.2, seed=7)
            setup = setup_for(g, advection=False)
            c = random_control(g, rng)
            flat = gradient_at(c, setup, model, 3.0).to_flat()
            eps = 1e-6
            d = rng.standard_normal(flat.size)
            d /= np.linalg.norm(d)
            cp = ControlVector.from_flat(g, c.to_flat() + eps * d)
            cm = ControlVector.from_flat(g, c.to_flat() - eps * d)
            fd = (report_at(cp, setup, model, 3.0).e_p
                  - report_at(cm, setup, model, 3.0).e_p) / (2 * eps)
            assert abs(float(flat @ d) - fd) <= 1e-5 * max(abs(fd), 1e-12)

    def test_norm_derivative_is_dual_weight(self):
        # the gradient of the averaged norm with respect to the samples is
        # the weighted dual-weight map, regularization channel included
        rng = np.random.default_rng(5)
        vals = 0.05 * rng.standard_normal((40, 2))  # small values stress p^-2
        h = WeightedSamples.uniform(vals)
        for p in (2.0, 8.0):
            dw = dual_weight(h, p)
            eps = 1e-6
            for _ in range(5):
                d = rng.standard_normal(vals.shape)
                hp = WeightedSamples.uniform(vals + eps * d)
                hm = WeightedSamples.uniform(vals - eps * d)
                fd = (dotted_lp_norm(hp, p) - dotted_lp_norm(hm, p)) / (2 * eps)
                an = float(np.sum(h.weights[:, None] * dw.values * d))
                # the comparison floor is central-difference round-off
                assert abs(an - fd) <= 1e-10 + 1e-7 * abs(fd)

    def test_channel_linearity(self):
        g = grid()
        setup = setup_for(g)
        model = noisy_model(g)
        rng = np.random.default_rng(6)
        c = random_control(g, rng)
        state = assemble_state(c, setup, model)
        both = gradient_from_state(state, setup, model, 4.0).to_flat()
        m_k, m_y = state.dual_weights(4.0)
        w = state.weight
        obs = adjoint_from_state(state, setup, model, ((1.0 - setup.lam) * w) * m_k,
                                 None).to_flat()
        mod = adjoint_from_state(state, setup, model, None,
                                 (setup.lam * w) * m_y).to_flat()
        assert np.abs(both - obs - mod).max() <= 1e-15 + 1e-12 * np.abs(both).max()

    def test_sup_misfit_not_differentiable(self):
        g = grid()
        with pytest.raises(ConfigurationError):
            gradient_at(ControlVector.zeros(g), setup_for(g), noisy_model(g), math.inf)


def test_sup_misfit_bounded_by_high_exponent_norms():
    # finite-sample bound: sup <= averaged p-norm * n^(1/p), hence the
    # sup-misfit is controlled by high-exponent misfits; the gap shrinks
    g = grid()
    setup = setup_for(g)
    model = noisy_model(g, amplitude=0.5)
    rng = np.random.default_rng(8)
    c = random_control(g, rng)
    rep_inf = report_at(c, setup, model, math.inf)
    n = g.nt * g.n_interior
    gaps = []
    for p in (16.0, 32.0, 64.0, 128.0):
        rep = report_at(c, setup, model, p)
        assert rep_inf.e_p <= rep.e_p * n ** (1.0 / p) + 1e-12
        gaps.append(abs(rep.e_p - rep_inf.e_p))
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] <= gaps[-2] <= gaps[-3]


@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_reused_norms_equal_public_api_bitwise(kind, monkeypatch):
    # the report and gradient reuse one norm evaluation per state; they must
    # give exactly what the validated public norm functions give
    g = grid()
    rng = np.random.default_rng(9)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=7, mask_stride=2)
    setup = setup_for(g)
    state = assemble_state(random_control(g, rng), setup, model)
    fields = (state.K.values, state.y_int)
    h_k, h_y = (WeightedSamples(v.reshape(-1, v.shape[-1]),
                                np.full(v.size // v.shape[-1], state.weight))
                for v in fields)

    def public_dual_weights(self, p):
        # in the state's layout, component axis first
        return tuple(np.moveaxis(dual_weight(h, p).values.reshape(v.shape), -1, 0)
                     for h, v in zip((h_k, h_y), fields))

    for p in (2.0, 16.0, 128.0):
        rep = report_from_state(state, setup, p)
        assert rep.term_K == (1.0 - setup.lam) * dotted_lp_norm(h_k, p)
        assert rep.term_y == setup.lam * dotted_lp_norm(h_y, p)
        assert (rep.sup_K, rep.sup_y) == (sup_norm(h_k), sup_norm(h_y))
        grad = gradient_from_state(state, setup, model, p).to_flat()
        with monkeypatch.context() as m:
            m.setattr(AssembledState, "dual_weights", public_dual_weights)
            expect = gradient_from_state(state, setup, model, p).to_flat()
        assert np.array_equal(grad, expect)


def taylor_problem(kind, advection):
    """The tests' 8^2 problem with data of the given kind, a control c and a direction d."""
    g = grid()
    rng = np.random.default_rng(31)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=7, mask_stride=2)
    c, d = random_control(g, rng), random_control(g, rng)
    return g, setup_for(g, advection=advection), model, c, d


def orders(remainders):
    """Observed orders log2(R(h) / R(h/2)) of remainders at halving h."""
    return np.log2(np.array(remainders[:-1]) / np.array(remainders[1:]))


@pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_gradient_taylor_remainder_is_second_order(kind, advection, p):
    # R(h) = |E(c+hd) - E(c) - h<g, d>| falls like h^2.  The h range:
    # h = 2^-k / p, k = 4..8, with |d| about |c|.  The norm's curvature grows
    # like p, so the third-order term, relative to the second, grows like
    # h p: the range shrinks with p.  From k = 4 on every case is within
    # 0.03 of order 2; at k = 8 R still exceeds the round-off of E by four
    # orders of magnitude.
    g, setup, model, c, d = taylor_problem(kind, advection)
    x, dx = c.to_flat(), d.to_flat()
    state = assemble_state(c, setup, model)
    e0 = report_from_state(state, setup, p).e_p
    slope = float(gradient_from_state(state, setup, model, p).to_flat() @ dx)
    rem = []
    for h in 2.0 ** -np.arange(4, 9) / p:
        e = report_at(ControlVector.from_flat(g, x + h * dx), setup, model, p).e_p
        rem.append(abs(e - e0 - h * slope))
    assert np.all(np.abs(orders(rem) - 2.0) <= 0.1), orders(rem)


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_tangent_taylor_remainder_is_second_order(kind, advection):
    # per channel, R(h) = |F(c+hd) - F(c) - h J d| for F = K and F = y: the
    # chain is quadratic in the control (advection; K of speed-squared) or
    # affine, so R falls exactly like h^2 for any h, h = 2^-k, k = 0..4,
    # or is round-off of F, far below h |J d|
    g, setup, model, c, d = taylor_problem(kind, advection)
    x, dx = c.to_flat(), d.to_flat()
    state = assemble_state(c, setup, model)
    t = tangent_from_state(state, setup, model, d)
    hs = 2.0 ** -np.arange(5)
    rem = {"K": [], "y": []}
    for h in hs:
        s = assemble_state(ControlVector.from_flat(g, x + h * dx), setup, model)
        rem["K"].append(np.linalg.norm(s.misfit - state.misfit - h * t.K))
        rem["y"].append(np.linalg.norm(s.residual - state.residual - h * t.y))
    quadratic = {"K": kind == "speed-squared", "y": advection}
    for name, jd in (("K", t.K), ("y", t.y)):
        if quadratic[name]:
            assert np.all(np.abs(orders(rem[name]) - 2.0) <= 0.1), (name, orders(rem[name]))
        else:
            assert np.all(np.array(rem[name]) <= 1e-12 * hs * np.linalg.norm(jd)), name


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_tangent_is_transpose_of_adjoint(kind, advection):
    # full chain: <J dc, (kbar, ybar)> = <dc, J^T (kbar, ybar)> on a
    # non-square grid, so swapped axes cannot cancel
    g = grid(nx=9, ny=13, nt=4)
    rng = np.random.default_rng(21)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=3, mask_stride=2)
    setup = setup_for(g, advection=advection)
    state = assemble_state(random_control(g, rng), setup, model)
    dc = random_control(g, rng)
    kbar = rng.standard_normal(state.misfit.shape)
    ybar = rng.standard_normal(state.residual.shape)

    t = tangent_from_state(state, setup, model, dc)
    back = adjoint_from_state(state, setup, model, kbar, ybar)
    lhs = float(np.vdot(t.K, kbar) + np.vdot(t.y, ybar))
    rhs = float(np.vdot(dc.psi, back.psi) + np.vdot(dc.pr, back.pr))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # the velocity block alone, and the tangent's u and grad u
    du = tangent_from_state(state, setup, model, ControlVector(g, dc.psi, 0 * dc.pr))
    u_full = state_from_control(ControlVector(g, dc.psi, 0 * dc.pr), setup)[0].values[1:]
    assert np.allclose(np.moveaxis(du.u, 0, -1), u_full[:, 1:-1, 1:-1], rtol=0, atol=1e-14)
    # the full-grid gradient with the full 1D matrices, at interior nodes
    grad_full = np.stack([d for c in (0, 1) for d in (u_full[..., c] @ g.d1x().T,
                                                      g.d1y() @ u_full[..., c])],
                         axis=-1)[:, 1:-1, 1:-1]
    assert np.allclose(np.moveaxis(du.grad_u, 0, -1), grad_full, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_one_level_velocity_tangent_broadcasts(kind, advection):
    # a one-level direction with its own interior level as u_init is the
    # nt-level tangent of that level repeated, to the bit: the per-level
    # pairings of the diagnostics rest on it
    g = grid(nx=9, ny=13, nt=4)
    rng = np.random.default_rng(23)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=3, mask_stride=2)
    setup = setup_for(g, advection=advection)
    state = assemble_state(random_control(g, rng), setup, model)
    v = velocity_map(rng.standard_normal((1, g.ny - 4, g.nx - 4)), g)
    u_init = v[:, 0, 1:-1, 1:-1]
    one = velocity_tangent(state, setup, model, v, u_init)
    full = velocity_tangent(state, setup, model, np.repeat(v, g.nt, axis=1), u_init)
    for name in ("u", "grad_u", "K", "y"):
        level, levels = getattr(one, name), getattr(full, name)
        assert np.array_equal(np.broadcast_to(level, levels.shape), levels), name


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_adjoint_without_residual_cotangent(kind, advection):
    # ybar=None skips the residual branch; the pull-back equals the explicit
    # zero cotangent's up to the sign of zeros
    g = grid(nx=9, ny=13, nt=4)
    rng = np.random.default_rng(23)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=3, mask_stride=2)
    setup = setup_for(g, advection=advection)
    state = assemble_state(random_control(g, rng), setup, model)
    kbar = rng.standard_normal(state.misfit.shape)
    got = adjoint_from_state(state, setup, model, kbar, None)
    expect = adjoint_from_state(state, setup, model, kbar, np.zeros(state.residual.shape))
    assert np.array_equal(got.psi, expect.psi)
    assert np.array_equal(got.pr, expect.pr)


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", ["masked-velocity", "vorticity", "speed-squared"])
def test_gradient_transpose_only_for_a_written_cotangent(kind, advection, monkeypatch):
    # the gradient cotangent is written by the advection and by observations
    # of the velocity gradient (vorticity) only; otherwise its transpose,
    # two matmuls over all levels on zeros, is skipped
    import nsassim.misfit as misfit
    g = grid(nx=9, ny=13, nt=4)
    rng = np.random.default_rng(25)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=3, mask_stride=2)
    assert model.reads_gradient == (kind == "vorticity")
    setup = setup_for(g, advection=advection)
    state = assemble_state(random_control(g, rng), setup, model)
    calls = []

    def counted(gbar, grid_, ubar):
        calls.append(1)
        return velocity_gradient_transpose(gbar, grid_, ubar)

    monkeypatch.setattr(misfit, "velocity_gradient_transpose", counted)
    kbar = rng.standard_normal(state.misfit.shape)
    adjoint_from_state(state, setup, model, kbar, None)
    assert len(calls) == int(model.reads_gradient)
    calls.clear()
    adjoint_from_state(state, setup, model, kbar, rng.standard_normal(state.residual.shape))
    assert len(calls) == int(model.reads_gradient or advection)


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_assembled_fields_match_field_level_path(kind, advection):
    # the component-last fields built for output agree with the field-level
    # path: state_from_control, residual_y, eval_K on velocity_gradient
    g = grid(nx=9, ny=13, nt=4)
    rng = np.random.default_rng(23)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=3, mask_stride=2)
    setup = PhysicsSetup(grid=g, nu=0.01, lam=0.5, f=forcing_preset(g, "swirl", 0.2),
                         u0=initial_velocity_preset(g, "vortex", 0.1),
                         include_advection=advection)
    c = random_control(g, rng)
    state = assemble_state(c, setup, model)
    u, p = state_from_control(c, setup)
    y = residual_y(u, p, setup)
    v = np.moveaxis(u.values[1:], -1, 0)
    k = np.moveaxis(eval_K(v[..., 1:-1, 1:-1], velocity_gradient(v, g), model), 0, -1)
    for got, want in ((state.u.values, u.values), (state.p.values, p.values),
                      (state.y.values, y.values), (state.y_int, y.values[1:, 1:-1, 1:-1]),
                      (state.K.values, k)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_overflowing_control_is_invalid_for_every_kind():
    # stream-function entries of 1e160 give velocities near 1e161, whose
    # advection and squares overflow to inf
    g = grid()
    setup = setup_for(g)
    truth = VectorField(g, 0.2 * np.random.default_rng(2).standard_normal(
        (g.nt + 1, g.ny, g.nx, 2)))
    c = ControlVector(g, np.full((g.nt, g.ny - 4, g.nx - 4), 1e160),
                      np.zeros((g.nt, g.ny - 2, g.nx - 2)))
    with np.errstate(over="ignore"):
        for kind in KINDS:
            model = synth_data(truth, kind, 0.0, seed=1, mask_stride=2)
            with pytest.raises(InvalidFieldError, match="residual"):
                assemble_state(c, setup, model)
        # without advection the residual stays finite and the squares overflow
        model = synth_data(truth, "speed-squared", 0.0, seed=1)
        with pytest.raises(InvalidFieldError, match="misfit"):
            assemble_state(c, setup_for(g, advection=False), model)


def test_overflowing_pressure_gradient_is_invalid():
    # a pressure block of 1e308 is finite, but its gradient overflows: the
    # residual is not finite, and the assembly says so
    g = grid()
    c = ControlVector(g, np.zeros((g.nt, g.ny - 4, g.nx - 4)),
                      np.full((g.nt, g.ny - 2, g.nx - 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidFieldError, match="residual"):
            assemble_state(c, setup_for(g), noisy_model(g))


# 84,940 control entries, above nse._SPLIT_SIZE; the odd nt splits the levels 15 + 16
BLOCK_GRID = GridSpec(nx=40, ny=40, nt=31, t_end=0.31)
OVERFLOW_GRID = GridSpec(nx=48, ny=48, nt=36, t_end=0.36)


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_two_threads_keep_every_bit(kind, advection, level_blocks):
    # one call over all levels against two threads, with the default tiles
    # (9 levels) and with one-level tiles: every field, report, gradient and
    # adjoint is the same to the bit
    g = BLOCK_GRID
    assert g.nt * ((g.ny - 4) * (g.nx - 4) + (g.ny - 2) * (g.nx - 2)) >= nse._SPLIT_SIZE
    rng = np.random.default_rng(40)
    setup = setup_for(g, advection=advection)
    truth = VectorField(g, 0.2 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    model = synth_data(truth, kind, 0.2, seed=7, mask_stride=3)
    c = random_control(g, rng, 0.01)

    def chain():
        state = assemble_state(c, setup, model)
        m_k, m_y = state.dual_weights(8.0)
        out = [state.u_full, state.grad_u, state.misfit, state.residual,
               gradient_from_state(state, setup, model, 16.0).to_flat(),
               adjoint_from_state(state, setup, model, None, m_y).to_flat(),
               adjoint_from_state(state, setup, model, m_k, None).to_flat()]
        for p in (2.0, 16.0, 128.0, math.inf):
            r = report_from_state(state, setup, p)
            out.append(np.array([r.e_p, r.term_K, r.term_y, r.sup_K, r.sup_y]))
        return out

    worker = level_blocks(1, tile=10 ** 9)
    one = chain()
    assert not worker.futures
    for tile in (None, 1):
        worker = level_blocks(2, tile)
        two = chain()
        # the assembly's three passes, the gradient's adjoint and two more adjoints
        assert len(worker.futures) == 6
        assert all(np.array_equal(a, b) for a, b in zip(one, two))


def overflow_problem(kind, advection=True):
    g = OVERFLOW_GRID
    model = synth_data(VectorField.zeros(g), kind, 0.2, seed=3, mask_stride=4)
    c = ControlVector(g, np.full((g.nt, g.ny - 4, g.nx - 4), 1e160),
                      np.zeros((g.nt, g.ny - 2, g.nx - 2)))
    return setup_for(g, advection=advection), model, c


def test_overflow_on_two_threads_is_invalid(level_blocks):
    # at 48x48x36 on two threads, under pytest's RuntimeWarning filter:
    # the worker runs under the caller's errstate, so its overflow is the
    # assembly's InvalidFieldError with the one-block message
    worker = level_blocks(2)
    with np.errstate(over="ignore"):
        for kind in KINDS:
            setup, model, c = overflow_problem(kind)
            with pytest.raises(InvalidFieldError,
                               match="^momentum residual contains non-finite values$"):
                assemble_state(c, setup, model)
        setup, model, c = overflow_problem("speed-squared", advection=False)
        with pytest.raises(InvalidFieldError,
                           match="^observation misfit contains non-finite values$"):
            assemble_state(c, setup, model)
    assert len(worker.futures) == 3 * 2 + 3  # a residual check stops after two passes
    assert all(f.done() for f in worker.futures)


def test_a_raising_tile_waits_for_the_worker(level_blocks):
    # only the first half of the levels overflows; under errstate "raise" the
    # caller's first tile raises while the worker, started late, still runs:
    # the assembly raises only once the worker has ended
    worker = level_blocks(2, delay=0.2)
    setup, model, c = overflow_problem("vorticity")
    c.psi[c.psi.shape[0] // 2:] = 0.0
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        assemble_state(c, setup, model)
    assert len(worker.futures) == 2
    assert all(f.done() for f in worker.futures)


def test_gradient_is_adjoint_of_scaled_dual_weights():
    g = grid()
    rng = np.random.default_rng(4)
    setup, model = setup_for(g), noisy_model(g)
    state = assemble_state(random_control(g, rng), setup, model)
    m_k, m_y = state.dual_weights(8.0)
    w = state.weight
    expect = adjoint_from_state(state, setup, model, (1 - setup.lam) * w * m_k,
                                setup.lam * w * m_y).to_flat()
    assert np.array_equal(gradient_from_state(state, setup, model, 8.0).to_flat(), expect)


HASH_HOT_PATH = """
import hashlib
import numpy as np
from nsassim.diagnostics import bank_pairings, el_residual
from nsassim.grid import GridSpec
from nsassim.misfit import assemble_state, gradient_from_state
from nsassim.nse import ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset
from nsassim.nse import reference_solve, state_from_control, stream_metric_inverse
from nsassim.observation import synth_data
from nsassim.optim import OptimOptions, minimize_E_p

digest = hashlib.sha256()
for n in (16, 32, 48):
    g = GridSpec(n, n, 3 * n // 4, 1.0, 1.0, 0.36)
    setup = PhysicsSetup(grid=g, nu=0.002, lam=0.5, f=forcing_preset(g, "swirl", 0.1),
                         u0=initial_velocity_preset(g, "vortex", 0.15))
    rng = np.random.default_rng(n)
    shapes = ((g.nt, n - 4, n - 4), (g.nt, n - 2, n - 2))
    truth = ControlVector(g, *(0.01 * rng.standard_normal(s) for s in shapes))
    c = ControlVector(g, *(0.01 * rng.standard_normal(s) for s in shapes))
    for kind in ("masked-velocity", "vorticity"):
        model = synth_data(state_from_control(truth, setup)[0], kind, 0.5, 1, mask_stride=4)
        state = assemble_state(c, setup, model)
        grad = gradient_from_state(state, setup, model, 16.0).to_flat()
        steps = minimize_E_p(c, setup, model, 16.0, OptimOptions(max_iters=3)).control.to_flat()
        for a in (state.u.values, state.p.values, state.y_int, state.K.values, grad, steps):
            digest.update(np.ascontiguousarray(a).tobytes())
    if n == 32:  # fourteen steps with memory 4 evict the oldest pairs
        opts = OptimOptions(max_iters=14, memory=4)
        digest.update(minimize_E_p(c, setup, model, 16.0, opts).control.to_flat().tobytes())
    if n == 48:
        model = synth_data(state_from_control(truth, setup)[0], "speed-squared", 0.5, 1)
        state = assemble_state(c, setup, model)
        for p in (2.0, 128.0):
            rows = bank_pairings(state, p, setup, model)
            digest.update(np.array(el_residual(state, p, setup, model)).tobytes())
            digest.update(np.array([row[1:] for row in rows]).tobytes())
for n, sweeps in ((16, 3), (24, 1), (64, 1)):
    g = GridSpec(n, n, 3 * n // 4, 1.0, 1.0, 0.36)
    setup = PhysicsSetup(grid=g, nu=0.002, lam=0.5, f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.15))
    digest.update(reference_solve(setup, advection_sweeps=sweeps).control.to_flat().tobytes())
for n in (48, 64):
    g = GridSpec(n, n, 3 * n // 4, 1.0, 1.0, 0.36)
    block = np.random.default_rng(n).standard_normal((g.nt, n - 4, n - 4))
    digest.update(stream_metric_inverse(block, g).tobytes())
print(digest.hexdigest())
"""


def test_hot_path_bits_independent_of_blas_threads():
    # assemble_state, gradient_from_state and three L-BFGS steps at 16^2,
    # 32^2 and 48^2 (the assim-48 grid), fourteen steps with memory 4 at
    # 32^2 (the history's ring wraps), the stage diagnostics el_residual
    # and bank_pairings at 48^2 with speed-squared data, the
    # reference-solve truth at 16^2, 24^2 and 64^2 (where OpenBLAS threads
    # dgemm), and the L-BFGS metric stream_metric_inverse at 48^2 and 64^2
    # (its level product is a dgemm) hash the same under one and two
    # OpenBLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsassim.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", HASH_HOT_PATH], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
