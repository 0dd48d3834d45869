import os
import subprocess
import sys

import numpy as np
import pytest

import nsassim

from nsassim.errors import ConfigurationError, InvalidFieldError
from nsassim.grid import GridSpec, VectorField, gradient_kernel
from nsassim.misfit import (
    AssembledState, MisfitReport, adjoint_from_state, assemble_state, gradient_from_state,
    report_from_state, tangent_from_state,
)
from nsassim.norms import PExponent, WeightedSamples, dotted_lp_norm, dual_weight, sup_norm
from nsassim.nse import (
    ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset, residual_y,
    state_from_control, velocity_gradient,
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
            MisfitReport(PExponent(2.0), 1.0, 0.2, 0.3, 0.0, 0.0)

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
        rep_inf = report_at(c, setup, model, PExponent.infinity())
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
        rep = report_at(ControlVector.zeros(g), setup, model, PExponent.infinity())
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
        m_k, m_y = state.dual_weights(PExponent(4.0))
        w = state.weight
        obs = adjoint_from_state(state, setup, model, ((1.0 - setup.lam) * w) * m_k,
                                 None).to_flat()
        mod = adjoint_from_state(state, setup, model, None,
                                 (setup.lam * w) * m_y).to_flat()
        assert np.abs(both - obs - mod).max() <= 1e-15 + 1e-12 * np.abs(both).max()

    def test_sup_misfit_not_differentiable(self):
        g = grid()
        with pytest.raises(ConfigurationError):
            gradient_at(ControlVector.zeros(g), setup_for(g), noisy_model(g),
                        PExponent.infinity())


def test_sup_misfit_bounded_by_high_exponent_norms():
    # finite-sample bound: sup <= averaged p-norm * n^(1/p), hence the
    # sup-misfit is controlled by high-exponent misfits; the gap shrinks
    g = grid()
    setup = setup_for(g)
    model = noisy_model(g, amplitude=0.5)
    rng = np.random.default_rng(8)
    c = random_control(g, rng)
    rep_inf = report_at(c, setup, model, PExponent.infinity())
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
    grad_full = gradient_kernel(u_full, g)[:, 1:-1, 1:-1]
    assert np.allclose(np.moveaxis(du.grad_u, 0, -1), grad_full, rtol=1e-12, atol=1e-12)


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


def test_gradient_is_adjoint_of_scaled_dual_weights():
    g = grid()
    rng = np.random.default_rng(4)
    setup, model = setup_for(g), noisy_model(g)
    state = assemble_state(random_control(g, rng), setup, model)
    m_k, m_y = state.dual_weights(PExponent(8.0))
    w = state.weight
    expect = adjoint_from_state(state, setup, model, (1 - setup.lam) * w * m_k,
                                setup.lam * w * m_y).to_flat()
    assert np.array_equal(gradient_from_state(state, setup, model, 8.0).to_flat(), expect)


HASH_HOT_PATH = """
import hashlib
import numpy as np
from nsassim.grid import GridSpec
from nsassim.misfit import assemble_state, gradient_from_state
from nsassim.nse import ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset
from nsassim.nse import reference_solve, state_from_control
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
for n, sweeps in ((16, 3), (24, 1), (64, 1)):
    g = GridSpec(n, n, 3 * n // 4, 1.0, 1.0, 0.36)
    setup = PhysicsSetup(grid=g, nu=0.002, lam=0.5, f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.15))
    digest.update(reference_solve(setup, advection_sweeps=sweeps).control.to_flat().tobytes())
print(digest.hexdigest())
"""


def test_hot_path_bits_independent_of_blas_threads():
    # assemble_state, gradient_from_state and three L-BFGS steps at 16^2,
    # 32^2 and 48^2 (the assim-48 grid), and the reference-solve truth at
    # 16^2, 24^2 and 64^2 (where OpenBLAS threads dgemm), hash the same
    # under one and two OpenBLAS threads
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
