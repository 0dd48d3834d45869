import math

import numpy as np
import pytest

from nsassim.diagnostics import build_sigma, density_bound_check, el_residual
from nsassim.errors import ConfigurationError, InvalidFieldError
from nsassim.grid import GridSpec, VectorField
from nsassim.misfit import MisfitReport, assemble_state, gradient_from_state, report_from_state
from nsassim.norms import (
    WeightedSamples, dotted_lp_norm, dual_factor, dual_weight, holder_gap, lp_terms,
    oscillating_step_profile, peak_curvature, reg_abs, sup_norm,
)
from nsassim.nse import ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset
from nsassim.observation import synth_data
from nsassim.optim import OptimOptions, minimize_E_p


def random_samples(rng, n=None, m=None, scale=None):
    n = n or int(rng.integers(5, 300))
    m = m or int(rng.integers(1, 4))
    scale = scale or rng.uniform(0.05, 4.0)
    vals = scale * rng.standard_normal((n, m))
    w = rng.uniform(0.05, 1.0, size=n)
    return WeightedSamples(vals, w / w.sum())


def exponent_problem():
    """An assembled 8x8x6 state with its setup and model, for the exponent contract."""
    g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
    setup = PhysicsSetup(grid=g, nu=0.02, lam=0.5, f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.1))
    model = synth_data(VectorField.zeros(g), "masked-velocity", 0.2, seed=3, mask_stride=2)
    c = ControlVector(g, 0.3 * np.ones((g.nt, g.ny - 4, g.nx - 4)),
                      0.1 * np.ones((g.nt, g.ny - 2, g.nx - 2)))
    return c, setup, model


def exponent_takers(c, setup, model):
    """Every public function that takes p, as a one-argument call, keyed by name."""
    state = assemble_state(c, setup, model)  # each call's own, so no norm is cached
    h = WeightedSamples.uniform(np.arange(12.0).reshape(6, 2))
    return {
        "report_from_state": lambda p: report_from_state(state, setup, p),
        "gradient_from_state": lambda p: gradient_from_state(state, setup, model, p).to_flat(),
        "lp_norms": lambda p: state.lp_norms(p),
        "dual_weights": lambda p: state.dual_weights(p),
        "build_sigma": lambda p: build_sigma(state.y, p).vector_weights,
        "el_residual": lambda p: el_residual(state, p, setup, model),
        "dotted_lp_norm": lambda p: dotted_lp_norm(h, p),
        "dual_weight": lambda p: dual_weight(h, p).values,
        "reg_abs": lambda p: reg_abs(h.values, p),
        "holder_gap": lambda p: holder_gap(1.0, p),
        "holder_gap_lower": lambda p: holder_gap(p, math.inf),
        "density_bound_check": lambda p: density_bound_check(state.y, p, 1e-3),
        "minimize_E_p": lambda p: minimize_E_p(c, setup, model, p, OptimOptions(max_iters=1)),
    }


def same_bits(a, b):
    if isinstance(a, MisfitReport):
        return a == b and type(a.p) is type(b.p) is float
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


class TestExponent:
    """An exponent is a number: a float >= 1, math.inf for the sup-norm."""

    @pytest.mark.parametrize("bad", [0.5, 0.0, -2.0, float("nan")])
    def test_invalid(self, bad):
        for fn in exponent_takers(*exponent_problem()).values():
            with pytest.raises(ConfigurationError, match="exponent must be >= 1 or inf"):
                fn(bad)

    def test_int_and_float_give_the_same_bits(self):
        problem = exponent_problem()
        for p in (2, 8, 128):
            ints, floats = exponent_takers(*problem), exponent_takers(*problem)
            for name in ints.keys() - {"minimize_E_p"}:
                assert same_bits(ints[name](p), floats[name](float(p))), (name, p)

    def test_infinity(self):
        takers = exponent_takers(*exponent_problem())
        rep = takers["report_from_state"](math.inf)
        assert rep.p == math.inf and rep.e_p == rep.term_K + rep.term_y
        assert (rep.term_K, rep.term_y) == (0.5 * rep.sup_K, 0.5 * rep.sup_y)
        assert takers["holder_gap"](math.inf) == 1.0
        assert takers["holder_gap_lower"](math.inf) == 0.0
        for name in takers.keys() - {"report_from_state", "holder_gap", "holder_gap_lower"}:
            with pytest.raises(ConfigurationError, match="finite exponent"):
                takers[name](math.inf)


class TestWeightedSamples:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WeightedSamples(np.zeros((0, 2)), np.zeros(0))

    def test_weights_must_normalize(self):
        with pytest.raises(ConfigurationError):
            WeightedSamples(np.zeros((3, 1)), np.array([0.5, 0.5, 0.5]))

    def test_nan_rejected(self):
        with pytest.raises(InvalidFieldError):
            WeightedSamples(np.array([[np.nan]]), np.array([1.0]))


class TestRegAbs:
    def test_zero_vector(self):
        assert reg_abs(np.zeros(2), 10.0) == pytest.approx(0.1, abs=1e-15)

    def test_direct_value(self):
        v = np.array([3.0, 0.0])
        assert reg_abs(v, 2.0) == pytest.approx(math.sqrt(9.25), abs=1e-14)

    def test_monotone_decrease_to_magnitude(self):
        v = np.array([0.3, -0.4])
        prev = None
        for p in [2.0 ** k for k in range(1, 11)]:
            r = float(reg_abs(v, p))
            assert r >= 0.5
            if prev is not None:
                assert r <= prev
            prev = r
        assert prev == pytest.approx(0.5, abs=1e-6)

    def test_requires_finite_p(self):
        h = WeightedSamples.uniform(np.ones((3, 2)))
        for fn, arg in ((reg_abs, np.ones(2)), (dotted_lp_norm, h), (dual_weight, h)):
            with pytest.raises(ConfigurationError):
                fn(arg, math.inf)


class TestDottedNorm:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 8.0, 64.0, 128.0])
    def test_zero_field_is_one_over_p(self, p):
        h = WeightedSamples.uniform(np.zeros((40, 2)))
        assert dotted_lp_norm(h, p) == pytest.approx(1.0 / p, abs=1e-15)

    def test_constant_closed_form(self):
        c = np.array([1.2, -0.5])
        h = WeightedSamples.uniform(np.tile(c, (17, 1)))
        for p in (2.0, 5.0, 32.0):
            expect = math.sqrt(float(c @ c) + p ** -2)
            assert dotted_lp_norm(h, p) == pytest.approx(expect, rel=1e-13)

    def test_identity_profile_against_brute_force(self):
        # h(x) = x on [0,1]; oracle is the naive power sum, safe at p=64
        p = 64.0
        x = (np.arange(4096) + 0.5) / 4096
        h = WeightedSamples.uniform(x[:, None])
        oracle = float(np.mean((x ** 2 + p ** -2) ** (p / 2.0)) ** (1.0 / p))
        got = dotted_lp_norm(h, p)
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got >= (1.0 / (p + 1.0)) ** (1.0 / p)
        # the sup-norm is 1; at p=64 the averaged norm sits about 0.063 below
        assert abs(got - 1.0) <= 0.07

    def test_log_space_stability(self):
        # naive powers would overflow: (1e30)^128 has no double representation
        vals = np.array([[1e30], [1e29], [0.0]])
        h = WeightedSamples.uniform(vals)
        out = dotted_lp_norm(h, 128.0)
        assert np.isfinite(out)
        expect = 1e30 * (np.sum((np.array([1e30, 1e29, 1e-30]) / 1e30) ** 128) / 3.0
                         ) ** (1.0 / 128.0)
        assert out == pytest.approx(expect, rel=1e-10)

    def test_zero_weight_samples_ignored(self):
        vals = np.array([[1.0], [100.0]])
        h = WeightedSamples(vals, np.array([1.0, 0.0]))
        assert dotted_lp_norm(h, 2.0) == pytest.approx(math.sqrt(1.25), rel=1e-13)
        assert sup_norm(h) == pytest.approx(1.0)
        # at p = 128 a large zero-weight sample beside a tiny-weight peak:
        # its term would overflow the factor, so it maps to zero, and the
        # positively weighted samples' dual weights are those without it
        p = 128.0
        vals = np.vstack([[[1.0, 0.0]], np.full((50, 2), 0.5 / p), [[1000.0, 0.0]]])
        w = np.r_[1e-12, np.full(50, (1.0 - 1e-12) / 50), 0.0]
        dw = dual_weight(WeightedSamples(vals, w), p)
        assert np.array_equal(dw.values[-1], [0.0, 0.0])
        without = dual_weight(WeightedSamples(vals[:-1], w[:-1]), p)
        assert np.array_equal(dw.values[:-1], without.values)
        assert dw.values[0, 0] == pytest.approx((1.0 + p ** -2) ** -0.5 * 1e12 ** ((p - 1) / p),
                                                rel=1e-12)


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(WeightedSamples.uniform(np.zeros((5, 2)))) == 0.0

    def test_single_spike(self):
        vals = np.zeros((10, 2))
        vals[4] = (3.0, 4.0)
        assert sup_norm(WeightedSamples.uniform(vals)) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        h = random_samples(rng)
        brute = max(float(np.linalg.norm(v)) for v in h.values)
        assert sup_norm(h) == pytest.approx(brute, rel=1e-15)


class TestDualWeight:
    def test_constant_closed_form(self):
        c = np.array([1.0, 0.0])
        h = WeightedSamples.uniform(np.tile(c, (9, 1)))
        out = dual_weight(h, 2.0)
        assert np.allclose(out.values, c / math.sqrt(1.25), atol=1e-14)
        assert out.values[0, 0] == pytest.approx(0.894427, abs=1e-6)

    def test_zero_field(self):
        h = WeightedSamples.uniform(np.zeros((6, 2)))
        assert np.all(dual_weight(h, 8.0).values == 0.0)

    @pytest.mark.parametrize("p", [2.0, 8.0, 32.0])
    def test_unit_ball(self, p):
        rng = np.random.default_rng(int(p))
        for _ in range(25):
            h = random_samples(rng)
            out = dual_weight(h, p)
            pc = p / (p - 1.0)
            mags = np.sqrt(np.einsum("ij,ij->i", out.values, out.values))
            ball = float(np.sum(h.weights * mags ** pc) ** (1.0 / pc))
            assert ball <= 1.0 + 1e-10

    def test_duality_identity(self):
        # pairing the dual weight against the field plus the regularization
        # channel recovers the norm
        rng = np.random.default_rng(7)
        for p in (1.5, 2.0, 8.0, 64.0):
            h = random_samples(rng)
            norm = dotted_lp_norm(h, p)
            dw = dual_weight(h, p)
            pair = float(np.sum(h.weights * np.einsum("ij,ij->i", dw.values, h.values)))
            r = reg_abs(h.values, p)
            reg_channel = p ** -2 * float(np.sum(
                h.weights * np.exp((p - 2.0) * np.log(r) - (p - 1.0) * math.log(norm))))
            assert abs(pair + reg_channel - norm) <= 1e-10 * norm

    @pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
    def test_squares_path_matches_to_the_bit(self, p):
        # the unvalidated path of the assembled state and the measures
        rng = np.random.default_rng(int(p))
        for m in (1, 2):
            vals = rng.uniform(0.01, 4.0) * rng.standard_normal((50, m))
            h = WeightedSamples.uniform(vals)
            sq = np.einsum("ij,ij->i", vals, vals)
            t, s, norm = lp_terms(sq, 1.0 / 50, p)
            assert norm == dotted_lp_norm(h, p)
            assert np.array_equal(vals * dual_factor(sq, t, s, norm, p)[:, None],
                                  dual_weight(h, p).values)

    def test_factor_has_no_subnormals(self):
        # at p = 128 magnitudes from 1/p to 4 spread the factor's exponent
        # over about -780..10: a factor is zero exactly where its term is
        # flushed, which covers every exponent below -600, never subnormal,
        # and otherwise the log-space closed form r^(p-2) / norm^(p-1)
        p = 128.0
        r = np.geomspace(1.0 / p, 4.0, 2000)
        sq = r * r - p ** -2
        t, s, norm = lp_terms(sq, 1.0 / r.size, p)
        expo = (p - 2.0) * np.log(r) - (p - 1.0) * math.log(norm)
        assert expo.min() < math.log(np.finfo(float).tiny) < -600.0 < expo.max()
        f = dual_factor(sq, t, s, norm, p)
        assert not np.any((f > 0.0) & (f < np.finfo(float).tiny))
        assert np.array_equal(f == 0.0, t == 0.0)
        assert np.count_nonzero(t == 0.0) > 400
        assert np.all(f[expo < -600.0] == 0.0)
        kept = t > 0.0
        assert np.allclose(f[kept], np.exp(expo[kept]), rtol=1e-12, atol=0.0)

    def test_norm_flushes_subnormal_terms_to_the_same_bits(self):
        # at p = 128, 1,400 of the 2,000 terms (r_i/m)^p lie below the
        # smallest normal float; the largest term is one, so zeroing them
        # leaves every bit of the unflushed sum
        p = 128.0
        r = np.concatenate([np.geomspace(1.0 / p, 0.015, 1400), np.geomspace(0.015, 4.0, 600)])
        w = 1.0 / r.size
        sq = r * r - p ** -2
        _, _, norm = lp_terms(sq, w, p)
        log_q = np.log(sq + p ** -2)
        terms = np.exp(0.5 * p * (log_q - log_q.max()))
        assert np.count_nonzero(terms < np.finfo(float).tiny) > 1000
        unflushed = math.exp(0.5 * log_q.max() + math.log(w * float(np.sum(terms))) / p)
        assert norm == unflushed

    @pytest.mark.parametrize("p", [2.0, 16.0, 128.0])
    def test_peak_curvature_bounds_the_pointwise_hessian(self, p):
        # central differences of the norm's gradient w f_i v_i in one
        # sample's vector: w times peak_curvature bounds every block, and
        # at p = 2 it is the block's largest eigenvalue
        rng = np.random.default_rng(int(p))
        vals = rng.standard_normal((200, 2))
        w = 1.0 / len(vals)

        def grad_of(v, k):
            sq = np.einsum("ij,ij->i", v, v)
            return w * dual_factor(sq, *lp_terms(sq, w, p), p)[k] * v[k]

        sq = np.einsum("ij,ij->i", vals, vals)
        _, s, norm = lp_terms(sq, w, p)
        bound = w * peak_curvature(s, norm, p)
        eps = 1e-6
        for k in (int(np.argmax(sq)), int(np.argmin(sq))):
            hess = np.empty((2, 2))
            for j in range(2):
                up, down = vals.copy(), vals.copy()
                up[k, j] += eps
                down[k, j] -= eps
                hess[:, j] = (grad_of(up, k) - grad_of(down, k)) / (2.0 * eps)
            top = np.linalg.eigvalsh(0.5 * (hess + hess.T)).max()
            assert top <= bound * (1.0 + 1e-6)
            if p == 2.0:
                assert top == pytest.approx(bound, rel=1e-6)


class TestHolderGap:
    def test_equal_exponents(self):
        assert holder_gap(3.0, 3.0) == 0.0

    def test_direct_value(self):
        assert holder_gap(2.0, 4.0) == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
        assert holder_gap(2.0, 4.0) == pytest.approx(0.433013, abs=1e-6)

    def test_infinite_upper(self):
        assert holder_gap(2.0, math.inf) == pytest.approx(0.5)

    def test_order_enforced(self):
        with pytest.raises(ConfigurationError):
            holder_gap(4.0, 2.0)


def test_modified_holder_inequality_random():
    rng = np.random.default_rng(123)
    ps = [1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    for _ in range(50):
        h = random_samples(rng)
        norms = {p: dotted_lp_norm(h, p) for p in ps}
        for i, q in enumerate(ps):
            for p in ps[i:]:
                assert norms[q] <= norms[p] + holder_gap(q, p) + 1e-10


def test_sup_norm_convergence_trend():
    # Hoelder bounds how far the averaged norm can overshoot the sup; the
    # deficit below it is controlled only through the higher-exponent gap,
    # so the comparison is one-sided.
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_samples(rng, n=200)
        sup = sup_norm(h)
        ks = list(range(1, 8))
        norms = {k: dotted_lp_norm(h, 2.0 ** k) for k in range(1, 12)}
        for k in ks:
            bound = holder_gap(2.0 ** k, 2.0 ** (k + 4)) + abs(norms[k + 4] - sup)
            assert norms[k] - sup <= bound + 1e-12
        gaps = [abs(norms[k] - sup) for k in ks]
        # eventually decreasing: the tail is monotone
        assert gaps[-1] <= gaps[-2] <= gaps[-3]


class TestOscillatingProfile:
    def test_requires_even(self):
        with pytest.raises(ConfigurationError):
            oscillating_step_profile(5)

    def test_structure(self):
        mids, width, vals, limit = oscillating_step_profile(4, cells_per_interval=2)
        assert width == pytest.approx(0.125)
        assert vals.size == 16
        assert np.all(np.abs(vals) == 1.0)
        assert np.all(limit[mids < 1.0] == 0.0)
        assert np.all(limit[mids > 1.0] == 1.0)

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_identities(self, p):
        mids, width, vals, limit = oscillating_step_profile(p)
        n = vals.size
        norm = (np.sum(np.abs(vals) ** p) / n) ** (1.0 / p)
        assert abs(norm - 1.0) <= 1e-12
        left = mids < 1.0
        assert abs(np.sum(vals[left]) * width) <= 1e-12
        assert abs(np.sum(np.abs(vals - limit)[left]) * width - 1.0) <= 1e-12
        assert sup_norm(WeightedSamples.uniform(vals[:, None])) == 1.0
