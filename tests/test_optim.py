import math
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from nsassim.config import load_config
from nsassim.errors import ConfigurationError, InvalidFieldError
from nsassim.grid import GridSpec, VectorField
from nsassim.misfit import (
    AssembledState, assemble_state, gradient_from_state, report_from_state,
)
from nsassim.norms import WeightedSamples, dotted_lp_norm
from nsassim.nse import (
    ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset,
    pressure_gradient, pressure_metric_inverse, reference_solve, stream_metric_inverse,
    velocity_map, velocity_map_transpose,
)
from nsassim.observation import ObservationModel, default_mask, synth_data
from nsassim.optim import (
    _ARMIJO_SLOPE, _MAX_BACKTRACKS, _PRESSURE_KAPPA, ContinuationSchedule, MinimizeResult,
    OptimOptions, _backtrack, _CurvatureHistory, minimize_E_p, preconditioner_scales,
    run_continuation, stage_tolerance,
)

ASSIM48 = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads", "assim48.ini")
EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs", "example.ini")


def small_problem(noise=0.25, lam=0.5, advection=True, seed=3, n=8):
    # n nodes per side; the time step is refined with the mesh width
    g = GridSpec(nx=n, ny=n, nt=3 * n // 4, t_end=0.3)
    setup = PhysicsSetup(grid=g, nu=0.02, lam=lam,
                         f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.1),
                         include_advection=advection)
    model = synth_data(VectorField.zeros(g), "masked-velocity", noise,
                       seed=seed, mask_stride=2)
    return g, setup, model


def bundled_problem(n, sweeps=1):
    """configs/example.ini's physics on an n x n x 3n/4 grid, with data from
    a reference solve of the given sweeps."""
    cfg = load_config(path=EXAMPLE)
    cfg.nx = cfg.ny = n
    cfg.nt = 3 * n // 4
    grid = cfg.validate()
    setup = cfg.build_setup(grid)
    ref = reference_solve(setup, advection_sweeps=sweeps)
    model = synth_data(ref.u, cfg.kind, cfg.noise_amplitude, cfg.seed,
                       mask_stride=cfg.mask_stride)
    return grid, setup, model


def traced_peak(run):
    """run() and the traced peak of its allocations in bytes, after one
    untraced run that fills the operator caches."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


class TestOptions:
    def test_defaults(self):
        opts = OptimOptions()
        assert opts.max_iters == 500
        assert opts.grad_tol == 1e-6
        assert opts.memory == 10
        assert [f.name for f in fields(OptimOptions)] == ["max_iters", "grad_tol", "memory"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OptimOptions(memory=0)
        with pytest.raises(ConfigurationError):
            OptimOptions(grad_tol=0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            OptimOptions(grad_tol=float("inf"))  # would stop every stage at iteration 0

    def test_schedule_validation(self):
        assert ContinuationSchedule().p_list == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
        with pytest.raises(ConfigurationError):
            ContinuationSchedule(p_list=())
        with pytest.raises(ConfigurationError):
            ContinuationSchedule(p_list=(2.0, 2.0))
        with pytest.raises(ConfigurationError):
            ContinuationSchedule(p_list=(1.5, 4.0))
        with pytest.raises(ConfigurationError):
            ContinuationSchedule(p_list=(2.0, float("inf")))

    def test_stage_tolerance_tightens(self):
        opts = OptimOptions(grad_tol=1e-6)
        tols = [stage_tolerance(opts, 2.0, p) for p in (2.0, 8.0, 128.0)]
        assert tols[0] == pytest.approx(1e-6)
        assert tols[1] == pytest.approx(1e-6 / 2.0)
        assert tols[2] == pytest.approx(1e-6 / 8.0)
        assert tols[0] > tols[1] > tols[2]


class TestMinimize:
    @pytest.mark.parametrize("other", [GridSpec(nx=8, ny=8, nt=6, t_end=0.6),
                                       GridSpec(nx=9, ny=8, nt=6, t_end=0.3)])
    def test_start_control_on_another_grid_rejected(self, other):
        # a same-shape control is not relabelled onto the setup's grid, and
        # one of another shape fails before any reshape
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(other)
        for run in (lambda: minimize_E_p(c0, setup, model, 4.0),
                    lambda: run_continuation(c0, setup, model)):
            with pytest.raises(ConfigurationError, match="does not match setup grid"):
                run()

    def test_stationary_start_returns_immediately(self):
        # zero-everything configuration: the zero control is stationary
        g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
        setup = PhysicsSetup(grid=g, nu=0.05, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "zero", 0.0))
        q = np.zeros((g.nt, g.ny - 2, g.nx - 2, 2))
        model = ObservationModel("masked-velocity", g, q, mask=default_mask(g, 2))
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 4.0)
        assert res.converged
        assert res.iterations <= 1
        assert res.report.e_p == pytest.approx(0.25, abs=1e-15)

    def test_monotone_descent_on_random_starts(self):
        g, setup, model = small_problem()
        rng = np.random.default_rng(5)
        for trial in range(3):
            c0 = ControlVector(g, 0.5 * rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                               0.5 * rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
            res = minimize_E_p(c0, setup, model, 4.0,
                               OptimOptions(max_iters=40, grad_tol=1e-10))
            values = [row[1] for row in res.trace]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_non_finite_trial_point_backtracks(self, monkeypatch):
        g, setup, model = small_problem()
        calls = []

        def first_trial_not_finite(c, setup_, model_):
            calls.append(c)
            if len(calls) == 2:  # call 1 is the start point, call 2 the first trial
                raise InvalidFieldError("velocity field contains non-finite values")
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr("nsassim.optim.assemble_state", first_trial_not_finite)
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 4.0,
                           OptimOptions(max_iters=5, grad_tol=1e-12))
        assert res.iterations == 5 and not res.stalled
        # the failed trial was backtracked: the next trial is half as far out
        assert np.allclose(calls[2].to_flat(), 0.5 * calls[1].to_flat())
        values = [row[1] for row in res.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_overflowing_trial_on_two_threads_backtracks(self, level_blocks, monkeypatch):
        # at 48x48x36 on two threads, under pytest's RuntimeWarning filter:
        # the first trial overflows at every level, the assembly says
        # InvalidFieldError, and the line search backtracks over it
        g, setup, model = small_problem(n=48)
        worker = level_blocks(2)
        calls, raised = [], []

        def first_trial_overflows(c, setup_, model_):
            calls.append(c)
            if len(calls) == 2:  # call 1 is the start point, call 2 the first trial
                c = ControlVector(g, np.full_like(c.psi, 1e160), c.pr)
                try:
                    return assemble_state(c, setup_, model_)
                except InvalidFieldError as err:
                    raised.append(str(err))
                    raise
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr("nsassim.optim.assemble_state", first_trial_overflows)
        with np.errstate(over="ignore"):
            res = minimize_E_p(ControlVector.zeros(g), setup, model, 4.0,
                               OptimOptions(max_iters=2, grad_tol=1e-12))
        assert raised == ["momentum residual contains non-finite values"]
        assert res.iterations == 2 and not res.stalled and res.backtracks >= 1
        assert worker.futures and all(f.done() for f in worker.futures)

    @pytest.mark.parametrize("n", [16, 48])
    def test_non_finite_trial_vector_is_not_assembled(self, n, level_blocks, monkeypatch):
        # under pytest's RuntimeWarning filter, and at 48x48x36 on two
        # threads: from the second iteration on the direction is infinite,
        # with d.g = -inf and no inf - inf, so every trial point x + alpha d
        # is not finite.  The line search backtracks over all of them without
        # assembling one and stalls, raising nothing
        import nsassim.optim as optim
        g, setup, model = small_problem(n=n)
        worker = level_blocks(2)
        calls = []

        def counted(c, setup_, model_):
            calls.append(c)
            return assemble_state(c, setup_, model_)

        def infinite(self, grad, mg):
            return np.where(grad > 0.0, -np.inf, np.where(grad < 0.0, np.inf, 0.0))

        monkeypatch.setattr(optim, "assemble_state", counted)
        monkeypatch.setattr(_CurvatureHistory, "direction", infinite)
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 4.0,
                           OptimOptions(max_iters=3, grad_tol=1e-12))
        assert res.stalled and res.iterations == 1
        # forward_evals counts every trial; the last 61 never reached the assembly
        assert res.forward_evals == len(calls) + _MAX_BACKTRACKS + 1
        assert all(np.isfinite(c.to_flat()).all() for c in calls)
        assert bool(worker.futures) == (n == 48)

    def test_exhausted_line_search_stalls_at_the_start(self, monkeypatch):
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(g)
        calls = []

        def only_the_start_is_finite(c, setup_, model_):
            calls.append(c)
            if len(calls) > 1:
                raise InvalidFieldError("velocity field contains non-finite values")
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr("nsassim.optim.assemble_state", only_the_start_is_finite)
        res = minimize_E_p(c0, setup, model, 4.0, OptimOptions(max_iters=5, grad_tol=1e-12))
        assert res.stalled and not res.converged
        assert res.iterations == 0 and len(res.trace) == 1
        assert len(calls) == 1 + 61  # the start, then the first trial and 60 backtracks
        assert np.array_equal(res.control.to_flat(), c0.to_flat())
        start = assemble_state(c0, setup, model)
        assert res.report == report_from_state(start, setup, 4.0)
        assert res.report_inf == report_from_state(start, setup, math.inf)

    def test_converged_gradient_below_tolerance(self):
        g, setup, model = small_problem()
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 2.0,
                           OptimOptions(max_iters=2000, grad_tol=1e-6))
        assert res.converged and not res.stalled
        assert res.grad_norm <= 1e-6 * max(1.0, res.trace[0][2])

    def test_quadratic_sanity_matches_dense_oracle(self):
        # advection off makes the control-to-fields map affine; the scaled
        # normal equations iterated to a fixed point are the oracle
        g, setup, model = small_problem(noise=0.2, advection=False)
        n = ControlVector.zeros(g).to_flat().size
        s0 = assemble_state(ControlVector.zeros(g), setup, model)
        k0 = s0.K.values.reshape(-1)
        y0 = s0.y_int.reshape(-1)
        a = np.empty((k0.size, n))
        b = np.empty((y0.size, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            sj = assemble_state(ControlVector.from_flat(g, e), setup, model)
            a[:, j] = sj.K.values.reshape(-1) - k0
            b[:, j] = sj.y_int.reshape(-1) - y0
        w = g.interior_weight()
        lam = setup.lam
        ata, btb = a.T @ a, b.T @ b
        atb, btd = a.T @ k0, b.T @ y0
        c = np.zeros(n)
        for _ in range(80):
            s_k = np.sqrt(w * np.sum((a @ c + k0) ** 2) + 0.25)
            s_y = np.sqrt(w * np.sum((b @ c + y0) ** 2) + 0.25)
            m = (1 - lam) / s_k * ata + lam / s_y * btb
            rhs = -((1 - lam) / s_k * atb + lam / s_y * btd)
            c_new = np.linalg.lstsq(m, rhs, rcond=None)[0]
            if np.linalg.norm(c_new - c) <= 1e-14 * max(1.0, np.linalg.norm(c)):
                c = c_new
                break
            c = c_new
        oracle_e = (1 - lam) * s_k + lam * s_y

        res = minimize_E_p(ControlVector.zeros(g), setup, model, 2.0,
                           OptimOptions(max_iters=2000, grad_tol=1e-9))
        assert abs(res.report.e_p - oracle_e) <= 1e-8

    def test_zero_noise_twin_beats_truth(self):
        g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
        setup = PhysicsSetup(grid=g, nu=0.005, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "vortex", 0.1))
        ref = reference_solve(setup)
        model = synth_data(ref.u, "masked-velocity", 0.0, seed=21, mask_stride=2)
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 2.0,
                           OptimOptions(max_iters=2000, grad_tol=1e-7))
        truth_rep = report_from_state(assemble_state(ref.control, setup, model), setup, 2.0)
        assert res.report.e_p <= truth_rep.e_p + 1e-6


class TestBacktrack:
    @pytest.mark.parametrize("alpha", [1.0, 0.3, 1e-9])
    @pytest.mark.parametrize("ratio", [0.26, 0.37, 0.49])
    def test_quadratic_minimiser_inside_the_bounds(self, alpha, ratio):
        # e(a) = e0 + descent a + c a^2 has its minimum at ratio * alpha
        e0, descent = 0.7, -2.5
        c = -descent / (2.0 * ratio * alpha)
        e_try = e0 + descent * alpha + c * alpha * alpha
        assert e_try > e0 + _ARMIJO_SLOPE * alpha * descent
        assert _backtrack(alpha, descent, e0, e_try) == pytest.approx(ratio * alpha, rel=1e-9)

    def test_clipped_at_both_ends(self):
        e0, descent, alpha = 0.7, -2.5, 0.5
        # a steep rise: the quadratic's minimum lies below alpha/4
        assert _backtrack(alpha, descent, e0, e0 + 100.0) == 0.25 * alpha
        # just above the Armijo line: the minimum lies near alpha / (2 (1 - slope))
        armijo = e0 + _ARMIJO_SLOPE * alpha * descent
        assert _backtrack(alpha, descent, e0, armijo + 1e-12) == 0.5 * alpha

    @pytest.mark.parametrize("e_try", [None, math.nan, math.inf])
    def test_non_finite_trial_halves(self, e_try):
        assert _backtrack(0.5, -2.5, 0.7, e_try) == 0.25

    def test_sixty_backtracks_fall_below_round_off(self):
        rng = np.random.default_rng(4)
        e0, descent = 0.7, -2.5
        for draw in ("armijo", "random", "non-finite"):
            alpha = 1.0
            for _ in range(_MAX_BACKTRACKS):
                armijo = e0 + _ARMIJO_SLOPE * alpha * descent
                e_try = {"armijo": np.nextafter(armijo, math.inf),
                         "random": armijo + rng.exponential(),
                         "non-finite": None}[draw]
                new = _backtrack(alpha, descent, e0, e_try)
                assert 0.25 * alpha <= new <= 0.5 * alpha
                alpha = new
            assert alpha <= 2.0 ** -_MAX_BACKTRACKS

    def test_assim48_second_iteration_backtracks_at_most_twice(self):
        # the p = 2 stage of perfbench/workloads/assim48.ini as a twin run
        # (config seed, two iterations): halving took alpha = 1/8 in its
        # second iteration, three backtracks
        cfg = load_config(path=ASSIM48)
        grid = cfg.validate()
        setup = cfg.build_setup(grid)
        ref = reference_solve(setup, tol_ref=cfg.ref_tol, advection_sweeps=cfg.ref_sweeps)
        model = synth_data(ref.u, cfg.kind, cfg.noise_amplitude, cfg.seed,
                           mask_stride=cfg.mask_stride)
        c0 = ControlVector.zeros(grid)
        opts = cfg.optim_options()
        assert opts.max_iters == 2
        one = minimize_E_p(c0, setup, model, 2.0, replace(opts, max_iters=1))
        two = minimize_E_p(c0, setup, model, 2.0, opts)
        assert two.iterations == 2 and not two.stalled
        assert two.backtracks - one.backtracks <= 2


class TestAccounting:
    def test_every_trial_is_an_iteration_or_a_backtrack(self, monkeypatch):
        import nsassim.optim as optim
        g, setup, model = small_problem()
        calls = []

        def counted(c, setup_, model_):
            calls.append(c)
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr(optim, "assemble_state", counted)
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 16.0,
                           OptimOptions(max_iters=40, grad_tol=1e-12))
        assert res.backtracks > 0
        assert res.forward_evals == len(calls) == 1 + res.iterations + res.backtracks

    def test_stalled_search_counts_its_trials(self, monkeypatch):
        g, setup, model = small_problem()
        calls = []

        def only_the_start_is_finite(c, setup_, model_):
            calls.append(c)
            if len(calls) > 1:
                raise InvalidFieldError("velocity field contains non-finite values")
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr("nsassim.optim.assemble_state", only_the_start_is_finite)
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 4.0, OptimOptions(max_iters=5))
        assert res.stalled
        assert res.backtracks == _MAX_BACKTRACKS + 1
        assert res.forward_evals == len(calls) == 1 + _MAX_BACKTRACKS + 1

    def test_stall_after_a_step_assembles_its_point_once(self, monkeypatch):
        # the accepted state is dropped during the next search, so a stall
        # there assembles the last accepted point again, once
        import nsassim.optim as optim
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(g)
        two = minimize_E_p(c0, setup, model, 4.0, OptimOptions(max_iters=2))
        calls = []

        def third_search_fails(c, setup_, model_):
            calls.append(c)
            if two.forward_evals < len(calls) <= two.forward_evals + _MAX_BACKTRACKS + 1:
                raise InvalidFieldError("velocity field contains non-finite values")
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr(optim, "assemble_state", third_search_fails)
        res = minimize_E_p(c0, setup, model, 4.0, OptimOptions(max_iters=5))
        assert res.stalled and res.iterations == 2
        assert res.forward_evals == len(calls) == two.forward_evals + _MAX_BACKTRACKS + 2
        assert np.array_equal(res.control.to_flat(), two.control.to_flat())
        assert res.report_inf == two.report_inf

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_handed_over_entry_is_not_counted(self, warm_start, monkeypatch):
        import nsassim.optim as optim
        g, setup, model = small_problem()
        calls = []

        def counted(c, setup_, model_):
            calls.append(c)
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr(optim, "assemble_state", counted)
        stages = run_continuation(ControlVector.zeros(g), setup, model,
                                  ContinuationSchedule(p_list=(2.0, 8.0, 32.0),
                                                       warm_start=warm_start),
                                  OptimOptions(max_iters=6, grad_tol=1e-12))
        assert sum(st.result.forward_evals for st in stages) == len(calls)
        for i, st in enumerate(stages):
            entry = 0 if warm_start and i > 0 else 1
            res = st.result
            assert res.forward_evals == entry + res.iterations + res.backtracks

    def test_traced_peak_in_control_vectors(self):
        # 27.4 vectors: the iterate and the accepted point, their gradients
        # and M^-1 of them, two curvature pairs of three vectors, the
        # accepted state and the adjoint's temporaries while the last
        # gradient is taken (its output blocks exist before its tiles run:
        # 27.0 when they were allocated last).  Keeping the last accepted state and the trial
        # point through the next trial's report read 28.6; keeping only the
        # trial point alive during its forward, 27.8
        g, setup, model = small_problem(n=24)
        c0 = ControlVector.zeros(g)
        opts = OptimOptions(max_iters=3, grad_tol=1e-12)
        minimize_E_p(c0, setup, model, 4.0, opts)  # fills the operator caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = minimize_E_p(c0, setup, model, 4.0, opts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.iterations == 3
        assert peak / c0.to_flat().nbytes <= 27.5

    def test_full_history_traced_peak_in_control_vectors(self):
        # about 41 vectors at 24x24x18 with ten pairs held: the history keeps
        # s and M^-1 y, 20 vectors; with y kept beside them it read about 51
        grid, setup, model = bundled_problem(24)
        c0 = ControlVector.zeros(grid)
        res, peak = traced_peak(lambda: minimize_E_p(
            c0, setup, model, 2.0, OptimOptions(max_iters=15, grad_tol=1e-12, memory=10)))
        assert res.iterations == 15 and not res.stalled
        assert peak / c0.to_flat().nbytes <= 42.5

    def test_history_rows_are_capped_by_the_iterations(self):
        # a memory far above max_iters allocates no more rows than max_iters;
        # the traced peak of one run moves by a few hundred bytes between runs
        g, setup, model = small_problem(n=24)
        c0 = ControlVector.zeros(g)
        peaks = {}
        for memory in (5, 10 ** 6):
            opts = OptimOptions(max_iters=5, grad_tol=1e-12, memory=memory)
            res, peaks[memory] = traced_peak(lambda: minimize_E_p(c0, setup, model, 4.0, opts))
            assert res.iterations == 5
        assert peaks[10 ** 6] <= peaks[5] + 0.01 * c0.to_flat().nbytes


def dense_metric_inverse(g):
    """M^-1 in the scaled variables, built densely: h^-2 (B^T B (x) C^T C)^-1 on
    the stream-function block, (h^2 G^T G + kappa I)^-1 per level on the
    pressure block with the identity on each level's constant."""
    shape = (g.nt, g.ny - 4, g.nx - 4)
    n_psi = int(np.prod(shape))
    units = np.eye(n_psi).reshape((n_psi,) + shape)
    curl_gram = np.array([velocity_map_transpose(velocity_map(e[:1], g), g).ravel()
                          for e in units[:n_psi // g.nt]])
    b = np.eye(g.nt) - np.eye(g.nt, k=-1)
    m_psi = np.kron(b.T @ b, curl_gram)
    h2 = min(g.hx, g.hy) ** 2
    n_level = (g.ny - 2) * (g.nx - 2)
    grad_cols = pressure_gradient(np.eye(n_level).reshape(n_level, g.ny - 2, g.nx - 2), g)
    grad_cols = grad_cols.transpose(1, 0, 2, 3).reshape(n_level, -1)
    # the constant has eigenvalue kappa; its projector times 1 - kappa makes it 1
    m_pr = (h2 * grad_cols @ grad_cols.T + _PRESSURE_KAPPA * np.eye(n_level)
            + (1.0 - _PRESSURE_KAPPA) * np.full((n_level, n_level), 1.0 / n_level))
    out = np.zeros((n_psi + g.nt * n_level,) * 2)
    out[:n_psi, :n_psi] = np.linalg.inv(m_psi) / h2
    out[n_psi:, n_psi:] = np.kron(np.eye(g.nt), np.linalg.inv(m_pr))
    return out, n_psi


def metric_pairs(count):
    """count curvature pairs (s, y, M^-1 y) from a gradient sequence on a
    quadratic, M^-1 y the difference of M^-1 of its two gradients, with the
    dense M^-1, the metric and the last gradient."""
    g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
    m_inv, n_psi = dense_metric_inverse(g)
    n = m_inv.shape[0]
    h2 = min(g.hx, g.hy) ** 2
    rng = np.random.default_rng(8)
    a = rng.standard_normal((n, n))
    a = a @ a.T / n + np.eye(n)

    def metric(v):
        return np.concatenate([
            stream_metric_inverse(v[:n_psi].reshape(g.nt, 4, 4), g).ravel() / h2,
            pressure_metric_inverse(v[n_psi:].reshape(g.nt, 6, 6), g,
                                    _PRESSURE_KAPPA).ravel()])

    grad, pairs = rng.standard_normal(n), []
    for _ in range(count):
        s = rng.standard_normal(n)
        grad_new = grad + a @ s
        pairs.append((s, grad_new - grad, metric(grad_new) - metric(grad)))
        grad = grad_new
    return m_inv, metric, pairs, grad


def dense_bfgs(m_inv, pairs):
    """gamma M^-1 updated by the BFGS formula with each pair (s, y, _) in
    turn, gamma = s.y / y.M^-1 y of the last pair."""
    n = m_inv.shape[0]
    s_new, y_new, _ = pairs[-1]
    h = (np.dot(s_new, y_new) / (y_new @ m_inv @ y_new)) * m_inv
    for s, y, _ in pairs:
        rho = 1.0 / np.dot(s, y)
        v = np.eye(n) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    assert np.abs(h @ y_new - s_new).max() <= 1e-10 * np.abs(s_new).max()
    return h


class TestMetricTwoLoop:
    def test_two_loop_is_bfgs_from_the_metric(self):
        # the compact history's direction against the dense BFGS updates of
        # gamma M^-1 from the same pairs
        m_inv, metric, pairs, g = metric_pairs(5)
        history = _CurvatureHistory(10)
        assert all(history.push(*pair) for pair in pairs)
        d = history.direction(g, metric(g))
        ref = -dense_bfgs(m_inv, pairs) @ g
        assert np.abs(d - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_full_ring_is_bfgs_from_the_last_pairs(self):
        # memory 3 with 7 pairs pushed: the ring has wrapped twice and the
        # direction is the dense BFGS update from the last 3 pairs only
        m_inv, metric, pairs, g = metric_pairs(7)
        history = _CurvatureHistory(3)
        assert all(history.push(*pair) for pair in pairs)
        assert list(history.order) == [1, 2, 0]
        d = history.direction(g, metric(g))
        ref = -dense_bfgs(m_inv, pairs[-3:]) @ g
        assert np.abs(d - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("count", [2, 3])
    def test_rejected_pair_changes_nothing(self, count):
        # a pair failing s.y > 1e-14 |s| |y| leaves the next direction
        # bit-identical, below and at full memory
        _, metric, pairs, g = metric_pairs(count + 1)
        history = _CurvatureHistory(3)
        for pair in pairs[:-1]:
            history.push(*pair)
        mg = metric(g)
        before = history.direction(g, mg)
        s, y, my = pairs[-1]
        assert not history.push(s, -y, -my)
        assert not history.push(s, y - (np.dot(s, y) / np.dot(s, s)) * s, my)
        assert np.array_equal(history.direction(g, mg), before)

    def test_kept_reductions_equal_fresh_ones(self):
        # 30 pairs through a memory of 4, so the ring wraps, the 13th pair
        # rejected, with a direction after each push as in the descent: the
        # kept S^T g and (M^-1 Y)^T g, propagated by the pushes' reductions of
        # y, equal a fresh reduction of the newest gradient, and the direction
        # taken from them is the dense BFGS update's
        m_inv, metric, pairs, g = metric_pairs(30)
        grads = [g]  # the gradient each pair's y ends at
        for _, y, _ in reversed(pairs[1:]):
            grads.append(grads[-1] - y)
        grads.reverse()
        history = _CurvatureHistory(4)
        worst = 0.0
        for i, ((s, y, my), g_i) in enumerate(zip(pairs, grads)):
            if i == 12:
                assert not history.push(s, -y, -my, g_i)
            else:
                assert history.push(s, y, my, g_i)
            kept = history.g_red[:, :len(history)].copy()
            fresh = history._reduce(g_i)
            if i != 12:  # after a rejected pair the direction reduces g afresh
                assert history.g_kept
                worst = max(worst, float(np.max(np.abs(kept - fresh).max(axis=1)
                                                / np.abs(fresh).max(axis=1))))
            d = history.direction(g_i, metric(g_i))
            assert np.array_equal(history.g_red[:, :len(history)],
                                  kept if i != 12 else fresh)
            if i in (2, 16, 29):
                ref = -dense_bfgs(m_inv, pairs[max(0, i - 3):i + 1]) @ g_i
                assert np.abs(d - ref).max() <= 1e-10 * np.abs(ref).max()
        assert list(history.order) == [1, 2, 3, 0]  # 29 pairs through 4 rows
        assert worst <= 1e-12

    @pytest.mark.parametrize("problem, drop", [("small", 1e3), ("bundled", 30.0)])
    def test_kept_reductions_along_a_descent(self, problem, drop, monkeypatch):
        # a descent to grad_tol 1e-12, where the gradient falls by more than
        # eight orders: each pair's kept entries carry the round-off of every
        # push since it entered, so their error is bounded by the largest
        # gradient in the window, not the newest one, which falls below it by
        # more than drop; the direction still matches the freshly reduced one
        g, setup, model = small_problem() if problem == "small" else bundled_problem(24)
        direction = _CurvatureHistory.direction
        g_norms, errs, gaps, ratios = [], [], [], []

        def checked(self, grad, mg):
            g_norms.append(math.sqrt(float(grad @ grad)))
            if not self.g_kept:
                return direction(self, grad, mg)
            k = len(self)
            kept = self.g_red[:, :k].copy()
            fresh = self._reduce(grad)
            rows = np.sqrt(np.einsum("kij,kij->ki", self.sm[:, :k], self.sm[:, :k]))[:, self.order]
            window = max(g_norms[-(self.rows + 1):])
            errs.append(float(np.max(np.abs(kept - fresh) / rows)) / window)
            ratios.append(window / g_norms[-1])
            self.g_red[:, :k] = fresh
            d_fresh = direction(self, grad, mg)
            self.g_red[:, :k] = kept
            d = direction(self, grad, mg)
            gaps.append(float(np.abs(d - d_fresh).max() / np.abs(d_fresh).max()))
            return d

        monkeypatch.setattr(_CurvatureHistory, "direction", checked)
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 2.0,
                           OptimOptions(max_iters=400, grad_tol=1e-12))
        assert res.converged and res.trace[-1][2] <= 1e-8 * res.trace[0][2]
        assert len(errs) >= res.iterations - 5
        assert max(ratios) > drop
        assert max(errs) <= 1e-14
        assert max(gaps) <= 1e-10

    def test_one_metric_per_gradient(self, monkeypatch):
        import nsassim.optim as optim
        g, setup, model = small_problem()
        counts = {"metric": 0, "gradient": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(optim, "stream_metric_inverse",
                            counted("metric", stream_metric_inverse))
        monkeypatch.setattr(optim, "gradient_from_state",
                            counted("gradient", optim.gradient_from_state))
        res = minimize_E_p(ControlVector.zeros(g), setup, model, 4.0,
                           OptimOptions(max_iters=15, grad_tol=1e-12))
        assert res.iterations == 15
        assert 0 < counts["metric"] <= counts["gradient"] == res.iterations + 1


class TestPressureMetric:
    def test_first_stage_at_24_takes_at_most_half_the_identity_iterations(self):
        # the bundled physics at 24x24x18, one reference sweep: with the
        # identity on the pressure block the p = 2 stage from the zero
        # control took 62-63 iterations; with (h^2 G^T G + kappa I)^-1, 27
        cfg = load_config(path=EXAMPLE)
        cfg.nx = cfg.ny = 24
        cfg.nt = 18
        grid = cfg.validate()
        setup = cfg.build_setup(grid)
        ref = reference_solve(setup, advection_sweeps=1)
        model = synth_data(ref.u, cfg.kind, cfg.noise_amplitude, cfg.seed,
                           mask_stride=cfg.mask_stride)
        res = minimize_E_p(ControlVector.zeros(grid), setup, model, 2.0,
                           OptimOptions(max_iters=3000, grad_tol=1e-6))
        assert res.converged and not res.stalled
        assert res.iterations <= 31


class TestFirstStep:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("advection", [True, False])
    def test_one_iteration_takes_most_of_the_decrease(self, n, lam, advection):
        # at p = 2 the curvature-scaled first step is a Gauss-Newton step
        # of the residual term, so one iteration from the zero control
        # goes most of the way to the converged minimum
        g, setup, model = small_problem(lam=lam, advection=advection, n=n)
        c0 = ControlVector.zeros(g)
        one = minimize_E_p(c0, setup, model, 2.0, OptimOptions(max_iters=1))
        best = minimize_E_p(c0, setup, model, 2.0, OptimOptions(max_iters=3000, grad_tol=1e-9))
        e0 = one.trace[0][1]
        assert one.iterations == 1 and best.converged
        assert e0 - one.report.e_p >= 0.75 * (e0 - best.report.e_p)

    @pytest.mark.parametrize("p", [2.0, 16.0])
    def test_first_trial_is_the_scaled_metric_step(self, p, monkeypatch):
        # x0 - gamma0 H0 g with H0 the dense metric inverse and
        # gamma0 = N_y / (lam w (p-1) rho^(p-2)), rho = max r_y / N_y
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(g)
        calls = []

        def recording(c, setup_, model_):
            calls.append(c.to_flat())
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr("nsassim.optim.assemble_state", recording)
        minimize_E_p(c0, setup, model, p, OptimOptions(max_iters=1))
        s_psi, s_pr = preconditioner_scales(g)
        n_psi = g.nt * (g.ny - 4) * (g.nx - 4)
        sv = np.where(np.arange(c0.to_flat().size) < n_psi, s_psi, s_pr)
        state = assemble_state(c0, setup, model)
        grad = gradient_from_state(state, setup, model, p).to_flat() * sv
        y = np.moveaxis(state.residual, 0, -1).reshape(-1, 2)
        n_y = dotted_lp_norm(WeightedSamples.uniform(y), p)
        rho = np.sqrt(np.max(np.sum(y * y, axis=1)) + p ** -2) / n_y
        assert p == 2.0 or rho ** (p - 2.0) > 10.0  # the factor matters at p = 16
        gamma0 = n_y / (setup.lam * g.interior_weight() * (p - 1.0) * rho ** (p - 2.0))
        m_inv, _ = dense_metric_inverse(g)
        expected = c0.to_flat() / sv - gamma0 * (m_inv @ grad)
        assert np.abs(calls[1] / sv - expected).max() <= 1e-12 * np.abs(expected).max()


class TestContinuation:
    def test_single_entry_equals_minimize(self):
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(g)
        opts = OptimOptions(max_iters=300, grad_tol=1e-6)
        stages = run_continuation(c0, setup, model,
                                  ContinuationSchedule(p_list=(4.0,)), opts)
        direct = minimize_E_p(c0, setup, model, 4.0, opts)
        assert len(stages) == 1
        assert stages[0].report.e_p == direct.report.e_p
        assert stages[0].result.iterations == direct.iterations

    def test_single_stage_assembles_as_often_as_minimize(self, monkeypatch):
        import nsassim.optim as optim
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(g)
        opts = OptimOptions(max_iters=20, grad_tol=1e-6)
        calls = []

        def counted(c, setup_, model_):
            calls.append(c)
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr(optim, "assemble_state", counted)
        run_continuation(c0, setup, model, ContinuationSchedule(p_list=(4.0,)), opts)
        in_continuation = len(calls)
        calls.clear()
        minimize_E_p(c0, setup, model, 4.0, opts)
        assert in_continuation == len(calls) > 1

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_stage_entry_hands_the_last_state_over(self, warm_start, monkeypatch):
        import nsassim.optim as optim
        g, setup, model = small_problem()
        c0 = ControlVector.zeros(g)
        opts = OptimOptions(max_iters=3, grad_tol=1e-9)
        calls = []

        def counted(c, setup_, model_):
            calls.append(c)
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr(optim, "assemble_state", counted)
        stages = run_continuation(c0, setup, model,
                                  ContinuationSchedule(p_list=(2.0, 4.0), warm_start=warm_start),
                                  opts)
        in_continuation = len(calls)
        calls.clear()
        first = minimize_E_p(c0, setup, model, 2.0, opts)
        minimize_E_p(first.control if warm_start else c0, setup, model, 4.0, opts)
        assert in_continuation == len(calls) - (1 if warm_start else 0)

        entry = stages[0].control if warm_start else c0
        expected = report_from_state(assemble_state(entry, setup, model), setup, 4.0)
        assert stages[1].result.trace[0][1] == expected.e_p
        for st in stages:  # the handed-over state lives on no result
            assert not any(isinstance(v, AssembledState) for v in vars(st).values())
            assert not any(isinstance(v, AssembledState) for v in vars(st.result).values())

    def test_each_stage_starts_with_the_scaled_metric_step(self, monkeypatch):
        # no curvature pair crosses a stage: each stage's first trial is the
        # one minimize_E_p takes from the previous stage's control
        import nsassim.optim as optim
        g, setup, model = small_problem()
        calls = []

        def recording(c, setup_, model_):
            calls.append(c.to_flat())
            return assemble_state(c, setup_, model_)

        monkeypatch.setattr(optim, "assemble_state", recording)
        opts = OptimOptions(max_iters=12, grad_tol=1e-12, memory=4)
        stages = run_continuation(ControlVector.zeros(g), setup, model,
                                  ContinuationSchedule(p_list=(2.0, 8.0, 32.0)), opts)
        trials = list(calls)
        starts = np.cumsum([st.result.forward_evals for st in stages])
        for prev, st, start in zip(stages, stages[1:], starts):
            assert prev.result.iterations == 12
            # the stage's entry state was handed over: trials[start] is its first trial
            calls.clear()
            minimize_E_p(prev.control, setup, model, st.p, OptimOptions(max_iters=1))
            assert np.abs(trials[start] - calls[1]).max() <= 1e-12 * np.abs(calls[1]).max()

    def test_every_option_reaches_every_stage(self, monkeypatch):
        import nsassim.optim as optim
        seen = []

        descend = optim._descend

        def record(entry, setup, model, p, opts):
            seen.append((p, opts))
            return descend(entry, setup, model, p, opts)

        monkeypatch.setattr(optim, "_descend", record)
        g, setup, model = small_problem()
        opts = OptimOptions(max_iters=3, grad_tol=1e-5, memory=4)
        run_continuation(ControlVector.zeros(g), setup, model,
                         ContinuationSchedule(p_list=(2.0, 8.0)), opts)
        assert [p for p, _ in seen] == [2.0, 8.0]
        for p, stage_opts in seen:
            assert stage_opts.grad_tol == stage_tolerance(opts, 2.0, p)
            assert (stage_opts.max_iters, stage_opts.memory) == (3, 4)

    def test_stage_records_and_running_min(self):
        g, setup, model = small_problem(noise=0.3)
        stages = run_continuation(ControlVector.zeros(g), setup, model,
                                  ContinuationSchedule(p_list=(2.0, 4.0, 8.0)),
                                  OptimOptions(max_iters=400, grad_tol=1e-6))
        assert [st.p for st in stages] == [2.0, 4.0, 8.0]
        e_inf = [st.report_inf.e_p for st in stages]
        running = np.minimum.accumulate(e_inf)
        assert all(b <= a + 1e-15 for a, b in zip(running, running[1:]))
        for st in stages:
            assert isinstance(st.result, MinimizeResult)
            assert st.wall_ms >= 0.0
            state = assemble_state(st.control, setup, model)
            assert st.report_inf == report_from_state(state, setup, math.inf)

    def test_warm_start_iteration_report(self):
        # statistical comparison, reported rather than asserted hard
        g, setup, model = small_problem(noise=0.3)
        opts = OptimOptions(max_iters=400, grad_tol=1e-5)
        sched = ContinuationSchedule(p_list=(2.0, 4.0, 8.0))
        warm = run_continuation(ControlVector.zeros(g), setup, model, sched, opts)
        cold = run_continuation(ControlVector.zeros(g), setup, model,
                                ContinuationSchedule(p_list=sched.p_list,
                                                     warm_start=False), opts)
        warm_total = sum(st.result.iterations for st in warm)
        cold_total = sum(st.result.iterations for st in cold)
        print(f"warm-start iterations {warm_total} vs cold {cold_total}")
        assert warm_total > 0 and cold_total > 0
