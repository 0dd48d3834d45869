"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line.  The two bundled twin runs (one
noise-free, one noisy) share module-scoped fixtures; identical inputs give
bit-identical outputs, so the determinism criterion reruns the noise-free
configuration and compares bytes.
"""

import math
import os

import numpy as np
import pytest

from nsassim.config import ExperimentConfig
from nsassim.diagnostics import el_residual
from nsassim.grid import GridSpec, ScalarField, VectorField
from nsassim.misfit import assemble_state, report_from_state
from nsassim.nse import (
    ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset,
    residual_y,
)
from nsassim.observation import synth_data
from nsassim.optim import OptimOptions, minimize_E_p
from nsassim.runner import (
    check_consistent_forcing, check_dual_weights, check_gradient, check_holder,
    check_oscillation, run_twin,
)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def bundled_config(noise, out_dir):
    cfg = ExperimentConfig()
    cfg.nx = cfg.ny = 16
    cfg.nt = 12
    cfg.t_end = 0.36
    cfg.nu = 0.002
    cfg.lam = 0.5
    cfg.u0 = "vortex"
    cfg.u0_amplitude = 0.15
    cfg.ref_tol = 0.06
    cfg.kind = "masked-velocity"
    cfg.mask_stride = 4
    cfg.noise_amplitude = noise
    cfg.seed = 42
    cfg.max_iters = 700
    cfg.grad_tol = 1e-6
    cfg.directory = out_dir
    cfg.plots = False
    return cfg


@pytest.fixture(scope="module")
def zero_noise_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("twin_zero")
    cfg = bundled_config(0.0, str(out / "a"))
    return cfg, run_twin(cfg, log=lambda *a: None)


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("twin_noisy")
    cfg = bundled_config(0.5, str(out / "a"))
    return cfg, run_twin(cfg, log=lambda *a: None)


def test_criterion_1_dotted_norm_calculus():
    report("criterion 1 (modified Hoelder + 1/p floor)",
           *check_holder(seed=1001, trials=200))


def test_criterion_2_unit_ball_bound():
    report("criterion 2 (dual-weight unit ball)",
           *check_dual_weights(seed=1002, trials=200))


def test_criterion_3_gradient_exactness():
    report("criterion 3 (gradient vs central differences)",
           *check_gradient(seed=1003, directions=20))


def _sympy_forcing(psi_expr, p_expr, nu):
    import sympy as sp
    x, y, t = sp.symbols("x y t")
    u1 = sp.diff(psi_expr, y)
    u2 = -sp.diff(psi_expr, x)
    f1 = (sp.diff(u1, t) - nu * (sp.diff(u1, x, 2) + sp.diff(u1, y, 2))
          + u1 * sp.diff(u1, x) + u2 * sp.diff(u1, y) + sp.diff(p_expr, x))
    f2 = (sp.diff(u2, t) - nu * (sp.diff(u2, x, 2) + sp.diff(u2, y, 2))
          + u1 * sp.diff(u2, x) + u2 * sp.diff(u2, y) + sp.diff(p_expr, y))
    return [sp.lambdify((x, y, t), e, "numpy") for e in (u1, u2, f1, f2, p_expr)]


def _manufactured_residual(grid, fns):
    u1f, u2f, f1f, f2f, pf = fns
    xx, yy = grid.mesh()
    ts = grid.t_nodes()
    ulev, plev, flev = [], [], []
    for t in ts:
        ulev.append(np.stack([u1f(xx, yy, t) * np.ones_like(xx),
                              u2f(xx, yy, t) * np.ones_like(xx)], axis=-1))
        plev.append(pf(xx, yy, t) * np.ones_like(xx))
        flev.append(np.stack([f1f(xx, yy, t) * np.ones_like(xx),
                              f2f(xx, yy, t) * np.ones_like(xx)], axis=-1))
    u_m = VectorField(grid, np.stack(ulev))
    p_m = ScalarField(grid, np.stack(plev))
    f_m = VectorField(grid, np.stack(flev))
    setup = PhysicsSetup(grid=grid, nu=0.05, lam=0.5, f=f_m,
                         u0=initial_velocity_preset(grid, "zero", 0.0))
    res = residual_y(u_m, p_m, setup, u0=u_m.values[0])
    return float(np.abs(res.values).max()), u_m, p_m


def test_criterion_4_manufactured_solution():
    import sympy as sp
    x, y, t = sp.symbols("x y t")

    # discretely consistent forcing cancels bit for bit
    g0 = GridSpec(nx=13, ny=13, nt=5, t_end=0.3)
    fns = _sympy_forcing(
        (1 + t / 2) * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 / 4,
        sp.cos(sp.pi * x) * sp.cos(sp.pi * y), 0.05)
    _, u_m, p_m = _manufactured_residual(g0, fns)
    ok, consistent = check_consistent_forcing(u_m, p_m)

    # spatial order: state linear in time makes the time difference exact
    psi_space = (1 + t / 2) * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 / 4
    p_space = (1 + t / 2) * sp.cos(sp.pi * x) * sp.cos(sp.pi * y)
    fns_space = _sympy_forcing(psi_space, p_space, 0.05)
    errs = []
    for nx in (17, 33):
        g = GridSpec(nx=nx, ny=nx, nt=4, t_end=0.2)
        errs.append(_manufactured_residual(g, fns_space)[0])
    slope_space = math.log(errs[0] / errs[1]) / math.log(2.0)
    ok = ok and 1.7 <= slope_space <= 2.3

    # temporal order: cubic stream function makes every stencil exact
    psi_time = sp.sin(t) * (x ** 2 * y - y ** 2 * x + x * y / 10)
    p_time = sp.cos(t) * (x ** 2 - y ** 2)
    fns_time = _sympy_forcing(psi_time, p_time, 0.05)
    errs_t = []
    for nt in (8, 16):
        g = GridSpec(nx=9, ny=9, nt=nt, t_end=1.0)
        errs_t.append(_manufactured_residual(g, fns_time)[0])
    slope_time = math.log(errs_t[0] / errs_t[1]) / math.log(2.0)
    ok = ok and 0.7 <= slope_time <= 1.3

    report("criterion 4 (manufactured solutions)", ok,
           f"{consistent}, space slope {slope_space:.3f}, time slope {slope_time:.3f}")


def test_criterion_5_truth_feasibility(zero_noise_run):
    cfg, result = zero_noise_run
    truth_state = assemble_state(result.reference.control, result.setup, result.model)
    worst_gap = -np.inf
    rows = []
    for st in result.stages:
        truth_rep = report_from_state(truth_state, result.setup, st.p)
        gap = st.report.e_p - truth_rep.e_p
        worst_gap = max(worst_gap, gap)
        rows.append(f"p={st.p:g}: {gap:+.2e}")
    ok = worst_gap <= 1e-6
    report("criterion 5 (truth-feasibility bound)", ok,
           f"max E_p(c*) - E_p(truth) = {worst_gap:+.2e} <= 1e-6; " + ", ".join(rows))


def test_criterion_6_convergence_surrogate(zero_noise_run):
    _, result = zero_noise_run
    e_p = [st.report.e_p for st in result.stages]
    gaps = [abs(st.report.e_p - st.report_inf.e_p) for st in result.stages]
    diffs = [abs(b - a) for a, b in zip(e_p, e_p[1:])]
    by_p = {st.p: gap for st, gap in zip(result.stages, gaps)}
    ok = diffs[-1] <= diffs[0] and by_p[128.0] <= by_p[8.0]
    report("criterion 6 (p-continuation convergence surrogate)", ok,
           f"stage diffs first {diffs[0]:.3e} -> last {diffs[-1]:.3e}; "
           f"|E_p - E_inf| at 8: {by_p[8.0]:.3e}, at 128: {by_p[128.0]:.3e}")


def test_bundled_stages_to_p32_converge(noisy_run):
    # the metric-preconditioned L-BFGS reaches each stage's grad_tol up to
    # p = 32 within max_iters = 700; p = 64 and 128 may still stop at the cap
    _, result = noisy_run
    by_p = {st.p: st.result for st in result.stages}
    assert all(by_p[p].converged and not by_p[p].stalled for p in (2.0, 4.0, 8.0, 16.0, 32.0))


def test_criterion_7_concentration(noisy_run):
    _, result = noisy_run
    rows = {row[0]: row for row in result.diagnostics_rows}
    conc_8, conc_128 = rows[8.0][4], rows[128.0][4]
    frac_128 = rows[128.0][8]
    density_ok = all(row[6] <= row[7] * (1 + 1e-8)
                     for row in result.diagnostics_rows if row[0] >= 8.0)
    rhs_example = (1.0 - 0.2 / (2.0 * 1.0 - 0.2)) ** (10 - 1)
    formula_ok = abs(rhs_example - (8.0 / 9.0) ** 9) <= 1e-15
    ok = (conc_128 <= 0.1 * conc_8 and frac_128 >= 0.99
          and density_ok and formula_ok)
    report("criterion 7 (measure concentration + density estimate)", ok,
           f"conc(0.1 max): p=8 {conc_8:.3e} -> p=128 {conc_128:.3e} "
           f"(need <= {0.1 * conc_8:.3e}); support fraction {frac_128:.5f} >= 0.99; "
           f"density check at p>=8 {'passed' if density_ok else 'failed'}; "
           f"example rhs {rhs_example:.6f} = (8/9)^9")


def test_criterion_8_stationarity_residuals():
    g = GridSpec(nx=12, ny=12, nt=8, t_end=0.32)
    setup = PhysicsSetup(grid=g, nu=0.005, lam=0.5,
                         f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.12))
    from nsassim.nse import reference_solve
    ref = reference_solve(setup)
    model = synth_data(ref.u, "masked-velocity", 0.3, seed=13, mask_stride=3)
    c0 = ControlVector.zeros(g)
    # The residual at a stopping point is one projection of the remaining
    # gradient, so r / |g| wanders by two orders of magnitude under round-off
    # changes to the truth.  Over one or two decades that noise can mask the
    # trend; over four, the 5x-per-decade rate has room to show.
    out = {}
    for tol in (1e-6, 1e-7, 1e-8, 1e-10):
        res = minimize_E_p(c0, setup, model, 2.0,
                           OptimOptions(max_iters=3000, grad_tol=tol))
        assert res.converged
        out[tol] = el_residual(res.control, 2.0, setup, model)
    rm6, rp6 = out[1e-6]

    def shrink(tol):
        rm, rp = out[tol]
        return rm6 / max(rm, 1e-300), rp6 / max(rp, 1e-300)

    shrink_m, shrink_p = shrink(1e-10)
    ok = rm6 <= 1e-4 and rp6 <= 1e-4 and shrink_m >= 5.0 ** 4 and shrink_p >= 5.0 ** 4
    report("criterion 8 (stationarity-relation residuals)", ok,
           f"at 1e-6: r_mom {rm6:.2e}, r_pr {rp6:.2e} (<= 1e-4); tightening shrinks "
           "r_mom / r_pr by {:.1f}x / {:.1f}x to 1e-7, {:.1f}x / {:.1f}x to 1e-8 and "
           "{:.1f}x / {:.1f}x to 1e-10 (>= 5^4 = 625x)".format(
               *shrink(1e-7), *shrink(1e-8), shrink_m, shrink_p))


def test_criterion_9_oscillation_profile():
    report("criterion 9 (oscillating sequence identities)", *check_oscillation())


def test_criterion_10_determinism(zero_noise_run, tmp_path):
    cfg, first = zero_noise_run
    rerun_dir = tmp_path / "rerun"
    run_twin(cfg, out_dir=str(rerun_dir), log=lambda *a: None)
    first_dir = first.out_dir
    names = sorted(n for n in os.listdir(first_dir) if n != "timings.csv")
    diffs = []
    for name in names:
        with open(os.path.join(first_dir, name), "rb") as fh:
            a = fh.read()
        with open(rerun_dir / name, "rb") as fh:
            b = fh.read()
        if a != b:
            diffs.append(name)
    ok = not diffs and len(names) > 10
    report("criterion 10 (bit-identical rerun)", ok,
           f"{len(names)} artifacts compared byte-for-byte"
           + (f"; differing: {diffs}" if diffs else
              " (timings.csv excluded as wall-clock)"))
