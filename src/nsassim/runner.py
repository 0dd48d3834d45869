"""Experiment orchestration: twin runs, verification suites, sweeps.

A twin run generates a reference trajectory, synthesizes observations from
it, minimizes along the exponent schedule, and post-processes every stage
into CSV tables and optional SVG figures.  All numeric CSV cells are
written with repr round-tripping, so identical configuration and seed give
byte-identical tables; wall-clock timings go to a separate timings.csv
that is excluded from that contract.
"""

import os

import numpy as np

from . import fieldio, svgplot
from .config import ConfigFieldError, apply_override
from .diagnostics import (
    bank_pairings, build_Sigma, build_sigma, concentration_mass,
    default_test_bank, density_bound_check, el_residual,
    sigma_infty_support_check,
)
from .errors import ConfigurationError, SolverError
from .grid import GridSpec, ScalarField, VectorField
from .misfit import assemble_state
from .norms import (
    PExponent, WeightedSamples, dotted_lp_norm, dual_weight, holder_gap,
    oscillating_step_profile, reg_abs,
)
from .nse import (
    ControlVector, PhysicsSetup, consistent_forcing, forcing_preset,
    initial_velocity_preset, reference_solve, residual_y,
)
from .observation import eval_K, eval_K_jvp, synth_data
from .optim import run_continuation


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _mags(values):
    return np.sqrt(np.einsum("...i,...i->...", values, values))


class TwinResult:
    """Handle onto a finished twin run: stages, reference, output paths."""

    def __init__(self, out_dir, setup, model, reference, stages, diagnostics_rows):
        self.out_dir = out_dir
        self.setup = setup
        self.model = model
        self.reference = reference
        self.stages = stages
        self.diagnostics_rows = diagnostics_rows


def run_twin(cfg, out_dir=None, plots=None, log=print):
    """Execute the full twin pipeline for a validated configuration."""
    grid = cfg.validate()
    setup = cfg.build_setup(grid)
    out = out_dir or cfg.directory
    os.makedirs(out, exist_ok=True)
    do_plots = cfg.plots if plots is None else plots

    with open(os.path.join(out, "run_config.ini"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_ini())

    ref = reference_solve(setup, tol_ref=cfg.ref_tol, advection_sweeps=cfg.ref_sweeps)
    log(f"reference solve: sup residual {ref.sup_residual:.6g} "
        f"(target {ref.tol_ref:.6g})")
    if cfg.ref_tol is not None and not ref.sup_residual <= cfg.ref_tol:
        raise SolverError(
            f"reference sup residual {ref.sup_residual:.6g} exceeds "
            f"physics.ref_tol {cfg.ref_tol:.6g}")
    fieldio.write_vector_field(os.path.join(out, "truth_u"), ref.u)
    fieldio.write_scalar_field(os.path.join(out, "truth_p"), ref.p)
    fieldio.write_array(os.path.join(out, "truth_psi"), ref.control.psi, grid, "dofs")
    fieldio.write_array(os.path.join(out, "truth_pr"), ref.control.pr, grid, "dofs")

    model = synth_data(ref.u, cfg.kind, cfg.noise_amplitude, cfg.seed,
                       mask_stride=cfg.mask_stride)
    fieldio.write_array(os.path.join(out, "data_q"), model.data_q, grid, "obs",
                        extra={"kind": cfg.kind})
    if model.mask is not None:
        fieldio.write_mask(os.path.join(out, "mask.txt"), model.mask)

    stages = run_continuation(ControlVector.zeros(grid), setup, model,
                              cfg.schedule(), cfg.optim_options())

    bank = default_test_bank(grid)
    largest_state = assemble_state(stages[-1].control, setup, model)
    m_proxy = float(_mags(largest_state.y_int).max())

    stage_rows, misfit_rows, diag_rows, timing_rows, pairing_rows = [], [], [], [], []
    conc_curve = []
    for st in stages:
        tag = f"{st.p:g}"
        state = assemble_state(st.control, setup, model)
        fieldio.write_vector_field(os.path.join(out, f"stage_p{tag}_u"), state.u)
        fieldio.write_scalar_field(os.path.join(out, f"stage_p{tag}_p"), state.p)
        fieldio.write_array(os.path.join(out, f"stage_p{tag}_psi"),
                            st.control.psi, grid, "dofs")
        fieldio.write_array(os.path.join(out, f"stage_p{tag}_pr"),
                            st.control.pr, grid, "dofs")

        rep = st.report
        stage_rows.append((st.p, st.result.iterations, rep.e_p, st.report_inf.e_p,
                           st.result.grad_norm, int(st.result.converged),
                           int(st.result.stalled)))
        misfit_rows.append((st.p, rep.e_p, rep.term_K, rep.term_y, rep.sup_K,
                            rep.sup_y, st.result.grad_norm, st.result.iterations))
        timing_rows.append((st.p, st.wall_ms))

        sigma = build_sigma(state.y, st.p)
        big_sigma = build_Sigma(state.K, st.p)
        y_peak = float(sigma.field_magnitudes.max())
        k_peak = float(big_sigma.field_magnitudes.max())
        concs = []
        for frac in (0.05, 0.1, 0.2):
            if y_peak > 0.0:
                concs.append(concentration_mass(sigma, frac * y_peak))
            else:
                concs.append(0.0)
        sub_level = _mags(state.y_int) <= 0.8 * m_proxy
        if m_proxy > 0.0 and sub_level.any():
            lhs, rhs, _ = density_bound_check(state.y, st.p, 0.2 * m_proxy,
                                              sup_proxy=m_proxy)
        else:
            # vacuous: zero residual, or no cell below the threshold
            lhs, rhs = 0.0, 1.0
        frac_near = sigma_infty_support_check(big_sigma, 0.05 * k_peak) \
            if k_peak > 0.0 else 1.0
        r_mom, r_pr = el_residual(st.control, st.p, setup, model, bank)
        diag_rows.append((st.p, sigma.mass, big_sigma.mass, concs[0], concs[1],
                          concs[2], lhs, rhs, frac_near, r_mom, r_pr))
        conc_curve.append(concs[1])
        for label, sig_pair, big_pair in bank_pairings(st.control, st.p, setup,
                                                       model, bank):
            pairing_rows.append((st.p, label, sig_pair, big_pair))
        log(f"stage p={st.p:g}: e_p={rep.e_p:.8f} e_inf={st.report_inf.e_p:.8f} "
            f"iters={st.result.iterations} converged={st.result.converged}")

    _write_csv(os.path.join(out, "stages.csv"),
               ("p", "iterations", "e_p", "e_inf", "grad_norm", "converged", "stalled"),
               stage_rows)
    _write_csv(os.path.join(out, "misfit.csv"),
               ("p", "e_p", "term_K", "term_y", "sup_K", "sup_y", "grad_norm",
                "iterations"), misfit_rows)
    _write_csv(os.path.join(out, "diagnostics.csv"),
               ("p", "sigma_mass", "Sigma_mass", "conc_mass_eps005",
                "conc_mass_eps01", "conc_mass_eps02", "density_lhs",
                "density_rhs", "Sigma_support_fraction", "r_momentum",
                "r_pressure"), diag_rows)
    _write_csv(os.path.join(out, "pairings.csv"),
               ("p", "test", "sigma_pairing", "Sigma_pairing"), pairing_rows)
    _write_csv(os.path.join(out, "timings.csv"), ("p", "wall_ms"), timing_rows)

    if do_plots:
        ps = [st.p for st in stages]
        svgplot.line_chart(
            os.path.join(out, "ep_vs_p.svg"), ps,
            {"E_p": [st.report.e_p for st in stages],
             "E_inf": [st.report_inf.e_p for st in stages]},
            title="misfit vs exponent", xlabel="p", ylabel="misfit", logx=True)
        svgplot.line_chart(
            os.path.join(out, "concentration.svg"), ps,
            {"mass below 0.9 max": conc_curve},
            title="residual-measure concentration", xlabel="p",
            ylabel="sub-level mass", logx=True,
            logy=all(c > 0 for c in conc_curve))
        final_mag = _mags(largest_state.y_int[-1])
        svgplot.heatmap(os.path.join(out, "y_heatmap.svg"), final_mag.tolist(),
                        title=f"residual magnitude, final time, p={stages[-1].p:g}")

    return TwinResult(out, setup, model, ref, stages, diag_rows)


# ---------------------------------------------------------------------------
# verification suites (cmd_verify)

def _suite_norms():
    rng = np.random.default_rng(2024)
    p_grid = [1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(8, 200))
        m = int(rng.integers(1, 4))
        vals = rng.normal(scale=rng.uniform(0.05, 3.0), size=(n, m))
        w = rng.uniform(0.1, 1.0, size=n)
        h = WeightedSamples(vals, w / w.sum())
        norms = {p: dotted_lp_norm(h, p) for p in p_grid}
        for i, q in enumerate(p_grid):
            for p in p_grid[i:]:
                gap = norms[q] - norms[p] - holder_gap(q, p)
                worst = max(worst, gap)
        for p in (2.0, 8.0, 32.0, 128.0):
            dw = dual_weight(h, p)
            pc = PExponent(p).conjugate
            ball = float(np.sum(h.weights * _mags(dw.values) ** pc) ** (1.0 / pc))
            if ball > 1.0 + 1e-10:
                return False, f"unit-ball bound violated: {ball}"
            pair = float(np.sum(h.weights * np.einsum("ij,ij->i", dw.values, vals)))
            reg = float(np.sum(
                h.weights * np.exp((p - 2.0) * np.log(reg_abs(vals, p))
                                   - (p - 1.0) * np.log(norms[p])))) * p ** -2
            ident = abs(pair + reg - norms[p]) / norms[p]
            if ident > 1e-10:
                return False, f"duality identity off by {ident}"
    if worst > 1e-10:
        return False, f"Hoelder defect {worst}"
    zero = WeightedSamples.uniform(np.zeros((16, 2)))
    for p in p_grid:
        if abs(dotted_lp_norm(zero, p) - 1.0 / p) > 1e-15:
            return False, "norm of zero is not 1/p"
    return True, f"largest Hoelder defect {worst:.2e}"


def _suite_gradient():
    from .misfit import assemble_E_p, gradient_E_p
    g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
    setup = PhysicsSetup(grid=g, nu=0.01, lam=0.5,
                         f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.1))
    truth = VectorField.zeros(g)
    model = synth_data(truth, "masked-velocity", 0.25, seed=9, mask_stride=2)
    rng = np.random.default_rng(17)
    c = ControlVector(g, 0.2 * rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                      0.2 * rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
    worst = 0.0
    for p in (2.0, 6.0):
        flat = gradient_E_p(c, setup, model, p).to_flat()
        for _ in range(5):
            d = rng.standard_normal(flat.size)
            d /= np.linalg.norm(d)
            eps = 1e-6
            cp = ControlVector.from_flat(g, c.to_flat() + eps * d)
            cm = ControlVector.from_flat(g, c.to_flat() - eps * d)
            fd = (assemble_E_p(cp, setup, model, p).e_p
                  - assemble_E_p(cm, setup, model, p).e_p) / (2 * eps)
            worst = max(worst, abs(float(flat @ d) - fd) / max(abs(fd), 1e-30))
    return worst <= 1e-5, f"max relative gradient error {worst:.2e}"


def _manufactured_fields(grid):
    xx, yy = grid.mesh()
    levels_u, levels_p = [], []
    for t in grid.t_nodes():
        a = 1.0 + 0.5 * t
        u1 = a * np.pi * np.sin(np.pi * xx) ** 2 * np.sin(2 * np.pi * yy) / 2.0
        u2 = -a * np.pi * np.sin(2 * np.pi * xx) * np.sin(np.pi * yy) ** 2 / 2.0
        levels_u.append(np.stack([u1, u2], axis=-1))
        levels_p.append(a * np.cos(np.pi * xx) * np.cos(np.pi * yy))
    return (VectorField(grid, np.stack(levels_u)),
            ScalarField(grid, np.stack(levels_p)))


def _suite_manufactured():
    g = GridSpec(nx=17, ny=17, nt=6, t_end=0.3)
    u_m, p_m = _manufactured_fields(g)
    base = PhysicsSetup(grid=g, nu=0.05, lam=0.5,
                        f=forcing_preset(g, "none", 0.0),
                        u0=np.zeros((g.ny, g.nx, 2)))
    u0 = u_m.values[0]
    f = consistent_forcing(u_m, p_m, base, u0=u0)
    setup = PhysicsSetup(grid=g, nu=0.05, lam=0.5, f=f,
                         u0=np.zeros((g.ny, g.nx, 2)))
    res = residual_y(u_m, p_m, setup, u0=u0)
    scale = max(1.0, float(np.abs(f.values).max()))
    peak = float(np.abs(res.values).max())
    if peak > 1e-12 * scale:
        return False, f"consistent-forcing residual {peak:.2e}"
    return True, f"consistent-forcing residual {peak:.2e} (scale {scale:.3g})"


def _suite_counterexample():
    for p in (4, 16, 64):
        mids, width, vals, limit = oscillating_step_profile(p)
        n = vals.size
        lp = (np.sum(np.abs(vals) ** p) / n) ** (1.0 / p)
        pairing = float(np.sum(vals[mids < 1.0]) * width)
        l1 = float(np.sum(np.abs(vals - limit)[mids < 1.0]) * width)
        if abs(lp - 1.0) > 1e-12:
            return False, f"p={p}: normalized norm {lp}"
        if abs(pairing) > 1e-12:
            return False, f"p={p}: pairing {pairing}"
        if abs(l1 - 1.0) > 1e-12:
            return False, f"p={p}: L1 distance {l1}"
    return True, "oscillation profile: norm 1, pairing 0, L1 distance 1"


def _suite_fields(tmp_base):
    import tempfile
    g = GridSpec(nx=6, ny=7, nt=3, t_end=0.2)
    rng = np.random.default_rng(3)
    fld = VectorField(g, rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    with tempfile.TemporaryDirectory(dir=tmp_base) as td:
        stem = os.path.join(td, "probe")
        fieldio.write_vector_field(stem, fld)
        back = fieldio.read_vector_field(stem)
        if not np.array_equal(back.values, fld.values):
            return False, "round-trip not bit-exact"
        with open(stem + ".bin", "r+b") as fh:
            fh.seek(16)
            b = fh.read(1)
            fh.seek(16)
            fh.write(bytes([b[0] ^ 0xFF]))
        try:
            fieldio.read_vector_field(stem)
        except ConfigurationError:
            return True, "round-trip bit-exact; corruption detected by checksum"
        return False, "corrupted file was not detected"


def _suite_observation():
    from .grid import TensorField, spatial_gradient
    g = GridSpec(nx=9, ny=9, nt=4, t_end=0.2)
    rng = np.random.default_rng(5)
    worst = 0.0
    eps = 1e-5
    for kind in ("masked-velocity", "vorticity", "speed-squared"):
        truth = VectorField(g, 0.5 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
        model = synth_data(truth, kind, 0.1, seed=8, mask_stride=2)
        for _ in range(30):
            u = VectorField(g, 0.5 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
            du = spatial_gradient(u)
            u_int = np.moveaxis(u.values[1:, 1:-1, 1:-1], -1, 0)
            shape = u_int.shape[1:]
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            fd = (eval_K(VectorField(g, u.values + eps * d), du, model).values
                  - eval_K(VectorField(g, u.values - eps * d), du, model).values
                  ) / (2 * eps)
            an = np.moveaxis(eval_K_jvp(u_int, np.multiply.outer(d, np.ones(shape)),
                                        np.zeros((4,) + shape), model), 0, -1)
            denom = max(float(np.abs(fd).max()), 1e-9)
            worst = max(worst, float(np.abs(an - fd).max()) / denom)

            e = rng.standard_normal(4)
            e /= np.linalg.norm(e)
            fd = (eval_K(u, TensorField(g, du.values + eps * e), model).values
                  - eval_K(u, TensorField(g, du.values - eps * e), model).values
                  ) / (2 * eps)
            an = np.moveaxis(eval_K_jvp(u_int, np.zeros((2,) + shape),
                                        np.multiply.outer(e, np.ones(shape)), model), 0, -1)
            denom = max(float(np.abs(fd).max()), 1e-9)
            worst = max(worst, float(np.abs(an - fd).max()) / denom)
    return worst <= 1e-6, f"max relative derivative error {worst:.2e}"


SUITES = {
    "norms": lambda cfg: _suite_norms(),
    "gradient": lambda cfg: _suite_gradient(),
    "manufactured": lambda cfg: _suite_manufactured(),
    "counterexample": lambda cfg: _suite_counterexample(),
    "fields": lambda cfg: _suite_fields(None),
    "observation": lambda cfg: _suite_observation(),
}


def run_verify(cfg, suite_filter=None, log=print):
    """Run the named verification suites; returns True iff all pass."""
    names = list(SUITES)
    if suite_filter:
        if suite_filter not in SUITES:
            raise ConfigFieldError("verify.suite",
                                   f"unknown suite {suite_filter!r}; "
                                   f"choose from {', '.join(names)}")
        names = [suite_filter]
    all_ok = True
    for name in names:
        ok, detail = SUITES[name](cfg)
        all_ok &= ok
        log(f"{name:16s} {'PASS' if ok else 'FAIL'}  {detail}")
    return all_ok


# ---------------------------------------------------------------------------
# parameter sweeps (cmd_sweep)

def run_sweep(cfg, param, values, out_dir=None, plots=None, log=print):
    """One twin run per value of `param`, plus a combined keyed table."""
    if not values:
        raise ConfigFieldError("sweep.values", "no values given")
    for raw in map(str, values):
        # each value names a subdirectory of the output directory; keep it there
        if ".." in raw or any(sep and sep in raw for sep in ("/", os.sep, os.altsep)):
            raise ConfigFieldError(
                "sweep.values", f"value {raw!r} contains a path separator or '..'")
    base_out = out_dir or cfg.directory
    os.makedirs(base_out, exist_ok=True)
    key = param.split(".")[-1]
    combined = []
    for raw in values:
        sub_cfg = apply_override(cfg, param, str(raw))
        sub_out = os.path.join(base_out, f"{key}_{raw}")
        log(f"sweep {param} = {raw} -> {sub_out}")
        result = run_twin(sub_cfg, out_dir=sub_out, plots=plots, log=log)
        last = result.stages[-1]
        combined.append((raw, last.p, last.report.e_p, last.report.term_K,
                         last.report.term_y, last.report_inf.e_p))
    _write_csv(os.path.join(base_out, "combined.csv"),
               (key, "p", "e_p", "term_K", "term_y", "e_inf"), combined)
    return combined
