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
from .misfit import assemble_state, gradient_from_state, report_from_state
from .norms import (
    PExponent, WeightedSamples, dotted_lp_norm, dual_weight, holder_gap, magnitudes,
    oscillating_step_profile, reg_abs,
)
from .nse import (
    ControlVector, PhysicsSetup, forcing_preset, initial_velocity_preset, reference_solve,
    residual_y, velocity_gradient,
)
from .observation import (
    KINDS, ObservationModel, default_mask, eval_K, eval_K_jvp, n_components, synth_data,
)
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
    m_proxy = stages[-1].report_inf.sup_y

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
                           int(st.result.stalled), st.result.forward_evals,
                           st.result.backtracks))
        misfit_rows.append((st.p, rep.e_p, rep.term_K, rep.term_y, rep.sup_K,
                            rep.sup_y, st.result.grad_norm, st.result.iterations))
        timing_rows.append((st.p, st.wall_ms))

        sigma = build_sigma(state.y, st.p)
        big_sigma = build_Sigma(state.K, st.p)
        y_peak = float(sigma.field_magnitudes.max())
        k_peak = float(big_sigma.field_magnitudes.max())
        concs = [concentration_mass(sigma, frac * y_peak) if y_peak > 0.0 else 0.0
                 for frac in (0.05, 0.1, 0.2)]
        eps = 0.2 * m_proxy
        if m_proxy > 0.0 and (sigma.field_magnitudes <= m_proxy - eps).any():
            lhs, rhs, _ = density_bound_check(sigma, st.p, eps, sup_proxy=m_proxy)
        else:
            # vacuous: zero residual, or no cell below the threshold
            lhs, rhs = 0.0, 1.0
        frac_near = sigma_infty_support_check(big_sigma, 0.05 * k_peak) \
            if k_peak > 0.0 else 1.0
        r_mom, r_pr = el_residual(state, st.p, setup, model, bank)
        diag_rows.append((st.p, sigma.mass, big_sigma.mass, concs[0], concs[1],
                          concs[2], lhs, rhs, frac_near, r_mom, r_pr))
        conc_curve.append(concs[1])
        for label, sig_pair, big_pair in bank_pairings(state, st.p, setup, model, bank):
            pairing_rows.append((st.p, label, sig_pair, big_pair))
        log(f"stage p={st.p:g}: e_p={rep.e_p:.8f} e_inf={st.report_inf.e_p:.8f} "
            f"iters={st.result.iterations} converged={st.result.converged}")

    _write_csv(os.path.join(out, "stages.csv"),
               ("p", "iterations", "e_p", "e_inf", "grad_norm", "converged", "stalled",
                "forward_evals", "backtracks"), stage_rows)
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
        final_mag = sigma.field_magnitudes.reshape(state.residual.shape[1:])[-1]  # last stage
        svgplot.heatmap(os.path.join(out, "y_heatmap.svg"), final_mag.tolist(),
                        title=f"residual magnitude, final time, p={stages[-1].p:g}")

    return TwinResult(out, setup, model, ref, stages, diag_rows)


# ---------------------------------------------------------------------------
# verification checks: the `verify` suites and the acceptance tests call
# these, each at its own seed and sizes; the tolerances are fixed here

_NORM_EXPONENTS = (1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _random_samples(seed, trials):
    """Random weighted vector samples: 4..249 points, 1..3 components."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(4, 250))
        m = int(rng.integers(1, 4))
        vals = rng.uniform(0.02, 4.0) * rng.standard_normal((n, m))
        w = rng.uniform(0.05, 1.0, size=n)
        yield WeightedSamples(vals, w / w.sum())


def check_holder(seed=2024, trials=60):
    """Modified Hoelder inequality between exponents and the 1/p floor."""
    worst = -np.inf
    for h in _random_samples(seed, trials):
        norms = {p: dotted_lp_norm(h, p) for p in _NORM_EXPONENTS}
        for i, q in enumerate(_NORM_EXPONENTS):
            for p in _NORM_EXPONENTS[i:]:
                worst = max(worst, norms[q] - norms[p] - holder_gap(q, p))
    zero = WeightedSamples.uniform(np.zeros((64, 2)))
    floor_err = max(abs(dotted_lp_norm(zero, p) - 1.0 / p) for p in _NORM_EXPONENTS)
    return (worst <= 1e-10 and floor_err <= 1e-15,
            f"largest defect {worst:.2e}, zero-field floor error {floor_err:.1e}")


def check_dual_weights(seed=2024, trials=60):
    """Dual weights lie in the conjugate unit ball and pair back to the norm."""
    worst_ball = worst_ident = 0.0
    for h in _random_samples(seed, trials):
        for p in (2.0, 8.0, 32.0, 128.0):
            dw = dual_weight(h, p)
            pc = PExponent(p).conjugate
            worst_ball = max(worst_ball,
                             float(np.sum(h.weights * magnitudes(dw.values) ** pc) ** (1.0 / pc)))
            norm = dotted_lp_norm(h, p)
            pair = float(np.sum(h.weights * np.einsum("ij,ij->i", dw.values, h.values)))
            reg = float(np.sum(
                h.weights * np.exp((p - 2.0) * np.log(reg_abs(h.values, p))
                                   - (p - 1.0) * np.log(norm)))) * p ** -2
            worst_ident = max(worst_ident, abs(pair + reg - norm) / norm)
    return (worst_ball <= 1.0 + 1e-10 and worst_ident <= 1e-10,
            f"largest conjugate norm {worst_ball:.12f}, "
            f"duality identity defect {worst_ident:.1e}")


def check_norms():
    """check_holder and check_dual_weights on the same samples."""
    results = (check_holder(), check_dual_weights())
    return all(ok for ok, _ in results), "; ".join(detail for _, detail in results)


def check_gradient(seed=17, directions=5):
    """Analytic gradient against central differences along random directions."""
    g = GridSpec(nx=8, ny=8, nt=6, t_end=0.3)
    setup = PhysicsSetup(grid=g, nu=0.01, lam=0.5,
                         f=forcing_preset(g, "none", 0.0),
                         u0=initial_velocity_preset(g, "vortex", 0.1))
    model = synth_data(VectorField.zeros(g), "masked-velocity", 0.25,
                       seed=9, mask_stride=2)
    rng = np.random.default_rng(seed)
    c = ControlVector(g, 0.3 * rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                      0.3 * rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
    eps = 1e-6  # 1e-6 times the O(1) problem scale
    worst = 0.0

    def e_p(control, p):
        return report_from_state(assemble_state(control, setup, model), setup, p).e_p

    for p in (2.0, 6.0):
        flat = gradient_from_state(assemble_state(c, setup, model), setup, model, p).to_flat()
        for _ in range(directions):
            d = rng.standard_normal(flat.size)
            d /= np.linalg.norm(d)
            cp = ControlVector.from_flat(g, c.to_flat() + eps * d)
            cm = ControlVector.from_flat(g, c.to_flat() - eps * d)
            fd = (e_p(cp, p) - e_p(cm, p)) / (2 * eps)
            worst = max(worst, abs(float(flat @ d) - fd) / max(abs(fd), 1e-30))
    return (worst <= 1e-5,
            f"max relative error {worst:.2e} over {directions} directions, p in {{2, 6}}")


def check_consistent_forcing(u, p):
    """The residual of (u, p) under a zero forcing, taken as the forcing, cancels it.

    Level 0 of u is the initial slice; the cancellation must hold to
    1e-12 of the forcing scale on every interior node.
    """
    g = u.grid
    zero = np.zeros((g.ny, g.nx, 2))
    base = PhysicsSetup(grid=g, nu=0.05, lam=0.5, f=forcing_preset(g, "none", 0.0), u0=zero)
    f = residual_y(u, p, base, u0=u.values[0])
    setup = PhysicsSetup(grid=g, nu=0.05, lam=0.5, f=f, u0=zero)
    res = residual_y(u, p, setup, u0=u.values[0])
    scale = max(1.0, float(np.abs(f.values).max()))
    peak = float(np.abs(res.values).max())
    return peak <= 1e-12 * scale, f"consistent residual {peak:.2e} (<= 1e-12*scale)"


def check_manufactured():
    """check_consistent_forcing on a closed-form solenoidal state."""
    grid = GridSpec(nx=17, ny=17, nt=6, t_end=0.3)
    xx, yy = grid.mesh()
    levels_u, levels_p = [], []
    for t in grid.t_nodes():
        a = 1.0 + 0.5 * t
        u1 = a * np.pi * np.sin(np.pi * xx) ** 2 * np.sin(2 * np.pi * yy) / 2.0
        u2 = -a * np.pi * np.sin(2 * np.pi * xx) * np.sin(np.pi * yy) ** 2 / 2.0
        levels_u.append(np.stack([u1, u2], axis=-1))
        levels_p.append(a * np.cos(np.pi * xx) * np.cos(np.pi * yy))
    return check_consistent_forcing(VectorField(grid, np.stack(levels_u)),
                                    ScalarField(grid, np.stack(levels_p)))


def check_oscillation():
    """The oscillating step profile: unit norm, zero pairing, unit L1 distance."""
    worst_norm = worst_pair = worst_l1 = 0.0
    for p in (4, 16, 64):
        mids, width, vals, limit = oscillating_step_profile(p)
        norm = (np.sum(np.abs(vals) ** p) / vals.size) ** (1.0 / p)
        left = mids < 1.0
        pairing = float(np.sum(vals[left]) * width)
        l1 = float(np.sum(np.abs(vals - limit)[left]) * width)
        worst_norm = max(worst_norm, abs(norm - 1.0))
        worst_pair = max(worst_pair, abs(pairing))
        worst_l1 = max(worst_l1, abs(l1 - 1.0))
    return (worst_norm <= 1e-12 and worst_pair <= 1e-12 and worst_l1 <= 1e-12,
            f"norm defect {worst_norm:.1e}, pairing {worst_pair:.1e}, "
            f"L1 defect {worst_l1:.1e} (all <= 1e-12)")


def check_fields():
    """Field and mask files round-trip bit-exactly and a flipped byte fails the checksum."""
    import tempfile
    g = GridSpec(nx=6, ny=7, nt=3, t_end=0.2)
    rng = np.random.default_rng(3)
    fld = VectorField(g, rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)))
    scalar = ScalarField(g, rng.standard_normal((g.nt + 1, g.ny, g.nx)))
    mask = rng.random((g.ny - 2, g.nx - 2)) < 0.5
    with tempfile.TemporaryDirectory() as td:
        stem = os.path.join(td, "probe")
        fieldio.write_vector_field(stem, fld)
        fieldio.write_scalar_field(stem + "_p", scalar)
        fieldio.write_mask(stem + ".txt", mask)
        for name, back, want in (
                ("vector field", fieldio.read_vector_field(stem).values, fld.values),
                ("scalar field", fieldio.read_scalar_field(stem + "_p").values, scalar.values),
                ("mask", fieldio.read_mask(stem + ".txt"), mask)):
            if not np.array_equal(back, want):
                return False, f"{name} round-trip not bit-exact"
        with open(stem + ".bin", "r+b") as fh:
            fh.seek(16)
            b = fh.read(1)
            fh.seek(16)
            fh.write(bytes([b[0] ^ 0xFF]))
        try:
            fieldio.read_vector_field(stem)
        except ConfigurationError:
            return True, "fields and mask round-trip bit-exactly; corruption detected by checksum"
        return False, "corrupted file was not detected"


def check_observation(seed=5, grid=None, trials=30):
    """Observation tangent eval_K_jvp against central differences of eval_K.

    Per kind, `trials` random states on `grid` (default 9 x 9 x 4), each
    perturbed along one random constant velocity direction and one random
    constant gradient direction.
    """
    g = grid or GridSpec(nx=9, ny=9, nt=4, t_end=0.2)
    rng = np.random.default_rng(seed)
    eps = 1e-5
    shape = (g.nt, g.ny - 2, g.nx - 2)
    ones = np.ones(shape)
    worst = 0.0
    for kind in KINDS:
        model = ObservationModel(kind, g, np.zeros(shape + (n_components(kind),)),
                                 mask=default_mask(g, 2))
        for _ in range(trials):
            full = np.moveaxis(0.7 * rng.standard_normal((g.nt + 1, g.ny, g.nx, 2)), -1, 0)
            u, grad = full[:, 1:, 1:-1, 1:-1], velocity_gradient(full[:, 1:], g)
            for n in (2, 4):  # a velocity direction, then a gradient direction
                d = rng.standard_normal(n)
                dv = np.multiply.outer(d / np.linalg.norm(d), ones)
                du, dg = (dv, 0.0 * grad) if n == 2 else (0.0 * u, dv)
                fd = (eval_K(u + eps * du, grad + eps * dg, model)
                      - eval_K(u - eps * du, grad - eps * dg, model)) / (2 * eps)
                an = eval_K_jvp(u, du, dg, model)
                worst = max(worst, float(np.abs(an - fd).max())
                            / max(float(np.abs(fd).max()), 1e-9))
    return worst <= 1e-6, f"max relative derivative error {worst:.2e}"


SUITES = {
    "norms": check_norms,
    "gradient": check_gradient,
    "manufactured": check_manufactured,
    "counterexample": check_oscillation,
    "fields": check_fields,
    "observation": check_observation,
}


def run_verify(suite_filter=None, log=print):
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
        ok, detail = SUITES[name]()
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
