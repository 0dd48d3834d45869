"""One benchmark process: set up a workload, run it, check it, report.

run.py starts this script once per repetition so that every repetition
pays its own interpreter start and imports.  It is not meant to be run by
hand; see perfbench/README.md.

Modes:
  setup   import, load the config and build the inputs, then stop
  run     setup, then the workload itself (tracing off)
  traced  the same with every layer span of spans.WRAPS installed
  scan    single-call timings of three kernels at three grid sizes

The result is one JSON object written to --result.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "twin-bundled": os.path.join(ROOT, "configs", "example.ini"),
    "twin-ref24": os.path.join(HERE, "workloads", "twin_ref24.ini"),
    "assim-48": os.path.join(HERE, "workloads", "assim48.ini"),
}
NOT_DETERMINISTIC = ("timings.csv",)  # wall-clock per stage, by design


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _digests(out_dir):
    """sha256 of every artifact covered by the determinism contract."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name in NOT_DETERMINISTIC:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _fieldio_bytes(out_dir):
    """Bytes of the files written through nsassim.fieldio."""
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir)
               if n.endswith((".bin", ".meta")) or n == "mask.txt")


def _count_calls(module, attr):
    """Count calls of module.attr without timing them; returns the counter."""
    fn = getattr(module, attr)
    box = [0]

    def counted(*args, **kwargs):
        box[0] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, counted)
    return box


# ---------------------------------------------------------------------------
# workloads: the constructor is the set-up, execute() the timed part

class TwinWorkload:
    """`nsassim twin` on a config file, plots off, noise seed from --seed."""

    def __init__(self, ns, path, seed):
        self.ns = ns
        cfg = ns.config.load_config(path=path)
        self.cfg = ns.config.apply_override(cfg, "observation.seed", str(seed))

    def execute(self, out_dir):
        ns = self.ns
        result = ns.runner.run_twin(self.cfg, out_dir=out_dir, plots=False,
                                    log=lambda msg: None)
        self.p_list = self.cfg.p_list
        self.stages = result.stages
        self.ref_sup_residual = result.reference.sup_residual
        self.ref_tol = result.reference.tol_ref


class AssimWorkload:
    """Library-user path: seeded truth, synthetic data, continuation, diagnostics.

    The truth is the config's vortex stream function modulated by a seeded
    smooth perturbation that grows from zero at t = 0, so level 0 matches
    the initial data exactly.  At t = T the perturbation's peak velocity is
    PERTURBATION times the vortex's: large enough that the seed changes the
    flow, small enough that the truth's sup residual (ref_sup_residual,
    set by the vortex's own advection) stays within a few percent.
    """

    MODES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))
    PERTURBATION = 0.02

    def __init__(self, ns, path, seed):
        import numpy as np
        self.ns = ns
        cfg = ns.config.load_config(path=path)
        self.cfg = cfg = ns.config.apply_override(cfg, "observation.seed", str(seed))
        grid = self.grid = cfg.validate()
        self.setup = setup = cfg.build_setup(grid)

        rng = np.random.default_rng(seed)
        xx, yy = grid.mesh()
        pert = sum(c * np.sin(kx * np.pi * xx / grid.lx) * np.sin(ky * np.pi * yy / grid.ly)
                   for c, (kx, ky) in zip(rng.uniform(-1.0, 1.0, len(self.MODES)),
                                          self.MODES))
        bump = ns.nse.stream_bump(grid, cfg.u0_amplitude, power=2)
        speed = ns.grid.curl_kernel(bump, grid)
        pert *= self.PERTURBATION * np.abs(speed).max() / np.abs(
            ns.grid.curl_kernel(bump * pert, grid)).max()
        ramp = grid.t_nodes()[1:] / grid.t_end
        psi = bump[None] * (1.0 + ramp[:, None, None] * pert[None])
        self.truth = ns.nse.ControlVector(grid, psi[:, 2:-2, 2:-2],
                                          np.zeros((grid.nt, grid.ny - 2, grid.nx - 2)))
        self.u_truth, self.p_truth = ns.nse.state_from_control(self.truth, setup)
        self.model = ns.observation.synth_data(self.u_truth, cfg.kind, cfg.noise_amplitude,
                                               cfg.seed, mask_stride=cfg.mask_stride)
        # no reference solve here: report the truth's own sup-norm momentum residual
        res = ns.nse.residual_y(self.u_truth, self.p_truth, setup)
        self.ref_sup_residual = float(np.abs(res.values).max())
        self.ref_tol = None

    def execute(self, out_dir):
        ns, cfg, grid, setup, model = self.ns, self.cfg, self.grid, self.setup, self.model
        fio, diag = ns.fieldio, ns.diagnostics
        stages = ns.optim.run_continuation(ns.nse.ControlVector.zeros(grid), setup, model,
                                           cfg.schedule(), cfg.optim_options())
        bank = diag.default_test_bank(grid)
        stage_rows, diag_rows, pairing_rows = [], [], []
        for st in stages:
            tag = f"{st.p:g}"
            state = ns.misfit.assemble_state(st.control, setup, model)
            stem = os.path.join(out_dir, f"stage_p{tag}")
            fio.write_vector_field(stem + "_u", state.u)
            fio.write_scalar_field(stem + "_p", state.p)
            fio.write_array(stem + "_psi", st.control.psi, grid, "dofs")
            fio.write_array(stem + "_pr", st.control.pr, grid, "dofs")

            sigma = diag.build_sigma(state.y, st.p)
            big_sigma = diag.build_Sigma(state.K, st.p)
            y_peak = float(sigma.field_magnitudes.max())
            k_peak = float(big_sigma.field_magnitudes.max())
            concs = [diag.concentration_mass(sigma, frac * y_peak) for frac in (0.05, 0.1, 0.2)]
            lhs, rhs, _ = diag.density_bound_check(state.y, st.p, 0.2 * y_peak)
            near = diag.sigma_infty_support_check(big_sigma, 0.05 * k_peak)
            r_mom, r_pr = diag.el_residual(st.control, st.p, setup, model, bank)
            for label, sig, big in diag.bank_pairings(st.control, st.p, setup, model, bank):
                pairing_rows.append((st.p, label, sig, big))
            rep = st.report
            stage_rows.append((st.p, st.result.iterations, rep.e_p, st.report_inf.e_p,
                               st.result.grad_norm))
            diag_rows.append((st.p, sigma.mass, big_sigma.mass, *concs, lhs, rhs, near,
                              r_mom, r_pr))
        _write_csv(os.path.join(out_dir, "stages.csv"),
                   ("p", "iterations", "e_p", "e_inf", "grad_norm"), stage_rows)
        _write_csv(os.path.join(out_dir, "diagnostics.csv"),
                   ("p", "sigma_mass", "Sigma_mass", "conc_mass_eps005", "conc_mass_eps01",
                    "conc_mass_eps02", "density_lhs", "density_rhs",
                    "Sigma_support_fraction", "r_momentum", "r_pressure"), diag_rows)
        _write_csv(os.path.join(out_dir, "pairings.csv"),
                   ("p", "test", "sigma_pairing", "Sigma_pairing"), pairing_rows)
        self.p_list = cfg.p_list
        self.stages = stages


WORKLOAD_CLASSES = {"twin-bundled": TwinWorkload, "twin-ref24": TwinWorkload,
                    "assim-48": AssimWorkload}


# ---------------------------------------------------------------------------

def _versions(ns):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = "unavailable"
    return {"nsassim": ns.__version__, "numpy": np.__version__,
            "python": sys.version.split()[0], "blas": blas}


def _layer_metrics(t, rep, stages, out_dir):
    """Per-layer metrics of one traced repetition (see README.md)."""
    trials = rep["forward_evals"] - len(stages)  # minus each stage's entry point
    return {
        "nse.extend_interior_s": t.self_s("nse.extend_interior"),
        "nse.extend_interior_transpose_s": t.self_s("nse.extend_interior_transpose"),
        "nse.reference_solve_s": t.self_s("nse.reference_solve"),
        "nse.state_from_control_calls": t.calls("nse.state_from_control"),
        "nse.state_from_control_s": t.self_s("nse.state_from_control"),
        "misfit.assemble_state_calls": t.calls("misfit.assemble_state"),
        "misfit.assemble_state_s": t.self_s("misfit.assemble_state"),
        "misfit.assemble_state_ms_per_call": t.ms_per_call("misfit.assemble_state"),
        "misfit.report_from_state_s": t.self_s("misfit.report_from_state"),
        "misfit.gradient_from_state_calls": t.calls("misfit.gradient_from_state"),
        "misfit.gradient_from_state_s": t.self_s("misfit.gradient_from_state"),
        "misfit.gradient_from_state_ms_per_call": t.ms_per_call("misfit.gradient_from_state"),
        "grid.stencil_calls": t.calls("grid.stencil"),
        "grid.stencil_s": t.self_s("grid.stencil"),
        "norms.dotted_lp_norm_calls": t.calls("norms.dotted_lp_norm"),
        "norms.dotted_lp_norm_s": t.self_s("norms.dotted_lp_norm"),
        "norms.dual_weight_calls": t.calls("norms.dual_weight"),
        "norms.dual_weight_s": t.self_s("norms.dual_weight"),
        "norms.samples_constructed": t.calls("norms.samples"),
        "observation.eval_K_s": t.self_s("observation.eval_K"),
        "observation.synth_data_s": t.self_s("observation.synth_data"),
        "optim.iterations": rep["iterations"],
        "optim.forward_evals": rep["forward_evals"],
        "optim.accept_ratio": rep["iterations"] / trials if trials else 1.0,
        "optim.self_s": t.self_s("optim.run_continuation", "optim.minimize_E_p"),
        "optim.stages_converged": sum(1 for st in stages if st.result.converged),
        "diagnostics.el_residual_s": t.self_s("diagnostics.el_residual"),
        "diagnostics.bank_pairings_s": t.self_s("diagnostics.bank_pairings"),
        "diagnostics.measures_s": t.self_s("diagnostics.measures"),
        "fieldio.write_s": t.self_s("fieldio.write"),
        "fieldio.bytes_written": _fieldio_bytes(out_dir),
        "runner.self_s": t.self_s("runner.run_twin"),
        "config.load_s": t.self_s("config.load"),
        "trace_uncovered_share": t.uncovered_share(),
    }


def _run(ns, args, traced):
    # counted (not timed) in every repetition: the determinism check needs it
    forward_calls = _count_calls(ns.optim, "assemble_state")
    cont = {}
    run_continuation = ns.optim.run_continuation

    def timed_continuation(*a, **kw):
        t0 = time.perf_counter()
        try:
            return run_continuation(*a, **kw)
        finally:
            cont["s"] = time.perf_counter() - t0

    ns.optim.run_continuation = ns.runner.run_continuation = timed_continuation
    tracer = None
    if traced:  # spans go outside the counters
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    work = WORKLOAD_CLASSES[args.workload](ns, WORKLOADS[args.workload], args.seed)
    setup_s = time.monotonic() - args.spawned_at  # one clock across processes
    if args.mode == "setup":
        return {"setup_s": setup_s}

    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    work.execute(args.out)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    stages = work.stages
    e_inf = [st.report_inf.e_p for st in stages]
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "continuation_s": cont["s"],
        "iterations": sum(st.result.iterations for st in stages),
        # minus the re-assembly run_continuation does after each stage
        "forward_evals": forward_calls[0] - len(stages),
        "stages": [st.p for st in stages],
        "p_list": list(work.p_list),
        "stages_unconverged": sum(1 for st in stages if not st.result.converged),
        "e_inf_first": e_inf[0],
        "e_inf_final": e_inf[-1],
        "ref_sup_residual": work.ref_sup_residual,
        "ref_tol": work.ref_tol,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "finite": all(math.isfinite(v) for v in e_inf + [st.report.e_p for st in stages]
                      + [work.ref_sup_residual]),
        "digests": _digests(args.out),
        "versions": _versions(ns),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, out, stages, args.out)
        out["spans_missing"] = tracer.missing
    return out


def _scan(ns, seed):
    """Median single-call time of three kernels at 16^2x12, 32^2x24, 64^2x48."""
    import numpy as np
    out = {}
    for n in (16, 32, 64):
        grid = ns.grid.GridSpec(n, n, 3 * n // 4, 1.0, 1.0, 0.36)
        setup = ns.nse.PhysicsSetup(grid=grid, nu=0.002, lam=0.5,
                                    f=ns.nse.forcing_preset(grid, "none", 0.0),
                                    u0=ns.nse.initial_velocity_preset(grid, "vortex", 0.15))
        rng = np.random.default_rng(seed)
        shape_psi, shape_pr = (grid.nt, n - 4, n - 4), (grid.nt, n - 2, n - 2)
        truth = ns.nse.ControlVector(grid, 0.01 * rng.standard_normal(shape_psi),
                                     0.01 * rng.standard_normal(shape_pr))
        model = ns.observation.synth_data(ns.nse.state_from_control(truth, setup)[0],
                                          "masked-velocity", 0.5, seed, mask_stride=4)
        c = ns.nse.ControlVector(grid, 0.01 * rng.standard_normal(shape_psi),
                                 0.01 * rng.standard_normal(shape_pr))
        state = ns.misfit.assemble_state(c, setup, model)
        flat = state.y_int.reshape(-1, 2)
        samples = ns.norms.WeightedSamples(flat, np.full(flat.shape[0], state.weight))
        calls = {
            "assemble_state": lambda: ns.misfit.assemble_state(c, setup, model),
            "gradient_from_state": lambda: ns.misfit.gradient_from_state(state, setup,
                                                                         model, 16.0),
            "dual_weight": lambda: ns.norms.dual_weight(samples, 16.0),
        }
        for name, fn in calls.items():
            times = []
            t_end = time.perf_counter() + 0.3
            while len(times) < 3 or (time.perf_counter() < t_end and len(times) < 25):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            times.sort()
            out[f"scan.{name}_ms.n{n}"] = 1e3 * times[len(times) // 2]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced", "scan"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--out", required=True, help="artifact directory")
    ap.add_argument("--result", required=True, help="JSON result file")
    args = ap.parse_args(argv)

    import nsassim as ns
    from nsassim import (config, diagnostics, fieldio, grid, misfit,  # noqa: F401
                         norms, nse, observation, optim, runner)
    if args.mode == "scan":
        result = _scan(ns, args.seed)
    else:
        result = _run(ns, args, traced=args.mode == "traced")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
