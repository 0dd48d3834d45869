"""Layer spans recorded from outside nsassim.

nsassim modules import each other's functions by name (``from .misfit
import assemble_state`` binds a second reference in ``nsassim.optim``), so
replacing that name in the *calling* module's namespace times exactly the
calls that module makes across a layer boundary.  Nothing inside the
package is edited.

Each span keeps a call count, its total duration and its self time: the
duration minus the part covered by spans opened inside it.  Spans sharing a
name (one function reached through several namespaces, or the eight
stencil kernels) add up.  Everything stays in memory until the process
reports.
"""

import importlib
import time

# the stencil kernels of nsassim.grid each module imports
STENCILS = {
    "nse": ("curl_kernel", "gradient_kernel", "laplacian_kernel", "scalar_gradient_kernel"),
    "misfit": ("curl_transpose_kernel", "gradient_kernel", "gradient_transpose_kernel",
               "laplacian_kernel", "laplacian_transpose_kernel", "scalar_gradient_kernel",
               "scalar_gradient_transpose_kernel"),
    "diagnostics": ("curl_kernel", "gradient_kernel", "laplacian_kernel",
                    "scalar_gradient_kernel"),
    "observation": ("gradient_kernel",),
}
MEASURES = ("build_sigma", "build_Sigma", "concentration_mass",
            "density_bound_check", "sigma_infty_support_check")

# span name -> (calling module, attribute) pairs it wraps
WRAPS = {
    "config.load": [("config", "load_config"), ("config", "apply_override")],
    "runner.run_twin": [("runner", "run_twin")],
    "optim.run_continuation": [("runner", "run_continuation"),
                               ("optim", "run_continuation")],
    "optim.minimize_E_p": [("optim", "minimize_E_p")],
    "misfit.assemble_state": [("optim", "assemble_state"), ("runner", "assemble_state"),
                              ("diagnostics", "assemble_state"),
                              ("misfit", "assemble_state")],
    "misfit.report_from_state": [("optim", "report_from_state")],
    "misfit.gradient_from_state": [("optim", "gradient_from_state")],
    "nse.state_from_control": [("misfit", "state_from_control"),
                               ("nse", "state_from_control")],
    "nse.extend_interior": [("nse", "extend_interior"), ("diagnostics", "extend_interior")],
    "nse.extend_interior_transpose": [("misfit", "extend_interior_transpose")],
    "nse.reference_solve": [("runner", "reference_solve")],
    "grid.stencil": [(mod, name) for mod, names in STENCILS.items() for name in names],
    "norms.dotted_lp_norm": [("misfit", "dotted_lp_norm"), ("norms", "dotted_lp_norm")],
    "norms.dual_weight": [("misfit", "dual_weight"), ("diagnostics", "dual_weight")],
    "observation.eval_K": [("misfit", "eval_K_kernel"), ("misfit", "eval_K_eta_kernel"),
                           ("misfit", "eval_K_A_kernel"),
                           ("diagnostics", "eval_K_eta_kernel"),
                           ("diagnostics", "eval_K_A_kernel")],
    "observation.synth_data": [("runner", "synth_data"), ("observation", "synth_data")],
    "diagnostics.el_residual": [("runner", "el_residual"), ("diagnostics", "el_residual")],
    "diagnostics.bank_pairings": [("runner", "bank_pairings"),
                                  ("diagnostics", "bank_pairings")],
    "diagnostics.measures": [(mod, name) for mod in ("runner", "diagnostics")
                             for name in MEASURES],
    "fieldio.write": [("fieldio", "write_array"), ("fieldio", "write_mask")],
}


class Tracer:
    """Wraps module attributes in timing spans and aggregates them."""

    def __init__(self):
        self.stats = {}      # span -> [calls, total seconds, self seconds]
        self._stack = []     # per open span: seconds covered by its children
        self._covered = 0.0  # seconds covered by outermost spans
        self._undo = []
        self._t0 = self._t1 = None
        self.missing = []    # WRAPS sites the package no longer has

    def _wrap(self, owner, attr, span):
        fn = getattr(owner, attr)
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def spanned(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer._covered += dt

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, fn))

    def install(self):
        """Wrap every WRAPS entry plus WeightedSamples validation.

        A site the package no longer has is skipped and listed in
        `missing`, so a refactor shows up in the report instead of
        stopping the benchmark.
        """
        for span, sites in WRAPS.items():
            for mod, attr in sites:
                module = importlib.import_module(f"nsassim.{mod}")
                if hasattr(module, attr):
                    self._wrap(module, attr, span)
                else:
                    self.missing.append(f"nsassim.{mod}.{attr}")
        # every WeightedSamples construction runs this validation hook
        norms = importlib.import_module("nsassim.norms")
        self._wrap(norms.WeightedSamples, "__post_init__", "norms.samples")
        self._t0 = time.perf_counter()

    def uninstall(self):
        self._t1 = time.perf_counter()
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def calls(self, span):
        return self.stats.get(span, [0, 0.0, 0.0])[0]

    def self_s(self, *spans):
        return sum(self.stats.get(s, [0, 0.0, 0.0])[2] for s in spans)

    def ms_per_call(self, span):
        calls, total, _ = self.stats.get(span, [0, 0.0, 0.0])
        return 1e3 * total / calls if calls else 0.0

    def uncovered_share(self):
        """Share of the traced interval that no span covers."""
        interval = self._t1 - self._t0
        return max(0.0, interval - self._covered) / interval
