"""Limited-memory quasi-Newton descent and the p-continuation loop.

The inner solver is L-BFGS with Armijo backtracking.  For large p the
misfit is a smoothed minimax and badly conditioned, so the continuation
warm-starts every stage from the previous minimizer and tightens the
per-stage gradient tolerance like sqrt(p_first/p).  Only the iterate
carries over: every stage starts with an empty L-BFGS history and a first
step of 1/max(1, ||g0||), so curvature built at small p is not reused.

The iteration runs in preconditioned variables: the stream-function and
pressure blocks are rescaled by constant factors matching their dominant
chain sensitivities (see preconditioner_scales), and gradient norms quoted
in traces and reports refer to those variables.  Convergence is declared
when that norm falls below grad_tol * max(1, ||g0||) with g0 the gradient
at the entry point.  Two runs from the same start with different
tolerances therefore end with final gradient norms bounded by those
tolerances, not in their ratio: the last step may land anywhere below its
bound.  All arithmetic is deterministic.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InvalidFieldError
from .misfit import assemble_state, gradient_from_state, report_from_state
from .norms import PExponent, as_exponent, dot
from .nse import ControlVector


@dataclass
class OptimOptions:
    max_iters: int = 500
    grad_tol: float = 1e-6
    memory: int = 10
    armijo_factor: float = 0.5
    armijo_slope: float = 1e-4
    max_backtracks: int = 60

    def __post_init__(self):
        if self.max_iters < 0 or self.memory < 1:
            raise ConfigurationError("max_iters must be >= 0 and memory >= 1")
        if not (0.0 < self.grad_tol < math.inf):
            raise ConfigurationError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if not (0.0 < self.armijo_factor < 1.0) or not (0.0 < self.armijo_slope < 1.0):
            raise ConfigurationError("Armijo parameters must lie in (0, 1)")


@dataclass
class ContinuationSchedule:
    p_list: tuple = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    warm_start: bool = True

    def __post_init__(self):
        ps = tuple(float(p) for p in self.p_list)
        if len(ps) == 0:
            raise ConfigurationError("continuation schedule is empty")
        if ps[0] < 2.0:
            raise ConfigurationError("first exponent must be >= 2")
        if any(not np.isfinite(p) for p in ps):
            raise ConfigurationError("schedule exponents must be finite")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ConfigurationError("schedule exponents must be strictly increasing")
        self.p_list = ps


@dataclass
class MinimizeResult:
    control: ControlVector
    report: object
    converged: bool
    stalled: bool
    iterations: int
    grad_norm: float
    trace: list = field(default_factory=list)  # (iteration, e_p, grad_norm) rows


def preconditioner_scales(grid):
    """Static diagonal preconditioner for the control blocks.

    The stream-function chain passes through the curl (1/h) and the backward
    time difference (1/dt), the pressure chain through the gradient (1/h);
    scaling the blocks by h*dt and h equalizes those dominant sensitivities
    and removes most of the block ill-conditioning from the quasi-Newton
    iteration.
    """
    n_psi = grid.nt * (grid.ny - 4) * (grid.nx - 4)
    n_pr = grid.nt * (grid.ny - 2) * (grid.nx - 2)
    h = min(grid.hx, grid.hy)
    return np.concatenate([np.full(n_psi, h * grid.dt), np.full(n_pr, h)])


def _two_loop(g, s_hist, y_hist, rho_hist):
    q = g.copy()
    alphas = []
    for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * dot(s, q)
        alphas.append(a)
        q -= a * yv
    if y_hist:
        gamma = dot(s_hist[-1], y_hist[-1]) / dot(y_hist[-1], y_hist[-1])
        q *= gamma
    for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * dot(yv, q)
        q += (a - b) * s
    return -q


def minimize_E_p(c0, setup, model, p, opts=None):
    """Descend the p-misfit from c0 to stationarity.

    Returns the best iterate with its report and a monotone objective
    trace.  A trial point whose state is not finite fails the Armijo test
    and is backtracked.  A line search that exhausts its backtracks flags
    the result as stalled and returns the best point found so far.
    """
    opts = opts or OptimOptions()
    p = as_exponent(p)
    grid = setup.grid
    sv = preconditioner_scales(grid)

    x = c0.to_flat() / sv

    def forward(z):
        state = assemble_state(ControlVector.from_flat(grid, sv * z), setup, model)
        return report_from_state(state, setup, p), state

    report, state = forward(x)
    grad = gradient_from_state(state, setup, model, p).to_flat() * sv
    g_norm = math.sqrt(dot(grad, grad))
    g_ref = max(1.0, g_norm)
    trace = [(0, report.e_p, g_norm)]

    s_hist, y_hist, rho_hist = [], [], []
    converged = g_norm <= opts.grad_tol * g_ref
    stalled = False
    it = 0
    while not converged and it < opts.max_iters:
        d = _two_loop(grad, s_hist, y_hist, rho_hist)
        descent = dot(d, grad)
        if descent >= 0.0:
            d = -grad
            descent = -g_norm * g_norm
        alpha = 1.0 if s_hist else min(1.0, 1.0 / g_ref)
        accepted = None
        for _ in range(opts.max_backtracks + 1):
            x_try = x + alpha * d
            try:
                report_try, state_try = forward(x_try)
            except InvalidFieldError:
                report_try = None
            if (report_try is not None
                    and report_try.e_p <= report.e_p + opts.armijo_slope * alpha * descent):
                accepted = (x_try, report_try, state_try)
                break
            alpha *= opts.armijo_factor
        if accepted is None:
            stalled = True
            break
        x_new, report, state = accepted
        grad_new = gradient_from_state(state, setup, model, p).to_flat() * sv
        s = x_new - x
        yv = grad_new - grad
        sy = dot(s, yv)
        if sy > 1e-14 * math.sqrt(dot(s, s)) * math.sqrt(dot(yv, yv)):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > opts.memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, grad = x_new, grad_new
        g_norm = math.sqrt(dot(grad, grad))
        it += 1
        trace.append((it, report.e_p, g_norm))
        converged = g_norm <= opts.grad_tol * g_ref

    return MinimizeResult(
        control=ControlVector.from_flat(grid, sv * x), report=report,
        converged=converged, stalled=stalled, iterations=it,
        grad_norm=g_norm, trace=trace)


@dataclass
class StageResult:
    p: float
    result: MinimizeResult
    report_inf: object
    wall_ms: float

    @property
    def control(self):
        return self.result.control

    @property
    def report(self):
        return self.result.report


def stage_tolerance(opts, p_first, p):
    """Per-stage gradient tolerance, tightening like sqrt(p_first/p)."""
    return opts.grad_tol * (p_first / p) ** 0.5


def run_continuation(c0, setup, model, schedule=None, opts=None):
    """Minimize along the exponent schedule, warm-starting each stage.

    Non-convergence of a stage is recorded on its result and the
    continuation proceeds from the best iterate anyway.
    """
    schedule = schedule or ContinuationSchedule()
    opts = opts or OptimOptions()
    stages = []
    current = c0
    p_first = schedule.p_list[0]
    for p in schedule.p_list:
        stage_opts = replace(opts, grad_tol=stage_tolerance(opts, p_first, p))
        t0 = time.perf_counter()
        result = minimize_E_p(current, setup, model, p, stage_opts)
        wall_ms = (time.perf_counter() - t0) * 1e3
        state = assemble_state(result.control, setup, model)
        report_inf = report_from_state(state, setup, PExponent.infinity())
        stages.append(StageResult(p=p, result=result, report_inf=report_inf,
                                  wall_ms=wall_ms))
        if schedule.warm_start:
            current = result.control
        else:
            current = c0
    return stages
