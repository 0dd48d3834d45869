"""Limited-memory quasi-Newton descent and the p-continuation loop.

The inner solver is L-BFGS with Armijo backtracking.  For large p the
misfit is a smoothed minimax and badly conditioned, so the continuation
warm-starts every stage from the previous minimizer and tightens the
per-stage gradient tolerance like sqrt(p_first/p).  Only the iterate and
its assembled state carry over, so a stage does not assemble its entry
point again: every stage starts with an empty L-BFGS history, so curvature
built at small p is not reused.

The iteration runs in preconditioned variables: the stream-function and
pressure blocks are rescaled by constant factors matching their dominant
chain sensitivities (see preconditioner_scales), and gradient norms quoted
in traces and reports refer to those variables.  Convergence is declared
when that norm falls below grad_tol * max(1, ||g0||) with g0 the gradient
at the entry point.  Two runs from the same start with different
tolerances therefore end with final gradient norms bounded by those
tolerances, not in their ratio: the last step may land anywhere below its
bound.

The Armijo line search (slope _ARMIJO_SLOPE) starts at unit length and,
after a trial that fails the test, tries the minimiser of the quadratic
through e(0), the slope e'(0) and the failed e(alpha), clipped to
[alpha/4, alpha/2] (_BACKTRACK_BOUNDS; Nocedal & Wright, sec. 3.5).  A
non-finite trial halves.  Every backtrack at least halves the length, so
_MAX_BACKTRACKS of them end the search below round-off and flag the stage
as stalled.  All arithmetic is deterministic.

The initial inverse Hessian is gamma M^-1 with gamma = s.y / y.M^-1 y of
the newest pair (Nocedal & Wright, sec. 7.2), in place of a multiple of
the identity.  M is block diagonal, the Gram matrix of each block's
leading term in the residual.  On the stream-function block that term is
the backward time difference of the curl (nse.stream_metric_inverse,
h^-2 M_psi^-1 in these variables).  On the pressure block it is the
pressure gradient G, and M^-1 is (h^2 G^T G + kappa I)^-1 per level with
kappa = _PRESSURE_KAPPA (nse.pressure_metric_inverse); kappa bounds the
inverse on the smooth modes where h G is small, and each level's
constant, G's null mode, keeps the identity.  Both are fast
diagonalizations (Lynch, Rice & Thomas 1964).  M^-1 is applied once per
gradient evaluation; each curvature pair's M^-1 y is the difference of
M^-1 of its two gradients.

The curvature pairs are held in the compact representation of Byrd,
Nocedal & Schnabel (1994), see _CurvatureHistory: s and M^-1 y are rows
of one array filled in ring order, y itself is never kept, and an
iteration reads those rows twice: the push's stacked reduction of y, which
also updates S^T g, and the direction's stacked combination.

With no curvature pair yet, as at the start of every stage, the step is
-gamma0 M^-1 g at unit length, gamma0 = 1 / (lam w c) with w the
quadrature weight and c the residual norm's peak curvature
(norms.peak_curvature): M^-1 / gamma0 is the Gauss-Newton Hessian of
lam |residual|_p at its stiffest node, so at p = 2 the first step of a
stage is a Gauss-Newton step of the residual term.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InvalidFieldError
from .misfit import assemble_state, gradient_from_state, report_from_state
from .norms import dot, peak_curvature
from .nse import ControlVector, pressure_metric_inverse, stream_metric_inverse

_ARMIJO_SLOPE = 1e-4
_PRESSURE_KAPPA = 0.03  # kappa of the pressure block's metric h^2 G^T G + kappa I
_BACKTRACK_BOUNDS = (0.25, 0.5)  # a backtrack keeps this fraction of the trial length
_MAX_BACKTRACKS = 60  # at most 0.5**60 ~ 1e-18: the step has fallen below round-off


@dataclass
class OptimOptions:
    max_iters: int = 500
    grad_tol: float = 1e-6
    memory: int = 10

    def __post_init__(self):
        if self.max_iters < 0 or self.memory < 1:
            raise ConfigurationError("max_iters must be >= 0 and memory >= 1")
        if not (0.0 < self.grad_tol < math.inf):
            raise ConfigurationError(f"grad_tol must be positive and finite, got {self.grad_tol}")


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
    report_inf: object
    converged: bool
    stalled: bool
    iterations: int
    grad_norm: float
    trace: list = field(default_factory=list)  # (iteration, e_p, grad_norm) rows
    forward_evals: int = 0  # state assemblies, rejected trials included
    backtracks: int = 0     # line-search trials that failed the Armijo test


def preconditioner_scales(grid):
    """Static diagonal preconditioner: the (stream-function, pressure) block scales.

    The stream-function chain passes through the curl (1/h) and the backward
    time difference (1/dt), the pressure chain through the gradient (1/h);
    scaling the blocks by h*dt and h equalizes those dominant sensitivities
    and removes most of the block ill-conditioning from the quasi-Newton
    iteration.
    """
    h = min(grid.hx, grid.hy)
    return h * grid.dt, h


def _scaled(c, grid):
    """The flat preconditioned variables of control c, which must live on grid."""
    if c.grid != grid:
        raise ConfigurationError("control or observation grid does not match setup grid")
    s_psi, s_pr = preconditioner_scales(grid)
    return np.concatenate([c.psi.ravel() / s_psi, c.pr.ravel() / s_pr])


def _backtrack(alpha, descent, e0, e_try):
    """Next trial length after the trial at alpha failed the Armijo test.

    The minimiser -descent alpha^2 / (2 (e_try - e0 - descent alpha)) of the
    quadratic through e(0) = e0, e'(0) = descent and e(alpha) = e_try,
    clipped to _BACKTRACK_BOUNDS times alpha.  A trial without a finite
    value (e_try None or not finite) halves alpha.
    """
    lo, hi = _BACKTRACK_BOUNDS
    # a failed Armijo test with descent < 0 makes curv positive; only a
    # trial without a finite value leaves it outside (0, inf)
    curv = math.nan if e_try is None else e_try - e0 - descent * alpha
    if not 0.0 < curv < math.inf:
        return hi * alpha
    return min(max(-descent * alpha * alpha / (2.0 * curv), lo * alpha), hi * alpha)


class _CurvatureHistory:
    """The last `rows` curvature pairs of a stage, in compact form.

    H = gamma M^-1 updated by the pairs (s_i, y_i) is applied as
    H g = gamma M^-1 g + S u - gamma (M^-1 Y) w with w = R^-1 S^T g and
    u = R^-T (D w + gamma (Y^T M^-1 Y w - (M^-1 Y)^T g)), where R = triu(S^T Y)
    and D = diag(S^T Y): the compact representation of Byrd, Nocedal &
    Schnabel (Math. Programming 63, 1994) with H0 = gamma M^-1.

    s and M^-1 y are the rows of sm[0] and sm[1], allocated at the first
    pair and filled in ring order: pair i, oldest first, sits in row
    order[i], and a new pair at full memory takes the oldest one's row.  y is
    not kept; the small chronological matrices R^-1, D and Y^T M^-1 Y gain
    their new column when a pair enters.  R^-1 gains a bordered column, and
    evicting the oldest pair keeps its trailing block, the inverse of R's
    trailing block.  The n-length reductions and combinations run in
    fixed-order einsum, so their bits do not depend on the BLAS threads.

    S^T g and (M^-1 Y)^T g of the newest gradient g are kept for the
    direction: a push given g adds its reductions of y to the old rows' and
    takes the new row's as dots, so g is reduced afresh only after a push
    without g or a rejected pair.
    """

    def __init__(self, rows):
        self.rows = rows
        self.sm = None                        # (2, rows, n): s rows, then M^-1 y rows
        self.r_inv = np.zeros((rows, rows))   # R^-1, chronological; its lower triangle stays 0
        self.sy = np.zeros(rows)              # D
        self.ymy = np.zeros((rows, rows))     # Y^T M^-1 Y
        self.g_red = np.zeros((2, rows))      # S^T g and (M^-1 Y)^T g, chronological
        self.order = np.arange(0)             # ring rows of the pairs held, oldest first
        self.g_kept = True                    # whether g_red holds the newest gradient's

    def __len__(self):
        return self.order.size

    def _reduce(self, v):
        """(S^T v, (M^-1 Y)^T v) over the pairs held, in chronological order."""
        return np.einsum("kij,j->ki", self.sm[:, :self.order.size], v)[:, self.order]

    def push(self, s, y, my, g=None):
        """Add the pair (s, y), my = M^-1 y, evicting the oldest pair when full.

        g is the gradient y ends at.  A pair without s.y > 1e-14 |s| |y| is
        rejected and changes no pair.  Returns whether the pair was added.
        """
        sy = dot(s, y)
        if not sy > 1e-14 * math.sqrt(dot(s, s)) * math.sqrt(dot(y, y)):
            self.g_kept = False
            return False
        if self.sm is None:
            self.sm = np.empty((2, self.rows, s.size))
        k = self.order.size
        if k < self.rows:
            self.order = np.arange(k + 1)
        else:  # the newest pair takes the oldest pair's row
            k -= 1
            self.r_inv[:k, :k] = self.r_inv[1:, 1:]
            self.ymy[:k, :k] = self.ymy[1:, 1:]
            self.sy[:k] = self.sy[1:]
            self.g_red[:, :k] = self.g_red[:, 1:]
            self.order = (self.order + 1) % self.rows
        self.sm[0, self.order[k]] = s
        self.sm[1, self.order[k]] = my
        s_y, my_y = y_red = self._reduce(y)
        self.r_inv[:k, k] = (self.r_inv[:k, :k] @ s_y[:k]) / -sy
        self.r_inv[k, k] = 1.0 / sy
        self.sy[k] = sy
        self.ymy[k, :k + 1] = self.ymy[:k + 1, k] = my_y
        self.g_kept = self.g_kept and g is not None
        if self.g_kept:
            self.g_red[:, :k] += y_red[:, :k]
            self.g_red[:, k] = dot(s, g), dot(my, g)
        return True

    def direction(self, g, mg):
        """-H g, with mg = M^-1 g and g the gradient of the last push, if it was given one."""
        k = self.order.size
        gamma = self.sy[k - 1] / self.ymy[k - 1, k - 1]
        if not self.g_kept:
            self.g_red[:, :k] = self._reduce(g)
            self.g_kept = True
        s_g, my_g = self.g_red[:, :k]
        r_inv = self.r_inv[:k, :k]
        w = r_inv @ s_g
        u = r_inv.T @ (self.sy[:k] * w + gamma * (self.ymy[:k, :k] @ w - my_g))
        # -H g = gamma ((M^-1 Y) w - S u / gamma - M^-1 g)
        coef = np.empty((2, k))
        coef[0, self.order] = u / -gamma
        coef[1, self.order] = w
        d = np.einsum("kij,ki->j", self.sm[:, :k], coef)
        d -= mg
        d *= gamma
        return d


def minimize_E_p(c0, setup, model, p, opts=None):
    """Descend the p-misfit from c0 to stationarity.

    Returns the best iterate with its p- and sup-norm reports and a
    monotone trace.  A trial point whose state is not finite fails the
    Armijo test and is backtracked.  A line search that exhausts its
    backtracks flags the result as stalled and returns the best point.
    """
    entry = {"x": _scaled(c0, setup.grid)}
    return _descend(entry, setup, model, p, opts)


def _descend(entry, setup, model, p, opts):
    """minimize_E_p from entry["x"], in the preconditioned variables.

    entry may hold the assembled state of that point under "state"; it is
    assembled otherwise.  Both are taken out of entry, and the last
    accepted point and its state are put back for the next stage to start
    from.

    The entry state lives until the first accepted step.  An accepted
    state is kept only when the loop ends with its gradient (converged, or
    at max_iters); otherwise the next direction is taken from it and it is
    dropped once the next line search has assembled its first trial, so
    that trial is reported, and its successor assembled, beside one state
    only.  A stalled search then assembles its last accepted point once
    more.  A trial point itself lives only in its control's blocks.

    Each iteration tries unit length along its direction.  A trial that
    fails the Armijo test is followed by _backtrack's length, the quadratic
    interpolant's minimiser kept within [alpha/4, alpha/2] (alpha/2 after a
    non-finite trial), until a trial passes or _MAX_BACKTRACKS are spent,
    which stalls the stage.  Every trial is an accepted iteration or a
    backtrack, so the result's forward_evals is iterations + backtracks,
    plus one when the entry state was assembled here and one when a
    stalled search assembled its last point again.
    """
    opts = opts or OptimOptions()
    grid = setup.grid
    s_psi, s_pr = preconditioner_scales(grid)
    psi_shape = (grid.nt, grid.ny - 4, grid.nx - 4)
    pr_shape = (grid.nt, grid.ny - 2, grid.nx - 2)
    n_psi = math.prod(psi_shape)
    h2 = min(grid.hx, grid.hy) ** 2

    def metric(g):  # M^-1 g, once per gradient, both blocks written into one flat array
        out = np.empty_like(g)
        stream_metric_inverse(g[:n_psi].reshape(psi_shape), grid,
                              out[:n_psi].reshape(psi_shape))
        out[:n_psi] /= h2
        pressure_metric_inverse(g[n_psi:].reshape(pr_shape), grid, _PRESSURE_KAPPA,
                                out[n_psi:].reshape(pr_shape))
        return out

    def first_step(state, mg):  # -gamma0 M^-1 g, with no curvature pairs
        _, s_y, n_y = state.lp_norms(p)[1]
        gamma0 = 1.0 / (setup.lam * state.weight * peak_curvature(s_y, n_y, p))
        return -gamma0 * mg

    def control(z):  # two fresh blocks: a state keeps only the pressure one alive
        return ControlVector(grid, (s_psi * z[:n_psi]).reshape(psi_shape),
                             (s_pr * z[n_psi:]).reshape(pr_shape))

    def forward(z):
        return assemble_state(control(z), setup, model)

    def gradient(state):  # the gradient's blocks scaled straight into one flat array
        gc = gradient_from_state(state, setup, model, p)
        out = np.empty(n_psi + gc.pr.size)
        np.multiply(gc.psi.ravel(), s_psi, out=out[:n_psi])
        np.multiply(gc.pr.ravel(), s_pr, out=out[n_psi:])
        return out

    x = entry.pop("x")
    state = entry.pop("state", None)
    extra_evals = int(state is None)
    if state is None:
        state = forward(x)
    report = report_from_state(state, setup, p)
    grad = gradient(state)
    mg = metric(grad)
    g_norm = math.sqrt(dot(grad, grad))
    g_ref = max(1.0, g_norm)
    trace = [(0, report.e_p, g_norm)]

    history = _CurvatureHistory(min(opts.memory, opts.max_iters))
    converged = g_norm <= opts.grad_tol * g_ref
    stalled = False
    it = backtracks = 0
    while not converged and it < opts.max_iters:
        d = history.direction(grad, mg) if history else first_step(state, mg)
        descent = dot(d, grad)
        if descent >= 0.0:
            d = -grad
            descent = -g_norm * g_norm
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            try:  # the trial point is freed once its control's blocks are built
                state_try = assemble_state(control(x + alpha * d), setup, model)
            except InvalidFieldError:
                state_try = None
            if it > 0:  # the last accepted state is not needed past a trial's forward
                state = None
            report_try = None if state_try is None else report_from_state(state_try, setup, p)
            if (report_try is not None
                    and report_try.e_p <= report.e_p + _ARMIJO_SLOPE * alpha * descent):
                break
            state_try = None  # freed before the next trial's forward, not after it
            backtracks += 1
            alpha = _backtrack(alpha, descent, report.e_p,
                               None if report_try is None else report_try.e_p)
        else:
            stalled = True
            break
        x_new, report, state = x + alpha * d, report_try, state_try
        state_try = d = None  # only the accepted point outlives its search
        grad_new = gradient(state)
        mg_new = metric(grad_new)
        history.push(x_new - x, grad_new - grad, mg_new - mg, grad_new)
        x, grad, mg = x_new, grad_new, mg_new
        g_norm = math.sqrt(dot(grad, grad))
        it += 1
        trace.append((it, report.e_p, g_norm))
        converged = g_norm <= opts.grad_tol * g_ref
    if state is None:  # a stalled search dropped the last accepted state
        state = forward(x)
        extra_evals += 1

    entry.update(x=x, state=state)
    return MinimizeResult(
        # one vector: results outlive the stage, and two blocks each left
        # heap holes that raised the peak RSS of the later diagnostics
        control=ControlVector.from_flat(grid, control(x).to_flat()), report=report,
        report_inf=report_from_state(state, setup, math.inf),
        converged=converged, stalled=stalled, iterations=it,
        grad_norm=g_norm, trace=trace,
        forward_evals=extra_evals + it + backtracks, backtracks=backtracks)


@dataclass
class StageResult:
    p: float
    result: MinimizeResult
    wall_ms: float

    @property
    def control(self):
        return self.result.control

    @property
    def report(self):
        return self.result.report

    @property
    def report_inf(self):
        return self.result.report_inf


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
    entry = {"x": _scaled(c0, setup.grid)}
    p_first = schedule.p_list[0]
    for p in schedule.p_list:
        stage_opts = replace(opts, grad_tol=stage_tolerance(opts, p_first, p))
        t0 = time.perf_counter()
        result = _descend(entry, setup, model, p, stage_opts)
        wall_ms = (time.perf_counter() - t0) * 1e3
        stages.append(StageResult(p=p, result=result, wall_ms=wall_ms))
        if not schedule.warm_start:
            entry = {"x": _scaled(c0, setup.grid)}
    return stages
