"""Regularized magnitudes, normalized dotted p-norms, and dual weights.

The pointwise magnitude |v| is regularized to sqrt(|v|^2 + p^-2), which is
smooth at the origin and bounded below by 1/p.  Norms are averaged: the
integral over the domain is replaced by the weighted mean, so a constant
field of magnitude c has norm sqrt(c^2 + p^-2) and the norm of zero is
exactly 1/p.

All p-th powers are taken in log space after factoring out the largest
sample magnitude; naive powers overflow double precision for p near 128.
The dual weights reuse the p-norm's terms, with no second log-space pass.
An exponent is a plain float, math.inf for the sup-norm; check_exponent is
the one check of it.  Every p-norm and dual weight takes the same steps,
component axis first: squared_magnitudes, lp_terms (which checks p and
rejects an infinite one), dual_factor.
Reductions use numpy sums (pairwise summation, fixed order), so results are
reproducible bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import check_finite

# exp(-600) ~ 1e-261: a p-norm term below it is flushed to zero, and so is
# its dual factor.  The largest term is one, so the flushed ones lie far
# below the sum's round-off, and left in place they make the arithmetic
# subnormal and slow.
_EXP_FLOOR = -600.0


def check_exponent(p):
    """p as a float, the one exponent check: p >= 1 or inf; NaN fails."""
    if not float(p) >= 1.0:
        raise ConfigurationError(f"exponent must be >= 1 or inf, got {p}")
    return float(p)


def dot(a, b):
    """Inner product as a fixed-order numpy sum: unlike BLAS, bits independent of threads."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


@dataclass
class WeightedSamples:
    """Vector-valued samples with normalized quadrature weights.

    values has shape (n, m); weights are nonnegative and sum to one, so
    weighted sums realize averaged norms directly.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if self.values.shape[0] == 0:
            raise ValueError("empty sample set")
        if self.weights.shape[0] != self.values.shape[0]:
            raise ConfigurationError(
                f"{self.weights.shape[0]} weights for {self.values.shape[0]} samples")
        check_finite(self.values, "sample set")
        if np.any(self.weights < 0.0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("weights must be nonnegative and sum to 1")

    @classmethod
    def uniform(cls, values):
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        n = values.shape[0]
        if n == 0:
            raise ValueError("empty sample set")
        return cls(values, np.full(n, 1.0 / n))

    @property
    def magnitudes(self):
        return magnitudes(self.values)

    @property
    def lp_weight(self):
        """(weight, pos) for lp_terms: a uniform weight factored out, or all and w > 0."""
        w = self.weights
        return (w[0], None) if np.all(w == w[0]) else (w, w > 0.0)


def magnitudes(values):
    """Euclidean magnitude over the trailing (component) axis of an array."""
    return np.sqrt(np.einsum("...i,...i->...", values, values))


def reg_abs(v, p):
    """Regularized magnitude sqrt(|v|^2 + p^-2).

    v is a single vector or an (n, m) batch; the result is a scalar or an
    array of per-row magnitudes.  Always at least 1/p.
    """
    p = check_exponent(p)
    if not math.isfinite(p):
        raise ConfigurationError("reg_abs requires a finite exponent")
    v = np.asarray(v, dtype=np.float64)
    sq = np.sum(v * v, axis=-1)
    return np.sqrt(sq + p ** -2)


def squared_magnitudes(values):
    """|v|^2 per sample, summed over the first (component) axis of values."""
    return np.einsum("i...,i...->...", values, values)


def lp_terms(sq, weight, p, pos=None):
    """(t, s, norm): the p-norm's terms, their weighted sum and the averaged p-norm.

    sq holds squared magnitudes; weight is one uniform weight, factored out
    of the sum, or an array of weights.  The terms are t = (r/m)^p with r =
    sqrt(sq + p^-2) the regularized magnitude and m its largest value, taken
    as exp((p/2) log(r^2/m^2)) so no power overflows and no sqrt is needed;
    terms below exp(_EXP_FLOOR) are zero.  s = sum w t and norm = m s^(1/p).
    With a boolean mask pos, m is the largest over those samples only and
    the others' terms are zero, as are their dual factors: pos must hold
    every sample of positive weight.  p passes check_exponent here, and this
    is the one check that rejects an infinite p, for every p-norm and dual
    weight.
    """
    p = check_exponent(p)
    if not math.isfinite(p):
        raise ConfigurationError("p-norms and dual weights require a finite exponent")
    expo = np.add(sq, p ** -2)
    np.log(expo, out=expo)
    log_m2 = float(np.max(expo if pos is None else expo[pos]))
    expo -= log_m2
    expo *= 0.5 * p
    expo[expo < _EXP_FLOOR] = -np.inf
    if pos is not None:
        expo[~pos] = -np.inf
    t = np.exp(expo, out=expo)
    s = weight * float(np.sum(t)) if np.ndim(weight) == 0 else float(np.sum(weight * t))
    return t, s, math.exp(0.5 * log_m2 + math.log(s) / p)


def dual_factor(sq, t, s, norm, p):
    """Per-sample factor r^(p-2) / norm^(p-1) of the dual-weight map from lp_terms' output.

    Since norm^p = m^p s, the factor is t / r^2 * norm / s with r^2 = sq +
    p^-2: no log or exp pass.  A flushed term gives a zero factor.
    """
    f = np.add(sq, p ** -2)
    np.divide(t, f, out=f)
    f *= norm / s
    return f


def peak_curvature(s, norm, p):
    """Largest pointwise curvature (p-1) rho^(p-2) / norm of the p-norm, rho = max(r) / norm.

    From lp_terms' weighted sum s of the terms (r/max r)^p: rho^p = 1/s.
    Per unit quadrature weight w: w times it bounds the Hessian of the
    averaged p-norm in any one sample's vector.  Since s >= w,
    rho^(p-2) < 1/w and nothing overflows.
    """
    return (p - 1.0) * s ** (-(p - 2.0) / p) / norm


def dotted_lp_norm(h, p):
    """Averaged p-norm of the regularized magnitude.

    The largest magnitude among positively weighted samples is factored out
    (see lp_terms).  The result is at least 1/p.
    """
    w, pos = h.lp_weight
    return lp_terms(squared_magnitudes(h.values.T), w, p, pos)[2]


def sup_norm(h):
    """Largest Euclidean magnitude among positively weighted samples."""
    pos = h.weights > 0.0
    return float(np.max(h.magnitudes[pos]))


def dual_weight(h, p):
    """Pointwise dual-weight map |v|_(p)^(p-2) v / norm^(p-1).

    The output carries the same weights and lies in the unit ball of the
    averaged conjugate-exponent norm.  Samples of zero weight map to zero.
    """
    (w, pos), v = h.lp_weight, h.values.T
    sq = squared_magnitudes(v)
    return WeightedSamples((v * dual_factor(sq, *lp_terms(sq, w, p, pos), p)).T, h.weights)


def holder_gap(q, p):
    """Additive defect sqrt(q^-2 - p^-2) in the dotted-norm comparison.

    For 1 <= q <= p the q-norm exceeds the p-norm by at most this amount;
    p may be infinite, in which case the gap is 1/q.
    """
    q, p = check_exponent(q), check_exponent(p)
    if q > p:
        raise ConfigurationError(f"need q <= p, got q={q}, p={p}")
    return math.sqrt(q ** -2 - p ** -2)  # inf ** -2 is 0


def oscillating_step_profile(p, cells_per_interval=4):
    """Piecewise-constant profile on [0, 2] oscillating at rate p on (0, 1).

    (0, 1) is split into p intervals of width 1/p carrying alternating +1/-1
    values starting with +1; (1, 2) carries the constant +1.  Each interval
    is subdivided into `cells_per_interval` equal cells so the cell grid
    aligns with the breakpoints.  Returns (midpoints, cell_width, values,
    limit_values) where limit_values is the indicator of (1, 2).

    p must be even; for p a power of two the cell width is dyadic and the
    telescoping pairing against the indicator of (0, 1) cancels exactly in
    floating point.
    """
    p = int(p)
    if p < 2 or p % 2 != 0:
        raise ConfigurationError(f"profile exponent must be even and >= 2, got {p}")
    n_osc = p * cells_per_interval
    width = 1.0 / n_osc
    mid_osc = (np.arange(n_osc) + 0.5) * width
    signs = np.where((np.arange(n_osc) // cells_per_interval) % 2 == 0, 1.0, -1.0)
    mid_flat = 1.0 + (np.arange(n_osc) + 0.5) * width
    midpoints = np.concatenate([mid_osc, mid_flat])
    values = np.concatenate([signs, np.ones(n_osc)])
    limit = np.concatenate([np.zeros(n_osc), np.ones(n_osc)])
    return midpoints, width, values, limit
