"""Regularized magnitudes, normalized dotted p-norms, and dual weights.

The pointwise magnitude |v| is regularized to sqrt(|v|^2 + p^-2), which is
smooth at the origin and bounded below by 1/p.  Norms are averaged: the
integral over the domain is replaced by the weighted mean, so a constant
field of magnitude c has norm sqrt(c^2 + p^-2) and the norm of zero is
exactly 1/p.

All p-th powers are taken in log space after factoring out the largest
sample magnitude; naive powers overflow double precision for p near 128.
Reductions use numpy sums (pairwise summation, fixed order), so results are
reproducible bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidFieldError

_EXP_CLIP = 700.0  # exp(700) is near the float64 overflow edge


@dataclass(frozen=True)
class PExponent:
    """A norm exponent: finite p >= 1 or infinity."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v < 1.0:
            raise ConfigurationError(f"exponent must be >= 1 or inf, got {self.value}")
        object.__setattr__(self, "value", v)

    @classmethod
    def infinity(cls):
        return cls(math.inf)

    @property
    def is_finite(self):
        return math.isfinite(self.value)

    @property
    def conjugate(self):
        """The dual exponent p/(p-1); 1 and infinity are conjugate to each other."""
        if not self.is_finite:
            return 1.0
        if self.value == 1.0:
            return math.inf
        return self.value / (self.value - 1.0)


def dot(a, b):
    """Inner product as a fixed-order numpy sum: unlike BLAS, bits independent of threads."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def as_exponent(p):
    """p as a PExponent: a PExponent passes through, a number is converted."""
    return p if isinstance(p, PExponent) else PExponent(float(p))


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
        if not np.all(np.isfinite(self.values)):
            raise InvalidFieldError("samples contain non-finite values")
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


def magnitudes(values):
    """Euclidean magnitude over the trailing (component) axis of an array."""
    return np.sqrt(np.einsum("...i,...i->...", values, values))


def reg_abs(v, p):
    """Regularized magnitude sqrt(|v|^2 + p^-2).

    v is a single vector or an (n, m) batch; the result is a scalar or an
    array of per-row magnitudes.  Always at least 1/p.
    """
    p = as_exponent(p)
    if not p.is_finite:
        raise ConfigurationError("reg_abs requires a finite exponent")
    v = np.asarray(v, dtype=np.float64)
    sq = np.sum(v * v, axis=-1)
    return np.sqrt(sq + p.value ** -2)


def lp_norm_from_magnitudes(r, weights, p):
    """Averaged p-norm from regularized magnitudes r (float p, finite).

    r holds the positively weighted samples only; weights is their weight
    array or one uniform weight.  Computed as m * (sum_i w_i (r_i/m)^p)^(1/p)
    with m the largest magnitude, so no intermediate power overflows.  No
    input is validated: dotted_lp_norm is the checked entry point.
    """
    log_m = np.log(np.max(r))
    s = np.sum(weights * np.exp(p * (np.log(r) - log_m)))
    return float(np.exp(log_m + np.log(s) / p))


def lp_norm_from_squares(sq, weight, p):
    """(r, norm): magnitudes sqrt(sq + p^-2) of samples sharing one weight, and their p-norm.

    Unvalidated; equal to the bit to dotted_lp_norm on the same samples.
    """
    r = np.sqrt(sq + p ** -2)
    return r, lp_norm_from_magnitudes(r, weight, p)


def dual_factor(r, norm, p):
    """Per-sample factor r^(p-2) / norm^(p-1) of the dual-weight map (float p).

    Evaluated in log space; the exponent is clipped only for zero-weight
    samples, which carry no mass.  dual_weight is the checked entry point.
    """
    expo = (p - 2.0) * np.log(r) - (p - 1.0) * math.log(norm)
    return np.exp(np.minimum(expo, _EXP_CLIP))


def dotted_lp_norm(h, p):
    """Averaged p-norm of the regularized magnitude.

    The largest magnitude among positively weighted samples is factored out
    (see lp_norm_from_magnitudes).  The result is at least 1/p.
    """
    p = as_exponent(p)
    if not p.is_finite:
        raise ConfigurationError("dotted_lp_norm requires a finite exponent")
    r = reg_abs(h.values, p)
    pos = h.weights > 0.0
    return lp_norm_from_magnitudes(r[pos], h.weights[pos], p.value)


def sup_norm(h):
    """Largest Euclidean magnitude among positively weighted samples."""
    pos = h.weights > 0.0
    return float(np.max(h.magnitudes[pos]))


def dual_weight(h, p):
    """Pointwise dual-weight map |v|_(p)^(p-2) v / norm^(p-1).

    The output carries the same weights and lies in the unit ball of the
    averaged conjugate-exponent norm.
    """
    p = as_exponent(p)
    if not p.is_finite:
        raise ConfigurationError("dual_weight requires a finite exponent")
    r = reg_abs(h.values, p)
    pos = h.weights > 0.0
    norm = lp_norm_from_magnitudes(r[pos], h.weights[pos], p.value)
    return WeightedSamples(h.values * dual_factor(r, norm, p.value)[:, None], h.weights)


def holder_gap(q, p):
    """Additive defect sqrt(q^-2 - p^-2) in the dotted-norm comparison.

    For 1 <= q <= p the q-norm exceeds the p-norm by at most this amount;
    p may be infinite, in which case the gap is 1/q.
    """
    q, p = as_exponent(q), as_exponent(p)
    if q.value > p.value:
        raise ConfigurationError(f"need q <= p, got q={q.value}, p={p.value}")
    p_term = 0.0 if not p.is_finite else p.value ** -2
    return math.sqrt(q.value ** -2 - p_term)


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
