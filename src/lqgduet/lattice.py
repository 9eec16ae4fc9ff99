"""Scalar quantizer pair, Gaussian tail brackets, and the (d, w, o)
approximate comb-lattice calculus.

A claim ``X <= (d, w, o)`` means: except with probability at most o, X lies
in one of the width-w boxes centered on the spacing-d lattice points,

    P( X not in  U_i [i*d - w/2, i*d + w/2] ) <= o.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: switch point beyond which erfc underflows and the analytic upper bracket
#: is used instead (keeps q_tail positive and monotone as far as float64
#: can represent, about x = 38.5).
_Q_TAIL_SWITCH = 37.0

#: series truncation contract shared by all tail series in this package
SERIES_REL_TOL = 1e-12
SERIES_MAX_TERMS = 1_000_000
SERIES_GUARD_TERMS = 1_000


class SeriesNonConvergent(RuntimeError):
    """Raised when a tail series fails its convergence guard."""


def quantize(step, y):
    """Nearest lattice point: step * floor(y/step + 1/2).

    Ties round upward (half-open convention), so the matching remainder lies
    in [-step/2, step/2).  Works elementwise on arrays.
    """
    if np.any(np.asarray(step) <= 0):
        raise ValueError("step must be > 0")
    return _quantize_unchecked(step, y)


def _quantize_unchecked(step, y, out=None):
    """step * floor(y/step + 1/2) for a step the caller has validated,
    written into ``out`` when given (``out`` may be ``y``)."""
    q = np.divide(y, step, out)
    q = np.add(q, 0.5, out)
    q = np.floor(q, out)
    return np.multiply(q, step, out)


def remainder(step, y):
    """y - quantize(step, y), in [-step/2, step/2)."""
    return y - quantize(step, y)


def _q_tail_upper_pos(x):
    """Upper tail bracket exp(-x^2/2)/(sqrt(2 pi) x) for x > 0."""
    return _INV_SQRT_2PI / x * np.exp(-0.5 * x * x)


def q_tail(x):
    """Standard Gaussian upper-tail probability Q(x) = P(N(0,1) > x).

    Computed via erfc; for x > 38 the analytic upper bracket is substituted
    to avoid underflow to zero.  Elementwise on arrays.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / _SQRT2)
    big = x > _Q_TAIL_SWITCH
    if np.any(big):
        out = np.where(big, _q_tail_upper_pos(np.maximum(x, 1.0)), out)
    if out.ndim == 0:
        return float(out)
    return out


def q_tail_lower(x):
    """Lower bracket (1/sqrt(2 pi))(1/x - 1/x^3) exp(-x^2/2), valid x > 0."""
    x = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * (1.0 / x - 1.0 / x ** 3) * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def q_tail_upper(x):
    """Upper bracket (1/(sqrt(2 pi) x)) exp(-x^2/2), valid x > 0."""
    x = np.asarray(x, dtype=float)
    out = _q_tail_upper_pos(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CombBound:
    """(d, w, o) comb-lattice membership claim; d may be +inf."""

    d: float
    w: float
    o: float

    def __post_init__(self):
        if self.w < 0:
            raise ValueError("w must be >= 0")
        if math.isfinite(self.d) and self.d <= self.w:
            raise ValueError("finite spacing requires d > w")
        if not 0 <= self.o <= 1:
            raise ValueError("o must be in [0, 1]")


def comb_add(b1: CombBound, b2: CombBound) -> CombBound:
    """Sum rule: X1 <= (d, w1, o1) and X2 <= (d or inf, w2, o2) gives
    X1 + X2 <= (d, w1 + w2, o1 + o2)."""
    if math.isfinite(b2.d) and b2.d != b1.d:
        raise ValueError("incompatible finite spacings")
    return CombBound(b1.d, b1.w + b2.w, min(1.0, b1.o + b2.o))


def comb_scale(k: float, b: CombBound) -> CombBound:
    """Scaling rule: k X <= (k d, k w, o) for k > 0."""
    if k <= 0:
        raise ValueError("k must be > 0")
    return CombBound(k * b.d, k * b.w, b.o)


def gaussian_comb(w: float, sigma: float) -> CombBound:
    """A zero-mean Gaussian with variance <= sigma^2 lies in the single
    width-w box except with probability 2 Q(w / (2 sigma))."""
    if sigma == 0:
        o = 0.0 if w > 0 else 1.0
    else:
        o = min(1.0, 2.0 * q_tail(w / (2.0 * sigma)))
    return CombBound(math.inf, w, o)


def truncated_sum(term_fn, rel_tol: float = SERIES_REL_TOL,
                  max_terms: int = SERIES_MAX_TERMS,
                  guard_terms: int = SERIES_GUARD_TERMS,
                  block: int = 512) -> float:
    """Sum term_fn(i) for i = 1, 2, ... until the running term falls below
    rel_tol times the accumulated sum.

    term_fn receives a 1-D integer array and returns the matching terms.
    If the terms are still not decreasing after ``guard_terms`` terms, or the
    cap ``max_terms`` is hit, SeriesNonConvergent is raised.
    """
    total = 0.0
    prev_last = math.inf
    i0 = 1
    while i0 <= max_terms:
        idx = np.arange(i0, min(i0 + block, max_terms + 1))
        terms = np.asarray(term_fn(idx), dtype=float)
        if not np.all(np.isfinite(terms)):
            return math.inf
        total += float(terms.sum())
        last = float(terms[-1])
        if last <= rel_tol * max(total, 1e-300):
            return total
        if idx[-1] >= guard_terms and last >= prev_last:
            raise SeriesNonConvergent(
                f"series term not decreasing after {idx[-1]} terms")
        prev_last = last
        i0 = idx[-1] + 1
    raise SeriesNonConvergent(f"series did not converge in {max_terms} terms")


def quantized_mmse_bound(b: CombBound, residual_msq: float,
                         sigma: float) -> float:
    """Upper bound on E[(X - Q_d(X + V))^2] for X on the (d, w, o) comb and
    an independent perturbation V of standard deviation <= sigma.

    residual_msq must upper-bound E[(X - Q_d(X))^2].  The bound is

        residual_msq
        + sum_{i>=1} (i d + w/2)^2 * 2 Q(((2i-1) d - w) / (2 sigma))
        + o * ( (3d/2)^2 + sum_{i>=2} (i d + d/2)^2 * 2 Q((i-1) d / sigma) ).
    """
    if not math.isfinite(b.d):
        raise ValueError("requires a finite lattice spacing")
    if b.d <= b.w:
        raise ValueError("requires d > w")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    d, w, o = b.d, b.w, b.o

    def term_main(i):
        return (i * d + w / 2) ** 2 * 2.0 * q_tail(((2 * i - 1) * d - w)
                                                   / (2.0 * sigma))

    total = residual_msq + truncated_sum(term_main)
    if o > 0:
        def term_outage(i):
            return (i * d + d / 2) ** 2 * 2.0 * q_tail((i - 1) * d / sigma)

        # the i = 1 term is (3d/2)^2 * 2 Q(0) = (3d/2)^2
        total += o * truncated_sum(term_outage)
    return total
