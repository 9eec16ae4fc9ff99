"""Scalar quantizer, Gaussian tail brackets, and the parts of the (d, w, o)
approximate comb-lattice model that the signaling bound du1 uses: the
outage rate of a Gaussian (gaussian_comb) and the terms of the two tail
series, which truncated_sum sums as the rows of one array.

A claim ``X <= (d, w, o)`` means: except with probability at most o, X lies
in one of the width-w boxes centered on the spacing-d lattice points,

    P( X not in  U_i [i*d - w/2, i*d + w/2] ) <= o.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: switch point beyond which erfc underflows and the analytic upper bracket
#: is used instead (keeps q_tail positive and monotone as far as float64
#: can represent, about x = 38.5).
_Q_TAIL_SWITCH = 37.0

#: beyond this point exp(-x^2/2) is below half the smallest subnormal,
#: 2**-1075, so the bracket is exactly 0 there (about x = 38.6)
_Q_TAIL_ZERO = math.sqrt(2.0 * 1075.0 * math.log(2.0))

#: series truncation contract shared by all tail series in this package
SERIES_REL_TOL = 1e-12
SERIES_MAX_TERMS = 1_000_000
SERIES_GUARD_TERMS = 1_000
SERIES_BLOCK = 512
#: rows summed together by truncated_sum, which bounds its
#: (rows x SERIES_BLOCK) temporaries
SERIES_ROWS = 64


class SeriesNonConvergent(RuntimeError):
    """Raised by du1 when a tail series fails its convergence guard."""


def quantize(step, y):
    """Nearest lattice point: step * floor(y/step + 1/2).

    Ties round upward (half-open convention), so the matching remainder lies
    in [-step/2, step/2).  Works elementwise on arrays; a step that is not
    finite and positive is a ValueError.
    """
    if not np.all(np.isfinite(step) & np.greater(step, 0)):
        raise ValueError("step must be finite and > 0")
    return _quantize_unchecked(step, y)


def _quantize_unchecked(step, y, out=None):
    """step * floor(y/step + 1/2) for a step the caller has validated,
    written into ``out`` when given (``out`` may be ``y``)."""
    q = np.divide(y, step, out)
    q = np.add(q, 0.5, out)
    q = np.floor(q, out)
    return np.multiply(q, step, out)


def _erfc(x):
    """scipy.special.erfc, imported at the first call, which rebinds _erfc
    to the ufunc: importing lqgduet loads no SciPy, and later calls run
    no import statement."""
    global _erfc
    from scipy.special import erfc as _erfc
    return _erfc(x)


def _q_tail_upper_pos(x):
    """Upper tail bracket exp(-x^2/2)/(sqrt(2 pi) x) for x > 0."""
    return _INV_SQRT_2PI / x * np.exp(-0.5 * x * x)


def q_tail(x):
    """Standard Gaussian upper-tail probability Q(x) = P(N(0,1) > x).

    Computed via erfc; for x > 37 the analytic upper bracket is substituted
    to avoid underflow to zero, and beyond _Q_TAIL_ZERO, where the bracket
    underflows too, the result is an exact 0 without evaluating either.
    Elementwise on arrays; a float for a scalar.
    """
    x = np.asarray(x, dtype=float)
    big = x > _Q_TAIL_SWITCH
    body = ~big  # NaN and -inf included
    out = np.zeros(x.shape)
    out[body] = 0.5 * _erfc(x[body] / _SQRT2)
    mid = big & (x < _Q_TAIL_ZERO)
    if mid.any():
        out[mid] = _q_tail_upper_pos(x[mid])
    return float(out) if out.ndim == 0 else out


def q_tail_upper(x):
    """Upper bracket (1/(sqrt(2 pi) x)) exp(-x^2/2), valid x > 0."""
    x = np.asarray(x, dtype=float)
    out = _q_tail_upper_pos(x)
    return float(out) if out.ndim == 0 else out


def gaussian_comb(w, sigma):
    """Outage rate of a zero-mean Gaussian with variance <= sigma^2 from
    the single width-w box centered on 0: min(1, 2 Q(w / (2 sigma))), and
    1 where that is NaN; at sigma = 0 it is 0 where w > 0, else 1.  A float
    for scalars, an array for arrays; broadcasts."""
    w, sigma = np.asarray(w, dtype=float), np.asarray(sigma, dtype=float)
    noiseless = sigma == 0
    # a Python float's division: inf or NaN without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        x = w / (2.0 * np.where(noiseless, 1.0, sigma))
    # fmin, not minimum: it keeps 1.0 against NaN, as min(1.0, nan) does
    o = np.where(noiseless, np.where(w > 0, 0.0, 1.0),
                 np.fmin(1.0, 2.0 * q_tail(x)))
    return float(o) if o.ndim == 0 else o


def truncated_sum(term_fn, rows: int, bound=None):
    """Sum rows independent series, SERIES_ROWS at a time: each row's terms
    for i = 1, 2, ... until the running term falls below SERIES_REL_TOL
    times the accumulated sum.  term_fn(i, live) returns the
    (len(live), len(i)) terms of the rows whose indices are in live.

    The terms are summed in blocks of SERIES_BLOCK, each row like a 1-D
    array, so a row's sum does not depend on the rows beside it.  A row
    with a non-finite term sums to +inf.  A row whose terms are still not
    decreasing after SERIES_GUARD_TERMS terms, or that reaches the cap
    SERIES_MAX_TERMS, fails.  Returns (totals, failed): each row's sum,
    NaN where its series failed, and the mask of the failed rows.

    bound(n), if given, returns per row a bound M on each of that row's
    terms 1..n, all of them nonnegative.  The guard block is the first
    block after the first whose end reaches SERIES_GUARD_TERMS; call its
    end G (1024 today).  Before any block is summed, the rows that
    provably fail the guard there are marked failed from their terms at
    the block ends up to G (512 and 1024 today), and only the other rows
    are summed.  See _fails_guard for the rule and its proof.
    """
    totals = np.full(rows, math.nan)
    failed = np.zeros(rows, dtype=bool)
    # a term that overflows is such a non-finite term, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if bound is not None:
            failed = _fails_guard(term_fn, rows, bound)
        todo = np.flatnonzero(~failed)
        for r0 in range(0, todo.size, SERIES_ROWS):
            live = todo[r0:r0 + SERIES_ROWS]
            totals[live], failed[live] = _sum_rows(term_fn, live)
    return totals, failed


def _fails_guard(term_fn, rows, bound):
    """The rows that _sum_rows would mark failed at the guard block, told
    from the terms at the block ends e_1 < ... < e_g = G alone.

    A row is marked when, with its bound M = bound(G), every end term t_j
    lies in (2 SERIES_REL_TOL max(G M, 1e-300), M] (for G = 1024 that is
    above 2.048e-9 M and 2e-312, so M is finite), and t_g >= t_{g-1}.
    Then, as G <= SERIES_MAX_TERMS:
    - every term 1..G is finite, since it lies in [0, M];
    - a float sum of n <= G nonnegative terms, in any order, is at most
      n M (1 + u)^(n-1) <= G M (1 + G u), u = 2**-53, and so is each
      running total; SERIES_REL_TOL times it, rounded, stays below the
      lower end of t_j's interval, so no block ending at e_j is done;
    - no stuck test runs before the guard block: each earlier block is
      the first (stuck against +inf) or ends below SERIES_GUARD_TERMS;
    - at the guard block t_g >= t_{g-1}, the previous block's last term,
      so the stuck test fires.
    Elementwise IEEE results do not depend on the shape of the arrays
    they are computed in, so each t_j is the last term the loop would see
    in block j, and this is the mask the full loop returns.
    """
    ends = SERIES_BLOCK * np.arange(
        1, max(math.ceil(SERIES_GUARD_TERMS / SERIES_BLOCK), 2) + 1)
    M = np.ravel(bound(ends[-1]))[:, None]
    t = np.asarray(term_fn(ends, np.arange(rows)), dtype=float)
    # NaN compares false, and low is +inf where G M overflows: such a row
    # is left to the loop
    low = 2.0 * SERIES_REL_TOL * np.maximum(ends[-1] * M, 1e-300)
    return ((t > low) & (t <= M)).all(axis=1) & (t[:, -1] >= t[:, -2])


def _sum_rows(term_fn, live):
    """truncated_sum's loop over the rows live: their totals and the mask
    of the rows that failed."""
    totals = np.full(live.size, math.nan)
    failed = np.zeros(live.size, dtype=bool)
    pos = np.arange(live.size)  # where each still-summing row reports
    total = np.zeros(live.size)
    prev_last = np.full(live.size, math.inf)
    i0 = 1
    while live.size:
        if i0 > SERIES_MAX_TERMS:
            failed[pos] = True
            break
        idx = np.arange(i0, min(i0 + SERIES_BLOCK, SERIES_MAX_TERMS + 1))
        # C order: each row is then summed like a 1-D array (pairwise)
        terms = np.ascontiguousarray(term_fn(idx, live), dtype=float)
        finite = np.isfinite(terms).all(axis=-1)
        if not finite.all():
            # such a row ends at +inf before its block is summed
            totals[pos[~finite]] = math.inf
            live, pos, total, prev_last, terms = live[finite], \
                pos[finite], total[finite], prev_last[finite], terms[finite]
        total = total + terms.sum(axis=-1)
        last = terms[:, -1]
        done = last <= SERIES_REL_TOL * np.maximum(total, 1e-300)
        totals[pos[done]] = total[done]
        if idx[-1] >= SERIES_GUARD_TERMS:
            stuck = ~done & (last >= prev_last)
            failed[pos[stuck]] = True
            done |= stuck
        keep = ~done
        live, pos, total, prev_last = live[keep], pos[keep], total[keep], \
            last[keep]
        i0 = idx[-1] + 1
    return totals, failed


def comb_miss_terms(i, d, w, sigma, scale):
    """Terms scale (i d + w/2)^2 Q(((2i-1) d - w) / (2 sigma)) of the
    wrong-cell cost on the (d, w) comb under noise of std sigma;
    broadcasts, so column arrays of d and w give one row of terms per comb.

    scale multiplies each term, not the sum: the two round differently, and
    the upper bounds are pinned to the per-term rounding bit for bit."""
    return scale * (i * d + w / 2) ** 2 \
        * q_tail(((2 * i - 1) * d - w) / (2.0 * sigma))


def comb_outage_terms(i, d, sigma):
    """Terms (i d + d/2)^2 Q((i-1) d / sigma) of the same cost for an
    outage point, anywhere in its cell; broadcasts like comb_miss_terms."""
    return (i * d + d / 2) ** 2 * q_tail((i - 1) * d / sigma)
