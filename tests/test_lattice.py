import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from lqgduet import lattice
from lqgduet.lattice import (SERIES_BLOCK, SERIES_GUARD_TERMS,
                             SERIES_MAX_TERMS, SERIES_REL_TOL, SERIES_ROWS,
                             SeriesNonConvergent, _Q_TAIL_ZERO,
                             comb_miss_terms, comb_outage_terms,
                             gaussian_comb, q_tail, q_tail_upper,
                             quantize, truncated_sum)
from test_api import _fresh_python

# y expressed as a bounded multiple of the step, so the identities are not
# drowned by float64 resolution at extreme y/step ratios
ratios = st.floats(-1e6, 1e6, allow_nan=False)
steps = st.floats(1e-6, 1e6, allow_nan=False)


@given(steps, ratios)
def test_remainder_range_and_reconstruction(step, ratio):
    y = ratio * step
    r = y - quantize(step, y)
    tol = 1e-9 * step
    assert -step / 2 - tol <= r < step / 2 + tol
    assert quantize(step, y) + r == pytest.approx(y, rel=1e-9, abs=1e-9)


@given(steps, ratios)
def test_quantize_is_lattice_point(step, ratio):
    q = quantize(step, ratio * step)
    k = q / step
    assert k == pytest.approx(round(k), abs=1e-6)


def test_quantize_tie_rounds_up():
    assert quantize(2.0, 1.0) == 2.0
    assert quantize(2.0, -1.0) == 0.0
    assert 1.0 - quantize(2.0, 1.0) == -1.0


def test_quantize_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        quantize(0.0, 1.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf,
                                  np.array([1.0, math.nan])])
def test_quantize_rejects_a_step_that_is_not_finite(step):
    # such a step gave NaN, not a lattice point
    with pytest.raises(ValueError, match="finite"):
        quantize(step, 1.0)


#: x <= 37, where q_tail is erfc's value; the first, which a first call
#: evaluates, is one where libm's erfc has other bits than scipy's
_ERFC_X = np.concatenate([[3.0, -0.0, 1e-300, 37.0, np.nextafter(37.0, 0.0)],
                          np.linspace(-40.0, 37.0, 2_001)])


def _erfc_half(x):
    return 0.5 * erfc(x / math.sqrt(2))


def test_q_tail_matches_erfc():
    # the same ufunc's bits, in the array path and the scalar path alike
    want = _erfc_half(_ERFC_X)
    assert np.array_equal(q_tail(_ERFC_X).view(np.int64),
                          want.view(np.int64))
    assert [q_tail(t).hex() for t in _ERFC_X.tolist()] \
        == [w.hex() for w in want.tolist()]


@pytest.mark.parametrize("path", ["scalar", "array"])
def test_q_tail_first_call_matches_erfc(path):
    # the first call imports scipy.special, so it runs in a fresh
    # interpreter: this one has loaded it already
    call = {"scalar": "[q_tail(t) for t in x]",
            "array": "q_tail(np.array(x)).tolist()"}[path]
    code = ("import sys, numpy as np\n"
            "from lqgduet.lattice import q_tail\n"
            "assert 'scipy.special' not in sys.modules\n"
            f"x = {_ERFC_X.tolist()}\n"
            f"print(' '.join(v.hex() for v in {call}))\n")
    assert _fresh_python(code).split() \
        == [w.hex() for w in _erfc_half(_ERFC_X).tolist()]


def test_q_tail_positive_and_monotone_far_out():
    # positive as far as float64 can represent exp(-x^2/2), nonincreasing
    # beyond that
    x = np.linspace(30, 38.0, 40)
    v = q_tail(x)
    assert np.all(v > 0)
    assert np.all(np.diff(v) < 0)
    far = q_tail(np.linspace(38.0, 200.0, 40))
    assert np.all(far >= 0)
    assert np.all(np.diff(far) <= 0)


def _q_tail_unmasked(x):
    """q_tail as one formula over every entry: erfc everywhere, then the
    bracket substituted beyond the switch."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.5 * erfc(x / math.sqrt(2.0))
        bracket = (1.0 / math.sqrt(2.0 * math.pi)) / np.maximum(x, 1.0) \
            * np.exp(-0.5 * np.maximum(x, 1.0) * np.maximum(x, 1.0))
    return np.where(x > 37.0, bracket, out)


def _edges(x0, n=200):
    """n floats on each side of x0, x0 included."""
    out = [x0]
    lo = hi = x0
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_q_tail_matches_the_unmasked_formula_bit_for_bit():
    # erfc only at or below the switch, the bracket only below the point
    # where exp underflows, exact zeros beyond; the same bits as the one
    # formula everywhere, in the array path and the scalar path alike
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-300, 1e300,
               -1e300, 37.0, 38.4853, 38.5, 38.6, 38.61, 200.0]
    edges = _edges(37.0) + _edges(38.6043) + _edges(38.48528) \
        + _edges(1.0) + _edges(-37.0)
    x = np.concatenate([np.linspace(-45.0, 60.0, 210_001), special, edges])
    got, want = q_tail(x), _q_tail_unmasked(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64))
    assert got[x == 38.0].item() > 0 and got[x == 38.6].item() == 0.0
    for t in special + edges[::7] + list(x[::997]):
        one, ref = q_tail(float(t)), _q_tail_unmasked(t).item()
        assert isinstance(one, float)
        assert one.hex() == ref.hex() or (math.isnan(one) and math.isnan(ref))
    # rows of a 2-D block give the same bits as the flat array
    block = x[:200 * 1000].reshape(200, 1000)
    assert np.array_equal(q_tail(block), q_tail(x[:200 * 1000])
                          .reshape(200, 1000), equal_nan=True)


def test_q_tail_bracket_on_grid():
    # 200-point grid: lower <= Q <= upper, both strict where defined
    x = np.linspace(0.1, 40.0, 200)
    q = np.array([q_tail(float(t)) for t in x])
    # the lower bracket (1/sqrt(2 pi))(1/x - 1/x^3) exp(-x^2/2), x > 0
    lo = (1.0 / x - 1.0 / x ** 3) * np.exp(-0.5 * x * x) \
        / math.sqrt(2 * math.pi)
    hi = q_tail_upper(x)
    assert np.all(lo <= q * (1 + 1e-12))
    assert np.all(q <= hi * (1 + 1e-12))


#: q_tail at its edges: NaN, the infinities, the switch to the bracket and
#: the float above it, the point where the bracket is an exact 0, and 0
_Q_TAIL_EDGES = [
    (math.nan, "nan"), (-math.inf, "0x1.0000000000000p+0"),
    (math.inf, "0x0.0p+0"), (37.0, "0x1.eaccc6bfeb483p-995"),
    (math.nextafter(37.0, math.inf), "0x1.eb286bd8f2776p-995"),
    (_Q_TAIL_ZERO, "0x0.0p+0"), (0.0, "0x1.0000000000000p-1")]


def test_q_tail_edges():
    # the values recorded when q_tail had a separate 0-d branch
    x, want = zip(*_Q_TAIL_EDGES)
    scalars = [q_tail(t) for t in x]
    assert all(type(v) is float for v in scalars)
    assert [v.hex() for v in scalars] == list(want)
    assert [v.hex() for v in q_tail(np.array(x)).tolist()] == list(want)
    assert [q_tail(np.float64(t)).hex() for t in x] == list(want)


def test_gaussian_comb():
    o = gaussian_comb(2.0, 1.0)
    assert type(o) is float and o == 2 * q_tail(1.0)
    assert gaussian_comb(1.0, 0.0) == 0.0
    # broadcasts: a column of widths against a row of deviations
    w, sigma = np.array([[0.5], [2.0], [50.0]]), np.array([0.25, 1.0, 4.0])
    got = gaussian_comb(w, sigma)
    assert got.shape == (3, 3)
    for i, j in np.ndindex(got.shape):
        assert got[i, j] == gaussian_comb(float(w[i, 0]), float(sigma[j]))
        assert got[i, j] == min(1.0, 2.0 * q_tail(w[i, 0] / (2 * sigma[j])))
    # sigma = 0: no outage for a box of positive width, certain outage
    # otherwise; no RuntimeWarning (an error here)
    w = np.array([1.0, 1e-300, 0.0, -1.0, math.nan, math.inf])
    assert gaussian_comb(w, 0.0).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
    assert gaussian_comb(w, -0.0).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
    # a NaN rate is capped to 1, as min(1.0, nan) is; an empty box too
    for w, sigma in [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf),
                     (-1.0, 0.5), (0.0, 1.0), (1.0, math.inf)]:
        assert gaussian_comb(w, sigma) == 1.0
        assert gaussian_comb(np.array([w]), sigma).tolist() == [1.0]
    assert gaussian_comb(1e300, 1e-300) == 0.0
    # the rates recorded when gaussian_comb built a comb claim
    assert gaussian_comb(2.0, 1.0).hex() == "0x1.44ed0bb7cb20cp-2"
    assert gaussian_comb(0.5, 1.0).hex() == "0x1.9aecba9d22528p-1"


def one_row_sum(term_fn):
    """The series of term_fn (a function of a 1-D integer array) summed as
    the one row of truncated_sum; raises SeriesNonConvergent where the row
    fails."""
    totals, failed = truncated_sum(
        lambda i, live: np.reshape(term_fn(i), (1, -1)), 1)
    if failed[0]:
        raise SeriesNonConvergent("series failed its guard")
    return float(totals[0])


def test_truncated_sum_geometric():
    total = one_row_sum(lambda i: 0.5 ** i)
    assert total == pytest.approx(1.0, rel=1e-10)
    assert total == _reference_truncated_sum(lambda i: 0.5 ** i)


def test_truncated_sum_rejects_nondecreasing():
    totals, failed = truncated_sum(
        lambda i, live: np.ones((live.size, i.size)), 1)
    assert failed.tolist() == [True] and math.isnan(totals[0])
    with pytest.raises(SeriesNonConvergent):
        _reference_truncated_sum(lambda i: np.ones(i.shape))


def test_truncated_sum_reads_an_overflowing_term_as_inf():
    # the second row's terms overflow a float: that row sums to +inf, with
    # no RuntimeWarning, and the first row is summed as alone
    scale = np.array([1.0, 1e300])
    totals, failed = truncated_sum(
        lambda i, live: scale[live, None] * 1e10 * 0.5 ** i, 2)
    assert failed.tolist() == [False, False]
    assert totals[0] == one_row_sum(lambda i: 1e10 * 0.5 ** i)
    assert totals[1] == math.inf


def _reference_truncated_sum(term_fn):
    """The one-series summation loop truncated_sum's rows replace."""
    total = 0.0
    prev_last = math.inf
    i0 = 1
    while i0 <= SERIES_MAX_TERMS:
        idx = np.arange(i0, min(i0 + SERIES_BLOCK, SERIES_MAX_TERMS + 1))
        terms = np.asarray(term_fn(idx), dtype=float)
        if not np.all(np.isfinite(terms)):
            return math.inf
        total += float(terms.sum())
        last = float(terms[-1])
        if last <= SERIES_REL_TOL * max(total, 1e-300):
            return total
        if idx[-1] >= SERIES_GUARD_TERMS and last >= prev_last:
            raise SeriesNonConvergent("not decreasing")
        prev_last = last
        i0 = idx[-1] + 1
    raise SeriesNonConvergent("cap")


def _series_cases():
    """(name, term function of i) pairs: one-block and multi-block comb
    series, a series with a non-finite term, one that fails its guard."""
    cases = [("geometric", lambda i: 0.5 ** i)]
    for d, w, sigma, scale in [(4.0, 1.0, 1.0, 2.0), (1.0, 0.5, 30.0, 7.0),
                               (1.0, 0.9, 150.0, 64.0),
                               (1e-3, 5e-4, 0.4, 4e4),
                               (1.0, 0.5, 900.0, 1.0)]:
        cases.append((f"miss-{sigma}", lambda i, d=d, w=w, sigma=sigma,
                      scale=scale: comb_miss_terms(i, d, w, sigma, scale)))
        cases.append((f"outage-{sigma}", lambda i, d=d, sigma=sigma,
                      scale=scale: scale * comb_outage_terms(i, d, sigma)))
    cases.append(("inf at 700", lambda i: np.where(i == 700, np.inf,
                                                   1.0 / i ** 1.5)))
    cases.append(("nan at 3", lambda i: np.where(i == 3, np.nan, 0.5 ** i)))
    cases.append(("flat", lambda i: np.ones(i.shape)))
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except SeriesNonConvergent:
        return "SeriesNonConvergent"


def test_one_row_truncated_sum_matches_the_scalar_loop():
    outcomes = set()
    for name, term in _series_cases():
        got = _outcome(one_row_sum, term)
        assert got == _outcome(_reference_truncated_sum, term), name
        outcomes.add(got)
    # the cases reach every rule: a sum, +inf and the guard
    assert {"inf", "SeriesNonConvergent"} < outcomes


def test_truncated_sum_rows_match_one_row_calls():
    # each row, settled in any block or failed, gives its one-row result;
    # more rows than one SERIES_ROWS chunk, in a shuffled order
    cases = _series_cases() * 30
    order = np.random.default_rng(5).permutation(len(cases))
    terms = [cases[k][1] for k in order]

    def rows_fn(i, live):
        return np.array([terms[r](i) for r in live], dtype=float)

    totals, failed = truncated_sum(rows_fn, len(terms))
    assert failed.dtype == bool and totals.shape == failed.shape
    for r, term in enumerate(terms):
        want = _outcome(_reference_truncated_sum, term)
        if failed[r]:
            assert want == "SeriesNonConvergent" and math.isnan(totals[r])
        else:
            assert float(totals[r]).hex() == want
    assert failed.any() and np.isinf(totals).any()


def test_comb_series_sum_their_term_functions():
    # column arrays of d and w give one row of terms per comb, and each
    # row sums to that comb's own series, across SERIES_ROWS chunks
    rng = np.random.default_rng(3)
    d = 10.0 ** rng.uniform(-1.0, 1.0, 2 * SERIES_ROWS + 5)
    w = d * rng.uniform(0.1, 0.9, d.size)
    sigma, scale = 30.0, 7.0
    miss, failed = truncated_sum(
        lambda i, live: comb_miss_terms(i, d[live, None], w[live, None],
                                        sigma, scale), d.size)
    outage, failed2 = truncated_sum(
        lambda i, live: comb_outage_terms(i, d[live, None], sigma), d.size)
    assert not failed.any() and not failed2.any()
    for r in range(d.size):
        assert miss[r] == _reference_truncated_sum(
            lambda i: comb_miss_terms(i, d[r], w[r], sigma, scale))
        assert outage[r] == _reference_truncated_sum(
            lambda i: comb_outage_terms(i, d[r], sigma))


@pytest.mark.parametrize("block,guard", [
    (SERIES_BLOCK, SERIES_GUARD_TERMS), (256, 600), (512, 400)])
def test_bounded_sum_equals_the_full_sum(monkeypatch, block, guard):
    # seeded comb miss rows with sv2/step from 1e-2 to 1e5, across the
    # ~600 edge where the guard starts to fail, across SERIES_ROWS chunks
    monkeypatch.setattr(lattice, "SERIES_BLOCK", block)
    monkeypatch.setattr(lattice, "SERIES_GUARD_TERMS", guard)
    rng = np.random.default_rng(29)
    n = 2 * SERIES_ROWS + 40
    ratio = 10.0 ** rng.uniform(-2.0, 5.0, n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    # the first rows' bound overflows a float; one failing row's terms
    # are +inf from i = 300 on
    ratio[:16], scale[:16] = 10.0 ** rng.uniform(-2.0, -1.5, 16), 1e300
    inf_row = n // 2
    ratio[inf_row] = 1e4
    d, scale = (1.0 / ratio)[:, None], scale[:, None]
    w = d * rng.uniform(0.2, 0.9, (n, 1))
    columns = np.zeros(n, dtype=int)
    bounds = []

    def terms(i, live):
        columns[live] += i.size
        t = comb_miss_terms(i, d[live], w[live], 1.0, scale[live])
        return np.where((live[:, None] == inf_row) & (i >= 300), np.inf, t)

    def bound(m):
        bounds.append(np.ravel(scale * (m * d + w / 2) ** 2))
        return bounds[-1]

    plain = truncated_sum(terms, n)
    columns[:] = 0
    totals, failed = truncated_sum(terms, n, bound=bound)
    assert [x.hex() for x in totals] == [x.hex() for x in plain[0]]
    assert failed.tolist() == plain[1].tolist()
    # failed rows, and rows that settle though their sv2/step is near the
    # edge
    assert failed.any() and (~failed & (ratio > 300)).any()
    assert totals[inf_row] == math.inf and not failed[inf_row]
    # a failed row with a finite bound is settled from the block ends up
    # to the guard block's alone; a row whose bound overflows is summed
    finite = np.isfinite(bounds[0])
    ends = max(math.ceil(guard / block), 2)
    assert (columns[failed & finite] == ends).all()
    assert not finite[:16].any() and (columns[:16] > ends).all()
    assert (failed & finite).sum() == failed.sum() > 10


@pytest.mark.parametrize("d,w,sigma,scale", [
    (4.0, 1.0, 1.0, 2.0), (2.0, 0.5, 0.7, 1.0), (1.0, 0.9, 3.0, 64.0),
    (1e3, 10.0, 1e2, 4e4),
])
def test_comb_series_match_extended_precision(d, w, sigma, scale):
    import mpmath

    def q(x):
        return mpmath.erfc(x / mpmath.sqrt(2)) / 2

    with mpmath.workdps(40):
        d_, w_, s_ = mpmath.mpf(d), mpmath.mpf(w), mpmath.mpf(sigma)
        miss = scale * mpmath.nsum(lambda i: (i * d_ + w_ / 2) ** 2
                                   * q(((2 * i - 1) * d_ - w_) / (2 * s_)),
                                   [1, mpmath.inf])
        outage = scale * mpmath.nsum(lambda i: (i * d_ + d_ / 2) ** 2
                                     * q((i - 1) * d_ / s_),
                                     [1, mpmath.inf])
    assert one_row_sum(lambda i: comb_miss_terms(i, d, w, sigma, scale)) \
        == pytest.approx(float(miss), rel=1e-11)
    assert scale * one_row_sum(lambda i: comb_outage_terms(i, d, sigma)) \
        == pytest.approx(float(outage), rel=1e-11)


def test_comb_outage_series_noiseless_limit():
    # only the i = 1 term, (3d/2)^2 Q(0), survives
    assert one_row_sum(lambda i: comb_outage_terms(i, 2.0, 1e-3)) \
        == 3.0 ** 2 * 0.5


def quantized_mmse_bound(d, w, o, residual_msq, sigma):
    """Upper bound on E[(X - Q_d(X + V))^2] for X on the (d, w, o) comb and
    an independent perturbation V of standard deviation <= sigma, from the
    two tail series; residual_msq must upper-bound E[(X - Q_d(X))^2]."""
    return residual_msq \
        + one_row_sum(lambda i: comb_miss_terms(i, d, w, sigma, 2.0)) \
        + o * 2.0 * one_row_sum(lambda i: comb_outage_terms(i, d, sigma))


def test_quantized_mmse_bound_oracle_values():
    # frozen from an independent extended-precision evaluation
    assert quantized_mmse_bound(4.0, 1.0, 0.01, 2.0, 1.0) \
        == pytest.approx(5.0657577378641967, rel=1e-12)
    assert quantized_mmse_bound(2.0, 0.5, 0.0, 0.3, 0.7) \
        == pytest.approx(1.7391758836606342, rel=1e-12)


def _mc_quantizer_error(d, w, o, sigma, n, seed):
    """Monte Carlo E[(X - Q_d(X + V))^2] for X on the lattice comb."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(-5, 6, size=n)
    x = idx * d + rng.uniform(-w / 2, w / 2, size=n)
    # outage fraction: displace by up to half a cell (worst in-model case)
    out = rng.random(n) < o
    x = np.where(out, idx * d + rng.uniform(-d / 2, d / 2, size=n), x)
    v = rng.normal(0, sigma, size=n)
    err = x - quantize(d, x + v)
    return float(np.mean(err ** 2))


@pytest.mark.parametrize("d,w,o,sigma", [
    (4.0, 1.0, 0.0, 0.8), (4.0, 1.0, 0.05, 0.8), (2.0, 0.2, 0.0, 0.5),
])
def test_quantized_mmse_bound_dominates_mc(d, w, o, sigma):
    bound = quantized_mmse_bound(d, w, o, (w / 2) ** 2 + o * (d / 2) ** 2,
                                 sigma)
    mc = _mc_quantizer_error(d, w, o, sigma, 200_000, 7)
    assert mc <= bound
