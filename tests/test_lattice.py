import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from lqgduet.lattice import (CombBound, SeriesNonConvergent, comb_add,
                             comb_miss_series, comb_outage_series,
                             comb_scale, gaussian_comb, q_tail, q_tail_lower,
                             q_tail_upper, quantize, quantized_mmse_bound,
                             remainder, truncated_sum)

# y expressed as a bounded multiple of the step, so the identities are not
# drowned by float64 resolution at extreme y/step ratios
ratios = st.floats(-1e6, 1e6, allow_nan=False)
steps = st.floats(1e-6, 1e6, allow_nan=False)


@given(steps, ratios)
def test_remainder_range_and_reconstruction(step, ratio):
    y = ratio * step
    r = remainder(step, y)
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
    assert remainder(2.0, 1.0) == -1.0


def test_quantize_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        quantize(0.0, 1.0)


def test_q_tail_matches_erfc():
    x = np.linspace(-5, 8, 40)
    assert np.allclose(q_tail(x), 0.5 * erfc(x / math.sqrt(2)), rtol=1e-13)


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


def test_q_tail_bracket_on_grid():
    # 200-point grid: lower <= Q <= upper, both strict where defined
    x = np.linspace(0.1, 40.0, 200)
    q = np.array([q_tail(float(t)) for t in x])
    lo = q_tail_lower(x)
    hi = q_tail_upper(x)
    assert np.all(lo <= q * (1 + 1e-12))
    assert np.all(q <= hi * (1 + 1e-12))


def test_comb_add_and_scale():
    b = comb_add(CombBound(4.0, 1.0, 0.1), CombBound(math.inf, 0.5, 0.05))
    assert (b.d, b.w, b.o) == (4.0, 1.5, 0.15000000000000002)
    b2 = comb_scale(2.0, b)
    assert (b2.d, b2.w, b2.o) == (8.0, 3.0, b.o)
    with pytest.raises(ValueError):
        comb_add(CombBound(4.0, 1.0, 0.0), CombBound(3.0, 0.5, 0.0))
    with pytest.raises(ValueError):
        comb_scale(-1.0, b)


def test_comb_outage_saturates():
    b = comb_add(CombBound(4.0, 1.0, 0.9), CombBound(math.inf, 0.5, 0.9))
    assert b.o == 1.0


def test_comb_width_validation():
    with pytest.raises(ValueError):
        CombBound(1.0, 2.0, 0.0)


def test_gaussian_comb():
    b = gaussian_comb(2.0, 1.0)
    assert math.isinf(b.d)
    assert b.o == pytest.approx(2 * q_tail(1.0))
    assert gaussian_comb(1.0, 0.0).o == 0.0


@given(st.floats(0.5, 10), st.floats(0.5, 10))
def test_comb_add_commutes_in_width_and_outage(w1, w2):
    d = 100.0
    b1 = comb_add(CombBound(d, w1, 0.01), CombBound(math.inf, w2, 0.02))
    b2 = comb_add(CombBound(d, w2, 0.02), CombBound(math.inf, w1, 0.01))
    assert b1.w == pytest.approx(b2.w)
    assert b1.o == pytest.approx(b2.o)


def test_truncated_sum_geometric():
    total = truncated_sum(lambda i: 0.5 ** i)
    assert total == pytest.approx(1.0, rel=1e-10)


def test_truncated_sum_rejects_nondecreasing():
    with pytest.raises(SeriesNonConvergent):
        truncated_sum(lambda i: np.ones_like(np.asarray(i, dtype=float)))


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
    assert comb_miss_series(d, w, sigma, scale) \
        == pytest.approx(float(miss), rel=1e-11)
    assert comb_outage_series(d, sigma, scale) \
        == pytest.approx(float(outage), rel=1e-11)


def test_comb_outage_series_noiseless_limit():
    # only the i = 1 term, scale (3d/2)^2 Q(0), survives
    assert comb_outage_series(2.0, 1e-3, 3.0) == 3.0 * 3.0 ** 2 * 0.5


def test_quantized_mmse_bound_oracle_values():
    # frozen from an independent extended-precision evaluation
    assert quantized_mmse_bound(CombBound(4.0, 1.0, 0.01), 2.0, 1.0) \
        == pytest.approx(5.0657577378641967, rel=1e-12)
    assert quantized_mmse_bound(CombBound(2.0, 0.5, 0.0), 0.3, 0.7) \
        == pytest.approx(1.7391758836606342, rel=1e-12)


def test_quantized_mmse_bound_validation():
    with pytest.raises(ValueError):
        quantized_mmse_bound(CombBound(math.inf, 1.0, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        quantized_mmse_bound(CombBound(2.0, 0.5, 0.0), 0.1, 0.0)


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
    bound = quantized_mmse_bound(CombBound(d, w, o), (w / 2) ** 2 + o
                                 * (d / 2) ** 2, sigma)
    mc = _mc_quantizer_error(d, w, o, sigma, 200_000, 7)
    assert mc <= bound
