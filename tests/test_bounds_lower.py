import dataclasses
import math
import re
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from lqgduet import bounds_lower
from lqgduet.bounds_upper import UpperBoundEvaluator
from lqgduet.certifier import (certify_grid, default_weight_grid,
                               strong_grid_params, weak_grid_params)
from lqgduet.core import ProblemParams, classify, noise_floor
from lqgduet.bounds_lower import (_DL4_KS, LowerBoundEvaluator,
                                  RegionPartition, SliceParams, _dl2_inner,
                                  _geo, _slicing_candidates, dl1, dl2, dl3,
                                  dl4, info_mmse, lower_weighted_cost,
                                  mmse_floor)


def test_info_mmse_symmetric_single_round():
    # two equally good unit-noise observations of a unit disturbance
    assert info_mmse(2.5, 1.0, 1.0, 1, 1) == pytest.approx(1.0 / 3.0)


def test_info_mmse_one_useless_observation_limit():
    # as the second noise blows up only the first observation counts
    v = info_mmse(2.5, 1.0, 1e12, 1, 1)
    assert v == pytest.approx(0.5, rel=1e-6)


def test_info_mmse_oracle_value():
    assert info_mmse(2.5, 1.0, 10.0, 2, 4) \
        == pytest.approx(27.202298050139276, rel=1e-12)


def test_info_mmse_perfect_observation():
    assert info_mmse(2.5, 0.0, 1.0, 1, 3) == 0.0


def test_info_mmse_overflow_names_its_domain():
    # a^{2(k1-1)} leaves the float range at |a| = 1.5e4, k1 = 38: the same
    # ValueError the families raise, naming the power
    with pytest.raises(bounds_lower._PowerOverflow,
                       match=re.escape("15000^74 overflows")):
        info_mmse(1.5e4, 1.0, 2.0, 38, 39)
    assert info_mmse(1.5e4, 1.0, 2.0, 36, 37) > 0



def test_info_mmse_divides_first_where_its_product_overflows():
    # a^{2(k-1)} sv1^2 = 1e157 1e5 overflows, though the quotient is about
    # 1e13; before, mmse_floor(k1 = 39) was inf, and so was the bound
    v = mmse_floor(1e4, 1e5, 1e12, 39)
    assert v == pytest.approx(1e13, rel=1e-6)
    assert dl3(ProblemParams(a=1e4, sigmav1_sq=1e5, sigmav2_sq=1e12), 39) \
        == v


def test_lower_stays_below_upper_where_info_mmse_products_overflow():
    # seeded bases up to a = 1e12 and sv1^2 = 1e300, with a^4 sv2^2 a float
    # (the partition's domain): most of these points reported lower = inf
    # above a finite upper bound before info_mmse divided first
    rng = np.random.default_rng(606)
    weights = [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (1.0, 1e-2, 1e2),
               (1e-2, 1e2, 1.0)]
    for _ in range(100):
        log_a = rng.uniform(math.log10(2.5), 12.0)
        top = min(300.0, 306.0 - 4 * log_a)
        log_sv1 = rng.uniform(-3.0, top)
        base = ProblemParams(a=float(10 ** log_a),
                             sigmav1_sq=float(10 ** log_sv1),
                             sigmav2_sq=float(10 ** rng.uniform(
                                 log_sv1, min(log_sv1 + 12.0, top))))
        ev, up = LowerBoundEvaluator(base), UpperBoundEvaluator(base)
        for q, r1, r2 in weights:
            p = dataclasses.replace(base, q=q, r1=r1, r2=r2)
            assert ev.weighted(q, r1, r2) <= up.best(q, r1, r2).cost, p


def test_recipe_leaves_out_a_k1_whose_cap_overflows():
    # the recipe's k1 = 390 needs 2.5^776 for its Sigma cap: that k1 offers
    # no candidate and is named in left_out, where before its error
    # rejected the whole converse
    p = ProblemParams(a=2.5, sigmav1_sq=2.8e307, sigmav2_sq=8e307)
    dl1_cands, dl2_cands, left_out = _slicing_candidates(
        p, RegionPartition(p))
    assert left_out == ["the converse is defined while the powers of a it "
                        "needs are floats; 2.5^776 overflows"]
    assert {k1 for k1, _, _ in dl2_cands} == {388, 389}
    assert {sp.k1 for sp in dl1_cands} == {388, 389}
    ev = LowerBoundEvaluator(p)
    assert ev.left_out == left_out
    assert 1.0 <= ev.weighted(1.0, 0.0, 0.0) < math.inf

@pytest.mark.parametrize("p, power", [
    # dl1's slices at stage s = 75 need (a^2)^78
    (ProblemParams(a=100.0, sigmav2_sq=1e300), "10000^78"),
    # dl2's longest horizon needs a^6, dl4's race a^12
    (ProblemParams(a=1e77), "1e+77^6"),
    (ProblemParams(a=1e26), "1e+26^12"),
])
def test_evaluator_names_the_power_that_overflows(p, power):
    # such a candidate is left out with its message, one NaN row each;
    # before, it raised out of the constructor and took the whole bound
    # with it (and before that, as a raw OverflowError)
    ev = LowerBoundEvaluator(p)
    message = re.compile(r"powers of a .* floats; " + re.escape(power)
                         + " overflows")
    assert any(message.search(m) for m in ev.left_out), ev.left_out
    assert np.isnan(ev.D_hi).all(axis=(1, 2)).sum() == len(ev.left_out)
    assert 1.0 <= ev.weighted(1.0, 1.0, 1.0) < math.inf


def test_evaluator_leaves_out_only_the_candidates_that_overflow():
    # dl4's k = 8 race needs a^12, a float at a = 4e25 but not at 6e25;
    # its family is absent, and every dl1 and dl2 row is the one a direct
    # call gives
    p = ProblemParams(a=6e25, q=1.0, r1=1.0, r2=1.0, sigmav2_sq=1.0)
    with pytest.raises(ValueError, match=re.escape("6e+25^12 overflows")):
        dl4(p, _DL4_KS, 1.0, 1.0)
    ev = LowerBoundEvaluator(p)
    assert len(ev.left_out) == 1 and "6e+25^12" in ev.left_out[0]
    dl1_cands, dl2_cands, _ = _slicing_candidates(p, ev.partition)
    n1, n2 = len(dl1_cands), len(dl1_cands) + len(dl2_cands)
    assert ev.D_hi.shape[0] == n2 + 1 and np.isnan(ev.D_hi[n2]).all()
    hi1, hi2 = ev.grid[1:, None], ev.grid[None, 1:]
    assert np.array_equal(_bits(ev.D_hi[:n1]),
                          _bits(dl1(p, dl1_cands, hi1, hi2)))
    assert np.array_equal(_bits(ev.D_hi[n1:n2]),
                          _bits(dl2(p, *zip(*dl2_cands), hi1, hi2)))
    # the bound is the max over the remaining families, the floor and the
    # region corollary
    rows = list(zip(ev.D_hi[:n2], ev.tail[:n2]))
    slicing = _family_max(ev, rows, 1.0, 1.0, 1.0)
    corollary, _ = ev.partition.corollary(1.0, 1.0, 1.0)
    bound = lower_weighted_cost(p)
    assert math.isfinite(bound)
    assert bound == max(1.0, corollary, slicing) >= corollary > 1.0
    assert ev.slicing_bound(1.0, 1.0, 1.0) == slicing


@pytest.mark.parametrize("p, name", [
    (ProblemParams(a=1e100, sigmav1_sq=1.0, sigmav2_sq=1.0), "t1"),
    # a^4 sv2^2 / 28000 ~ 3.6e308, past the float range
    (ProblemParams(a=1e3, sigmav1_sq=1e10, sigmav2_sq=1e301), "t2a"),
])
def test_partition_rejects_a_threshold_that_overflows(p, name):
    # before, an infinite t2a read r2 t2a = 0 inf = nan at r2 = 0, which
    # dropped the region corollary from the bound
    with pytest.raises(ValueError, match=f"partition's {name} overflows"):
        RegionPartition(p)


def test_partition_divides_first_where_a_product_overflows():
    # each threshold fits a float, though the product before its division
    # overflows: before, both bases were rejected
    part = RegionPartition(ProblemParams(a=2.5, sigmav1_sq=1e10,
                                         sigmav2_sq=1.7e308))
    assert part.t2a == 2.5 ** 4 * (1.7e308 / 28000) == \
        pytest.approx(2.37e305, rel=1e-3)
    # weak: a^2 m and a^2 sv2^2 both overflow
    part = RegionPartition(ProblemParams(a=2.5, sigmav1_sq=2.8e307,
                                         sigmav2_sq=8e307))
    assert part.regime.kind == "weak"
    assert part.t1 == 6.25 * (part.m / 400)
    assert part.t2a == 6.25 * (6.25 * (8e307 / 400))


def test_partition_thresholds_keep_their_bits_where_the_product_is_a_float():
    # the thresholds as the paper writes them, product first
    for p in weak_grid_params() + strong_grid_params() \
            + _random_bases(300, 5, a_decade=8.0, sv2_decade=20.0):
        part = RegionPartition(p)
        A, sv1, sv2, m = abs(p.a), p.sigmav1_sq, p.sigmav2_sq, part.m
        if part.regime.kind == "weak":
            assert part.t1 == A ** 2 * m / 400, p
            assert part.t2a == A ** 2 * max(1.0, A ** 2 * sv2) / 400, p
        else:
            assert part.t1hi == max(A ** 2, A ** 4 * sv1) / 20000, p
            assert part.t2a == A ** 4 * sv2 / 28000, p


def test_evaluator_is_quiet_where_a_sum_or_a_cost_overflows():
    # the pruning pass's row sums overflow at sv2 = 1e300, and r1 = 1e300
    # overflows the strong-iv cells' costs; each is +inf, as intended
    ev = LowerBoundEvaluator(ProblemParams(a=10.0, sigmav1_sq=1e10,
                                           sigmav2_sq=1e300))
    assert 1.0 <= ev.weighted(1.0, 0.0, 0.0) < math.inf
    p = ProblemParams(a=100.0, q=1.0, r1=1e300, r2=1.0, sigmav1_sq=1e100,
                      sigmav2_sq=1e300)
    assert not math.isnan(lower_weighted_cost(p))


def test_mmse_floor_base_case_and_cap():
    assert mmse_floor(2.5, 1.0, 2.0, 1) == 1.0
    v = mmse_floor(2.5, 1.0, 2.0, 3)
    assert 0 < v
    assert dl3(ProblemParams(a=2.5, sigmav1_sq=1.0, sigmav2_sq=2.0), 3) \
        == max(v, 1.0)


def test_dl2_zero_power_value():
    p = ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=16.0)
    # with no power the estimate game is lost: a^2 Sigma + 1
    assert dl2(p, 1, 2, 1.0, 0.0, 0.0) == pytest.approx(17.0)


def _dl2_objective(A, Sigma, sv1, sv2, c1, c2):
    return (A - c1 - c2) ** 2 * Sigma + c1 ** 2 * sv1 + c2 ** 2 * sv2


def test_dl2_inner_matches_brute_force():
    # the exact inner minimum vs a dense grid search
    A, Sigma, sv1, sv2 = 4.0, 0.8, 1.3, 5.0
    for C1, C2 in [(0.5, 0.5), (2.0, 0.3), (5.0, 5.0), (0.05, 3.0)]:
        got = float(_dl2_inner(A, Sigma, sv1, sv2, C1, C2))
        c1 = np.linspace(-C1, C1, 401)[:, None]
        c2 = np.linspace(-C2, C2, 401)[None, :]
        brute = np.min(_dl2_objective(A, Sigma, sv1, sv2, c1, c2))
        assert got <= brute + 1e-6
        assert got == pytest.approx(brute, rel=1e-3, abs=1e-4)
    # badly conditioned (Sigma >> sv^2): the minimiser is interior, and an
    # iterative search converges slowly enough to stop well above it
    A, Sigma, sv1, sv2 = 4.0, 50.0, 0.01, 0.02
    den = sv1 * sv2 + Sigma * (sv1 + sv2)
    assert float(_dl2_inner(A, Sigma, sv1, sv2, 5.0, 5.0)) \
        == pytest.approx(A * A * Sigma * sv1 * sv2 / den, rel=1e-12)
    assert float(_dl2_inner(A, Sigma, sv1, sv2, 5.0, 5.0)) \
        == pytest.approx(0.1066524463, rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.floats(2.5, 100.0), st.floats(1e-3, 1e4), st.floats(0.0, 1e4),
       st.floats(0.0, 1e4), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
@example(9.125, 1.0, 2.0, 5e-324, 1.0, 9.125)  # subnormal interior minimum
# A^2 Sigma sv1^2 sv2^2 passes through a subnormal: in floats it lands
# 7e-12 above the exact minimum at the first, and 6e-10 below it at the
# second, where the inner minimum took that low value
@example(3.0, 86.0, 2.4985907295913983e-306, 2.4071201567018105e-11, 3.0, 1.0)
@example(3.0, 86.0, 5.99e-307, 5.06e-12, 3.0, 1.0)
def test_dl2_inner_is_the_box_minimum(A, Sigma, sv1, sv2, C1, C2):
    got = float(_dl2_inner(A, Sigma, sv1, sv2, C1, C2))
    tol = 1e-12 * A * A * Sigma
    c1 = np.linspace(-C1, C1, 201)[:, None]
    c2 = np.linspace(-C2, C2, 201)[None, :]
    assert got <= np.min(_dl2_objective(A, Sigma, sv1, sv2, c1, c2)) + tol
    sol = minimize(lambda c: _dl2_objective(A, Sigma, sv1, sv2, *c),
                   x0=[0.0, 0.0], method="L-BFGS-B",
                   bounds=[(-C1, C1), (-C2, C2)])
    assert got <= _dl2_objective(A, Sigma, sv1, sv2, *sol.x) + tol
    den = sv1 * sv2 + Sigma * (sv1 + sv2)
    if den > 0 and A * Sigma * sv2 / den <= C1 \
            and A * Sigma * sv1 / den <= C2:
        # the interior minimum, exactly enough at 50 digits
        with mpmath.workdps(50):
            Am, Sm, s1, s2 = (mpmath.mpf(x) for x in (A, Sigma, sv1, sv2))
            exact = Am * Am * Sm * s1 * s2 / (s1 * s2 + Sm * (s1 + s2))
            assert got <= exact
            # a subnormal minimum carries too few bits for a relative match
            if exact >= np.finfo(float).tiny:
                assert got == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_dl4_zero_power_and_direct_value():
    p = ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=16.0)
    assert dl4(p, 2, 0.0, 0.0) == pytest.approx(16.0)
    # one known instance with power
    g = 16.0 ** 0 / (1 - 2.5 / 16.0) / (1 - 0.4)
    expect = max(4.0 - math.sqrt(g * 0.5) - math.sqrt(g * 0.25), 0) ** 2
    assert dl4(p, 2, 0.5, 0.25) == pytest.approx(expect)


def test_dl4_resists_small_powers():
    # with both powers at a^2/400, the race is still lost by the controllers
    p = ProblemParams(a=2.5, sigmav1_sq=0.0, sigmav2_sq=16.0)
    for k in (2, 3, 5):
        Pt = 2.5 ** 2 / 400.0
        v = dl4(p, k, Pt, Pt)
        assert v >= 0.6 * 2.5 ** (2 * (k - 1))


def test_families_nonincreasing_in_power():
    p = ProblemParams(a=4.0, sigmav1_sq=0.5, sigmav2_sq=50.0)
    P = np.geomspace(1e-6, 1e6, 25)
    sp = SliceParams(k1=1, k2=3, k=4, sigmav2p_sq=50.0, alpha=1.0,
                     Sigma=1.0)
    for fam in [lambda x, y: dl1(p, sp, x, y),
                lambda x, y: dl2(p, 1, 3, 1.0, x, y),
                lambda x, y: dl4(p, 3, x, y)]:
        v1 = fam(P, np.full_like(P, 0.1))
        assert np.all(np.diff(v1) <= 1e-9)
        v2 = fam(np.full_like(P, 0.1), P)
        assert np.all(np.diff(v2) <= 1e-9)


def test_dl1_has_unit_floor_and_finite_values():
    p = ProblemParams(a=4.0, sigmav1_sq=0.5, sigmav2_sq=50.0)
    sp = SliceParams(k1=1, k2=3, k=4, sigmav2p_sq=50.0, alpha=1.0,
                     Sigma=1.0)
    v = dl1(p, sp, 1e12, 1e12)
    assert v == pytest.approx(1.0)
    v0 = dl1(p, sp, 0.0, 0.0)
    assert np.isfinite(v0) and v0 > 1.0


def test_slice_params_validation():
    p = ProblemParams(a=4.0, sigmav1_sq=0.5, sigmav2_sq=50.0)
    with pytest.raises(ValueError):
        SliceParams(1, 1, 3, 1.0, 1.0, 0.5).check(p)
    with pytest.raises(ValueError):
        SliceParams(1, 2, 3, 1.0, 2.0, 0.5).check(p)
    with pytest.raises(ValueError):
        SliceParams(1, 2, 3, 1.0, 1.0, 1.5).check(p)  # above the cap


def test_region_floors():
    p = ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=100.0)
    t = RegionPartition(p)
    assert t.regime.s == 2
    assert math.isinf(t.floor(t.t1 / 2, t.t2a / 2))
    v = t.floor(t.t1 / 2, t.t2a * 2)
    assert v >= 0.008 * 16.0 * 100.0 + 1.0
    assert t.floor(t.t1hi * 2 + 1, 0.0) == pytest.approx(0.295)

    pw = RegionPartition(ProblemParams(a=4.0, sigmav1_sq=0.0,
                                       sigmav2_sq=1.0))
    assert math.isinf(pw.floor(0.0, 0.0))
    assert pw.floor(0.0, 1e9) == pytest.approx(0.176 * 16.0 + 1.0)
    assert pw.floor(1e9, 0.0) == pytest.approx(0.295)


class _PerRegimePartition:
    """Reference for RegionPartition: the partition written regime by
    regime, as the paper states it.  Weak regime: weak-i (P1 <= T1,
    P2 <= T2), weak-ii (P1 <= T1, P2 > T2), weak-iii (P1 > T1).  Strong
    regime: strong-i or ii at P1 <= t1 (split at t2a), strong-iii or iv in
    the bracket t1 < P1 <= t1hi (split at t2c(P1)), strong-v beyond it.  A
    threshold whose product overflows is divided first."""

    def __init__(self, p):
        A, sv1, sv2 = abs(p.a), p.sigmav1_sq, p.sigmav2_sq
        self.A, self.regime, self.m = A, classify(p), noise_floor(p)
        m = self.m
        self.weak = self.regime.kind == "weak"
        first = lambda x, y: x if x < math.inf else y  # noqa: E731
        if self.weak:
            self.T1 = first(A ** 2 * m / 400, A ** 2 * (m / 400))
            self.T2 = first(A ** 2 * max(1.0, A ** 2 * sv2) / 400,
                            A ** 2 * max(1 / 400, A ** 2 * (sv2 / 400)))
            self.d_ii = max(0.176 * A ** 2 * sv2 + 1.0, 0.295 * m)
            return
        s = self.regime.s
        self.t1 = sv2 / (70.0 * A ** (2 * (s - 1)))
        self.t1hi = first(max(A ** 2, A ** 4 * sv1) / 20000,
                          max(A ** 2 / 20000, A ** 4 * (sv1 / 20000)))
        self.t2a = first(A ** 4 * sv2 / 28000, A ** 4 * (sv2 / 28000))
        self.d_ii = max(0.008 * A ** 2 * sv2 + 1.0, 0.295 * m)
        self.A2s = A ** (2 * s)
        self.decay = 50.0 * A ** (2 * (s - 1)) / sv2
        self.cells = None
        if self.t1 < self.t1hi:
            # the signaling factor's smallest value on each bracket cell
            edges = np.geomspace(self.t1, self.t1hi, 201)
            f = self._sig(edges)
            f_min = np.minimum(f[:-1], f[1:])
            self.cells = (edges[:-1], self._iv_floor(f_min),
                          self._t2c(f_min))

    def _sig(self, P1):
        return P1 * np.exp(-self.decay * P1)

    def _iv_floor(self, f):
        return np.maximum(0.2541 * self.A2s * f + 0.066 * self.A2s * self.m
                          + 1.0, 0.295 * self.m)

    def _t2c(self, f):
        return 0.0457 * self.A ** 2 * self.A2s * f \
            + 0.0113 * self.A ** 2 * self.A2s * self.m

    def label(self, P1, P2):
        if self.weak:
            if P1 <= self.T1:
                return "weak-i" if P2 <= self.T2 else "weak-ii"
            return "weak-iii"
        if P1 <= self.t1:
            return "strong-i" if P2 <= self.t2a else "strong-ii"
        if P1 <= self.t1hi:
            return "strong-iii" if P2 <= self._t2c(self._sig(P1)) \
                else "strong-iv"
        return "strong-v"

    def floor(self, P1, P2):
        label = self.label(P1, P2)
        if label in ("weak-i", "strong-i", "strong-iii"):
            return math.inf
        if label in ("weak-ii", "strong-ii"):
            return self.d_ii
        if label == "strong-iv":
            return float(self._iv_floor(self._sig(P1)))
        return 0.295 * self.m

    def corollary(self, q, r1, r2):
        if q == 0:
            return 0.0, "weak-i" if self.weak else "strong-i"
        if self.weak:
            return min([(q * self.d_ii + r2 * self.T2, "weak-ii"),
                        (q * 0.295 * self.m + r1 * self.T1, "weak-iii")],
                       key=lambda x: x[0])
        options = [(q * self.d_ii + r2 * self.t2a, "strong-ii")]
        if self.cells is not None:
            p1, floor, t2c = self.cells
            with np.errstate(over="ignore"):
                vals = q * floor + r1 * p1 + r2 * t2c
            options.append((float(vals.min()), "strong-iv"))
        options.append((q * 0.295 * self.m + r1 * max(self.t1, self.t1hi),
                        "strong-v"))
        return min(options, key=lambda x: x[0])

    def probes(self):
        """Power points on, just inside and just outside every threshold,
        inside the bracket, and far from all of them."""
        if self.weak:
            p1s, p2s = [self.T1], [self.T2]
        else:
            p1s, p2s = [self.t1, self.t1hi], [self.t2a]
            if self.cells is not None:
                inner = np.geomspace(self.t1, self.t1hi, 5)[1:-1]
                p1s += list(inner)
                p2s += list(self._t2c(self._sig(inner)))
        near = (1 - 1e-12, 1.0, 1 + 1e-12)
        P1s = [0.0, 1e300] + [x * f for x in p1s for f in near]
        P2s = [0.0, 1e300] + [x * f for x in p2s for f in near]
        return [(float(P1), float(P2)) for P1 in P1s for P2 in P2s]


def _bracket_bases(count, seed):
    """Seeded strongly degraded bases (stage 1 to 3, a third with
    sv1^2 = 0) whose signaling bracket t1 < t1hi is non-empty, which
    needs a above about 17."""
    rng = np.random.default_rng(seed)
    bases = []
    while len(bases) < count:
        a = float(10 ** rng.uniform(math.log10(17.0), 4.0))
        sv1 = 0.0 if len(bases) % 3 == 0 else float(10 ** rng.uniform(-6, 2))
        m = max(1.0, a * a * sv1)
        s_frac = int(rng.integers(0, 3)) + float(rng.uniform(0.01, 1.0))
        p = ProblemParams(a=a, sigmav1_sq=sv1,
                          sigmav2_sq=m * a ** (2 * s_frac))
        if _PerRegimePartition(p).cells is not None:
            bases.append(p)
    return bases


def test_one_partition_shape_matches_the_per_regime_partition():
    # labels, floors and corollaries bit for bit against the partition
    # written regime by regime, on the certification grid and on seeded
    # bases with a non-empty signaling bracket
    weights = default_weight_grid() + [(0.0, 1.0, 1.0), (1.0, 0.0, 0.0),
                                       (1.0, 1e300, 1.0), (1e-300, 1.0, 1.0)]
    bases = weak_grid_params() + strong_grid_params() \
        + _bracket_bases(400, 2222)
    for p in bases:
        part, ref = RegionPartition(p), _PerRegimePartition(p)
        assert part.iv_p1.size == (0 if ref.weak or ref.cells is None
                                   else 200), p
        for P1, P2 in ref.probes():
            assert part.label(P1, P2) == ref.label(P1, P2), (p, P1, P2)
            assert _bits(part.floor(P1, P2)) == _bits(ref.floor(P1, P2)), \
                (p, P1, P2)
        for q, r1, r2 in weights:
            got, want = part.corollary(q, r1, r2), ref.corollary(q, r1, r2)
            assert got[1] == want[1] and _bits(got[0]) == _bits(want[0]), \
                (p, q, r1, r2)


def test_lower_bound_basics():
    p = ProblemParams(a=4.0, q=0.0, r1=1.0, r2=1.0, sigmav1_sq=0.0,
                      sigmav2_sq=16.0)
    assert lower_weighted_cost(p) == 0.0
    p = ProblemParams(a=4.0, q=1.0, r1=0.0, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=16.0)
    assert lower_weighted_cost(p) >= 1.0


def test_lower_bound_grows_with_power_price():
    base = dict(a=4.0, q=1.0, r2=1e-3, sigmav1_sq=0.0, sigmav2_sq=16.0)
    lo = lower_weighted_cost(ProblemParams(r1=0.01, **base))
    hi = lower_weighted_cost(ProblemParams(r1=10.0, **base))
    assert hi >= lo


def test_lower_below_analytic_upper():
    # the converse never exceeds the achievable weighted cost
    from lqgduet.bounds_upper import optimize_upper
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = float(rng.uniform(2.5, 30))
        sv1 = float(rng.uniform(0, 3))
        sv2 = sv1 + float(rng.uniform(0, 100))
        q = float(10 ** rng.uniform(-2, 2))
        r1 = float(10 ** rng.uniform(-3, 2))
        r2 = float(10 ** rng.uniform(-3, 2))
        p = ProblemParams(a=a, q=q, r1=r1, r2=r2, sigmav1_sq=sv1,
                          sigmav2_sq=sv2)
        assert lower_weighted_cost(p) <= optimize_upper(p).cost * (1 + 1e-9)


def test_evaluator_matches_direct_call():
    base = ProblemParams(a=4.0, sigmav1_sq=0.5, sigmav2_sq=50.0)
    ev = LowerBoundEvaluator(base)
    for (q, r1, r2) in [(1.0, 0.1, 0.1), (0.01, 1.0, 0.0), (100.0, 0, 0)]:
        p = ProblemParams(a=4.0, q=q, r1=r1, r2=r2, sigmav1_sq=0.5,
                          sigmav2_sq=50.0)
        assert ev.weighted(q, r1, r2) \
            == pytest.approx(lower_weighted_cost(p))


def _cell_min(q, r1, r2, D_hi, grid, tail_floor):
    """Per-family reference: valid lower bound on
    min_{P1,P2 >= 0} q D(P1,P2) + r1 P1 + r2 P2 for a D nonincreasing in
    both arguments, from D at each cell's upper corner and the powers at
    its lower corner; tail_floor lower-bounds D beyond the grid."""
    lo1 = grid[:-1, None]
    lo2 = grid[None, :-1]
    with np.errstate(invalid="ignore"):
        vals = q * D_hi + r1 * lo1 + r2 * lo2
    best = float(np.nanmin(vals)) if vals.size else math.inf
    g_hi = grid[-1]
    return min(best, q * tail_floor + r1 * g_hi, q * tail_floor + r2 * g_hi)


def _family_max(ev, rows, q, r1, r2):
    """Reference slicing bound: the per-family _cell_min of each of rows
    (D_hi, tail), maxed with the dl3 floor."""
    best = q * ev.dl3_best
    for D_hi, tail in rows:
        best = max(best, _cell_min(q, r1, r2, D_hi, ev.grid, tail))
    return best


@pytest.mark.parametrize("base", [weak_grid_params()[4],
                                  strong_grid_params()[10]])
def test_stacked_slicing_bound_equals_per_family_max(base):
    ev = LowerBoundEvaluator(base)
    assert ev.D_hi.shape[0] == ev.tail.shape[0] > 0
    # every candidate row (the queries reduce only the undominated ones)
    rows = list(zip(ev.D_hi, ev.tail))
    for q, r1, r2 in default_weight_grid():
        assert ev.slicing_bound(q, r1, r2) == _family_max(ev, rows, q, r1, r2)


def _log_uniform(lo, hi):
    """Floats 10^x for x drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


_WEIGHT = st.one_of(st.just(0.0), _log_uniform(-4, 4))


@settings(max_examples=40, deadline=None)
@given(a=_log_uniform(math.log10(2.5), 8.0),
       sv1=st.one_of(st.just(0.0), _log_uniform(-3, 3)),
       sv2_gap=_log_uniform(-3, 12),
       weights=st.lists(st.tuples(_log_uniform(-4, 4), _WEIGHT, _WEIGHT),
                        min_size=3, max_size=3))
def test_pruned_slicing_bound_equals_the_full_family_max(a, sv1, sv2_gap,
                                                         weights):
    # every query reduces only the undominated rows: each answer is the
    # per-family max over all of D_hi, bit for bit
    ev = LowerBoundEvaluator(ProblemParams(a=a, sigmav1_sq=sv1,
                                           sigmav2_sq=sv1 + sv2_gap))
    rows = list(zip(ev.D_hi, ev.tail))
    for q, r1, r2 in weights:
        assert ev.slicing_bound(q, r1, r2).hex() \
            == _family_max(ev, rows, q, r1, r2).hex()


def test_undominated_keeps_nan_rows_and_drops_only_dominated_ones():
    nan = math.nan
    D = np.array([[[5.0, 5.0], [5.0, 5.0]],
                  # dominated by row 0, and a duplicate of it
                  [[1.0, 1.0], [1.0, 1.0]],
                  [[5.0, 5.0], [5.0, 5.0]],
                  # below row 1 off its NaN cell: kept
                  [[nan, 0.5], [0.5, 0.5]],
                  # above row 5 off its NaN cell: drops nothing
                  [[nan, 7.0], [7.0, 7.0]],
                  # above row 0 in one cell only: undominated
                  [[6.0, 2.0], [2.0, 2.0]],
                  # cells equal to row 0's but a larger tail
                  [[5.0, 5.0], [5.0, 5.0]],
                  # below row 6 on every cell, above it on the tail
                  [[4.0, 4.0], [4.0, 4.0]]])
    tail = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0, 30.0])
    assert bounds_lower._undominated(D, tail).tolist() == [3, 4, 5, 6, 7]
    assert bounds_lower._undominated(D[:3], tail[:3]).tolist() == [0]
    # one ULP above in one cell is enough not to be dominated
    ulp = np.array([[[5.0, 5.0], [5.0, 6.0]],
                    [[np.nextafter(5.0, 6.0), 5.0], [5.0, 5.0]]])
    assert bounds_lower._undominated(ulp, np.ones(2)).tolist() == [0, 1]
    assert bounds_lower._undominated(D[:0], tail[:0]).tolist() == []


def test_pruned_queries_keep_a_binding_nan_row(monkeypatch):
    # a copy of the binding row with a NaN in its minimising cell: fmin
    # skips that cell, so the copy binds, though the original is >= it on
    # every other cell; the pruning in the constructor must keep it
    p = strong_grid_params()[10]
    q, r1, r2 = 1.0, 1.0, 1.0
    plain = LowerBoundEvaluator(p)
    lo = plain.grid[:-1]
    vals = q * plain.D_hi + r1 * lo[:, None] + r2 * lo[None, :]
    top = int(np.argmax(vals.min(axis=(1, 2))))
    cell = np.unravel_index(np.argmin(vals[top]), vals[top].shape)
    dl1_cands, dl2_cands, _ = _slicing_candidates(p, plain.partition)
    n1, n2 = len(dl1_cands), len(dl1_cands) + len(dl2_cands)
    # the binding row is a dl2 row: copy it over the smallest other one
    assert n1 <= top < n2
    sums = plain.D_hi[n1:n2].sum(axis=(1, 2))
    sums[top - n1] = np.inf
    victim = n1 + int(np.argmin(sums))

    def nan_copy(*args, **kwargs):
        out = dl2(*args, **kwargs)
        out[victim - n1] = out[top - n1]
        out[victim - n1][cell] = np.nan
        return out

    monkeypatch.setattr(bounds_lower, "dl2", nan_copy)
    ev = LowerBoundEvaluator(p)
    assert np.isnan(ev.D_hi[victim][cell])
    rows = list(zip(ev.D_hi, ev.tail))
    expect = _family_max(ev, rows, q, r1, r2)
    assert expect > _family_max(ev, rows[:victim] + rows[victim + 1:], q, r1,
                                r2)
    assert ev.slicing_bound(q, r1, r2) == expect


def test_every_evaluator_prunes_once_at_construction(monkeypatch):
    calls = Counter()
    prune = bounds_lower._undominated

    def counting(D, tail):
        calls["prune"] += 1
        return prune(D, tail)

    monkeypatch.setattr(bounds_lower, "_undominated", counting)
    ev = LowerBoundEvaluator(ProblemParams(a=4.0, sigmav1_sq=0.5,
                                           sigmav2_sq=50.0))
    assert calls["prune"] == 1
    for weights in default_weight_grid()[:3]:
        ev.weighted(*weights)
    assert calls["prune"] == 1
    # one query, an evaluator outside the certified range, and one
    # evaluator per base of certify_grid
    lower_weighted_cost(ProblemParams(a=4.0, sigmav1_sq=0.5,
                                      sigmav2_sq=50.0))
    assert calls["prune"] == 2
    LowerBoundEvaluator(ProblemParams(a=2.0, sigmav2_sq=16.0))
    assert calls["prune"] == 3
    bases = [weak_grid_params()[4], strong_grid_params()[10]]
    certify_grid(bases)
    assert calls["prune"] == 3 + len(bases)


def test_longest_dl4_race_dominates_the_shorter_ones():
    # dl4(k) = a^{2(k-2)} (a - sqrt(c P1) - sqrt(c P2))_+^2 is
    # nondecreasing in k for |a| > 1, so the evaluator offers only k = 8:
    # in floats too, k = 8 is >= every shorter race on every grid cell
    assert _DL4_KS == (8,)
    grid = LowerBoundEvaluator(weak_grid_params()[0]).grid
    hi1, hi2 = grid[1:, None], grid[None, 1:]
    bases = weak_grid_params() + strong_grid_params() \
        + _random_bases(500, 77, a_decade=8.0, sv2_decade=12.0)
    for p in bases:
        rows = dl4(p, [2, 3, 4, 6, 8], hi1, hi2)
        assert np.all(rows[-1] >= rows[:-1]), p


def _full_recipe(p, part):
    """The recipe before its never-binding slices were cut: dl1 offered
    sv2p^2 = (100/70) sv2^2 beside sv2^2 and (1600/70) sv2^2, and dl2 took
    the same three Sigma slices as dl1."""
    a2sv1 = p.a * p.a * p.sigmav1_sq
    A = abs(p.a)
    k1_base = 1 if a2sv1 < 1 else \
        2 + int(math.floor(math.log(a2sv1) / (2 * math.log(A))))
    s = part.regime.s if part.regime.kind == "strong" else 1
    dl1_cands, dl2_cands, sv2p_options = [], [], []
    if p.sigmav2_sq > 0:
        base_P = p.sigmav2_sq / (70.0 * A ** (2 * (s - 1)))
        sv2p_options = [p.sigmav2_sq] + [
            100.0 * A ** (2 * (s - 1)) * base_P * f for f in (1.0, 16.0)]
    for k1 in sorted({max(1, k1_base + off) for off in (-1, 0, 1)}):
        cap = mmse_floor(p.a, p.sigmav1_sq, p.sigmav2_sq, k1)
        for Sigma in sorted({min(cap, 0.295 * part.m), cap * 0.5, cap}):
            for k2 in (k1 + s + 1, k1 + s + 2):
                for k in (k2, k2 + 2):
                    dl1_cands += [SliceParams(k1, k2, k, sv2p_sq, 1.0, Sigma)
                                  for sv2p_sq in sv2p_options]
            for k_off in (1, 2, 4):
                dl2_cands.append((k1, k1 + k_off, Sigma))
    return dl1_cands, dl2_cands


def _cut_rows(p, part):
    """The recipe's deleted candidates, each beside the kept candidate that
    dominates it: dl1's (100/70) sv2^2 option beside sv2p^2 = sv2^2, and
    dl2's Sigma < cap slices beside Sigma = cap."""
    full1, full2 = _full_recipe(p, part)
    kept1, kept2, _ = _slicing_candidates(p, part)
    assert set(kept1) <= set(full1) and set(kept2) <= set(full2)
    cut1 = [sp for sp in full1 if sp not in kept1]
    cut2 = [c for c in full2 if c not in kept2]
    assert len(cut1) == len(full1) - len(kept1) == len(full1) // 3
    part1 = [dataclasses.replace(sp, sigmav2p_sq=p.sigmav2_sq) for sp in cut1]
    part2 = [(k1, k, mmse_floor(p.a, p.sigmav1_sq, p.sigmav2_sq, k1))
             for k1, k, _ in cut2]
    assert set(part1) <= set(kept1) and set(part2) <= set(kept2)
    return (cut1, part1), (cut2, part2)


def test_cut_recipe_rows_are_dominated_by_their_kept_partners():
    # dl1's (100/70) sv2^2 option is below sv2p^2 = sv2^2, and dl2 is
    # nondecreasing in Sigma (see _slicing_candidates); in floats too,
    # every deleted row is <= its kept partner on every cell (both are
    # NaN where branch 2's 0 inf is), with the same tail of 1
    grid = LowerBoundEvaluator(weak_grid_params()[0]).grid
    hi1, hi2 = grid[1:, None], grid[None, 1:]
    bases = weak_grid_params() + strong_grid_params() \
        + _random_bases(500, 1313, a_decade=8.0, sv2_decade=20.0)
    for p in bases:
        part = RegionPartition(p)
        (cut1, part1), (cut2, part2) = _cut_rows(p, part)
        pairs = [(dl2(p, *zip(*cut2), hi1, hi2),
                  dl2(p, *zip(*part2), hi1, hi2))]
        if cut1:
            pairs.append((dl1(p, cut1, hi1, hi2), dl1(p, part1, hi1, hi2)))
        for cut, kept in pairs:
            assert np.all((cut <= kept)
                          | (np.isnan(cut) & np.isnan(kept))), p


def test_cut_recipe_answers_equal_the_full_recipe_max():
    # on the grid, every weighted answer is the max over the floor, the
    # region corollary and the per-family bounds of the full recipe's rows,
    # bit for bit
    for p in weak_grid_params() + strong_grid_params():
        ev = LowerBoundEvaluator(p)
        hi1, hi2 = ev.grid[1:, None], ev.grid[None, 1:]
        full1, full2 = _full_recipe(p, ev.partition)
        rows = [(D, 1.0) for D in dl1(p, full1, hi1, hi2)] \
            + [(D, 1.0) for D in dl2(p, *zip(*full2), hi1, hi2)] \
            + [(D, 0.0) for D in dl4(p, _DL4_KS, hi1, hi2)]
        for q, r1, r2 in default_weight_grid():
            expect = max(q, ev.partition.corollary(q, r1, r2)[0],
                         _family_max(ev, rows, q, r1, r2))
            assert ev.weighted(q, r1, r2).hex() == expect.hex(), (p, q)


def test_evaluator_rows_are_nonincreasing_along_both_power_axes():
    # the premise of slicing_bound's corner rule, on the rows it reduces:
    # dl1 and dl4 rows never rise from one grid point to the next; dl2
    # rows rise by a few ulps in floats at some random bases (its inner
    # minimum's rounding), never by more than 8
    bases = weak_grid_params() + strong_grid_params() \
        + _random_bases(500, 4242, a_decade=8.0, sv2_decade=20.0)
    for p in bases:
        ev = LowerBoundEvaluator(p)
        dl1_cands, dl2_cands, _ = _slicing_candidates(p, ev.partition)
        n1, n2 = len(dl1_cands), len(dl1_cands) + len(dl2_cands)
        for D in (ev.D_hi, ev.D_hi.transpose(0, 2, 1)):
            prev, nxt = D[:, :-1], D[:, 1:]
            rise = nxt > prev
            assert not rise[:n1].any() and not rise[n2:].any(), p
            up = rise[n1:n2]
            before, after = prev[n1:n2][up], nxt[n1:n2][up]
            assert np.all(after - before <= 8 * np.spacing(before)), p


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# Reference: the one-candidate formulas with their branches as Python
# conditionals, written out independently of the stacked kernels.

def _ref_relu(x):
    return np.maximum(np.nan_to_num(x, nan=0.0, posinf=np.inf,
                                    neginf=0.0), 0.0)


def _ref_dl1(p, sp, P1t, P2t):
    R, beta = 2.5, 0.4
    A, sv2_sq = abs(p.a), p.sigmav2_sq
    sv2, sv2p = math.sqrt(sv2_sq), math.sqrt(sp.sigmav2p_sq)
    k1, k2, k, alpha, Sig = sp.k1, sp.k2, sp.k, sp.alpha, sp.Sigma
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = k2 - k1 - 1
        if m > 0:
            I2 = m / 2.0 * np.log2(
                1.0 + (1.0 / (m * sv2_sq)) * (
                    2.0 * A ** (2 * (k2 - 2 - k1)) / (1 - A ** -2) * Sig
                    + 2.0 * A ** (2 * (k2 - 3 - k1)) / (1 - A ** -2)
                    * R * P1t / ((1 - R / A ** 2) * (1 - beta))))
        else:
            I2 = np.zeros_like(P1t)
        I1 = I2 + 0.5 * np.log2(
            1.0 + (1.0 / sp.sigmav2p_sq) * (
                2.0 * A ** (2 * (k2 - 1 - k1)) * Sig
                + 2.0 * A ** (2 * (k2 - 2 - k1)) * P1t
                / ((1 - R / A ** 2) * (1 - beta)))) \
            if sp.sigmav2p_sq > 0 else np.full_like(P1t, np.inf)
        if sv2p != sv2:
            I1 = I1 + 0.5 * math.log2(2 * math.pi * math.e / 4)
            c = (2 * sv2p / (math.sqrt(2 * math.pi) * sv2)
                 * math.exp(-sp.sigmav2p_sq / (2 * sv2_sq)))
        else:
            c = 1.0
        log2A = math.log2(A)
        rad1 = np.sqrt(c * Sig * np.exp2(2 * (k - k1) * log2A - 2 * I1))
        rad2 = np.sqrt(c * _geo(A, k - k1 - 1, k2 - k1) * P1t / (1 - beta))
        rad3 = np.sqrt(_geo(A, k - k2 - 1, k - k2) * R ** (k2 - k1) * P1t
                       / (1 - beta))
        rad4 = np.sqrt(_geo(A, k - k2 - 1, k - k2) * P2t / (1 - beta))
        branch1 = _ref_relu(rad1 - rad2 - rad3 - rad4) ** 2
        rb1 = np.sqrt(Sig * np.exp2(2 * (k - k1 - 1) * log2A - 2 * I2))
        rb2 = np.sqrt(_geo(A, k - k1 - 2, k - k1 - 1) * R * P1t / (1 - beta))
        branch2 = _ref_relu(rb1 - rb2 - rad4) ** 2
        return alpha * branch1 + (1 - alpha) * branch2 + 1.0


def _ref_dl2_inner(A, Sigma, sv1_sq, sv2_sq, C1, C2):
    best = np.full(np.broadcast(C1, C2).shape, np.inf)
    if Sigma == 0:
        return np.zeros_like(best)
    for e in (C1, -C1):
        best = np.fmin(best, _dl2_objective(
            A, Sigma, sv1_sq, sv2_sq, e,
            np.clip(Sigma * (A - e) / (Sigma + sv2_sq), -C2, C2)))
    for e in (C2, -C2):
        best = np.fmin(best, _dl2_objective(
            A, Sigma, sv1_sq, sv2_sq,
            np.clip(Sigma * (A - e) / (Sigma + sv1_sq), -C1, C1), e))
    den = sv1_sq * sv2_sq + Sigma * (sv1_sq + sv2_sq)
    if den > 0:
        inside = (A * Sigma * sv2_sq / den <= C1) \
            & (A * Sigma * sv1_sq / den <= C2)
        best = np.where(inside, np.fmin(best, A * A * Sigma * sv1_sq
                                        * sv2_sq / den), best)
    return best * (1.0 - 8.0 * np.finfo(float).eps)


def _ref_dl2(p, k1, k, Sigma, P1t, P2t):
    A, beta = abs(p.a), 0.4
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        C1 = np.sqrt(P1t / ((1 - beta) * (Sigma + p.sigmav1_sq))) \
            if Sigma + p.sigmav1_sq > 0 else np.full_like(P1t, np.inf)
        C2 = np.sqrt(P2t / ((1 - beta) * (Sigma + p.sigmav2_sq))) \
            if Sigma + p.sigmav2_sq > 0 else np.full_like(P2t, np.inf)
        inner = _ref_dl2_inner(A, Sigma, p.sigmav1_sq, p.sigmav2_sq, C1, C2)
        rad0 = np.sqrt(A ** (2 * (k - k1 - 1)) * inner)
        gterm = _geo(A, k - k1 - 2, k - k1 - 1) / ((1 - beta) * beta)
        return _ref_relu(rad0 - np.sqrt(gterm * P1t)
                         - np.sqrt(gterm * P2t)) ** 2 + 1.0


def _ref_dl4(p, k, P1t, P2t):
    A = abs(p.a)
    with np.errstate(over="ignore", invalid="ignore"):
        g = A ** (2 * (k - 2)) / (1 - 2.5 / A ** 2) / (1 - 0.4)
        return _ref_relu(A ** (k - 1) - np.sqrt(g * P1t)
                         - np.sqrt(g * P2t)) ** 2


def _one_candidate_rows(ev):
    """Reference for the stacked build: one scalar family call per
    candidate, rows in candidate order; also the same rows from the
    reference formulas."""
    p, n = ev.p, ev.grid.size - 1
    hi1, hi2 = ev.grid[1:, None], ev.grid[None, 1:]
    dl1_cands, dl2_cands, _ = _slicing_candidates(p, ev.partition)
    calls = [(dl1, _ref_dl1, (sp,), 1.0) for sp in dl1_cands] \
        + [(dl2, _ref_dl2, c, 1.0) for c in dl2_cands] \
        + [(dl4, _ref_dl4, (k,), 0.0) for k in _DL4_KS]
    rows, refs, tails = [], [], []
    for family, ref, args, tail in calls:
        rows.append(family(p, *args, hi1, hi2))
        refs.append(ref(p, *args, hi1, hi2))
        tails.append(tail)
    return (np.reshape(rows, (-1, n, n)), np.reshape(refs, (-1, n, n)),
            np.array(tails))


def _random_bases(count, seed, a_decade=3.0, sv2_decade=6.0):
    """Seeded bases with 2.5 <= a <= 10^a_decade, a third of them with
    sv1^2 = 0, and sv2^2 - sv1^2 up to 10^sv2_decade."""
    rng = np.random.default_rng(seed)
    bases = []
    for i in range(count):
        a = float(10 ** rng.uniform(math.log10(2.5), a_decade))
        sv1 = 0.0 if i % 3 == 0 else float(10 ** rng.uniform(-3, 3))
        sv2 = sv1 + float(10 ** rng.uniform(-3, sv2_decade))
        bases.append(ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2))
    return bases


def test_stacked_families_equal_one_candidate_rows():
    # every grid base and seeded random bases (a third with sv1^2 = 0)
    bases = weak_grid_params() + strong_grid_params() \
        + _random_bases(50, 2024)
    for p in bases:
        ev = LowerBoundEvaluator(p)
        rows, refs, tails = _one_candidate_rows(ev)
        assert ev.D_hi.shape == rows.shape
        assert np.array_equal(_bits(ev.D_hi), _bits(rows)), p
        assert np.array_equal(_bits(ev.D_hi), _bits(refs)), p
        assert np.array_equal(_bits(ev.tail), _bits(tails)), p


@pytest.mark.parametrize("a, sv1, sv2", [(4.0, 0.0, 50.0), (4.0, 0.5, 50.0),
                                         (1e8, 1.0, 1e4)])
def test_stacked_call_covers_every_branch_mask(a, sv1, sv2):
    # one stack mixing the branches each family takes per candidate: dl1
    # with m = 0 (k2 = k1 + 1) and m > 0, sv2p equal to sv2 or not, sv2p = 0,
    # alpha strictly inside [0, 1], and at a = 1e8 a branch that overflows
    # to inf, so that alpha = 0 gives NaN cells; dl2 with Sigma = 0 (and
    # Sigma + sv1^2 = 0 when sv1^2 = 0) beside Sigma > 0; dl4 at several
    # race lengths; the powers run from 0 to inf
    P1 = np.concatenate(([0.0], np.geomspace(1e-6, 1e12, 13), [np.inf]))
    P2 = np.concatenate(([0.0], np.geomspace(1e-6, 1e12, 11), [np.inf]))
    P1, P2 = P1[:, None], P2[None, :]
    p = ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2)
    cap2 = mmse_floor(a, sv1, sv2, 2)
    sps = [SliceParams(1, 2, 2, sv2, 1.0, 1.0),
           SliceParams(1, 2, 4, 3.0, 0.3, 0.5),
           SliceParams(1, 3, 4, sv2, 1.0, 1.0),
           SliceParams(2, 4, 6, 0.0, 0.5, cap2),
           SliceParams(1, 4, 4, 700.0, 0.0, 0.0),
           SliceParams(1, 2, 21, sv2, 0.0, 1.0)]
    dl2_args = ([1, 2, 2, 1], [2, 3, 5, 4], [1.0, 0.0, cap2, 0.5])
    stacked = [(dl1(p, sps, P1, P2),
                [dl1(p, sp, P1, P2) for sp in sps],
                [_ref_dl1(p, sp, P1, P2) for sp in sps]),
               (dl2(p, *dl2_args, P1, P2),
                [dl2(p, *c, P1, P2) for c in zip(*dl2_args)],
                [_ref_dl2(p, *c, P1, P2) for c in zip(*dl2_args)]),
               (dl4(p, [2, 3, 6], P1, P2),
                [dl4(p, k, P1, P2) for k in (2, 3, 6)],
                [_ref_dl4(p, k, P1, P2) for k in (2, 3, 6)])]
    for got, rows, ref in stacked:
        assert got.shape == (len(rows), 15, 13)
        assert np.array_equal(_bits(got), _bits(rows))
        assert np.array_equal(_bits(got), _bits(ref))
    # one-row stacks, and scalar powers give Python floats
    assert np.array_equal(_bits(dl1(p, sps[:1], P1, P2)),
                          _bits([dl1(p, sps[0], P1, P2)]))
    assert type(dl1(p, sps[0], 1.0, 2.0)) is float
    assert type(dl2(p, 1, 2, 1.0, 1.0, 2.0)) is float
    assert type(dl4(p, 2, 1.0, 2.0)) is float
    assert np.isnan(stacked[0][0]).any() == (a == 1e8)


def test_every_recipe_candidate_passes_its_family_checks():
    # the evaluator validates each candidate once, inside its family's
    # kernel, and drops none: the recipe must build every candidate inside
    # its family's domain (one stacked call per family at one power point
    # runs all of the checks), with dl1 candidates exactly when sv2^2 > 0
    bases = weak_grid_params() + strong_grid_params() \
        + _random_bases(2000, 31, a_decade=8.0, sv2_decade=20.0)
    for p in bases:
        dl1_cands, dl2_cands, _ = _slicing_candidates(p, RegionPartition(p))
        assert bool(dl1_cands) == (p.sigmav2_sq > 0), p
        if dl1_cands:
            dl1(p, dl1_cands, 1.0, 1.0)
        dl2(p, *zip(*dl2_cands), 1.0, 1.0)
        dl4(p, _DL4_KS, 1.0, 1.0)


def test_failing_candidate_raises_out_of_the_evaluator(monkeypatch):
    # a candidate outside its family's domain is a recipe bug: the kernel's
    # check raises through the constructor instead of being dropped
    p = strong_grid_params()[10]
    dl1_cands, _, _ = _slicing_candidates(p, RegionPartition(p))
    victim = dl1_cands[5]
    check = SliceParams.check

    def failing_check(self, q):
        if self == victim:
            raise ValueError("rejected")
        check(self, q)

    monkeypatch.setattr(SliceParams, "check", failing_check)
    with pytest.raises(ValueError, match="rejected"):
        LowerBoundEvaluator(p)


@pytest.mark.parametrize("p, expected", [
    (strong_grid_params()[10], {"dl1": 1, "dl2": 1, "dl4": 1}),
    # no dl1 candidates without a second observation noise
    (ProblemParams(a=4.0), {"dl2": 1, "dl4": 1}),
])
def test_evaluator_calls_each_family_once(monkeypatch, p, expected):
    calls = Counter()
    for name in ("dl1", "dl2", "dl4"):
        def counting(*args, _kernel=getattr(bounds_lower, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(bounds_lower, name, counting)
    ev = LowerBoundEvaluator(p)
    assert calls == expected
    assert ev.D_hi.shape[0] == len(ev.tail) > len(_DL4_KS)


def _assert_labelled(ev, weights, label):
    """weighted's labelled route reports label with the unlabelled value,
    bit for bit."""
    val, lab = ev.weighted(*weights, with_label=True)
    assert lab == label, (ev.p, weights)
    assert _bits(val) == _bits(ev.weighted(*weights)), (ev.p, weights)


def test_labelled_bound_is_the_unlabelled_one():
    # degenerate (q = 0) and the universal floor (|a| < 2.5)
    _assert_labelled(LowerBoundEvaluator(ProblemParams(
        a=4.0, sigmav2_sq=16.0)), (0.0, 1.0, 1.0), "degenerate")
    _assert_labelled(LowerBoundEvaluator(ProblemParams(
        a=2.0, sigmav2_sq=16.0)), (3.0, 1.0, 1.0), "floor")
    # the slicing families bind on every grid cell
    for p in weak_grid_params() + strong_grid_params():
        ev = LowerBoundEvaluator(p)
        for weights in default_weight_grid():
            _assert_labelled(ev, weights, "slicing")
    # region floors bind only off the grid (bases and weightings found by
    # a seeded random search)
    for (a, sv1, sv2), weights, label in [
            ((980.0, 0.87, 13376.0), (0.92, 0.54, 4.3e-4), "weak-iii"),
            ((980.0, 0.87, 13376.0), (0.17, 3800.0, 2.6e-4), "weak-ii"),
            ((2.71, 68.3, 60480.0), (1.5e-4, 252.0, 410.0), "strong-v")]:
        base = dict(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2)
        _assert_labelled(LowerBoundEvaluator(ProblemParams(**base)), weights,
                         label)
        p = ProblemParams(q=weights[0], r1=weights[1], r2=weights[2], **base)
        val, lab = lower_weighted_cost(p, with_label=True)
        assert lab == label
        assert _bits(val) == _bits(lower_weighted_cost(p))


#: weightings outside the domain, each with the message check_weights gives
_BAD_WEIGHTS = [((bad, 1.0, 1.0), "q") for bad in (-1.0, math.nan, math.inf)] \
    + [((1.0, bad, 0.0), "r1") for bad in (-5.0, math.nan, math.inf)] \
    + [((0.0, 1.0, bad), "r2") for bad in (-1.0, math.nan, math.inf)]


@pytest.mark.parametrize("query", ["weighted", "slicing_bound"])
def test_queries_reject_weights_outside_the_domain(query):
    # before the check, weighted(-1, 1, 1) returned -1.0, weighted(nan, 1,
    # 1) nan and weighted(1, -5, 0) 23.8 on this base; a zero q no longer
    # short-cuts past the check
    ev = LowerBoundEvaluator(ProblemParams(a=5.0, sigmav1_sq=1.0,
                                           sigmav2_sq=125.0))
    for weights, name in _BAD_WEIGHTS:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            getattr(ev, query)(*weights)
