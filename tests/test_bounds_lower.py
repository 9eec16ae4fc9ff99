import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from lqgduet.certifier import (default_weight_grid, strong_grid_params,
                               weak_grid_params)
from lqgduet.core import ProblemParams
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
    # a^{2(k-1)} leaves the float range at |a| = 1.5e4, k = 39
    with pytest.raises(ValueError, match="info_mmse is defined where"):
        info_mmse(1.5e4, 1.0, 2.0, 38, 39)
    assert info_mmse(1.5e4, 1.0, 2.0, 36, 37) > 0


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
        exact = A * A * Sigma * sv1 * sv2 / den
        assert got <= exact
        # a subnormal minimum carries too few bits for a relative match
        if exact >= np.finfo(float).tiny:
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("base", [weak_grid_params()[4],
                                  strong_grid_params()[10]])
def test_stacked_slicing_bound_equals_per_family_max(base):
    ev = LowerBoundEvaluator(base)
    assert ev.D_hi.shape[0] == ev.tail.shape[0] > 0
    for q, r1, r2 in default_weight_grid():
        best = q * ev.dl3_best
        for D_hi, tail in zip(ev.D_hi, ev.tail):
            best = max(best, _cell_min(q, r1, r2, D_hi, ev.grid, tail))
        assert ev.slicing_bound(q, r1, r2) == best


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
    candidate, invalid candidates skipped, rows in candidate order; also
    the same rows from the reference formulas."""
    p, n = ev.p, ev.grid.size - 1
    hi1, hi2 = ev.grid[1:, None], ev.grid[None, 1:]
    dl1_cands, dl2_cands = _slicing_candidates(p, ev.partition)
    calls = [(dl1, _ref_dl1, (sp,), 1.0) for sp in dl1_cands] \
        + [(dl2, _ref_dl2, c, 1.0) for c in dl2_cands] \
        + [(dl4, _ref_dl4, (k,), 0.0) for k in _DL4_KS]
    rows, refs, tails = [], [], []
    for family, ref, args, tail in calls:
        try:
            rows.append(family(p, *args, hi1, hi2))
        except ValueError:
            continue
        refs.append(ref(p, *args, hi1, hi2))
        tails.append(tail)
    return (np.reshape(rows, (-1, n, n)), np.reshape(refs, (-1, n, n)),
            np.array(tails))


def _random_bases(count, seed):
    rng = np.random.default_rng(seed)
    bases = []
    for i in range(count):
        a = float(10 ** rng.uniform(math.log10(2.5), 3))
        sv1 = 0.0 if i % 3 == 0 else float(10 ** rng.uniform(-3, 3))
        sv2 = sv1 + float(10 ** rng.uniform(-3, 6))
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


def test_dropped_candidate_is_counted_and_the_rest_kept(monkeypatch):
    p = strong_grid_params()[10]
    ev = LowerBoundEvaluator(p)
    assert ev.failures == Counter()
    dl1_cands, _ = _slicing_candidates(p, ev.partition)
    victim = dl1_cands[5]
    assert dl1_cands.count(victim) == 1
    check = SliceParams.check

    def failing_check(self, q):
        if self == victim:
            raise ValueError("rejected")
        check(self, q)

    monkeypatch.setattr(SliceParams, "check", failing_check)
    dropped = LowerBoundEvaluator(p)
    assert dropped.failures == Counter({("dl1", "ValueError"): 1})
    assert np.array_equal(_bits(dropped.D_hi),
                          _bits(np.delete(ev.D_hi, 5, axis=0)))
    assert np.array_equal(dropped.tail, np.delete(ev.tail, 5))
