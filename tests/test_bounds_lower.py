import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from lqgduet.certifier import (default_weight_grid, strong_grid_params,
                               weak_grid_params)
from lqgduet.core import ProblemParams
from lqgduet.bounds_lower import (LowerBoundEvaluator, RegionPartition,
                                  SliceParams, _dl2_inner, dl1, dl2, dl3,
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
