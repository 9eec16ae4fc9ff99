import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lqgduet.core import (ProblemParams, RawParams, Regime, TradeoffPoint,
                          check_weights, classify, noise_floor, normalize)


def test_tradeoff_weighted():
    pt = TradeoffPoint(2.0, 3.0, 5.0)
    assert pt.weighted(1.0, 2.0, 0.5) == 2.0 + 6.0 + 2.5


def test_tradeoff_weighted_zero_weight_kills_infinite_component():
    pt = TradeoffPoint(math.inf, 1.0, math.inf)
    assert pt.weighted(0.0, 1.0, 0.0) == 1.0
    assert pt.weighted(1.0, 1.0, 0.0) == math.inf


def test_tradeoff_weighted_array_matches_scalar_bit_for_bit():
    # (q D + r1 P1) + r2 P2 in that order on both paths; a compensated
    # sum() would give 1e16 + 2 for the first point, plain addition 1e16
    points = [TradeoffPoint(1e16, 1.0, 1.0), TradeoffPoint(0.1, 0.2, 0.3),
              TradeoffPoint(math.inf, 3.0, 7.5),
              TradeoffPoint(3373.4144260676655, 4.0, 433717.04653666118),
              TradeoffPoint(1.0, 1e-300, 1e300)]
    rng = np.random.default_rng(5)
    points += [TradeoffPoint(*map(float, 10.0 ** rng.uniform(-3, 12, 3)))
               for _ in range(200)]
    arrays = TradeoffPoint(*(np.array(col) for col in zip(*points)))
    for q, r1, r2 in [(1.0, 1.0, 1.0), (0.01, 100.0, 1.0), (0.0, 1.0, 0.0),
                      (1.0, 0.0, 3.0), (0.37, 1.3, 0.011)]:
        costs = np.broadcast_to(arrays.weighted(q, r1, r2), len(points))
        assert [float(c).hex() for c in costs] \
            == [pt.weighted(q, r1, r2).hex() for pt in points]
    assert TradeoffPoint(1e16, 1.0, 1.0).weighted(1.0, 1.0, 1.0) == 1e16


def _plain_weighted(pt, q, r1, r2):
    """The weighted cost in Python float arithmetic, term by term."""
    return ((q * pt.D if q > 0 else 0.0)
            + (r1 * pt.P1 if r1 > 0 else 0.0)) \
        + (r2 * pt.P2 if r2 > 0 else 0.0)


def test_tradeoff_weighted_broadcasts_over_array_weights():
    # (W, 1) weights against (P,) fields and against (W, C) fields give,
    # cell by cell, the bits of the one-weighting scalar call, also where
    # a zero weight meets an inf field and where a weight near the float
    # limit overflows the cost to inf; scalars give a Python float
    rng = np.random.default_rng(11)
    big = 1.7e308
    weights = [(1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 3.0),
               (0.0, 0.0, 0.0), (big, 1.0, 0.0), (1.0, big, big),
               (big, big, big), (0.37, 1.3, 0.011)]
    weights += [tuple(map(float, 10.0 ** rng.uniform(-4, 4, 3)))
                for _ in range(12)]
    points = [TradeoffPoint(math.inf, 1.0, math.inf),
              TradeoffPoint(0.0, 0.0, 0.0), TradeoffPoint(1e16, 1.0, 1.0),
              TradeoffPoint(1.0, 1e-300, 1e300),
              TradeoffPoint(math.inf, math.inf, math.inf)]
    points += [TradeoffPoint(*map(float, 10.0 ** rng.uniform(-3, 12, 3)))
               for _ in range(20)]
    W, C = len(weights), 7
    q, r1, r2 = np.array(weights).T[:, :, None]
    for q_, r1_, r2_ in weights:
        for pt in points:
            one = pt.weighted(q_, r1_, r2_)
            assert type(one) is float
            assert one.hex() == _plain_weighted(pt, q_, r1_, r2_).hex()
    # (W, 1) x (P,)
    arrays = TradeoffPoint(*(np.array(col) for col in zip(*points)))
    costs = arrays.weighted(q, r1, r2)
    assert costs.shape == (W, len(points))
    assert [[c.hex() for c in row] for row in costs.tolist()] == [
        [pt.weighted(*w).hex() for pt in points] for w in weights]
    # (W, 1) x (W, C): each weighting's row its own candidates
    cells = [[points[j] for j in rng.integers(len(points), size=C)]
             for _ in weights]
    table = TradeoffPoint(*np.array(cells).transpose(2, 0, 1))
    costs = table.weighted(q, r1, r2)
    assert costs.shape == (W, C)
    assert [[c.hex() for c in row] for row in costs.tolist()] == [
        [pt.weighted(*w).hex() for pt in row]
        for w, row in zip(weights, cells)]
    assert math.inf in costs and 0.0 in costs


def test_normalize_identity_on_canonical():
    raw = RawParams(a=3.0, q=1.0, r1=2.0, r2=3.0, sigmav1_sq=1.0,
                    sigmav2_sq=4.0)
    p = normalize(raw)
    assert p == ProblemParams(a=3.0, q=1.0, r1=2.0, r2=3.0,
                              sigmav1_sq=1.0, sigmav2_sq=4.0)


def test_normalize_scales_and_swaps():
    # input gains b_i scale the power weights; observation gains c_i scale
    # the noise; sigma_w scales everything; labels swap to keep sv1 <= sv2
    raw = RawParams(a=3.0, b1=2.0, b2=0.5, c1=1.0, c2=2.0, q=3.0, r1=8.0,
                    r2=1.0, sigma0_sq=8.0, sigmaw_sq=4.0, sigmav1_sq=64.0,
                    sigmav2_sq=16.0)
    p = normalize(raw)
    # pre-swap: r1' = 8*4/4 = 8, r2' = 1*4/0.25 = 16,
    # sv1' = 64/(1*4) = 16, sv2' = 16/(4*4) = 1 -> swap
    assert p.a == 3.0
    assert p.q == 12.0
    assert p.sigma0_sq == 2.0
    assert (p.sigmav1_sq, p.sigmav2_sq) == (1.0, 16.0)
    assert (p.r1, p.r2) == (16.0, 8.0)


@pytest.mark.parametrize("cls, valid", [
    (ProblemParams, dict(a=4.0, sigmav2_sq=16.0)),
    (RawParams, dict(a=4.0, sigmav2_sq=16.0)),
])
def test_non_finite_fields_rejected(cls, valid):
    # NaN passes every ordering check; a NaN weight would be dropped from
    # the weighted cost as if it were zero
    for f in fields(cls):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{f.name} must be finite"):
                cls(**{**valid, f.name: bad})


def test_weights_share_one_domain_check():
    check_weights(0.0, 1.0, 1e300)
    for i, name in enumerate(("q", "r1", "r2")):
        for bad, what in ((-1.0, ">= 0"), (math.nan, "finite"),
                          (math.inf, "finite")):
            weights = [1.0, 1.0, 1.0]
            weights[i] = bad
            with pytest.raises(ValueError, match=f"{name} must be {what}"):
                check_weights(*weights)
            if bad < 0:
                # the parameter types give the same message
                for cls in (ProblemParams, RawParams):
                    with pytest.raises(ValueError,
                                       match=f"{name} must be >= 0"):
                        cls(a=4.0, **{name: bad})


def test_labeling_convention_enforced():
    with pytest.raises(ValueError):
        ProblemParams(a=2.0, sigmav1_sq=2.0, sigmav2_sq=1.0)


def test_noise_floor():
    assert noise_floor(ProblemParams(a=2.0, sigmav1_sq=0.0,
                                     sigmav2_sq=0.0)) == 1.0
    assert noise_floor(ProblemParams(a=2.0, sigmav1_sq=3.0,
                                     sigmav2_sq=3.0)) == 12.0


@pytest.mark.parametrize("a, sv1", [(1e160, 0.0), (1e6, 1e300)])
def test_noise_floor_rejects_a_scale_that_is_no_float(a, sv1):
    # before, OverflowError from a^2 at a = 1e160, and at a = 1e6 an
    # infinite m that the converse's k1 recipe turned into int(inf)
    p = ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=max(sv1, 1.0))
    for f in (noise_floor, classify):
        with pytest.raises(ValueError, match="must be finite floats"):
            f(p)


@pytest.mark.parametrize("a, sv2, s", [(1e100, 1e300, 2),
                                       (2.5, 1.7e308, 388)])
def test_classify_reads_a_bracket_power_that_overflows_as_inf(a, sv2, s):
    # before, the bracket guard raised OverflowError on a^{2s}
    p = ProblemParams(a=a, sigmav1_sq=0.0, sigmav2_sq=sv2)
    assert classify(p) == Regime("strong", s=s)
    assert a ** (2 * (s - 1)) < sv2


def test_classify_weak_and_boundary():
    p = ProblemParams(a=2.0, sigmav1_sq=1.0, sigmav2_sq=4.0)
    r = classify(p)
    assert r.kind == "weak" and r.s is None
    # boundary sv2^2 == max(1, a^2 sv1^2) is weak
    assert classify(ProblemParams(a=2.0, sigmav1_sq=0.0,
                                  sigmav2_sq=1.0)).kind == "weak"


def test_classify_strong_stages():
    # m = 1; stage s means a^{2(s-1)} < sv2^2 <= a^{2s}
    for sv2, s in [(1.5, 1), (4.0, 1), (4.0001, 2), (16.0, 2), (63.9, 3)]:
        r = classify(ProblemParams(a=2.0, sigmav1_sq=0.0, sigmav2_sq=sv2))
        assert (r.kind, r.s) == ("strong", s), sv2


def test_classify_requires_expanding_system():
    with pytest.raises(ValueError):
        classify(ProblemParams(a=1.0, sigmav1_sq=0.0, sigmav2_sq=2.0))


@given(st.floats(1.01, 50), st.floats(0, 100), st.floats(0, 1e6))
def test_classify_bracket_property(a, sv1, extra):
    sv2 = sv1 + extra
    p = ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2)
    r = classify(p)
    m = noise_floor(p)
    if r.kind == "weak":
        assert sv2 <= m
    else:
        assert a ** (2 * (r.s - 1)) * m < sv2 <= a ** (2 * r.s) * m


def test_problem_params_have_no_instance_dict():
    # slots keep the params a retained report holds small; replace, ==,
    # hash and repr work as for the plain dataclass, and replace still
    # validates
    p = ProblemParams(a=3.0, q=2.0, r1=0.5, sigmav1_sq=0.25, sigmav2_sq=4.0)
    assert not hasattr(p, "__dict__")
    assert repr(p) == ("ProblemParams(a=3.0, q=2.0, r1=0.5, r2=0.0, "
                       "sigma0_sq=0.0, sigmav1_sq=0.25, sigmav2_sq=4.0)")
    assert replace(p, q=1.0) == ProblemParams(a=3.0, r1=0.5,
                                              sigmav1_sq=0.25,
                                              sigmav2_sq=4.0)
    assert replace(p, q=1.0) != p
    with pytest.raises(ValueError, match="q must be >= 0"):
        replace(p, q=-1.0)
    assert hash(p) == hash(tuple(getattr(p, f.name) for f in fields(p)))
    assert hash(replace(p)) == hash(p) and replace(p) == p
    with pytest.raises(FrozenInstanceError):
        p.q = 1.0
