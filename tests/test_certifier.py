import dataclasses
import math

import numpy as np
import pytest

from lqgduet.bounds_lower import LowerBoundEvaluator, RegionPartition
from lqgduet.bounds_upper import UpperBoundEvaluator
from lqgduet.core import ProblemParams, Regime
from lqgduet.certifier import (CAP_STRONG, CAP_WEAK, CertReport,
                               certify_grid, certify_point,
                               default_weight_grid, prop1_divergence,
                               strong_grid_params, weak_grid_params)
from test_bounds_lower import _BAD_WEIGHTS
from test_bounds_upper import _random_strong_bases, appendix_region_checks, \
    appendix_regions


def test_region_label_partition_covers_quadrant():
    for p in [ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=1.0),
              ProblemParams(a=4.0, sigmav1_sq=1.0, sigmav2_sq=300.0)]:
        part = RegionPartition(p)
        labels = set()
        for P1 in np.geomspace(1e-8, 1e8, 33):
            for P2 in np.geomspace(1e-8, 1e8, 33):
                lab = part.label(float(P1), float(P2))
                assert lab.split("-")[0] in ("weak", "strong")
                labels.add(lab)
        assert len(labels) >= 3


def test_region_grid_points_lie_in_their_region():
    for p in weak_grid_params() + strong_grid_params():
        part, regions = appendix_regions(p)
        for label, _, points in regions:
            for P1, P2 in points:
                assert part.label(P1, P2) == label, (p, label, P1, P2)


def test_region_constants_within_caps():
    for sv2, cap in ((1.0, CAP_WEAK), (100.0, CAP_STRONG)):
        _, regions = appendix_regions(ProblemParams(a=4.0, sigmav1_sq=0.0,
                                                    sigmav2_sq=sv2))
        assert max(c for _, c, _ in regions) <= cap


@pytest.mark.parametrize("p", [
    ProblemParams(a=2.5, sigmav1_sq=0.0, sigmav2_sq=1.0),
    ProblemParams(a=25.0, sigmav1_sq=1.0, sigmav2_sq=625.0),
    ProblemParams(a=100.0, sigmav1_sq=0.0, sigmav2_sq=100.0 ** 3),
    ProblemParams(a=2.5, sigmav1_sq=10.0, sigmav2_sq=2.5 ** 4 * 62.5),
])
def test_region_checks_pass_with_region_constants(p):
    checks = appendix_region_checks(p)
    assert checks and all(checks.values()), checks


def test_certify_point_weak():
    p = ProblemParams(a=2.5, q=1.0, r1=1.0, r2=1.0, sigmav1_sq=0.0,
                      sigmav2_sq=1.0)
    rep = certify_point(p)
    assert rep.passed
    assert rep.cap == CAP_WEAK
    assert rep.ratio >= 1.0
    assert rep.upper >= rep.lower > 0


def test_certify_point_strong():
    p = ProblemParams(a=5.0, q=1.0, r1=0.1, r2=0.1, sigmav1_sq=0.0,
                      sigmav2_sq=20.0)
    rep = certify_point(p)
    assert rep.passed and rep.cap == CAP_STRONG
    assert rep.regime.kind == "strong"


@pytest.mark.parametrize("a", [1.5e4, 1e6])
@pytest.mark.parametrize("s", [1, 2])
def test_certify_point_at_large_gain(a, s):
    # the k1 scan of the dl3 floor used to overflow a^{2(k-1)} here
    p = ProblemParams(a=a, sigmav1_sq=1.0, sigmav2_sq=a ** (2 * s + 1))
    rep = certify_point(p)
    assert rep.regime == Regime("strong", s)
    assert 1.0 <= rep.lower <= rep.upper and rep.passed
    # the scan ends at the floor's limit a^2 sv1^2 (1 - a^-2) / (1 + r)
    r = p.sigmav1_sq / p.sigmav2_sq
    assert LowerBoundEvaluator(p).dl3_best == pytest.approx(
        a * a * (1 - a ** -2) / (1 + r), rel=1e-12)


def test_certify_point_degenerate():
    p = ProblemParams(a=2.5, q=0.0, r1=0.0, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=1.0)
    rep = certify_point(p)
    assert rep.case_label == "Degenerate"
    assert rep.passed


def test_certify_point_rejects_small_gain():
    with pytest.raises(ValueError, match=r"requires \|a\| >= 2\.5"):
        certify_point(ProblemParams(a=2.0, sigmav1_sq=0.0, sigmav2_sq=1.0))


def test_certify_grid_small_sample():
    reports = certify_grid(weak_grid_params()[:2],
                           weights=[(1.0, 1.0, 1.0), (0.01, 1.0, 100.0)])
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_weight_grid_size():
    assert len(default_weight_grid()) == 27


def test_grid_param_builders():
    weak = weak_grid_params()
    assert len(weak) == 18
    from lqgduet.core import classify
    assert all(classify(p).kind == "weak" for p in weak)
    strong = strong_grid_params()
    assert len(strong) == 36
    assert sorted({classify(p).s for p in strong}) == [1, 2, 3]


def test_prop1_oracle_at_two_ten_thousand():
    rows = prop1_divergence([2.0e4])
    assert rows[0]["linear_lb"] == pytest.approx(1.21212121212e11, rel=1e-9)
    assert rows[0]["nonlinear_ub"] == pytest.approx(
        3297.0 * 4e8 * math.log(2e4), rel=1e-12)
    assert rows[0]["ratio"] < 1.0


def test_prop1_extended_precision_agreement():
    from mpmath import mp, mpf, log
    mp.dps = 40
    a = mpf(10) ** 6
    rows = prop1_divergence([1e6])
    assert rows[0]["linear_lb"] == pytest.approx(float(a ** 3 / 66),
                                                 rel=1e-12)
    assert rows[0]["nonlinear_ub"] == pytest.approx(
        float(3297 * a * a * log(a)), rel=1e-12)


def test_prop1_strictly_increasing():
    rows = prop1_divergence([10.0 ** k for k in range(4, 9)])
    ratios = [r["ratio"] for r in rows]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))


def test_prop1_ratio_of_ratios_closed_form():
    rows = prop1_divergence([1e8, 1e9])
    got = rows[1]["ratio"] / rows[0]["ratio"]
    expect = 10.0 * (math.log(1e8) / math.log(1e9))
    assert got == pytest.approx(expect, rel=0.05)


def test_prop1_rejects_small_a():
    with pytest.raises(ValueError):
        prop1_divergence([100.0])


@pytest.mark.parametrize("a_values", [[], iter([])])
def test_prop1_rejects_an_empty_gain_list(a_values):
    with pytest.raises(ValueError, match="at least one gain"):
        prop1_divergence(a_values)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_prop1_rejects_non_finite_a(a):
    # NaN passed the a >= 1e4 check and printed a nan row; inf a NaN ratio
    with pytest.raises(ValueError, match="finite"):
        prop1_divergence([1e4, a])


@pytest.mark.parametrize("cap", [math.nan, 0.0, -5.0])
def test_certify_point_rejects_caps_outside_the_domain(cap):
    p = weak_grid_params()[0]
    with pytest.raises(ValueError, match="cap must be > 0"):
        certify_point(p, cap)
    # an infinite cap passes every finite ratio
    rep = certify_point(p, math.inf)
    assert rep.passed and rep.cap == math.inf


@pytest.fixture
def no_evaluator(monkeypatch):
    """certify_grid fails the test if it builds an evaluator."""
    from lqgduet import certifier

    def must_not_build(*args, **kwargs):
        raise AssertionError("built an evaluator before checking the input")

    monkeypatch.setattr(certifier, "LowerBoundEvaluator", must_not_build)
    monkeypatch.setattr(certifier, "UpperBoundEvaluator", must_not_build)


@pytest.mark.parametrize("cap", [math.nan, 0.0, -5.0])
def test_certify_grid_rejects_a_cap_before_building_an_evaluator(
        no_evaluator, cap):
    # before, the first base's two evaluators were built, then
    # certify_point rejected the cap
    with pytest.raises(ValueError, match="cap must be > 0"):
        certify_grid(weak_grid_params()[:1], cap=cap)


def test_certify_grid_rejects_a_weighting_before_building_an_evaluator(
        no_evaluator):
    # before, both evaluators were built and the first weighting certified
    # before the second raised
    for weights, name in _BAD_WEIGHTS:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            certify_grid([strong_grid_params()[4]],
                         weights=[(1.0, 1.0, 1.0), weights])


def test_certify_grid_rejects_a_base_before_building_an_evaluator(
        no_evaluator):
    # before, the good first base's evaluators were built and its
    # weightings answered before the second base raised
    with pytest.raises(ValueError, match=r"requires \|a\| >= 2.5"):
        certify_grid([strong_grid_params()[4],
                      ProblemParams(a=2.0, sigmav2_sq=1.0)])


def test_certify_grid_makes_one_refinement_batch_per_base(monkeypatch):
    # each strong base: its grid's du1_outcomes batch, then one batch for
    # the refinements of all 27 weightings; a weak base has no signaling
    # design and makes none
    from lqgduet import bounds_upper
    calls = []
    real = bounds_upper.du1_outcomes

    def counting(p, designs):
        calls.append(p)
        return real(p, designs)

    monkeypatch.setattr(bounds_upper, "du1_outcomes", counting)
    strong = strong_grid_params()
    certify_grid(weak_grid_params() + strong)
    assert calls == [p for p in strong for _ in range(2)]


#: weightings at the edges of the domain: zero weights, q = 0, all zeros,
#: and weights near the float maximum, whose costs overflow to +inf
EDGE_WEIGHTS = [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                (0.0, 1e-2, 1e-2), (0.0, 0.0, 0.0), (1e308, 1e308, 1e308),
                (1.7e308, 0.0, 1.0), (1.0, 1.7e308, 0.0),
                (0.0, 1e308, 1e308), (1e-300, 1.0, 1e300)]


#: weightings at which signaling designs win on the a = 100 grid bases,
#: each weighting's from its own refinement walk (sweep's family: q = 1,
#: r1 = a^l, little or no r2)
SIG_WEIGHTS = [(1.0, 100.0 ** l, r2) for l in (0.25, 0.5, 0.75, 1.0, 1.25)
               for r2 in (0.0, 1e-8, 1e-6)]


def _bits(x):
    """x with every float as its type name and float.hex, through
    dataclasses, tuples, lists and dicts (in order); a NumPy scalar shows
    as its own type."""
    if isinstance(x, float):
        return type(x).__name__, x.hex()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, _bits(getattr(x, f.name)))
                                  for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return type(x).__name__, [_bits(v) for v in x]
    if isinstance(x, dict):
        return [(_bits(k), _bits(v)) for k, v in x.items()]
    return type(x).__name__, x


def _with_weights(base, q, r1, r2):
    return ProblemParams(a=base.a, q=q, r1=r1, r2=r2,
                         sigma0_sq=base.sigma0_sq,
                         sigmav1_sq=base.sigmav1_sq,
                         sigmav2_sq=base.sigmav2_sq)


def test_batch_answers_equal_one_weighting_at_a_time(monkeypatch):
    # every grid base and seeded random strong bases, at the 27 grid
    # weightings, the edge weightings and weightings where signaling wins:
    # each base's batch gives every CertReport and UpperResult field, and
    # every lower bound, that the one-weighting calls give, to the last
    # bit and with the same types, and leaves the same memo
    from lqgduet import bounds_upper, certifier
    weights = default_weight_grid() + EDGE_WEIGHTS + SIG_WEIGHTS
    bases = weak_grid_params() + strong_grid_params() \
        + _random_strong_bases(12, 5)
    sig_designs = []
    for base in bases:
        lower, upper = LowerBoundEvaluator(base), UpperBoundEvaluator(base)
        # certify_point at each weighting, with the base's two evaluators
        # built once, as certify_grid builds them
        with monkeypatch.context() as m:
            m.setattr(certifier, "LowerBoundEvaluator", lambda p: lower)
            m.setattr(bounds_upper, "UpperBoundEvaluator", lambda p: upper)
            singles = [certify_point(_with_weights(base, *w))
                       for w in weights]
        assert _bits(certify_grid([base], weights)) == _bits(singles), base
        batch = UpperBoundEvaluator(base)
        results = batch.best_many(weights)
        assert _bits(results) \
            == _bits([upper.best(*w) for w in weights]), base
        assert _bits(batch._memo) == _bits(upper._memo), base
        sig_designs.append({r.design for r in results} - {None})
        assert _bits(lower.weighted_many(weights, with_label=True)) == _bits(
            [lower.weighted(*w, with_label=True) for w in weights]), base
        assert _bits(lower.slicing_bound_many(weights)) \
            == _bits([lower.slicing_bound(*w) for w in weights]), base
    # the cases the extra weightings are there for: one batch's
    # weightings won by signaling designs of different walks, overflowing
    # costs and degenerate weightings
    assert max(map(len, sig_designs)) > 1
    reports = certify_grid(bases[:1] + bases[-1:], EDGE_WEIGHTS)
    assert any(r.upper == math.inf for r in reports)
    assert any(r.case_label == "Degenerate" for r in reports)


def test_batch_queries_take_no_weighting():
    base = strong_grid_params()[4]
    assert certify_grid([base], []) == []
    assert UpperBoundEvaluator(base).best_many([]) == []
    assert LowerBoundEvaluator(base).weighted_many([]) == []


def test_reports_have_no_instance_dict():
    # slots keep a retained report small; replace, ==, hash and repr work
    # as for the plain dataclass
    p = ProblemParams(a=2.5, q=1.0, r1=0.5, sigmav1_sq=0.0, sigmav2_sq=1.0)
    rep = CertReport(p, Regime("weak"), 3.0, 1.5, 2.0, "weak-ii", 1200.0,
                     True)
    assert not hasattr(rep, "__dict__")
    assert repr(rep) == (
        "CertReport(params=ProblemParams(a=2.5, q=1.0, r1=0.5, r2=0.0, "
        "sigma0_sq=0.0, sigmav1_sq=0.0, sigmav2_sq=1.0), "
        "regime=Regime(kind='weak', s=None), upper=3.0, lower=1.5, "
        "ratio=2.0, case_label='weak-ii', cap=1200.0, passed=True, "
        "degenerate=False)")
    failed = dataclasses.replace(rep, passed=False)
    assert failed != rep and not failed.passed and failed.params is p
    assert dataclasses.replace(failed, passed=True) == rep
    assert hash(rep) == hash(tuple(getattr(rep, f.name)
                                   for f in dataclasses.fields(rep)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.passed = False
