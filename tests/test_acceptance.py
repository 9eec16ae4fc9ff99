"""End-to-end acceptance criteria.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
failure report) and asserts the criterion at its stated tolerance.
"""
import math
import time

import numpy as np
import pytest

from lqgduet.core import ProblemParams, classify, noise_floor
from lqgduet.bounds_lower import LowerBoundEvaluator, RegionPartition, \
    lower_weighted_cost
from lqgduet.bounds_upper import SigDesign, du1, sweep_labels
from lqgduet.certifier import (CAP_STRONG, CAP_WEAK, certify_grid,
                               prop1_divergence, strong_grid_params,
                               weak_grid_params)
from lqgduet.detmodel import DetParams, det_witsen, run_det, steady_level
from lqgduet.lattice import (comb_miss_terms, comb_outage_terms,
                             gaussian_comb, q_tail, q_tail_upper, quantize)
from lqgduet.simulator import SimConfig, run
from lqgduet.strategies import StrategySpec
from test_bounds_upper import appendix_region_checks
from test_lattice import one_row_sum


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {n}] {status} {detail}", flush=True)
    assert ok, detail


def test_acceptance_1_deterministic_model_exactness():
    t0 = time.time()
    p = DetParams(a_prime=2, sigma_v2_level=1, p1_level=1)
    opt = steady_level(run_det(p, "Optimal", 12))
    lin = steady_level(run_det(p, "LinearShift", 12))
    wit = det_witsen()
    dt = time.time() - t0
    ok = opt == 2 and lin == 3 and wit == -math.inf and dt < 1.0
    _report(1, ok, f"optimal={opt} linearshift={lin} two-stage={wit} "
                   f"({dt:.2f}s)")


def test_acceptance_2_linear_closed_form():
    t0 = time.time()
    p = ProblemParams(a=2.5, sigmav1_sq=1.0, sigmav2_sq=1.0)
    res = run(p, StrategySpec("linbb", controller=1), SimConfig())
    dt = time.time() - t0
    err_d = abs(res.avg_state_cost - 7.25) / 7.25
    err_p = abs(res.avg_u1_power - 51.5625) / 51.5625
    ok = err_d < 0.01 and err_p < 0.01 and dt < 30.0
    _report(2, ok, f"D={res.avg_state_cost:.4f} (err {err_d:.2%}) "
                   f"P1={res.avg_u1_power:.4f} (err {err_p:.2%}) "
                   f"({dt:.1f}s)")


def _strong_instances():
    out = []
    for a in (3.0, 4.0, 6.0, 10.0, 30.0):
        for s in (1, 2):
            for sv1 in (0.0, 0.5):
                m = max(1.0, a * a * sv1)
                sv2 = a ** (2 * s - 1) * m
                out.append((ProblemParams(a=a, sigmav1_sq=sv1,
                                          sigmav2_sq=sv2), s))
    return out


def test_acceptance_3_achievability_dominance():
    t0 = time.time()
    instances = _strong_instances()
    assert len(instances) >= 20
    cfg = SimConfig(horizon=40_000, burn_in=1_000, trials=16, seed=11)
    failures = []
    for p, s in instances:
        assert classify(p).s == s
        d = 2.0 * math.sqrt(p.sigmav2_sq) / abs(p.a) ** s
        design = SigDesign(s, d, abs(p.a) ** s * d / 6.0)
        design.check(p.a)
        bound = du1(p, design)
        sim = run(p, StrategySpec("sig", s=s, d=d), cfg)
        checks = [
            sim.avg_state_cost <= bound.D + 3 * sim.se_state,
            sim.avg_u1_power <= bound.P1 + 3 * sim.se_u1,
            sim.avg_u2_power <= bound.P2 + 3 * sim.se_u2,
        ]
        if not all(checks):
            failures.append((p.a, s, p.sigmav1_sq, checks))
    dt = time.time() - t0
    ok = not failures and dt < 600.0
    _report(3, ok, f"{len(instances)} instances, failures={failures} "
                   f"({dt:.1f}s)")


def test_acceptance_4_converse_soundness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    cfg = SimConfig(horizon=20_000, burn_in=1_000, trials=8, seed=5)
    n_checked = 0
    failures = []
    for _ in range(50):
        a = float(rng.uniform(2.5, 40.0))
        sv1 = float(rng.uniform(0.0, 2.0))
        sv2 = sv1 + float(rng.uniform(0.01, 200.0))
        q = float(10.0 ** rng.uniform(-2, 2))
        r1 = float(10.0 ** rng.uniform(-3, 1))
        r2 = float(10.0 ** rng.uniform(-3, 1))
        p = ProblemParams(a=a, q=q, r1=r1, r2=r2, sigmav1_sq=sv1,
                          sigmav2_sq=sv2)
        lower = lower_weighted_cost(p)
        specs = [StrategySpec("linbb", controller=1),
                 StrategySpec("linbb", controller=2)]
        regime = classify(p)
        if regime.kind == "strong":
            d = 2.0 * math.sqrt(sv2) / a ** regime.s
            specs.append(StrategySpec("sig", s=regime.s, d=d))
        for spec in specs:
            res = run(p, spec, cfg)
            if res.unstable:
                continue
            sigma = q * res.se_state + r1 * res.se_u1 + r2 * res.se_u2
            n_checked += 1
            if lower > res.weighted_cost + 3 * sigma:
                failures.append((a, sv1, sv2, q, r1, r2, spec.label,
                                 lower, res.weighted_cost))
    dt = time.time() - t0
    ok = not failures and n_checked >= 100 and dt < 900.0
    _report(4, ok, f"{n_checked} strategy runs on 50 instances, "
                   f"failures={failures} ({dt:.1f}s)")


def test_acceptance_5_grid_certification():
    t0 = time.time()
    weak = certify_grid(weak_grid_params())
    strong = certify_grid(strong_grid_params())
    weak_ok = all(r.passed and r.cap == CAP_WEAK for r in weak)
    strong_ok = all(r.passed and r.cap == CAP_STRONG for r in strong)
    # no grid base has a strong-iv bracket (t1 < t1hi); this one does, so
    # the strong-iv constant is checked too
    iv_base = ProblemParams(a=1e4, sigmav1_sq=0.0, sigmav2_sq=1e4)
    assert RegionPartition(iv_base).iv_p1.size > 0
    region_ok = True
    for p in weak_grid_params() + strong_grid_params() + [iv_base]:
        checks = appendix_region_checks(p)
        if not all(checks.values()):
            region_ok = False
    dt = time.time() - t0
    ok = weak_ok and strong_ok and region_ok and dt < 1800.0
    max_w = max(r.ratio for r in weak)
    max_s = max(r.ratio for r in strong)
    _report(5, ok, f"weak {len(weak)} pts (max ratio {max_w:.1f} <= "
                   f"{CAP_WEAK:g}), strong {len(strong)} pts (max ratio "
                   f"{max_s:.1f} <= {CAP_STRONG:g}), region checks "
                   f"{'ok' if region_ok else 'FAILED'} ({dt:.1f}s)")


def test_acceptance_6_divergence_table():
    t0 = time.time()
    rows = prop1_divergence([1e4, 1e5, 1e6, 1e7, 1e8])
    ratios = [r["ratio"] for r in rows]
    increasing = all(x < y for x, y in zip(ratios, ratios[1:]))
    dt = time.time() - t0
    ok = increasing and dt < 1.0
    _report(6, ok, f"ratios={['%.3g' % r for r in ratios]} ({dt:.2f}s)")


def test_acceptance_7_lattice_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(99)

    # quantizer identities, exact
    ident_ok = True
    for step in (0.25, 1.0, 3.5):
        y = rng.uniform(-100, 100, 2000)
        r = y - quantize(step, y)
        ident_ok &= bool(np.all(quantize(step, y) + r == y))
        ident_ok &= bool(np.all((-step / 2 <= r) & (r < step / 2)))

    # comb-sum membership: X1 <= (d, w1, 0) on the comb plus Gaussian X2 <=
    # (inf, w2, o2) lies on (d, w1 + w2, 0 + o2), the sum rule
    d, w1, w2 = 8.0, 1.0, 0.5
    sigma2 = w2 / 4.0  # so the overflow probability is 2 Q(2)
    o2 = gaussian_comb(w2, sigma2)
    w, o = w1 + w2, min(1.0, 0.0 + o2)
    x1 = rng.integers(-4, 5, 500_000) * d + rng.uniform(-w1 / 2, w1 / 2,
                                                        500_000)
    x2 = rng.normal(0, sigma2, 500_000)
    y = x1 + x2
    dist = np.abs(y - quantize(d, y))
    emp_out = float(np.mean(dist > w / 2))
    comb_ok = o2 == 2 * q_tail(2.0) and emp_out <= o * 1.05

    # tail brackets on a 200-point grid
    x = np.linspace(0.1, 40.0, 200)
    q = np.array([q_tail(float(t)) for t in x])
    lo = (1.0 / x - 1.0 / x ** 3) * np.exp(-0.5 * x * x) \
        / math.sqrt(2 * math.pi)
    bracket_ok = bool(np.all(lo <= q * (1 + 1e-12))
                      and np.all(q <= q_tail_upper(x) * (1 + 1e-12)))

    # estimation-error bound dominates Monte Carlo on 10 instances
    mc_ok = True
    n = 1_000_000
    cases = [(4.0, 1.0, 0.0, 0.8), (4.0, 1.0, 0.03, 0.8),
             (2.0, 0.2, 0.0, 0.5), (2.0, 0.2, 0.1, 0.3),
             (10.0, 2.0, 0.0, 2.0), (10.0, 2.0, 0.02, 3.0),
             (1.0, 0.1, 0.0, 0.2), (6.0, 0.5, 0.05, 1.5),
             (3.0, 1.0, 0.0, 0.4), (5.0, 2.0, 0.01, 1.0)]
    for (d, w, o, sigma) in cases:
        residual = (w / 2) ** 2 + o * (d / 2) ** 2
        bound = residual \
            + one_row_sum(lambda i: comb_miss_terms(i, d, w, sigma, 2.0)) \
            + o * 2.0 * one_row_sum(lambda i: comb_outage_terms(i, d,
                                                                sigma))
        idx = rng.integers(-5, 6, n)
        xs = idx * d + rng.uniform(-w / 2, w / 2, n)
        out = rng.random(n) < o
        xs = np.where(out, idx * d + rng.uniform(-d / 2, d / 2, n), xs)
        err = xs - quantize(d, xs + rng.normal(0, sigma, n))
        mc = float(np.mean(err ** 2))
        if mc > bound:
            mc_ok = False

    dt = time.time() - t0
    ok = ident_ok and comb_ok and bracket_ok and mc_ok and dt < 120.0
    _report(7, ok, f"identities={ident_ok} comb={comb_ok} "
                   f"bracket={bracket_ok} mc-dominance={mc_ok} ({dt:.1f}s)")


def test_acceptance_8_sweep_regime_structure():
    t0 = time.time()
    rows = sweep_labels(100.0, np.linspace(-1.0, 3.0, 17))
    labels = [r["result"].spec.label for r in rows]
    changes = sum(1 for x, y in zip(labels, labels[1:]) if x != y)
    dt = time.time() - t0
    ok = changes == 2 and dt < 300.0
    _report(8, ok, f"labels={labels} changes={changes} ({dt:.1f}s)")
