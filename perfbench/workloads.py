"""The benchmark's four workloads: seeded inputs, the library call each
operation makes, and the checks its outputs must pass.

Operations call the library through module attributes (``simulator.run``,
``certifier.certify_grid``, ...), so the trace recorder, which patches those
attributes, sees every call.

Units used throughout:

- an *operation* is one timed call: one ``simulator.run`` (sim workloads),
  one base of the certification grid with its 27 weightings
  (``bounds_grid``), or one ``lower_weighted_cost`` + ``optimize_upper``
  pair (``bound_queries``);
- an *item* is the unit of ``items_per_s``: a trial-step (sim workloads), a
  certified point (``bounds_grid``) or a query (``bound_queries``);
- a *checked unit* is what ``attempted``/``failed`` count: a run, a point or
  a query.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from lqgduet import bounds_lower, bounds_upper, certifier, simulator, \
    strategies
from lqgduet.core import ProblemParams
from lqgduet.simulator import SimConfig
from lqgduet.strategies import StrategySpec

#: Monte Carlo soundness margin of the lower-bound invariant (acceptance 4)
SIGMA_MARGIN = 3.0


@dataclass(frozen=True)
class Sizes:
    """Everything that sets how much work one pass of a workload does."""

    sim_instances: int = 16          # sim_narrow: instances, 8 runs each
    sim_trials: Tuple[int, int] = (8, 16)
    sim_horizon: int = 1_500
    sim_burn_in: int = 250
    wide_trials: int = 1_024
    wide_horizon: int = 2_048
    wide_burn_in: int = 256
    grid: str = "third"   # "third" (seed-rotated, 21 bases), "all", "tiny"
    queries: int = 34


FULL = Sizes()
#: the sizes the self-tests run at
TINY = Sizes(sim_instances=4, sim_horizon=300, sim_burn_in=50,
             wide_trials=32, wide_horizon=200, wide_burn_in=50, grid="tiny",
             queries=3)


@dataclass
class Inputs:
    workload: str
    seed: int
    ops: list
    items: int                 # items per pass
    units: int                 # checked units per pass
    steps: int = 0             # simulated time steps per pass
    # instances whose lower bound the simulated costs are checked against
    instances: List[ProblemParams] = field(default_factory=list)
    sizes: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _weights(rng) -> dict:
    """Log-uniform (q, r1, r2) as in acceptance 4."""
    return {"q": float(10.0 ** rng.uniform(-2, 2)),
            "r1": float(10.0 ** rng.uniform(-3, 1)),
            "r2": float(10.0 ** rng.uniform(-3, 1))}


def _strong_instance(rng, s: int, sv1: float) -> ProblemParams:
    """Stage-s strongly degraded instance, sigmav2_sq at the log-midpoint of
    the stage bracket (as in acceptance 3), a in [3, 30]."""
    a = float(rng.uniform(3.0, 30.0))
    sv2 = a ** (2 * s - 1) * max(1.0, a * a * sv1)
    return ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2, **_weights(rng))


def _sig_spec(p: ProblemParams, s: int) -> StrategySpec:
    return StrategySpec("sig", s=s, d=2.0 * math.sqrt(p.sigmav2_sq)
                        / abs(p.a) ** s)


def _linkal_spec(p: ProblemParams) -> StrategySpec:
    return StrategySpec("linkal", controller=1,
                        k=strategies.lqr_gain(p.a, p.q, p.r1))


def _sim_inputs(workload, seed, runs, instances, extra_sizes) -> Inputs:
    items = sum(cfg.trials * cfg.horizon for _, _, cfg, _ in runs)
    steps = sum(cfg.horizon for _, _, cfg, _ in runs)
    sizes = {"runs": len(runs), "instances": len({r[3] for r in runs}),
             "trial_steps": items, **extra_sizes}
    return Inputs(workload, seed, runs, items, len(runs), steps, instances,
                  sizes)


def build_sim_narrow(seed: int, sz: Sizes) -> Inputs:
    """Instances cycle through s in {1, 2} x sv1 in {0, 0.5}; each runs
    linbb1, linbb2, linkal1 and sig at both trial counts, so every seed does
    the same per-step work."""
    rng = np.random.default_rng([seed, 1])
    combos = [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)]
    instances, runs = [], []
    for i in range(sz.sim_instances):
        s, sv1 = combos[i % len(combos)]
        p = _strong_instance(rng, s, sv1)
        instances.append(p)
        specs = [StrategySpec("linbb", controller=1),
                 StrategySpec("linbb", controller=2),
                 _linkal_spec(p), _sig_spec(p, s)]
        for spec in specs:
            for trials in sz.sim_trials:
                cfg = SimConfig(horizon=sz.sim_horizon,
                                burn_in=sz.sim_burn_in, trials=trials,
                                seed=int(rng.integers(2 ** 31)))
                runs.append((p, spec, cfg, i))
    return _sim_inputs("sim_narrow", seed, runs, instances,
                       {"trials": list(sz.sim_trials),
                        "horizon": sz.sim_horizon,
                        "burn_in": sz.sim_burn_in})


def build_sim_wide(seed: int, sz: Sizes) -> Inputs:
    """linbb1, linkal1 and sig on a stage-1 instance, sig on a stage-2
    instance; sv1 = 0.5 on both, so every seed draws the same channels.  The
    lower-bound invariant is checked on sim_narrow only."""
    rng = np.random.default_rng([seed, 2])
    p1 = _strong_instance(rng, 1, 0.5)
    p2 = _strong_instance(rng, 2, 0.5)
    plan = [(p1, StrategySpec("linbb", controller=1), 0),
            (p1, _linkal_spec(p1), 0),
            (p1, _sig_spec(p1, 1), 0),
            (p2, _sig_spec(p2, 2), 1)]
    runs = [(p, spec, SimConfig(horizon=sz.wide_horizon,
                                burn_in=sz.wide_burn_in,
                                trials=sz.wide_trials,
                                seed=int(rng.integers(2 ** 31))), i)
            for p, spec, i in plan]
    return _sim_inputs("sim_wide", seed, runs, [],
                       {"trials": sz.wide_trials,
                        "horizon": sz.wide_horizon,
                        "burn_in": sz.wide_burn_in})


def grid_bases() -> List[ProblemParams]:
    """The certification grid in its canonical order."""
    return certifier.weak_grid_params() + certifier.strong_grid_params()


def grid_third(seed: int) -> List[int]:
    """Canonical indices of a Latin third of the grid: every (a, sv1) pair
    once, with the remaining axis (weak: the sv2 multiple, 2 values; strong:
    the stage s, 3 values) rotated by the seed.  Six consecutive seeds
    cover the whole grid."""
    n_weak = len(certifier.weak_grid_params())
    if (n_weak, len(certifier.strong_grid_params())) != (18, 36):
        raise RuntimeError("certification grid layout changed")
    weak = [(ai * 3 + si) * 2 + (ai + si + seed) % 2
            for ai in range(3) for si in range(3)]
    strong = [n_weak + (ai * 3 + si) * 3 + (ai + si + seed) % 3
              for ai in range(4) for si in range(3)]
    return weak + strong


def build_bounds_grid(seed: int, sz: Sizes) -> Inputs:
    """A seed-rotated third of the certification grid (or all of it, or
    one weak and one strong base), in seeded order."""
    bases = grid_bases()
    picks = {"third": grid_third(seed), "all": list(range(len(bases))),
             "tiny": [0, len(certifier.weak_grid_params())]}[sz.grid]
    order = np.random.default_rng([seed, 3]).permutation(len(picks))
    ops = [(picks[j], bases[picks[j]]) for j in order]
    n_w = len(certifier.default_weight_grid())
    points = len(ops) * n_w
    return Inputs("bounds_grid", seed, ops, points, points,
                  sizes={"bases": len(ops), "weights_per_base": n_w,
                         "points": points,
                         "canonical_bases": sorted(picks)})


def build_bound_queries(seed: int, sz: Sizes) -> Inputs:
    """Fresh single-weight instances from the acceptance-4 distribution."""
    rng = np.random.default_rng([seed, 4])
    ops = []
    for _ in range(sz.queries):
        a = float(rng.uniform(2.5, 40.0))
        sv1 = float(rng.uniform(0.0, 2.0))
        sv2 = sv1 + float(rng.uniform(0.01, 200.0))
        ops.append(ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2,
                                 **_weights(rng)))
    return Inputs("bound_queries", seed, ops, len(ops), len(ops),
                  sizes={"queries": len(ops)})


BUILDERS = {"sim_narrow": build_sim_narrow, "sim_wide": build_sim_wide,
            "bounds_grid": build_bounds_grid,
            "bound_queries": build_bound_queries}
NAMES = tuple(BUILDERS)


def build(workload: str, seed: int, sz: Sizes = FULL) -> Inputs:
    return BUILDERS[workload](seed, sz)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def execute(workload: str, op):
    """Run one operation through the library and return its output."""
    if workload in ("sim_narrow", "sim_wide"):
        p, spec, cfg, _ = op
        return simulator.run(p, spec, cfg)
    if workload == "bounds_grid":
        _, base = op
        return certifier.certify_grid([base])
    p = op
    return (bounds_lower.lower_weighted_cost(p),
            bounds_upper.optimize_upper(p).cost)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sim_digest(res) -> str:
    """Bit-exact fingerprint of a SimResult's reported numbers."""
    raw = struct.pack("<7d?", res.avg_state_cost, res.avg_u1_power,
                      res.avg_u2_power, res.weighted_cost, res.se_state,
                      res.se_u1, res.se_u2, res.unstable)
    return hashlib.sha256(raw).hexdigest()[:16]


def _grid_points(outputs, inputs):
    """(canonical point index, report) for every certified point."""
    n_w = len(certifier.default_weight_grid())
    for (base_idx, _), reports in zip(inputs.ops, outputs):
        for j in range(n_w):
            yield base_idx * n_w + j, (None if reports is None
                                       else reports[j])


def reference_entries(inputs: Inputs, outputs) -> list:
    """What the reference file stores for one pass: a digest per run, or
    [upper, lower] per point or query.  Points are indexed by their place in
    the whole grid; points the pass did not certify hold None."""
    if inputs.workload in ("sim_narrow", "sim_wide"):
        return [sim_digest(r) for r in outputs]
    if inputs.workload == "bounds_grid":
        entries = [None] * (len(grid_bases())
                            * len(certifier.default_weight_grid()))
        for idx, rep in _grid_points(outputs, inputs):
            entries[idx] = [rep.upper, rep.lower]
        return entries
    return [[upper, lower] for lower, upper in outputs]


@dataclass
class Verdict:
    failed: int = 0
    changed_vs_reference: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _check_bounds(v: Verdict, tag, q, lower, upper, ref) -> None:
    """q <= lower <= upper; upper bit-identical to the reference; lower may
    only fall below its reference (counted), never rise above it."""
    if not (math.isfinite(lower) and math.isfinite(upper)
            and q <= lower <= upper):
        v.fail(f"{tag}: q={q!r} lower={lower!r} upper={upper!r}")
        return
    if ref is None:
        return
    ref_upper, ref_lower = ref
    if float(upper).hex() != float(ref_upper).hex():
        v.fail(f"{tag}: upper {upper!r} != reference {ref_upper!r}")
    elif lower > ref_lower:
        v.fail(f"{tag}: lower {lower!r} rose above reference "
               f"{ref_lower!r}")
    elif lower < ref_lower:
        v.changed_vs_reference += 1


def _pooled_lower_check(v: Verdict, inputs: Inputs, outputs, ok,
                        sim_lowers: List[float]) -> None:
    """lower_weighted_cost of each instance must not exceed the simulated
    weighted cost + 3 sigma, with sigma = q se_D + r1 se_P1 + r2 se_P2 as in
    acceptance 4.  The runs of one instance and strategy at both trial
    counts are pooled (trial-weighted), which keeps a near-tight bound from
    failing by chance on a few trials."""
    groups: Dict[tuple, List[int]] = {}
    for i, (_, spec, _, inst) in enumerate(inputs.ops):
        groups.setdefault((inst, spec.label), []).append(i)
    for (inst, label), idx in groups.items():
        if not all(ok[i] for i in idx):
            continue
        p = inputs.ops[idx[0]][0]
        n = [inputs.ops[i][2].trials for i in idx]
        res = [outputs[i] for i in idx]
        total = sum(n)
        mean = sum(k * r.weighted_cost for k, r in zip(n, res)) / total
        sigma = math.sqrt(sum(
            (k * (p.q * r.se_state + p.r1 * r.se_u1 + p.r2 * r.se_u2)) ** 2
            for k, r in zip(n, res))) / total
        if sim_lowers[inst] > mean + SIGMA_MARGIN * sigma:
            for i in idx:
                v.fail(f"run {i} {label}: lower {sim_lowers[inst]!r} above "
                       f"simulated {mean!r} + 3 sigma ({sigma!r})")


def check(inputs: Inputs, outputs, reference: Optional[list],
          sim_lowers: Optional[List[float]] = None) -> Verdict:
    """Check one pass's outputs (None marks an operation that raised).

    sim_lowers holds lower_weighted_cost of each sim_narrow instance,
    computed outside the timed phase (see _pooled_lower_check)."""
    v = Verdict()
    w = inputs.workload
    if w in ("sim_narrow", "sim_wide"):
        ok = []
        for i, ((_, spec, _, _), res) in enumerate(zip(inputs.ops, outputs)):
            ok.append(False)
            tag = f"run {i} {spec.label}"
            if res is None:
                v.fail(f"{tag}: raised")
                continue
            nums = (res.avg_state_cost, res.avg_u1_power, res.avg_u2_power,
                    res.se_state, res.se_u1, res.se_u2)
            if res.unstable or not all(map(math.isfinite, nums)):
                v.fail(f"{tag}: unstable or non-finite")
                continue
            if reference is not None and sim_digest(res) != reference[i]:
                v.fail(f"{tag}: output differs from the reference")
                continue
            ok[-1] = True
        if sim_lowers is not None:
            _pooled_lower_check(v, inputs, outputs, ok, sim_lowers)
    elif w == "bounds_grid":
        for idx, rep in _grid_points(outputs, inputs):
            tag = f"point {idx}"
            if rep is None:
                v.fail(f"{tag}: raised")
                continue
            if not rep.passed:
                v.fail(f"{tag}: certification failed (ratio {rep.ratio!r} "
                       f"> cap {rep.cap!r})")
                continue
            _check_bounds(v, tag, rep.params.q, rep.lower, rep.upper,
                          None if reference is None else reference[idx])
    else:
        for i, (p, out) in enumerate(zip(inputs.ops, outputs)):
            tag = f"query {i}"
            if out is None:
                v.fail(f"{tag}: raised")
                continue
            lower, upper = out
            _check_bounds(v, tag, p.q, lower, upper,
                          None if reference is None else reference[i])
    return v


def sim_lower_bounds(inputs: Inputs) -> Optional[List[float]]:
    """Lower bounds of the sim_narrow instances (None elsewhere)."""
    if not inputs.instances:
        return None
    return [bounds_lower.lower_weighted_cost(p) for p in inputs.instances]
