"""Span recorder that traces lqgduet from outside the program.

``Recorder.install`` replaces each traced function with a wrapper wherever
the function is looked up: in its own module, in every ``lqgduet`` module
that imported it by name, and on the class for methods.  Each call records
a span (name, parent span, start, end, whether it raised) in flat in-memory
arrays; ``restore`` puts the originals back.  Self time, per-name totals and
the per-layer metrics are computed from the spans after the traced passes.
"""
from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, Optional

import numpy as np

#: traced module-level functions: (module, function, count hook).  A count
#: hook maps the return value to a number added to the name's work count.
FUNCTIONS = (
    ("core", "classify", None),
    ("lattice", "quantize", None),
    ("lattice", "truncated_sum", None),
    ("simulator", "run", lambda res: int(res.unstable)),
    ("simulator", "counter_normals", lambda out: out.size),
    ("bounds_upper", "du1", None),
    ("bounds_upper", "sig_candidate_points", None),
    ("bounds_upper", "optimize_upper", None),
    ("bounds_lower", "dl1", None),
    ("bounds_lower", "dl2", None),
    ("bounds_lower", "dl4", None),
    ("bounds_lower", "lower_weighted_cost", None),
    ("certifier", "certify_point", lambda rep: int(not rep.passed)),
    ("certifier", "certify_grid", None),
)

#: traced methods: (module, class, method)
METHODS = (
    ("strategies", "LinBB", "step"),
    ("strategies", "LinKal", "step"),
    ("strategies", "Sig", "step"),
    ("bounds_lower", "LowerBoundEvaluator", "__init__"),
    ("bounds_lower", "LowerBoundEvaluator", "slicing_bound"),
)

PACKAGE = "lqgduet"


class Recorder:
    def __init__(self):
        self.names: list = []
        self.work: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, span_name: str, fn: Callable,
              count: Optional[Callable] = None) -> Callable:
        nid = len(self.names)
        self.names.append(span_name)
        self.work.append(0)
        name, parent, start, end = self.name, self.parent, self.start, \
            self.end
        raised, stack, work = self.raised, self._stack, self.work
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                work[nid] += count(out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for mod, fn_name, count in FUNCTIONS:
            original = getattr(mods[f"{PACKAGE}.{mod}"], fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", original, count)
            for m in mods.values():
                if m.__dict__.get(fn_name) is original:
                    self._set(m, fn_name, wrapper)
        for mod, cls_name, meth in METHODS:
            cls = getattr(mods[f"{PACKAGE}.{mod}"], cls_name)
            self._set(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}",
                                            cls.__dict__[meth]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> Dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end": np.frombuffer(self.end, dtype=np.int64).copy(),
                "raised": np.frombuffer(self.raised, dtype=np.int8).copy()}

    def _durations(self):
        """Spans, each span's duration, and the summed duration of its
        direct children (ns)."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has], weights=dur[has],
                            minlength=dur.size)
        return sp, dur, child

    def table(self) -> Dict[str, dict]:
        """Per span name: calls, raised, total and self seconds, work."""
        sp, dur, child = self._durations()
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        total = np.bincount(sp["name"], weights=dur, minlength=k)
        own = np.bincount(sp["name"], weights=dur - child, minlength=k)
        raised = np.bincount(sp["name"], weights=sp["raised"], minlength=k)
        return {n: {"calls": int(calls[i]), "raised": int(raised[i]),
                    "total_s": total[i] * 1e-9, "self_s": own[i] * 1e-9,
                    "work": self.work[i]}
                for i, n in enumerate(self.names)}

    def nesting_ok(self) -> bool:
        """Every span closed, and no span's children together outlast it."""
        _, dur, child = self._durations()
        return bool(np.all(dur >= 0) and np.all(child <= dur))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def layer_metrics(tab: Dict[str, dict], passes: int, items: int,
                  steps: int, traced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from the span table of ``passes`` traced passes;
    counts and seconds are per pass.  A layer the workload never calls
    reads 0."""
    def per_pass(x):
        return x / passes

    step_names = {"linbb": "strategies.LinBB.step",
                  "linkal": "strategies.LinKal.step",
                  "sig": "strategies.Sig.step"}
    run, cn = tab["simulator.run"], tab["simulator.counter_normals"]
    du1 = tab["bounds_upper.du1"]
    ev = tab["bounds_lower.LowerBoundEvaluator.__init__"]
    fams = [tab[f"bounds_lower.{f}"] for f in ("dl1", "dl2", "dl4")]
    cp = tab["certifier.certify_point"]
    q, ts = tab["lattice.quantize"], tab["lattice.truncated_sum"]
    sb = tab["bounds_lower.LowerBoundEvaluator.slicing_bound"]
    step_calls = sum(tab[n]["calls"] for n in step_names.values())
    step_total = sum(tab[n]["total_s"] for n in step_names.values())
    out = {
        "core.classify.calls_per_item":
            _per(tab["core.classify"]["calls"], passes * items),
        "lattice.quantize.calls": per_pass(q["calls"]),
        "lattice.quantize.us_per_call": _per(q["total_s"] * 1e6, q["calls"]),
        "lattice.truncated_sum.calls": per_pass(ts["calls"]),
        "lattice.truncated_sum.self_s": per_pass(ts["self_s"]),
        "strategies.step.calls": per_pass(step_calls),
    }
    for label, n in step_names.items():
        out[f"strategies.step_us.{label}"] = _per(tab[n]["total_s"] * 1e6,
                                                  tab[n]["calls"])
    out.update({
        "simulator.counter_normals.normals": per_pass(cn["work"]),
        "simulator.counter_normals.ns_per_normal":
            _per(cn["total_s"] * 1e9, cn["work"]),
        "simulator.counter_normals.share": _per(cn["total_s"],
                                                run["total_s"]),
        "simulator.run.self_us_per_step":
            _per((run["total_s"] - cn["total_s"] - step_total) * 1e6,
                 passes * steps),
        "simulator.run.unstable": per_pass(run["work"]),
        "bounds_upper.du1.calls": per_pass(du1["calls"]),
        "bounds_upper.du1.us_per_call": _per(du1["total_s"] * 1e6,
                                             du1["calls"]),
        "bounds_upper.du1.fail_frac": _per(du1["raised"], du1["calls"]),
        "bounds_upper.sig_candidate_points.self_s":
            per_pass(tab["bounds_upper.sig_candidate_points"]["self_s"]),
        "bounds_upper.optimize_upper.self_s":
            per_pass(tab["bounds_upper.optimize_upper"]["self_s"]),
        "bounds_lower.LowerBoundEvaluator.init_s_per_call":
            _per(ev["total_s"], ev["calls"]),
        "bounds_lower.LowerBoundEvaluator.share":
            _per(ev["total_s"], traced_wall),
        "bounds_lower.dl1.s": per_pass(fams[0]["total_s"]),
        "bounds_lower.dl2.s": per_pass(fams[1]["total_s"]),
        "bounds_lower.dl4.s": per_pass(fams[2]["total_s"]),
        "bounds_lower.dl2.calls": per_pass(fams[1]["calls"]),
        "bounds_lower.families_per_evaluator":
            _per(sum(f["calls"] - f["raised"] for f in fams), ev["calls"]),
        "bounds_lower.candidates_failed":
            per_pass(sum(f["raised"] for f in fams)),
        "bounds_lower.slicing_bound.us_per_call":
            _per(sb["total_s"] * 1e6, sb["calls"]),
        "certifier.certify_point.self_us_per_call":
            _per(cp["self_s"] * 1e6, cp["calls"]),
        "certifier.points": per_pass(cp["calls"]),
        "certifier.failed": per_pass(cp["work"]),
    })
    return out
