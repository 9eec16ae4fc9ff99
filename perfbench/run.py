"""Closed-loop benchmark of lqgduet: one single-threaded process, one client,
each library call issued when the previous one returns.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload sim_narrow --seed 1 --seconds 24 \
        --trace 0

``--trace 0`` runs whole passes over the workload's seeded operations for
about ``--seconds`` (at least three) and reports the end-to-end metrics in
reference seconds (see ``kernel_s``).  ``--trace 1`` spends half the time
on untraced passes and half on passes traced by ``tracer.py``, and reports
the per-layer metrics.  Every pass's outputs are checked (see
``workloads.check``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the run metadata and every metric by name with its unit.  A fuller
record (metadata, per-pass times, span table, failure reasons) goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""
import os

# pin BLAS/OpenMP pools before numpy is imported (here or in a probe child)
BLAS_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

#: end-to-end metrics (untraced run), name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "ref_s",
    "cpu_ref_s": "ref_s",
    "peak_rss_mb": "MB",
    "items_per_ref_s": "1/ref_s",
    "op_ref_s_p50": "ref_s",
    "op_ref_s_p90": "ref_s",
}

#: per-layer metrics (traced run), name -> unit
LAYER_UNITS = {
    "cli.import_s": "s",
    "core.classify.calls_per_item": "calls/item",
    "lattice.quantize.calls": "count",
    "lattice.quantize.us_per_call": "us",
    "lattice.truncated_sum.calls": "count",
    "lattice.truncated_sum.self_s": "s",
    "strategies.step.calls": "count",
    "strategies.step_us.linbb": "us",
    "strategies.step_us.linkal": "us",
    "strategies.step_us.sig": "us",
    "simulator.counter_normals.normals": "count",
    "simulator.counter_normals.ns_per_normal": "ns",
    "simulator.counter_normals.share": "frac",
    "simulator.run.self_us_per_step": "us",
    "simulator.run.unstable": "count",
    "bounds_upper.du1.calls": "count",
    "bounds_upper.du1.us_per_call": "us",
    "bounds_upper.du1.fail_frac": "frac",
    "bounds_upper.sig_candidate_points.self_s": "s",
    "bounds_upper.optimize_upper.self_s": "s",
    "bounds_lower.LowerBoundEvaluator.init_s_per_call": "s",
    "bounds_lower.LowerBoundEvaluator.share": "frac",
    "bounds_lower.dl1.s": "s",
    "bounds_lower.dl2.s": "s",
    "bounds_lower.dl4.s": "s",
    "bounds_lower.dl2.calls": "count",
    "bounds_lower.families_per_evaluator": "count",
    "bounds_lower.candidates_failed": "count",
    "bounds_lower.slicing_bound.us_per_call": "us",
    "bounds_lower.changed_vs_reference": "count",
    "certifier.certify_point.self_us_per_call": "us",
    "certifier.points": "count",
    "certifier.failed": "count",
    "trace.overhead_frac": "frac",
}

SETUP_PROBES = 5
#: untraced passes per run at least; an operation's time is its median over
#: the passes
MIN_PASSES = 3

#: an operation that takes t seconds while kernel_s() reads k takes
#: t * KERNEL_REF_S / k reference seconds (ref_s)
KERNEL_REF_S = 1e-5
_KERNEL_X = np.linspace(0.0, 1.0, 256)


def kernel_s() -> float:
    """Fastest of five runs of a fixed kernel of interpreter work and a
    small numpy call, in seconds.

    Other load on a shared host slows the CPU by up to about 1.7x, in spells
    from tens of milliseconds to minutes, and CPU time slows with it.  Timed
    between operations, the kernel says how fast the machine runs at that
    moment; an operation's time divided by it, times KERNEL_REF_S, is the
    operation's time in reference seconds."""
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        acc = 0.0
        for i in range(200):
            acc += i * 0.5
        acc += float(np.sin(_KERNEL_X).sum())
        best = min(best, time.perf_counter() - t)
    return best


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit non-zero."""
    if not (SRC / "lqgduet" / "__init__.py").is_file():
        sys.exit("perfbench: src/lqgduet not found next to perfbench/; run "
                 "from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


@dataclass
class Pass:
    wall: float      # seconds, kernel timings included
    walls: list      # per operation, seconds
    cpus: list       # per operation, seconds
    kernels: list    # kernel_s() before each operation and after the last
    outputs: list

    def ref(self, attr: str) -> list:
        """Per operation, ``walls`` or ``cpus`` in reference seconds, using
        the mean of the kernel times just before and just after it."""
        k = self.kernels
        return [x * 2 * KERNEL_REF_S / (k[i] + k[i + 1])
                for i, x in enumerate(getattr(self, attr))]


def run_pass(workloads, inputs) -> Pass:
    """Issue every operation of the workload once, back to back."""
    outputs, walls, cpus, kernels = [], [], [], [kernel_s()]
    t0 = time.perf_counter()
    for op in inputs.ops:
        c, t = time.process_time(), time.perf_counter()
        try:
            out = workloads.execute(inputs.workload, op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        walls.append(time.perf_counter() - t)
        cpus.append(time.process_time() - c)
        kernels.append(kernel_s())
        outputs.append(out)
    return Pass(time.perf_counter() - t0, walls, cpus, kernels, outputs)


def run_passes(workloads, inputs, budget: float, min_passes: int) -> list:
    """At least min_passes whole passes, then more while the next one is
    expected to end within budget."""
    passes, t0 = [], time.perf_counter()
    while True:
        passes.append(run_pass(workloads, inputs))
        if len(passes) >= min_passes and \
                time.perf_counter() - t0 + passes[-1].wall > budget:
            return passes


def per_op_median(passes, attr: str) -> list:
    """Per operation, the median over the passes of its time in reference
    seconds."""
    return [statistics.median(col)
            for col in zip(*(p.ref(attr) for p in passes))]


def setup_probes(workload: str, seed: int, n: int) -> list:
    """Run the set-up probe in n fresh interpreters, one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, timeout=120,
            check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def load_reference(workload: str, seed: int):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as f:
        ref = json.load(f)
    return ref.get("grid" if workload == "bounds_grid" else str(seed))


def metadata(workload: str, seed: int, seconds: int, traced: bool,
             inputs) -> dict:
    from importlib.metadata import version
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(traced), "commit": commit,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "click": version("click"), "nproc": os.cpu_count(),
            "cpu_model": cpu, "blas_threads": BLAS_PIN,
            "loop": "closed, 1 client, 1 process",
            "sizes": inputs.sizes, "items_per_pass": inputs.items,
            "ops_per_pass": len(inputs.ops)}


def measure(workload: str, seed: int, seconds: float, traced: bool,
            sizes=None, probes: int = SETUP_PROBES):
    """One benchmark run.  Returns the full record (its "result" is the
    result line) and, for a traced run, the span recorder."""
    import workloads
    import tracer

    sizes = sizes or workloads.FULL
    probe = setup_probes(workload, seed, probes)
    inputs = workloads.build(workload, seed, sizes)
    reference = (load_reference(workload, seed) if sizes == workloads.FULL
                 else None)

    budget = seconds / 2 if traced else seconds
    plain = run_passes(workloads, inputs, budget, 1 if traced else MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced_passes, rec = [], None
    if traced:
        rec = tracer.Recorder()
        rec.install()
        try:
            traced_passes = run_passes(workloads, inputs, budget, 1)
        finally:
            rec.restore()

    sim_lowers = workloads.sim_lower_bounds(inputs)
    verdicts = [workloads.check(inputs, p.outputs, reference, sim_lowers)
                for p in plain + traced_passes]
    attempted = inputs.units * len(verdicts)
    failed = sum(v.failed for v in verdicts)
    reasons = sorted({r for v in verdicts for r in v.reasons})

    record = {"meta": metadata(workload, seed, seconds, traced, inputs),
              "passes": {
                  "untraced_wall_s": [p.wall for p in plain],
                  "untraced_ref_s": [sum(p.ref("walls")) for p in plain],
                  "traced_wall_s": [p.wall for p in traced_passes],
                  "traced_ref_s": [sum(p.ref("walls"))
                                   for p in traced_passes],
                  "kernel_s_median": statistics.median(
                      k for p in plain + traced_passes for k in p.kernels)},
              "failed_frac": failed / attempted, "failures": reasons}
    if not traced:
        op_wall = per_op_median(plain, "walls")
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in probe),
            "wall_ref_s": sum(op_wall),
            "cpu_ref_s": sum(per_op_median(plain, "cpus")),
            "peak_rss_mb": peak_rss_mb,
            "items_per_ref_s": inputs.items / sum(op_wall),
            "op_ref_s_p50": float(np.percentile(op_wall, 50)),
            "op_ref_s_p90": float(np.percentile(op_wall, 90)),
        }
        units = E2E_UNITS
        correct = failed == 0
    else:
        tab = rec.table()
        traced_wall = sum(p.wall for p in traced_passes)
        metrics = tracer.layer_metrics(tab, len(traced_passes),
                                        inputs.items, inputs.steps,
                                        traced_wall)
        metrics["cli.import_s"] = statistics.median(r["import_s"]
                                                    for r in probe)
        metrics["bounds_lower.changed_vs_reference"] = \
            verdicts[-1].changed_vs_reference
        metrics["trace.overhead_frac"] = (
            statistics.median(sum(p.ref("walls")) for p in traced_passes)
            / statistics.median(sum(p.ref("walls")) for p in plain) - 1)
        units = LAYER_UNITS
        nesting_ok = rec.nesting_ok()
        if not nesting_ok:
            reasons.append("trace: child spans outlast their parent")
        correct = failed == 0 and nesting_ok
        record["spans"] = tab
    record["result"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}
    return record, rec


def main(argv=None) -> int:
    require_source()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record, rec = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if rec is not None:
        rec.save(OUT / f"{stem}-spans.npz")
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)

    result = record["result"]
    print("meta " + json.dumps(record["meta"]))
    for reason in record["failures"]:
        print("FAILED " + reason, file=sys.stderr)
    print(f"failed_frac = {record['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
