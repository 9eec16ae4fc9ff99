import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import lqgduet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in lqgduet.__all__
               if not hasattr(lqgduet, name)]
    assert missing == []
    assert len(set(lqgduet.__all__)) == len(lqgduet.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lqgduet import *", namespace)
    assert set(lqgduet.__all__) <= set(namespace)


#: run in a fresh interpreter: the package, the converse, the simulator and
#: the deterministic model load no SciPy; the first Gaussian tail loads
#: scipy.special alone, and lqr_gain scipy.linalg
_SCIPY_LOADS = """
import sys
import lqgduet.cli
from lqgduet import (DetParams, ProblemParams, SimConfig, StrategySpec,
                     lower_weighted_cost, run, run_det)
from lqgduet.lattice import q_tail
from lqgduet.strategies import lqr_gain

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

assert scipy_loaded() == [], scipy_loaded()
p = ProblemParams(a=3.0, q=1.0, r1=0.1, r2=0.01, sigmav1_sq=0.5,
                  sigmav2_sq=40.0)
lower_weighted_cost(p)
cfg = SimConfig(horizon=50, burn_in=10, trials=2, seed=0)
run(p, StrategySpec("linbb", controller=1), cfg)
run(p, StrategySpec("sig", s=2, d=1.0), cfg)
run_det(DetParams(), "Optimal", 8)
assert scipy_loaded() == [], scipy_loaded()
q_tail(1.0)
assert 'scipy.special' in sys.modules and 'scipy.linalg' not in sys.modules
print(lqr_gain(3.0, 1.0, 2.0).hex())
"""


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports lqgduet from src; its
    stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_importing_the_package_leaves_scipy_linalg_unloaded():
    # no SciPy until the first Gaussian tail or lqr_gain; in a fresh
    # interpreter, since this one has loaded both already
    assert _fresh_python(_SCIPY_LOADS) == "0x1.57d3750b16877p+1\n"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_traced_names_resolve():
    # perfbench/tracer.py patches these by name; a rename must fail here,
    # not only in the benchmark's own self-tests
    tracer = _load_tracer()
    missing = []
    for mod, name, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        if not callable(getattr(module, name, None)):
            missing.append(f"{mod}.{name}")
    for mod, cls, meth in tracer.METHODS:
        owner = getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"),
                        cls, None)
        if meth not in getattr(owner, "__dict__", {}):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []
    # certify_point calls optimize_upper through certifier's own binding,
    # which the tracer patches only when it is the same function
    from lqgduet import bounds_upper, certifier
    assert certifier.optimize_upper is bounds_upper.optimize_upper


def test_benchmark_counts_the_normals_drawn():
    # the tracer's count hook for counter_normals reads the result's size:
    # one normal per (step, trial)
    hooks = {(mod, name): count
             for mod, name, count in _load_tracer().FUNCTIONS}
    from lqgduet.simulator import counter_normals
    count = hooks["simulator", "counter_normals"]
    assert count(counter_normals(0, 3, 5, 9, 1)) == 4 * 3


SRC = Path(lqgduet.__file__).resolve().parent

#: top-level names kept in src without a caller there, each for a reason
NO_CALLER_ALLOWED = {
    "q_tail_upper": "tail bracket for the planned sound du1 tail",
    "normalize": "the documented way in from a general RawParams problem "
                 "(b_i, c_i, sigma_w); it reaches RawParams",
}


def _names(node):
    """The names and attribute names that node refers to."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreachable_src_names(roots):
    """Top-level functions, classes and module constants of src/lqgduet
    that no name in roots reaches through the names their definitions
    refer to.  A module's other top-level statements, such as its
    `if __name__ == "__main__"` block, are roots too; imports are not
    references."""
    refers, roots = {}, set(roots)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)
                           and not t.id.startswith("__")]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                roots |= _names(stmt)
                continue
            for name in defined:
                refers[f"{path.stem}.{name}"] = _names(stmt)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for key, refs in refers.items()
                     if key.split(".")[1] == name for ref in refs]
    return [key for key in refers if key.split(".")[1] not in reached]


def test_src_defines_nothing_only_tests_use():
    # a function, class or constant that only tests reach belongs in the
    # tests; being exported in __all__ does not make a name used.  The
    # roots are what runs src from outside: the CLI commands, the names
    # perfbench traces or refers to, and the allowed names above
    from lqgduet.cli import cli
    tracer = _load_tracer()
    roots = set(NO_CALLER_ALLOWED) \
        | {name for _, name, _ in tracer.FUNCTIONS} \
        | {cls for _, cls, _ in tracer.METHODS} \
        | {cmd.callback.__name__ for cmd in cli.commands.values()}
    for path in TRACER.parent.glob("*.py"):
        if path.name != "test_perfbench.py":
            roots |= _names(ast.parse(path.read_text()))
    assert _unreachable_src_names(roots) == []
