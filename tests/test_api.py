import importlib
import importlib.util
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


def test_benchmark_traced_names_resolve():
    # perfbench/tracer.py patches these by name; a rename must fail here,
    # not only in the benchmark's own self-tests
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
