"""The benchmark's span tracer still fits funcon.

``perfbench/spans.py`` wraps funcon's functions by their module and
attribute names, so a refactor that renames a traced function, or binds one
under a second name, breaks the benchmark's traced runs.  These tests read
``perfbench/`` and change nothing in it."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = []
    for span_name, modname, path, _ in _load_spans().LAYERS:
        owner = importlib.import_module("funcon." + modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span_name)
    assert not missing, f"layers missing from funcon: {missing}"


def test_tracer_installs_and_uninstalls():
    # In a fresh process, as the benchmark does it: a failed install leaves
    # wrappers behind, which must not leak into the other tests.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SPANS.parent)!r})\n"
        "import funcon\n"
        "import spans\n"
        "mods = [m for n, m in sys.modules.items() if n.startswith('funcon')]\n"
        "before = [dict(vars(m)) for m in mods]\n"
        "uninstall = spans.install(spans.Tracer())\n"
        "uninstall()\n"
        "after = [dict(vars(m)) for m in mods]\n"
        "assert before == after, 'uninstall left bindings changed'\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_self_check_passes_on_the_linear_workloads():
    # perfbench/check.py: every layer a workload uses is called, counts
    # repeat and traced results equal untraced ones.  gauss-newton is left
    # out, because check.py keys its repeat_calls count on id().
    check = ROOT / "perfbench" / "check.py"
    done = subprocess.run([sys.executable, str(check), "tensor-poly",
                           "elm-features"], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
