"""Names used from outside the package: the exported names, the README's
library quick start and the benchmark's patch points must keep
resolving."""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from titlegen import *", namespace)
    titlegen = importlib.import_module("titlegen")
    missing = [name for name in titlegen.__all__ if name not in namespace]
    assert not missing
    assert all(namespace[name] is getattr(titlegen, name) for name in titlegen.__all__)


def test_readme_quick_start_runs(capsys):
    """Every ``python`` block of the README runs, each in a namespace of
    its own that holds a small ``corpus`` for the quick start."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    corpus = [
        ("def merge(a, b): return {**a, **b}", "how to merge two dicts"),
        ("a = [1, 2]; a.sort()", "how to sort a list"),
        ("open(path).read()", "how to read a file"),
    ]
    printed = []
    for source in re.findall(r"```python\n(.*?)```", readme, re.S):
        exec(compile(source, "README.md", "exec"), {"corpus": corpus})
        printed.append(len(capsys.readouterr().out.splitlines()))
    # The plug-in model prints its pool; the quick start, two scores.
    assert printed == [1, 2]


def test_benchmark_patch_points_exist():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    try:
        tracing.install(tracer)
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert current(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert current(owner, attr) is original, attr
