"""The benchmark's outside-in tracer still finds every layer it wraps.

``bench/spans.py`` names functions and methods of ``src/`` by string, so a
refactor that renames or deletes one breaks only the traced benchmark run.
This test imports the file read-only and installs it against the package.
"""

import os
import subprocess
import sys
import textwrap
import types
from importlib import import_module
from pathlib import Path

import genusone
import genusone.amalgam as amalgam
import genusone.checks as checks
import genusone.exact_linalg as exact_linalg
from genusone.group_modules import standard_coefficient_module

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    # exec the source rather than import it, so nothing is written under bench/
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _resolve(module_name, qualname):
    owner = import_module(f"genusone.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, qualname)


def test_tracer_installs_on_every_target_and_restores_them():
    spans = _load_spans()
    originals = {}
    for module_name, qualname, _, _ in spans.TARGETS:
        try:
            originals[module_name, qualname] = _resolve(module_name, qualname)
        except (AttributeError, KeyError):
            raise AssertionError(f"bench/spans.py traces genusone.{module_name}."
                                 f"{qualname}, which no longer exists") from None
    suites = dict(checks.SUITES)
    local = exact_linalg.cohomology_at

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert exact_linalg.cohomology_at is not local
        module = standard_coefficient_module("sym_k", 4)
        total = amalgam.build_total_complex(module, 3)
        group = exact_linalg.cohomology_at(total.complex, 1)
    finally:
        tracer.uninstall()

    assert str(group) == "Z + Z/12"
    names = [span[0] for span in tracer.spans]
    assert "exact_linalg.cohomology_at" in names
    assert "amalgam.build_total_complex" in names
    for (module_name, qualname), original in originals.items():
        assert _resolve(module_name, qualname) is original, (module_name, qualname)
    assert exact_linalg.cohomology_at is local
    assert amalgam.cohomology_at is local
    assert checks.SUITES == suites


def test_worker_import_path_lets_the_tracer_wrap_every_function():
    # bench/worker.py imports only genusone and genusone.cli before it
    # installs the tracer, and Tracer.install lists the loaded genusone
    # modules before it imports its targets.  A target whose module that
    # import path leaves out would stay unwrapped in its own module.
    spans = _load_spans()
    plain = [(m, q) for m, q, _, _ in spans.TARGETS if "." not in q]
    assert not [t for t in plain if hasattr(_resolve(*t), "__wrapped__")]
    script = textwrap.dedent(f"""
        import types
        from importlib import import_module
        import genusone
        import genusone.cli
        spans = types.ModuleType("bench_spans")
        path = {str(SPANS)!r}
        with open(path, encoding="utf-8") as handle:
            exec(compile(handle.read(), path, "exec"), spans.__dict__)
        spans.Tracer().install()
        for module_name, qualname in {plain!r}:
            target = getattr(import_module("genusone." + module_name), qualname)
            if not hasattr(target, "__wrapped__"):
                print(module_name + "." + qualname)
    """)
    src = str(Path(genusone.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
