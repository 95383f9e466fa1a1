"""Self-tests of the benchmark harness on miniature versions of each workload.

    python3 -m pytest -q bench/selftest.py      (from the repository root)

They check that every metric in ``BENCHMARK.json`` is emitted with its
unit, that a corrupted expected answer is counted as failed, and that the
traced and untraced runs give identical answers.
"""

import copy
import functools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def measured(workload):
    """One untraced and one traced iteration of the miniature workload."""
    commands = run.MINI_WORKLOADS[workload](seed=1)
    return run.measure(commands, run.load_expected(), seconds=0.001,
                       trace=True, probes=1)


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_workloads_match_config():
    assert sorted(w["name"] for w in CONFIG["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(run.MINI_WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_emitted_with_unit(workload):
    setups, plain, traced = measured(workload)
    untraced = run.summarize(setups, plain, [], trace=False)
    layers = run.summarize(setups, plain, traced, trace=True)
    assert untraced["correct"] and layers["correct"]
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0
    assert _units(untraced["metrics"]) == {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert _units(layers["metrics"]) == {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def _corrupt(expected):
    bad = copy.deepcopy(expected)
    for cell in bad["integral"].values():
        cell[0] += 1
    for key in bad["mod2"]:
        bad["mod2"][key] += 1
    for spec in bad["verify"].values():
        spec["documented_failures"] = spec["documented_failures"][:1]
    return bad


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_expected_answer_raises_failed_frac(workload):
    commands = run.MINI_WORKLOADS[workload](seed=1)
    setups, plain, traced = run.measure(commands, _corrupt(run.load_expected()),
                                        seconds=0.001, trace=False, probes=0)
    result = run.summarize(setups, plain, traced, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(commands)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_and_untraced_answers_identical(workload):
    _, plain, traced = measured(workload)
    assert plain[0].outputs and plain[0].outputs == traced[0].outputs
    assert traced[0].spans


def test_wrong_answers_are_caught():
    expected = run.load_expected()
    ok = {"status": 0, "stdout": "Z^3 + Z/2 + Z/2 + Z/12 + Z/3060\n", "stderr": "",
          "error": None}
    argv = ["sl2z", "--k", "18", "--p", "1"]
    assert run.check_answer(argv, ok, expected) is None
    assert run.check_answer(argv, dict(ok, stdout="Z^3 + Z/2 + Z/12 + Z/3060\n"), expected)
    assert run.check_answer(argv, dict(ok, status=2), expected)
    assert run.check_answer(argv, dict(ok, error="Traceback\nValueError: x"), expected)
