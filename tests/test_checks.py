import collections
import json
import random
from pathlib import Path

import pytest

from genusone import checks, cyclic
from genusone.checks import SUITES, run_oracles, run_suite
from genusone.exact_linalg import FgAbelianGroup
from genusone.oracles import random_cyclic_action

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


@pytest.fixture(scope="module")
def suite_results():
    return {name: run_suite(name) for name in SUITES}


def test_suite_names():
    assert set(SUITES) == {"tables", "mod2", "torsor", "splitting",
                           "periodicity", "ptorsion", "square", "oracles"}


def test_tables_flags_exactly_the_documented_cells(suite_results):
    failures = [r for r in suite_results["tables"] if not r.passed]
    assert len(failures) == 2
    grid, complement = failures
    assert "(k=4, p=1)" in grid.detail
    assert "Z + Z/12" in grid.detail and "Z + Z/6" in grid.detail
    assert "n=9" in complement.detail
    # only those cells: each failing check reports a single mismatch
    assert ";" not in grid.detail
    assert ";" not in complement.detail


def test_all_other_suites_pass(suite_results):
    for name, results in sorted(suite_results.items()):
        if name == "tables":
            continue
        assert results, name
        bad = [r for r in results if not r.passed]
        assert not bad, (name, [r.name for r in bad])


def test_all_concatenates_every_suite(suite_results):
    total = run_suite("all")
    want = [r.name for name in SUITES for r in suite_results[name]]
    assert [r.name for r in total] == want
    assert sum(1 for r in total if not r.passed) == 2


def test_unknown_suite_is_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_results_carry_names_and_details(suite_results):
    for r in suite_results["torsor"]:
        assert r.name
        assert isinstance(r.passed, bool)


def test_verify_meets_the_benchmark_contract(suite_results):
    # bench/run.py accepts a verify run only with exactly these counts and
    # failure lines, so renaming, adding or dropping a check must fail here
    contract = json.loads(EXPECTED.read_text(encoding="utf-8"))["verify"]
    assert set(contract) == {"all", "tables"}
    runs = {"all": [r for name in SUITES for r in suite_results[name]],
            "tables": suite_results["tables"]}
    for suite, spec in contract.items():
        results = runs[suite]
        assert len(results) == spec["checks"], suite
        failing = sorted(r.line() for r in results if not r.passed)
        assert failing == sorted(spec["documented_failures"]), suite


def _oracle_actions(seed):
    # the 50 actions run_oracles draws, replayed from the same stream
    rng = random.Random(seed)
    return [random_cyclic_action(rng, (2, 3, 4, 6)[i % 4]) for i in range(50)]


def test_oracles_run_the_bar_complex_once_per_distinct_action(monkeypatch):
    actions = _oracle_actions(0)
    assert len(set(actions)) == 30
    bar_calls, periodic_calls, builds = [], [], []
    bar, periodic = checks.bar_cohomology, checks.cyclic_cohomology
    build = cyclic.periodic_complex

    def bar_spy(action, n, *args):
        bar_calls.append((action, n))
        return bar(action, n, *args)

    def periodic_spy(action, n):
        periodic_calls.append(action)
        return periodic(action, n)

    def build_spy(action, top_degree):
        builds.append(action)
        return build(action, top_degree)

    monkeypatch.setattr(checks, "bar_cohomology", bar_spy)
    monkeypatch.setattr(checks, "cyclic_cohomology", periodic_spy)
    monkeypatch.setattr(cyclic, "periodic_complex", build_spy)
    results = run_oracles(0)
    assert all(r.passed for r in results)
    assert [a for a, _ in bar_calls] == list(dict.fromkeys(actions))
    assert {n for _, n in bar_calls} == {3}
    # every case is still compared in each of the degrees 0..3
    assert periodic_calls == [a for a in actions for _ in range(4)]
    # equal draws are read through one instance, which keeps one complex
    assert builds == list(dict.fromkeys(actions))


def test_a_wrong_answer_on_a_repeated_action_names_every_case(monkeypatch):
    actions = _oracle_actions(0)
    target = next(a for a, count in collections.Counter(actions).items()
                  if count == 2)
    cases = [i for i, a in enumerate(actions) if a == target]
    periodic = checks.cyclic_cohomology

    def wrong_once(action, n):
        group = periodic(action, n)
        if action == target and n == 1:
            return FgAbelianGroup(group.free_rank + 1, group.invariant_factors)
        return group

    monkeypatch.setattr(checks, "cyclic_cohomology", wrong_once)
    oracle = run_oracles(0)[0]
    assert not oracle.passed
    assert oracle.detail.count("; ") == 1
    for i in cases:
        assert f"case {i} (order {target.order}" in oracle.detail
