import json
from pathlib import Path

import pytest

from genusone.checks import SUITES, run_suite

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
