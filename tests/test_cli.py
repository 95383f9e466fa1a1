import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import genusone
from genusone.checks import CheckResult
from genusone.cli import main
from genusone.exact_linalg import FgAbelianGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def group_of(obj):
    """The group a JSON payload's ``group`` object names."""
    return FgAbelianGroup(obj["free_rank"], obj["invariant_factors"])


def test_sl2z_single_values(capsys):
    code, out, _ = run(capsys, "sl2z", "--k", "0", "--p", "2")
    assert code == 0 and out.strip() == "Z/12"
    code, out, _ = run(capsys, "sl2z", "--k", "2", "--p", "1")
    assert code == 0 and out.strip() == "Z + Z/2"
    code, out, _ = run(capsys, "sl2z", "--k", "0", "--p", "0")
    assert code == 0 and out.strip() == "Z"


def test_sl2z_mod_and_invert(capsys):
    code, out, _ = run(capsys, "sl2z", "--k", "2", "--p", "1", "--mod", "2")
    assert code == 0 and out.strip() == "Z/2 + Z/2"
    code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1",
                       "--invert", "2")
    assert code == 0 and out.strip() == "Z[1/2] + Z/3"
    code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1",
                       "--invert", "2", "--invert", "3")
    assert code == 0 and out.strip() == "Z[1/6]"


# 10^25 and 10^27 are past the exact primality range, but 2 divides them
@pytest.mark.parametrize("modulus", ["0", "1", "4", "-2", str(10 ** 25), str(10 ** 27)])
def test_sl2z_rejects_a_modulus_that_is_not_prime(capsys, modulus):
    code, out, err = run(capsys, "sl2z", "--k", "1", "--p", "1", "--mod", modulus)
    assert code == 2 and out == ""
    assert err == f"error: modulus must be a prime, got {modulus}\n"


#: the smallest 19-digit prime, and a product of two primes above 10^6
BIG_PRIME = str(10 ** 18 + 3)
BIG_SEMIPRIME = str(1_000_003 * 1_000_033)


def test_sl2z_takes_a_19_digit_prime(capsys):
    code, out, _ = run(capsys, "sl2z", "--k", "2", "--p", "1", "--mod", BIG_PRIME)
    assert code == 0 and out.strip() == f"Z/{BIG_PRIME}"
    code, out, _ = run(capsys, "sl2z", "--k", "2", "--p", "1", "--invert", BIG_PRIME)
    assert code == 0 and out.strip() == f"Z[1/{BIG_PRIME}] + Z/2"


@pytest.mark.parametrize("flag", ["--mod", "--invert"])
def test_sl2z_rejects_a_composite_without_small_factors(capsys, flag):
    code, out, err = run(capsys, "sl2z", "--k", "2", "--p", "1", flag, BIG_SEMIPRIME)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_sl2z_invert_normalises_to_primes(capsys):
    code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1", "--invert", "4")
    assert code == 0 and out.strip() == "Z[1/2] + Z/3"
    code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1", "--invert", "6")
    assert code == 0 and out.strip() == "Z[1/6]"
    for arg, primes in (("4", [2]), ("6", [2, 3])):
        code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1",
                           "--invert", arg, "--format", "json")
        assert code == 0 and json.loads(out)["inverted"] == primes


def test_sl2z_json_round_trip(capsys):
    code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4 and payload["p"] == 1
    assert group_of(payload["group"]) == FgAbelianGroup(1, [12])


def test_sl2z_usage_errors(capsys):
    code, _, err = run(capsys, "sl2z", "--k", "-1", "--p", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "sl2z", "--k", "1", "--p", "1", "--mod", "6")
    assert code == 2 and "error:" in err


def test_table_sl2z_markdown(capsys):
    code, out, _ = run(capsys, "table", "sl2z", "--max-k", "2", "--max-p", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| k \\ p |")
    assert len(lines) == 5
    assert lines[2].startswith("| Sym^0 | Z |")


def test_table_moduli_markdown_two_rows(capsys):
    code, out, _ = run(capsys, "table", "moduli")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("| pointed space |")
    assert lines[3].startswith("| complement |")
    assert "Z/12" in lines[2]


def test_table_moduli_half_inverts_two(capsys):
    code, out, _ = run(capsys, "table", "moduli-half", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,Z[1/2] cohomology"
    assert len(lines) == 11
    assert lines[10].startswith("9,Z[1/2] + Z/3")
    assert all("Z/2 " not in line and not line.endswith("Z/2")
               for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ("sl2z", "--max-n", "3"),
    ("moduli", "--max-k", "3"),
    ("moduli-half", "--max-p", "2"),
    ("moduli", "--max-n", "3", "--max-p", "0"),
])
def test_table_rejects_a_flag_its_table_ignores(capsys, argv):
    code, out, err = run(capsys, "table", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --max-") and "does not apply" in err
    assert len(err.strip().splitlines()) == 1


def test_table_moduli_beyond_the_proved_range(capsys):
    code, _, err = run(capsys, "table", "moduli", "--max-n", "10")
    assert code == 2
    assert "degeneration unproven beyond degree 9" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "torsor")
    assert code == 0
    assert out.startswith("suite: torsor\nseed: 0\n")
    assert "[pass]" in out and "[FAIL]" not in out
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 1
    assert out.count("[FAIL]") == 2
    assert "1/3 checks passed" in out


def test_verify_json_lists_each_suite_with_its_time(capsys):
    code, text, _ = run(capsys, "verify", "tables", "--seed", "3")
    code_json, out, _ = run(capsys, "verify", "tables", "--seed", "3",
                            "--format", "json")
    assert code == code_json == 1
    payload = json.loads(out)
    assert {k: payload[k] for k in ("suite", "seed", "passed", "total")} == \
        {"suite": "tables", "seed": 3, "passed": 1, "total": 3}
    [suite] = payload["suites"]
    assert suite["name"] == "tables" and suite["seconds"] >= 0
    # the same checks as the text report, line for line
    assert text.splitlines()[2:-1] == [CheckResult(**c).line()
                                       for c in suite["checks"]]
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    payload = json.loads(out)
    assert [s["name"] for s in payload["suites"]] == [
        "tables", "mod2", "torsor", "splitting", "periodicity", "ptorsion",
        "square", "oracles"]
    assert payload["total"] == sum(len(s["checks"]) for s in payload["suites"])
    assert code == 1 and payload["passed"] == payload["total"] - 2


def test_verify_unknown_suite_is_a_parse_error(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])
    capsys.readouterr()


def test_torsor_demo_is_deterministic(capsys):
    code, first, _ = run(capsys, "torsor", "demo")
    assert code == 0
    code, second, _ = run(capsys, "torsor", "demo")
    assert first == second
    assert "cycle type (4,)" in first
    assert "order-2 H^1" in first


def test_cocycles_output(capsys):
    code, out, _ = run(capsys, "cocycles")
    assert code == 0
    assert "group of order 96" in out
    assert "H^1 dimension over F_2: 1" in out


def test_out_writes_a_file(tmp_path, capsys):
    target = tmp_path / "group.txt"
    code = main(["sl2z", "--k", "0", "--p", "2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert target.read_text(encoding="utf-8") == "Z/12\n"


@pytest.mark.parametrize("argv", [["sl2z", "--k", "2", "--p", "1"],
                                  ["verify", "mod2"]])
def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("invert, group", [((), "Z + Z/12"),
                                           (("--invert", "2"), "Z[1/2] + Z/3")],
                         ids=["integral", "invert-2"])
def test_sl2z_csv_text(capsys, invert, group):
    code, out, _ = run(capsys, "sl2z", "--k", "4", "--p", "1", *invert,
                       "--format", "csv")
    assert code == 0 and out == f"k,p,group\n4,1,{group}\n"


def test_table_sl2z_csv_text(capsys):
    code, out, _ = run(capsys, "table", "sl2z", "--max-k", "1", "--max-p", "2",
                       "--format", "csv")
    assert code == 0
    assert out == "k,p,group\n0,0,Z\n0,1,0\n0,2,Z/12\n1,0,0\n1,1,0\n1,2,Z/2\n"


def test_table_json_payloads(capsys):
    code, out, _ = run(capsys, "table", "sl2z", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"table", "max_k", "max_p", "entries"}
    assert (payload["table"], payload["max_k"], payload["max_p"]) == ("sl2z", 4, 7)
    assert [(e["k"], e["p"]) for e in payload["entries"]] == [
        (k, p) for k in range(5) for p in range(8)]
    assert all(isinstance(group_of(e["group"]), FgAbelianGroup)
               for e in payload["entries"])
    for which, names, max_n in (
            ("moduli", ["pointed space", "complement"], 5),
            ("moduli-half", ["Z[1/2] cohomology"], 9)):
        code, out, _ = run(capsys, "table", which, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        half = which == "moduli-half"
        assert set(payload) == {"table", "max_n", "rows"} | ({"inverted"} if half else set())
        assert (payload["table"], payload["max_n"]) == (which, max_n)
        assert payload.get("inverted") == ([2] if half else None)
        assert [row["name"] for row in payload["rows"]] == names
        for row in payload["rows"]:
            assert len(row["groups"]) == max_n + 1
            assert all(isinstance(group_of(g), FgAbelianGroup)
                       for g in row["groups"])


#: every option each subcommand takes, and the top-level command names
COMMAND_OPTIONS = {
    "sl2z": ["--k", "--p", "--mod", "--invert", "--format", "--out"],
    "table": ["sl2z", "moduli", "moduli-half", "--max-k", "--max-p", "--max-n",
              "--format", "--out"],
    "verify": ["all", "tables", "mod2", "torsor", "splitting", "periodicity",
               "ptorsion", "square", "oracles", "--seed", "--format", "--out"],
    "torsor": ["demo", "--out"],
    "cocycles": ["--out"],
}


@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
def test_help_names_every_option(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    out = capsys.readouterr().out
    assert exit_info.value.code == 0
    names = list(COMMAND_OPTIONS) if command is None else COMMAND_OPTIONS[command]
    assert set(names) <= set(re.findall(r"[\w-]+", out)), out


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_one_error_line(unbuffered):
    src = str(Path(genusone.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the child imports for about 0.1 s before it writes, so the read end is
    # closed by the time it does; a buffered stdout must not fail again at exit
    child = subprocess.Popen(
        [sys.executable, "-B", "-m", "genusone", "sl2z", "--k", "0", "--p", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write"), err
    assert "Traceback" not in err and "Exception ignored" not in err
