"""genusone benchmark: cold-process CLI workloads with every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each iteration starts a fresh worker process
(``worker.py``), so the ``lru_cache``s in ``amalgam`` and ``group_modules``
start empty, as they do for a user.  The worker imports ``genusone.cli``
from ``src/`` and receives only the generated command list; one worker runs
at a time (closed loop, one client).  Iterations repeat while the next one
still fits in ``--seconds``; there is always at least one.

Every answer is checked against ``expected.json``, whose values come from
an independent route (see ``make_expected.py``), never from the engine's
elimination.  A command with a wrong answer, an exception or an unexpected
exit code counts as failed.

With ``--trace 0`` the result carries the end-to-end metrics: medians over
iterations of ``wall_s`` (first command sent to last answer checked),
``cpu_s`` and ``peak_rss_mb`` (the worker's ``getrusage``) and
``slowest_cmd_s``, plus ``setup_s``, the median time from spawning a worker
until ``genusone.cli`` is imported, over the set-up probes made before each
iteration and the iterations themselves.  With ``--trace 1`` untraced and traced iterations
alternate and the result carries the per-layer metrics of ``spans.py``;
the spans are also written to ``.bench_trace/``.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for people, with the
sample counts, ``failed_frac`` and the Python version, ``nproc`` and load
average at start.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYER_UNITS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

#: set-up probes before each iteration, so set-up is sampled across the run
SETUP_PROBES = 4
#: a run must end within 180 s; no worker may outlive this
HARD_LIMIT_S = 165.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
             "slowest_cmd_s": "s", "peak_rss_mb": "MB"}

CLIFF_CELLS = ((18, 1), (20, 2), (26, 2), (28, 2))
F2_CELLS = ((64, 1), (64, 2), (96, 1))
GRID_MAX_K, GRID_MAX_P = 19, 5


def _shuffled(cells, seed):
    cells = list(cells)
    random.Random(seed).shuffle(cells)
    return cells


def _sl2z(cells, seed, *extra):
    return [["sl2z", "--k", str(k), "--p", str(p), *extra]
            for k, p in _shuffled(cells, seed)]


def _table(max_k, max_p):
    return [["table", "sl2z", "--max-k", str(max_k), "--max-p", str(max_p)]]


#: workload name -> seed -> command list.  The seed is the verify seed for
#: verify_all and only permutes command order elsewhere.
WORKLOADS = {
    "verify_all": lambda seed: [["verify", "all", "--seed", str(seed)]],
    "sl2z_grid": lambda seed: _table(GRID_MAX_K, GRID_MAX_P),
    "sl2z_cliff": lambda seed: _sl2z(CLIFF_CELLS, seed),
    "f2_large_k": lambda seed: _sl2z(F2_CELLS, seed, "--mod", "2"),
}

#: miniature versions of each workload for the harness self-tests
MINI_WORKLOADS = {
    "verify_all": lambda seed: [["verify", "tables", "--seed", str(seed)]],
    "sl2z_grid": lambda seed: _table(3, 2),
    "sl2z_cliff": lambda seed: _sl2z(((10, 1), (12, 2)), seed),
    "f2_large_k": lambda seed: _sl2z(((8, 1), (8, 2)), seed, "--mod", "2"),
}


class BenchError(RuntimeError):
    """The harness itself could not run; no result is printed."""


def load_expected() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- answer checking ---------------------------------------------------------

def _prime_powers(orders) -> list:
    """The cyclic orders split into prime powers, sorted."""
    out = []
    for m in orders:
        q = 2
        while m > 1:
            if q * q > m:
                q = m
            power = 1
            while m % q == 0:
                m //= q
                power *= q
            if power > 1:
                out.append(power)
            q += 1
    return sorted(out)


def parse_group(text: str):
    """(free rank, prime-power torsion) of a rendered group such as 'Z^3 + Z/12'."""
    free, orders = 0, []
    if text != "0":
        for part in text.split(" + "):
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                orders.append(int(part[2:]))
            else:
                raise ValueError(f"unreadable group {text!r}")
    return free, _prime_powers(orders)


def _integral(expected, k, p):
    free, divisors = expected["integral"][f"{k},{p}"]
    return free, _prime_powers(divisors)


def _check_group(argv, stdout, expected):
    opts = dict(zip(argv[1::2], argv[2::2]))
    k, p = int(opts["--k"]), int(opts["--p"])
    got = parse_group(stdout.strip())
    if "--mod" in opts:
        want = (0, [2] * expected["mod2"][f"{k},{p}"])
    else:
        want = _integral(expected, k, p)
    return None if got == want else f"got {got}, expected {want}"


def _check_table(argv, stdout, expected):
    opts = dict(zip(argv[2::2], argv[3::2]))
    max_k, max_p = int(opts["--max-k"]), int(opts["--max-p"])
    lines = stdout.strip().splitlines()
    if len(lines) != max_k + 3:
        return f"{len(lines)} table lines, expected {max_k + 3}"
    for k, line in enumerate(lines[2:]):
        cells = line.strip().strip("|").split(" | ")
        if cells[0].strip() != f"Sym^{k}" or len(cells) != max_p + 2:
            return f"row {k} malformed: {line!r}"
        for p, cell in enumerate(cells[1:]):
            got, want = parse_group(cell.strip()), _integral(expected, k, p)
            if got != want:
                return f"cell (k={k}, p={p}): got {got}, expected {want}"
    return None


def _check_verify(argv, result, expected):
    spec = expected["verify"][argv[1]]
    total, documented = spec["checks"], spec["documented_failures"]
    lines = result["stdout"].strip().splitlines() or [""]
    checks = [line for line in lines if line.startswith("[")]
    failing = sorted(line for line in checks if line.startswith("[FAIL]"))
    summary = f"{total - len(documented)}/{total} checks passed"
    if result["status"] != 1:
        return f"exit code {result['status']}, expected 1"
    if len(checks) != total or lines[-1] != summary:
        return f"{lines[-1]!r} over {len(checks)} checks, expected {summary!r}"
    if failing != sorted(documented):
        return f"failing checks {failing}, expected only the documented {documented}"
    return None


def check_answer(argv, result, expected):
    """Why a command's answer is wrong, or None when it is right."""
    if result["error"]:
        return "raised " + result["error"].strip().splitlines()[-1]
    if argv[0] == "verify":
        return _check_verify(argv, result, expected)
    if result["status"] != 0:
        return f"exit code {result['status']}: {result['stderr'].strip()}"
    try:
        if argv[0] == "table":
            return _check_table(argv, result["stdout"], expected)
        return _check_group(argv, result["stdout"], expected)
    except (ValueError, KeyError) as exc:
        return f"unreadable answer: {exc!r}"


# -- workers -----------------------------------------------------------------

@dataclass
class Iteration:
    setup_s: float
    attempted: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    slowest_cmd_s: float = 0.0
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    spans: list | None = None


class Worker:
    """One cold worker process, killed if it outlives ``timeout`` seconds."""

    def __init__(self, timeout: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not ready:
            self.close()
            raise BenchError(f"worker did not start (exit code {self.proc.returncode})")

    def send(self, commands, trace: bool, run: int):
        self.proc.stdin.write(json.dumps(
            {"commands": commands, "trace": trace, "run": run}) + "\n")
        self.proc.stdin.close()

    def receive(self):
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def close(self):
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
            if not self.proc.stdin.closed:
                self.proc.stdin.close()


def probe_setup(timeout: float) -> float:
    worker = Worker(timeout)
    try:
        worker.send([], False, -1)
        worker.receive()
    finally:
        worker.close()
    return worker.setup_s


def iterate(commands, expected, trace: bool, run: int, timeout: float) -> Iteration:
    """Run the commands once in a fresh worker and check every answer."""
    worker = Worker(timeout)
    try:
        it = Iteration(worker.setup_s, len(commands))
        start = time.perf_counter()
        worker.send(commands, trace, run)
        reply = worker.receive()
        if reply is None:
            it.failures = [(argv, "worker died or timed out") for argv in commands]
            it.wall_s = time.perf_counter() - start
            return it
        for argv, result in zip(commands, reply["results"]):
            reason = check_answer(argv, result, expected)
            if reason:
                it.failures.append((argv, reason))
        it.wall_s = time.perf_counter() - start
    finally:
        worker.close()
    it.outputs = [r["stdout"] for r in reply["results"]]
    it.cpu_s = reply["cpu_s"]
    it.peak_rss_mb = reply["peak_rss_kb"] / 1024
    it.slowest_cmd_s = max(r["seconds"] for r in reply["results"])
    it.spans = reply["spans"]
    return it


def measure(commands, expected, seconds: float, trace: bool,
            probes: int = SETUP_PROBES):
    """Iterations, each after ``probes`` set-up probes, while the next fits.

    Returns (set-up samples, untraced iterations, traced iterations).
    """
    start = time.perf_counter()

    def remaining():
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - start))

    setups, plain, traced = [], [], []
    while True:
        began = time.perf_counter()
        setups += [probe_setup(remaining()) for _ in range(probes)]
        plain.append(iterate(commands, expected, False, len(plain), remaining()))
        if trace:
            traced.append(iterate(commands, expected, True, len(traced), remaining()))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    setups += [it.setup_s for it in plain + traced]
    return setups, plain, traced


def summarize(setups, plain, traced, trace: bool) -> dict:
    """The result object: correctness counts and the metrics of this mode."""
    iterations = plain + traced
    attempted = sum(it.attempted for it in iterations)
    failed = sum(len(it.failures) for it in iterations)
    if trace:
        per_run = [layer_metrics(it.spans) for it in traced if it.spans is not None]
        values = {name: statistics.median(run[name] for run in per_run)
                  for name in per_run[0]} if per_run else {}
        traced_wall = statistics.median(it.wall_s for it in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_frac"] = (
            traced_wall / statistics.median(it.wall_s for it in plain) - 1)
        units = LAYER_UNITS
    else:
        values = {name: statistics.median(getattr(it, name) for it in plain)
                  for name in E2E_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        units = E2E_UNITS
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values}}


def _describe(result, setups, plain, traced):
    lines = []
    for name, metric in result["metrics"].items():
        n = len(setups) if name == "setup_s" else len(traced or plain)
        lines.append(f"{name:32s} {metric['value']:14.6f} {metric['unit']:6s} "
                     f"median of n={n}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"{'failed_frac':32s} {frac:14.6f} {'ratio':6s} "
                 f"{result['failed']}/{result['attempted']} commands")
    for it in plain + traced:
        for argv, reason in it.failures[:5]:
            lines.append(f"FAILED {' '.join(argv)}: {reason}")
    return lines


def write_spans(path: Path, traced):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run",
                              "hook_ns", "value"],
                   "iterations": [it.spans for it in traced]}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "genusone" / "cli.py").is_file():
        print(f"error: no genusone sources under {SRC}", file=sys.stderr)
        return 1
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "loadavg": [round(x, 2) for x in os.getloadavg()],
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    print("# " + json.dumps(stamp))
    try:
        setups, plain, traced = measure(
            WORKLOADS[args.workload](args.seed), load_expected(),
            args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        write_spans(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json",
                    traced)
    result = summarize(setups, plain, traced, bool(args.trace))
    print("\n".join(_describe(result, setups, plain, traced)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
