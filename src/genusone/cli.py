"""Command-line surface: single groups, table emission, verify suites.

Exit codes: 0 success, 1 verification failure, 2 usage error or unwritable
output (--out or a closed stdout).  Output (stdout unless --out) is fixed by
the flags and seed, save ``seconds`` in ``verify --format json``.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
import json
import math
import os
import sys

from .amalgam import sl2z_cohomology
from .checks import run_suites, SUITES
from .exact_linalg import group_to_json, inverted_primes, localize
from .moduli import (DegenerationUnproven, complement_group,
                     half_inverted_group, m11_group)
from .torsor import (build_canonical_torsor, cyclic_group_data,
                     FiniteGroupData, gl2_z4_group, h1_one_cocycles,
                     torsor_nontriviality_witness, torsor_translation_orbit)


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genusone",
        description="Exact cohomology of the modular group and the "
                    "genus-one moduli space, with verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("sl2z", help="one cohomology group of the modular group")
    one.set_defaults(handler=_cmd_sl2z)
    one.add_argument("--k", type=int, required=True, help="symmetric power")
    one.add_argument("--p", type=int, required=True, help="cohomological degree")
    ring = one.add_mutually_exclusive_group()
    ring.add_argument("--mod", type=int, metavar="PRIME",
                      help="coefficients in the prime field F_PRIME")
    ring.add_argument("--invert", type=int, action="append", metavar="N",
                      help="invert the primes dividing N (repeatable)")

    table = sub.add_parser("table", help="emit a whole table")
    table.set_defaults(handler=_cmd_table)
    table.add_argument("which", choices=("sl2z", "moduli", "moduli-half"))
    table.add_argument("--max-k", type=int, default=None)
    table.add_argument("--max-p", type=int, default=None)
    table.add_argument("--max-n", type=int, default=None)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("suite", choices=("all",) + tuple(SUITES))
    verify.add_argument("--seed", type=int, default=0)

    torsor = sub.add_parser("torsor", help="torsor constructions")
    torsor.set_defaults(handler=_cmd_torsor)
    torsor.add_argument("action", choices=("demo",))

    cocycles = sub.add_parser("cocycles", help="brute-force H^1 demonstrations")
    cocycles.set_defaults(handler=_cmd_cocycles)

    # the shared flags last, so that each --help lists a command's own first
    for command in (one, table, verify):
        formats = ("text", "json") if command is verify else ("md", "csv", "json")
        command.add_argument("--format", choices=formats, default=formats[0])
    for command in sub.choices.values():
        command.add_argument("--out", metavar="PATH")
    return parser


def _output(fmt: str, payload, text=None, csv=None, md=None) -> str:
    """A command's data in ``fmt``, each form a function of no arguments so
    that only the chosen one is built: ``payload()`` as JSON, each group
    through ``group_to_json``; ``csv()`` rows comma-joined; ``md()`` rows as a
    table with a ``|---|`` rule under the header; else ``text()``."""
    if fmt == "json":
        return json.dumps(payload(), sort_keys=True, indent=2, default=group_to_json)
    if fmt == "csv":
        return "\n".join(",".join(map(str, row)) for row in csv())
    if md is None:
        return text()
    rows = md()
    lines = ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    lines.insert(1, "|" + "---|" * len(rows[0]))
    return "\n".join(lines)


def _cmd_sl2z(args):
    if args.k < 0 or args.p < 0:
        raise UsageError("--k and --p must be nonnegative")
    try:
        invert = inverted_primes(args.invert or ())
        group = localize(sl2z_cohomology(args.k, args.p, modulus=args.mod), invert)
    except ValueError as exc:
        raise UsageError(str(exc))

    def payload():
        out = {"k": args.k, "p": args.p, "group": group}
        if args.mod:
            out["mod"] = args.mod
        if invert:
            out["inverted"] = list(invert)
        return out

    text = lambda: group.render(f"Z[1/{math.prod(invert)}]" if invert else "Z")
    return _output(args.format, payload, text,
                   csv=lambda: [("k", "p", "group"), (args.k, args.p, text())]), 0


def _table_sl2z(args) -> str:
    max_k = args.max_k if args.max_k is not None else 4
    max_p = args.max_p if args.max_p is not None else 7
    if max_k < 0 or max_p < 0:
        raise UsageError("--max-k and --max-p must be nonnegative")
    ks, ps = range(max_k + 1), range(max_p + 1)
    cells = {(k, p): sl2z_cohomology(k, p) for k in ks for p in ps}
    return _output(
        args.format,
        lambda: {"table": "sl2z", "max_k": max_k, "max_p": max_p,
                 "entries": [{"k": k, "p": p, "group": g}
                             for (k, p), g in cells.items()]},
        csv=lambda: [("k", "p", "group")] + [(k, p, g) for (k, p), g in cells.items()],
        md=lambda: [("k \\ p", *ps)] + [(f"Sym^{k}", *(cells[k, p] for p in ps))
                                       for k in ks])


def _table_moduli(args) -> str:
    half = args.which == "moduli-half"
    max_n = args.max_n if args.max_n is not None else (9 if half else 5)
    if max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    degrees = range(max_n + 1)
    if half:
        rows = {"Z[1/2] cohomology": [half_inverted_group(n) for n in degrees]}
    else:
        rows = {"pointed space": [m11_group(n) for n in degrees],
                "complement": [complement_group(n) for n in degrees]}

    def payload():
        out = {"table": args.which, "max_n": max_n, "rows": [
            {"name": name, "groups": groups} for name, groups in rows.items()]}
        if half:
            out["inverted"] = [2]
        return out

    cells = lambda: [[g.render("Z[1/2]" if half else "Z") for g in groups]
                     for groups in rows.values()]
    return _output(
        args.format, payload,
        csv=lambda: [("n", *rows)] + [(n, *col) for n, col in zip(degrees, zip(*cells()))],
        md=lambda: [("n", *degrees)] + [(name, *row) for name, row in zip(rows, cells())])


def _cmd_table(args):
    ignored = ("max_n",) if args.which == "sl2z" else ("max_k", "max_p")
    for name in ignored:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to table {args.which}")
    return (_table_sl2z if args.which == "sl2z" else _table_moduli)(args), 0


def _cmd_verify(args):
    runs = run_suites(args.suite, args.seed)
    results = [r for run in runs for r in run.results]
    passed = sum(r.passed for r in results)
    payload = lambda: {
        "suite": args.suite, "seed": args.seed, "passed": passed,
        "total": len(results),
        "suites": [{"name": run.name, "seconds": round(run.seconds, 6),
                    "checks": [r._asdict() for r in run.results]} for run in runs]}
    text = lambda: "\n".join([f"suite: {args.suite}", f"seed: {args.seed}",
                              *(r.line() for r in results),
                              f"{passed}/{len(results)} checks passed"])
    return _output(args.format, payload, text), 0 if passed == len(results) else 1


def _cmd_torsor(args):
    config = build_canonical_torsor()
    fmt = lambda c: f"({c[0]},{c[1]})"
    lines = ["module: (Z/4)^2 with 16 elements",
             f"exact order 4: {len(config.order_four)} elements "
             f"in {len(config.classes)} sign classes",
             "classes: " + " ".join(fmt(c) for c in config.classes),
             "doubling map fibers:"]
    for target in config.targets:
        fiber = [c for c in config.classes if config.phi[c] == target]
        lines.append(f"  over {fmt(target)}: " + " ".join(fmt(c) for c in fiber))
    lines.append(f"partitions into two sections "
                 f"({config.raw_labeling_count} labelings fold to "
                 f"{len(config.elements)} elements, each named by the part "
                 f"containing {fmt(config.classes[0])}):")
    names = {t: f"t{i}" for i, t in enumerate(config.elements)}
    for t in config.elements:
        lines.append(f"  {names[t]}: " + " ".join(fmt(c) for c in t))
    base = config.elements[0]
    orbit = torsor_translation_orbit(base, config)
    lines.append(f"translations of {names[base]}: " + ", ".join(
        f"{fmt(a)} -> {names[img]}" for a, img in sorted(orbit.items())))
    witness = torsor_nontriviality_witness(config)
    lines.append("shear ((1,1),(0,1)) permutation: " + ", ".join(
        f"{names[t]} -> {names[img]}"
        for t, img in sorted(witness.permutation.items())))
    lines.append(f"cycle type {witness.cycles}; fixed-point free: "
                 f"{witness.fixed_point_free}")
    lines.append("no fixed element means no section, so the class is the "
                 "nonzero element of an order-2 H^1")
    return "\n".join(lines), 0


def _cmd_cocycles(args):
    group = gl2_z4_group()
    lines = [f"group of order {group.order} acting on (Z/2)^2 by reduction mod 2",
             f"unknowns {group.order * group.dim}, equations "
             f"{group.order ** 2 * group.dim}",
             f"H^1 dimension over F_2: {h1_one_cocycles(group)}"]
    samples = [
        ("trivial group on (Z/2)^2",
         FiniteGroupData((0,), ((0,),), (((1, 0), (0, 1)),), 2)),
        ("Z/3 acting trivially on F_2", cyclic_group_data(3, ((1,),), 2)),
        ("Z/4 rotation on (Z/2)^2", cyclic_group_data(4, ((0, 3), (1, 0)), 2)),
        ("Z/6 hexagonal action on (Z/3)^2", cyclic_group_data(6, ((0, 2), (1, 1)), 3)),
    ]
    for name, data in samples:
        lines.append(f"H^1 of {name}: {h1_one_cocycles(data)}")
    return "\n".join(lines), 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, status = args.handler(args)
    except (UsageError, DegenerationUnproven) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with (open(args.out, "w", encoding="utf-8") if args.out
              else nullcontext(sys.stdout)) as handle:
            print(text, file=handle, flush=True)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        if not args.out:  # else the flush at exit retries what stdout holds
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
