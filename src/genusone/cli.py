"""Command-line surface: single groups, table emission, verify suites.

Exit codes: 0 success, 1 verification failure, 2 usage error (an --out
path that cannot be written included).  Output is deterministic for fixed
flags and seed; everything goes to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .amalgam import sl2z_cohomology
from .checks import run_suites, SUITES
from .exact_linalg import FgAbelianGroup, group_to_json, inverted_primes
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
    one.add_argument("--k", type=int, required=True, help="symmetric power")
    one.add_argument("--p", type=int, required=True, help="cohomological degree")
    ring = one.add_mutually_exclusive_group()
    ring.add_argument("--mod", type=int, metavar="PRIME",
                      help="coefficients in the prime field F_PRIME")
    ring.add_argument("--invert", type=int, action="append", metavar="N",
                      default=None,
                      help="invert the primes dividing N (repeatable)")
    one.add_argument("--format", choices=("md", "csv", "json"), default="md")
    one.add_argument("--out", metavar="PATH")

    table = sub.add_parser("table", help="emit a whole table")
    table.add_argument("which", choices=("sl2z", "moduli", "moduli-half"))
    table.add_argument("--max-k", type=int, default=4)
    table.add_argument("--max-p", type=int, default=7)
    table.add_argument("--max-n", type=int, default=None)
    table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    table.add_argument("--out", metavar="PATH")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=("all",) + tuple(SUITES))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", metavar="PATH")

    torsor = sub.add_parser("torsor", help="torsor constructions")
    torsor.add_argument("action", choices=("demo",))
    torsor.add_argument("--out", metavar="PATH")

    cocycles = sub.add_parser("cocycles", help="brute-force H^1 demonstrations")
    cocycles.add_argument("--out", metavar="PATH")
    return parser


def _render(group: FgAbelianGroup, inverted: tuple[int, ...]) -> str:
    """Render ``group``; ``inverted`` holds distinct primes."""
    if inverted:
        return group.render(free_symbol=f"Z[1/{math.prod(inverted)}]")
    return group.render()


def _cmd_sl2z(args) -> str:
    if args.k < 0 or args.p < 0:
        raise UsageError("--k and --p must be nonnegative")
    try:
        invert = inverted_primes(args.invert or ())
        group = sl2z_cohomology(args.k, args.p, modulus=args.mod, invert=invert)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        payload = {"k": args.k, "p": args.p, "group": group_to_json(group)}
        if args.mod:
            payload["mod"] = args.mod
        if invert:
            payload["inverted"] = list(invert)
        return json.dumps(payload, sort_keys=True, indent=2)
    if args.format == "csv":
        return f"k,p,group\n{args.k},{args.p},{_render(group, invert)}"
    return _render(group, invert)


def _table_sl2z(args):
    if args.max_k < 0 or args.max_p < 0:
        raise UsageError("--max-k and --max-p must be nonnegative")
    cells = {(k, p): sl2z_cohomology(k, p)
             for k in range(args.max_k + 1) for p in range(args.max_p + 1)}
    if args.format == "json":
        return json.dumps({
            "table": "sl2z",
            "max_k": args.max_k,
            "max_p": args.max_p,
            "entries": [{"k": k, "p": p, "group": group_to_json(g)}
                        for (k, p), g in sorted(cells.items())],
        }, sort_keys=True, indent=2)
    if args.format == "csv":
        lines = ["k,p,group"]
        lines += [f"{k},{p},{g}" for (k, p), g in sorted(cells.items())]
        return "\n".join(lines)
    head = "| k \\ p | " + " | ".join(str(p) for p in range(args.max_p + 1)) + " |"
    rule = "|" + "---|" * (args.max_p + 2)
    lines = [head, rule]
    for k in range(args.max_k + 1):
        row = [f"Sym^{k}"] + [str(cells[(k, p)]) for p in range(args.max_p + 1)]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _table_moduli(args, half: bool):
    max_n = args.max_n if args.max_n is not None else (9 if half else 5)
    if max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    degrees = range(max_n + 1)
    if half:
        rows = [("Z[1/2] cohomology", [half_inverted_group(n) for n in degrees])]
    else:
        rows = [("pointed space", [m11_group(n) for n in degrees]),
                ("complement", [complement_group(n) for n in degrees])]
    if args.format == "json":
        payload = {
            "table": "moduli-half" if half else "moduli",
            "max_n": max_n,
            "rows": [{"name": name,
                      "groups": [group_to_json(g) for g in groups]}
                     for name, groups in rows],
        }
        if half:
            payload["inverted"] = [2]
        return json.dumps(payload, sort_keys=True, indent=2)
    inverted = (2,) if half else ()
    if args.format == "csv":
        lines = ["n," + ",".join(name for name, _ in rows)]
        for n in degrees:
            lines.append(f"{n}," + ",".join(
                _render(groups[n], inverted) for _, groups in rows))
        return "\n".join(lines)
    head = "| n | " + " | ".join(str(n) for n in degrees) + " |"
    rule = "|" + "---|" * (max_n + 2)
    lines = [head, rule]
    for name, groups in rows:
        lines.append("| " + name + " | "
                     + " | ".join(_render(g, inverted) for g in groups) + " |")
    return "\n".join(lines)


def _cmd_table(args) -> str:
    if args.which == "sl2z":
        return _table_sl2z(args)
    return _table_moduli(args, half=args.which == "moduli-half")


def _cmd_verify(args):
    runs = run_suites(args.suite, args.seed)
    results = [r for run in runs for r in run.results]
    passed = sum(r.passed for r in results)
    status = 0 if passed == len(results) else 1
    if args.format == "json":
        return json.dumps({
            "suite": args.suite,
            "seed": args.seed,
            "passed": passed,
            "total": len(results),
            "suites": [{"name": run.name,
                        "seconds": round(run.seconds, 6),
                        "checks": [{"name": r.name, "passed": r.passed,
                                    "detail": r.detail} for r in run.results]}
                       for run in runs],
        }, sort_keys=True, indent=2), status
    lines = [f"suite: {args.suite}", f"seed: {args.seed}"]
    lines += [r.line() for r in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines), status


def _cmd_torsor(args) -> str:
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
    return "\n".join(lines)


def _cmd_cocycles(args) -> str:
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
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        if args.command == "verify":
            text, status = _cmd_verify(args)
        elif args.command == "sl2z":
            text = _cmd_sl2z(args)
        elif args.command == "table":
            text = _cmd_table(args)
        elif args.command == "torsor":
            text = _cmd_torsor(args)
        else:
            text = _cmd_cocycles(args)
    except (UsageError, DegenerationUnproven) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
