"""Regenerate ``bench/expected.json``, the answers the benchmark checks against.

    python3 bench/make_expected.py        (from the repository root, ~2 min)

No stored answer comes from the engine's elimination (``cohomology_at``).
Each integral group H^p(SL2(Z), Sym^k) is read off the mapping-cone
complex's differentials by the oracles: ranks from ``oracles.rational_rank``
(fraction elimination), torsion from ``oracles.sparse_diagonal`` (elementary
divisors of d_{p-1}, checked to be as many as the rank), so

    H^p = Z^(rank C^p - rank d_p - rank d_{p-1})  +  sum of Z/e, e > 1.

Each F_2 dimension follows from the integral groups by universal
coefficients: dim H^p(F_2) = dim(H^p (x) F_2) + dim H^{p+1}[2].  The verify
expectations are the documented outcome: every check passes except the two
reference discrepancies, (k=4, p=1) and complement n=9.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import (BENCH, CLIFF_CELLS, F2_CELLS, GRID_MAX_K, GRID_MAX_P,
                 MINI_WORKLOADS, SRC)

sys.path.insert(0, str(SRC))

from genusone.amalgam import build_total_complex  # noqa: E402
from genusone.group_modules import standard_coefficient_module  # noqa: E402
from genusone.oracles import rational_rank, sparse_diagonal  # noqa: E402

GRID_FAILURE = ("[FAIL] H^p(SL2(Z), Sym^k) for k <= 4, p <= 7 vs transcribed grid"
                " -- (k=4, p=1): computed Z + Z/12, reference Z + Z/6")
COMPLEMENT_FAILURE = ("[FAIL] complement cohomology for n <= 9 vs transcribed row"
                      " -- n=9: computed Z + Z/2 + Z/2 + Z/2 + Z/12,"
                      " reference Z + Z/2 + Z/2 + Z/2 + Z/6")
VERIFY = {
    "all": {"checks": 33, "documented_failures": [GRID_FAILURE, COMPLEMENT_FAILURE]},
    "tables": {"checks": 3, "documented_failures": [GRID_FAILURE, COMPLEMENT_FAILURE]},
}


def oracle_group(complex_, p):
    """[free rank, elementary divisors > 1] of H^p, without the engine's SNF."""
    outgoing, incoming = complex_.differential(p), complex_.differential(p - 1)
    rank_in = rational_rank(incoming)
    divisors = sparse_diagonal(incoming)
    if len(divisors) != rank_in:
        raise RuntimeError(f"oracles disagree on the rank of d_{p - 1}")
    free = complex_.ranks[p] - rational_rank(outgoing) - rank_in
    return [free, [d for d in divisors if d > 1]]


def mod2_cells():
    mini = {(int(argv[2]), int(argv[4])) for argv in MINI_WORKLOADS["f2_large_k"](0)}
    return sorted(set(F2_CELLS) | mini)


def main():
    wanted = defaultdict(set)
    for k in range(GRID_MAX_K + 1):
        wanted[k] |= set(range(GRID_MAX_P + 1))
    for k, p in CLIFF_CELLS:
        wanted[k].add(p)
    for k, p in mod2_cells():
        wanted[k] |= {p, p + 1}
    integral = {}
    for k in sorted(wanted):
        top = max(wanted[k]) + 1
        complex_ = build_total_complex(standard_coefficient_module("sym_k", k), top).complex
        for p in sorted(wanted[k]):
            integral[f"{k},{p}"] = oracle_group(complex_, p)
        print(f"k={k}: p in {sorted(wanted[k])}", file=sys.stderr)
    mod2 = {}
    for k, p in mod2_cells():
        here, above = integral[f"{k},{p}"], integral[f"{k},{p + 1}"]
        mod2[f"{k},{p}"] = (here[0] + sum(d % 2 == 0 for d in here[1])
                            + sum(d % 2 == 0 for d in above[1]))
    payload = {"integral": integral, "mod2": mod2, "verify": VERIFY}
    Path(BENCH / "expected.json").write_text(json.dumps(payload, indent=1) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    main()
