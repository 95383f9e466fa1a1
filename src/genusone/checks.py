"""Named verification suites shared by the CLI and the test battery.

Every suite returns a list of CheckResult records; a suite passes when
all of its records do.  The ``tables`` suite compares the engine against
the frozen transcribed reference and is expected to flag the two cells
documented in ``reference``: it reports honestly rather than papering
over the disagreement.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache, partial

from . import reference
from .amalgam import (build_total_complex, sl2z_cohomology,
                      sl2z_cohomology_module)
from .cochains import DualVector, verify_cup_primitive, verify_d_after_a
from .cyclic import CyclicAction, cyclic_cohomology
from .exact_linalg import FgAbelianGroup, IntegerMatrix, cohomology_at
from .exterior import verify_square
from .group_modules import standard_coefficient_module
from .moduli import (complement_group, m11_group, mod2_consistency,
                     p_torsion_scan)
from .oracles import (bar_cohomology, random_cyclic_action,
                      random_known_complex, rational_rank, sparse_diagonal)
from .torsor import (build_canonical_torsor, cyclic_group_data,
                     FiniteGroupData, gl2_z4_group, h1_one_cocycles,
                     torsor_matrix_action, torsor_nontriviality_witness,
                     torsor_translation_orbit)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        """The report line ``genusone verify`` prints for this check."""
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" -- {self.detail}" if self.detail else "")


def _from_mismatches(name: str, mismatches: list, ok_detail: str) -> CheckResult:
    if not mismatches:
        return CheckResult(name, True, ok_detail)
    shown = "; ".join(mismatches[:4])
    if len(mismatches) > 4:
        shown += f"; and {len(mismatches) - 4} more"
    return CheckResult(name, False, shown)


def run_tables(seed: int = 0) -> list[CheckResult]:
    out = []
    mism = []
    for k in range(5):
        for p in range(8):
            got, want = sl2z_cohomology(k, p), reference.published_sl2z(k, p)
            if got != want:
                mism.append(f"(k={k}, p={p}): computed {got}, reference {want}")
    out.append(_from_mismatches(
        "H^p(SL2(Z), Sym^k) for k <= 4, p <= 7 vs transcribed grid",
        mism, "all 40 cells match"))
    mism = [f"n={n}: computed {m11_group(n)}, reference {reference.published_m11(n)}"
            for n in range(6) if m11_group(n) != reference.published_m11(n)]
    out.append(_from_mismatches(
        "pointed-space cohomology for n <= 5 vs transcribed row",
        mism, "all 6 entries match"))
    mism = [f"n={n}: computed {complement_group(n)}, "
            f"reference {reference.published_complement(n)}"
            for n in range(10)
            if complement_group(n) != reference.published_complement(n)]
    out.append(_from_mismatches(
        "complement cohomology for n <= 9 vs transcribed row",
        mism, "all 10 entries match"))
    return out


def run_mod2(seed: int = 0) -> list[CheckResult]:
    report = mod2_consistency(8)
    mism = [f"n={row.n}: expected {row.expected}, computed {row.computed}"
            for row in report.mismatches]
    dims = ",".join(str(r.computed) for r in report.rows)
    return [_from_mismatches(
        "mod-2 dimension count of the complement, degrees 0..8",
        mism, f"dimensions ({dims}) with zero mismatches")]


def run_torsor(seed: int = 0) -> list[CheckResult]:
    out = []
    config = build_canonical_torsor()
    out.append(CheckResult(
        "doubling-cover counts (12 order-4 elements, 6 sign classes, 4 partitions)",
        len(config.order_four) == 12 and len(config.classes) == 6
        and len(config.elements) == 4 and config.raw_labeling_count == 8,
        f"|T| = {len(config.elements)}"))
    transitive = all(
        len(set(torsor_translation_orbit(t, config).values())) == 4
        and [a for a, img in torsor_translation_orbit(t, config).items()
             if img == t] == [(0, 0)]
        for t in config.elements)
    out.append(CheckResult(
        "2-torsion translations act simply transitively on the partitions",
        transitive, "orbit size 4, trivial stabilizer, all 4 base points"))
    witness = torsor_nontriviality_witness(config)
    out.append(CheckResult(
        "the unipotent shear permutes the 4 partitions in a single cycle",
        witness.passed, f"cycle type {witness.cycles}, no fixed points"))
    ident = torsor_matrix_action(((1, 0), (0, 1)), config)
    minus = torsor_matrix_action(((3, 0), (0, 3)), config)
    out.append(CheckResult(
        "identity and -identity act trivially",
        all(v == k for k, v in ident.items())
        and all(v == k for k, v in minus.items()), ""))
    rng = random.Random(seed)
    group = gl2_z4_group()
    perm_of = cache(partial(torsor_matrix_action, config=config))  # once per matrix
    functorial = True
    for _ in range(200):
        gi, hi = rng.randrange(group.order), rng.randrange(group.order)
        g, h = group.elements[gi], group.elements[hi]
        gh = group.elements[group.table[gi][hi]]
        pg, ph, pgh = (perm_of(x) for x in (g, h, gh))
        if any(pgh[t] != pg[ph[t]] for t in config.elements):
            functorial = False
            break
    out.append(CheckResult(
        "matrix action is a homomorphism to Sym(T) (200 random pairs)",
        functorial, f"seed {seed}"))
    compatible = True
    for _ in range(200):
        g = group.elements[rng.randrange(group.order)]
        m = config.two_torsion[rng.randrange(4)]
        t = config.elements[rng.randrange(4)]
        gm = ((g[0][0] * m[0] + g[0][1] * m[1]) % 4,
              (g[1][0] * m[0] + g[1][1] * m[1]) % 4)
        perm = perm_of(g)
        if perm[config.translate(m, t)] != config.translate(gm, perm[t]):
            compatible = False
            break
    out.append(CheckResult(
        "matrix action intertwines the translations (200 random pairs)",
        compatible, f"seed {seed}"))
    h1 = h1_one_cocycles(group)
    out.append(CheckResult(
        "brute-force H^1 of the order-96 matrix group on (Z/2)^2",
        h1 == 1, f"dimension {h1}, so exactly one nontrivial class"))
    trivial = FiniteGroupData((0,), ((0,),), (((1, 0), (0, 1)),), 2)
    z3 = cyclic_group_data(3, ((1,),), 2)
    out.append(CheckResult(
        "solver sanity: trivial group and order-3 group on trivial F_2 modules",
        h1_one_cocycles(trivial) == 0 and h1_one_cocycles(z3) == 0, ""))
    agree = []
    for order, mat, p in ((4, ((0, -1), (1, 0)), 2), (6, ((0, -1), (1, 1)), 3),
                          (2, ((0, 1), (1, 0)), 2), (5, ((1,),), 5)):
        data = cyclic_group_data(order, mat, p)
        periodic = cyclic_cohomology(
            CyclicAction(order, IntegerMatrix([list(r) for r in mat]), base=p), 1)
        dim = periodic.free_rank + len(periodic.invariant_factors)
        agree.append(h1_one_cocycles(data) == dim)
    out.append(CheckResult(
        "solver matches the periodic-resolution H^1 on cyclic groups",
        all(agree), f"{len(agree)} cases"))
    amalgam_h1 = sl2z_cohomology_module(
        standard_coefficient_module("f2_squared"), 1)
    out.append(CheckResult(
        "amalgam engine gives an order-2 H^1 for the rank-2 mod-2 module",
        amalgam_h1.torsion_order == 2 and amalgam_h1.free_rank == 0,
        str(amalgam_h1)))
    return out


def run_splitting(seed: int = 0) -> list[CheckResult]:
    # both identities are proved on exact grids, so the seed is unused
    out = []
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            rep = verify_d_after_a(k, d, samples=None)
            out.append(CheckResult(
                f"coboundary of the degree-{k} alternating map vanishes, rank {d}",
                rep.passed, f"exact on the {rep.samples}-point grid of basis-form "
                f"tuples and degree-1 vectors"))
    for rank in (2, 3):
        basis = [DualVector([int(i == j) for j in range(rank)])
                 for i in range(rank)]
        bad = []
        for i in range(rank):
            for j in range(rank):
                rep = verify_cup_primitive(basis[i], basis[j])
                if not rep.passed:
                    bad.append((i, j))
        out.append(_from_mismatches(
            f"cup product matches the alternating map up to the explicit "
            f"primitive, rank {rank} basis pairs",
            [f"pair {ij}" for ij in bad],
            f"{rank * rank} pairs, exact on the {rep.samples}-point "
            f"degree-2 grid"))
    return out


def run_periodicity(seed: int = 0) -> list[CheckResult]:
    # one explicit complex up to degree 9, so H^8 sees its outgoing D_8;
    # sl2z_cohomology folds p >= 4 onto its parity and cannot test this
    mism = []
    for k in range(9):
        cpx = build_total_complex(standard_coefficient_module("sym_k", k), 9).complex
        for p in range(2, 7):
            a, b = cohomology_at(cpx, p), cohomology_at(cpx, p + 2)
            if a != b:
                mism.append(f"(k={k}): H^{p} = {a} but H^{p + 2} = {b}")
    return [_from_mismatches(
        "2-periodicity of H^p(SL2(Z), Sym^k) for 2 <= p <= 6, k <= 8",
        mism, "45 pairs compared")]


def run_ptorsion(seed: int = 0) -> list[CheckResult]:
    out = []
    for q in (3, 5, 7, 11, 13):
        witness = p_torsion_scan(q)
        out.append(CheckResult(
            f"q = {q}: invariant vector mod q and q-divisible factor in H^1",
            witness.passed,
            f"H^1(Sym^{q + 1}) = {witness.h1_group}, "
            f"factor {witness.divisible_factor}"))
    return out


def run_square(seed: int = 0) -> list[CheckResult]:
    out = []
    for k in (1, 2):
        rep = verify_square(k)
        out.append(CheckResult(
            f"pullback square commutes in symmetric degree {k} with one global sign",
            rep.passed, f"sign {rep.sign} across {len(rep.monomials)} monomials"))
    control = verify_square(1, flip_basis_vector=0)
    out.append(CheckResult(
        "control: flipping one basis vector breaks the global sign",
        not control.passed, "expected failure observed"))
    return out


def run_oracles(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = random.Random(seed)
    orders = (2, 3, 4, 6)
    mism = []
    # the draws repeat actions (rank 1 is +-1 only); a repeated action is
    # read through its first drawn instance, so its bar groups and its
    # periodic complex are built once, and compared again under each case
    # index
    first = {}
    for i in range(50):
        action = random_cyclic_action(rng, orders[i % 4])
        if action not in first:
            first[action] = (action, bar_cohomology(action, 3))
        action, bar_groups = first[action]
        for n, direct in enumerate(bar_groups):
            periodic = cyclic_cohomology(action, n)
            if direct != periodic:
                mism.append(f"case {i} (order {action.order}, rank "
                            f"{action.rank}, degree {n}): bar {direct}, "
                            f"periodic {periodic}")
    out.append(_from_mismatches(
        "bar-complex oracle vs periodic resolution, 50 random cyclic actions",
        mism, f"orders 2/3/4/6, ranks <= 3, degrees <= 3, seed {seed}"))
    mism = []
    for i in range(100):
        complex_, known = random_known_complex(rng)
        engine = cohomology_at(complex_, 1)
        incoming = complex_.differentials[0]
        outgoing = complex_.differentials[1]
        free = (complex_.ranks[1] - rational_rank(outgoing)
                - rational_rank(incoming))
        torsion = [d for d in sparse_diagonal(incoming) if d > 1]
        oracle = FgAbelianGroup(free, torsion)
        if not (engine == known == oracle):
            mism.append(f"case {i}: planted {known}, engine {engine}, "
                        f"oracle {oracle}")
    out.append(_from_mismatches(
        "mapping-cone engine vs planted groups vs rank/divisor oracle, "
        "100 random complexes",
        mism, f"seed {seed}"))
    return out


SUITES = {
    "tables": run_tables,
    "mod2": run_mod2,
    "torsor": run_torsor,
    "splitting": run_splitting,
    "periodicity": run_periodicity,
    "ptorsion": run_ptorsion,
    "square": run_square,
    "oracles": run_oracles,
}


@dataclass(frozen=True)
class SuiteRun:
    name: str
    seconds: float
    results: list[CheckResult]


def run_suites(name: str, seed: int = 0) -> list[SuiteRun]:
    """Run one suite, or every suite for ``all``, timing each call once."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; "
                       f"choose from all, {', '.join(SUITES)}")
    runs = []
    for suite in SUITES if name == "all" else (name,):
        start = time.perf_counter()
        results = SUITES[suite](seed)
        runs.append(SuiteRun(suite, time.perf_counter() - start, results))
    return runs


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    return [r for run in run_suites(name, seed) for r in run.results]
