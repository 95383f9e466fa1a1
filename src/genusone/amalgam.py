"""Cohomology of SL2(Z) through its amalgam decomposition.

SL2(Z) = Z/4 *_{Z/2} Z/6, amalgamated over the central subgroup generated
by -I.  Acting on the Bass-Serre tree gives a short exact sequence of
permutation modules which, after applying Hom and Shapiro's lemma,
identifies the cochain complex of SL2(Z) with the mapping-cone total
complex of the restriction-difference map

    C*(Z/4, M) (+) C*(Z/6, M)  --( r_A - r_B )-->  C*(Z/2, M).

Concretely the degree-n term is A^n (+) B^n (+) C^{n-1} (no C block in
degree 0) and the differential is

    D(a, b, c) = (dA a, dB b, r_A(a) - r_B(b) - dC c),

which squares to zero because the restrictions are chain maps.  Computing
cohomology of this single complex avoids the extension ambiguities a long
exact sequence would leave behind; in particular the Z/4 inside
H^2(SL2(Z), Sym^4) comes out as Z/4 and not (Z/2)^2.

The blocks come straight from S and U, with -I acting as c = S^2; the
d o d check of the unreduced complex certifies the relations that make
them the cyclic groups' blocks (``_parity_blocks``).  It is the only
check of those relations: a ``GroupModule`` checks just the shapes of S
and U.
Each block of D_n depends only on the parity of n once n >= 1, so
D_n = D_{n+2} for n >= 1.  Each module gets one complex, in degrees 0..3,
validated once: the checks of D_1 o D_0 and D_2 o D_1 certify the
relations, which force D_1 o D_2 = 0, so D_3 = D_1 needs no check.  As
C^3 = C^1, H^3 = ker D_1 / im D_2 has the free rank of H^2 and the
torsion of coker D_2, and H^p for p >= 4 is H^{2 + p % 2}.

Over Z the transfer bounds H^2 and H^3.  The commutator subgroup of
SL2(Z) is free of rank 2 and index 12 (Serre, *Trees*), so cor o res = 12
kills H^p(SL2(Z), M) for p >= 2 and every M (Brown, *Cohomology of
Groups*, III.9-10): H^2 and H^3 have no free part, and every elementary
divisor of D_1 and D_2 divides 12.  So a diagonal form modulo 24 gives
each one's rank (rows minus the factors 24) and divisors (the factors
below 24); only D_0, whose divisors are H^1's unbounded torsion, keeps
``bareiss_rank``.  A rank mod 24 never exceeds the true one, and d o d = 0
bounds rank D_1 + rank D_2 by rank C^2, so ``transfer_cohomology`` raises
RuntimeError unless the sum reaches it: equality certifies both ranks and
rules out a divisor divisible by 24.  Over F_p the reduced differentials
vanish and dim H^3 = dim H^2.

A ``GroupModule`` is hashable, so one cache keyed by the module holds its
complex, built once; ``sl2z_cohomology`` reads Sym^k through the same
cache.  Reduced once on its unit pivots, the complex keeps one record per
reduced differential (``exact_linalg.CochainComplex.reduced``) for every
H^p to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix,
                           _is_prime, cohomology_at, inverted_primes, localize)
from .group_modules import GroupModule, standard_coefficient_module


@dataclass(frozen=True)
class AmalgamComplex:
    """Total complex of the amalgam mapping cone for one coefficient module."""

    complex: CochainComplex


def _parity_blocks(module: GroupModule):
    """Blocks of D_n for even and for odd n: (dA, dB, -dC at n - 1, r_A, -r_B).

    With c = S^2, the action of -I, (dA, dB, dC, r_A, r_B) is
    (S - 1, U - 1, 1 + c, 1, 1) for even n and ((1 + c)(1 + S),
    (1 + c)(1 + U + U^2), c - 1, 1 + S, 1 + U + U^2) for odd n.  Nothing is
    checked here: D_1 o D_0 has S^2 - U^3 in its C row and
    (1 + S^2)(S^2 - 1) = S^4 - 1 in its A row, so the d o d check of the
    unreduced complex passes only if the presentation
    <S, U | S^4 = 1, S^2 = U^3> of SL2(Z) holds.  Then every block is that
    of ``cyclic.CyclicAction`` or ``restriction_cochain_matrix`` for <S>,
    <U> and <c>: the norms are 1 + S + S^2 + S^3 and 1 + U + ... + U^5.
    Over F_p every block is reduced, as built.
    """
    base = module.base

    def reduced(m: IntegerMatrix) -> IntegerMatrix:
        return m if base is None else m.mod(base)

    s, u = module.s, module.u
    c = s * s
    eye = IntegerMatrix.identity(module.rank)
    res_a = reduced(eye + s)
    res_b = reduced(eye + u + u * u)
    norm_c = reduced(eye + c)
    return [(reduced(s - eye), reduced(u - eye), reduced(-norm_c), eye, reduced(-eye)),
            (reduced(norm_c * res_a), reduced(norm_c * res_b), reduced(eye - c),
             res_a, reduced(-res_b))]


def build_total_complex(module: GroupModule, top_degree: int) -> AmalgamComplex:
    """Assemble the mapping-cone complex in degrees 0..top_degree.

    top_degree must be at least 2: the check of D_1 o D_0 certifies the
    module's relations, and nothing else does (see ``_parity_blocks``).
    H^p needs degrees up to p + 1.
    """
    if top_degree < 2:
        raise ValueError("top_degree must be at least 2")
    blocks = _parity_blocks(module)
    r = module.rank
    zero = IntegerMatrix.zeros(r, r)

    def differential(n: int) -> IntegerMatrix:
        da, db, neg_dc, res_a, neg_res_b = blocks[n % 2]
        if n == 0:
            grid = [[da, zero],
                    [zero, db],
                    [res_a, neg_res_b]]
        else:
            grid = [[da, zero, zero],
                    [zero, db, zero],
                    [res_a, neg_res_b, neg_dc]]
        return IntegerMatrix.from_blocks(grid)

    ranks = [2 * r] + [3 * r] * top_degree
    # D_n = D_{n+2} for n >= 1, so one matrix serves both; over F_p it is
    # built reduced, so the complex keeps it as it is and it stays shared
    diffs = []
    for n in range(top_degree):
        diffs.append(differential(n) if n < 3 else diffs[n - 2])
    return AmalgamComplex(CochainComplex(ranks, diffs, base=module.base))


TRANSFER_MODULUS = 24


def transfer_cohomology(complex_: CochainComplex, p: int) -> FgAbelianGroup:
    """H^p(SL2(Z), M) from the degree-3 amalgam complex of M (module docstring)."""
    if complex_.base is not None or p == 0:
        return cohomology_at(complex_, min(p, 2))
    ranks, records = complex_.reduced()
    reads = [(record.shape[0], record.factors_mod(TRANSFER_MODULUS)) for record in records[1:]]
    rank_1, rank_2 = (rows - factors.count(TRANSFER_MODULUS) for rows, factors in reads)
    if rank_1 + rank_2 != ranks[2]:
        raise RuntimeError(f"transfer bound failed: rank D_1 + rank D_2 < rank C^2 = {ranks[2]}")
    if p == 1:
        return FgAbelianGroup(ranks[1] - rank_1 - records[0].rank, records[0].divisors)
    return FgAbelianGroup(0, [f for f in reads[p % 2][1] if f < TRANSFER_MODULUS])


@lru_cache(maxsize=None)
def _module_complex(module: GroupModule) -> CochainComplex:
    return build_total_complex(module, 3).complex


def sl2z_cohomology(k: int, p: int, modulus: int | None = None,
                    invert: Iterable[int] = ()) -> FgAbelianGroup:
    """H^p(SL2(Z), Sym^k) over Z, over F_modulus, or with primes inverted.

    >>> str(sl2z_cohomology(0, 2))
    'Z/12'
    >>> str(sl2z_cohomology(2, 1))
    'Z + Z/2'
    >>> str(sl2z_cohomology(1, 1, modulus=2))
    'Z/2'
    >>> str(sl2z_cohomology(28, 2))
    'Z/2 + Z/2 + Z/2 + Z/2 + Z/4'
    """
    if k < 0 or p < 0:
        raise ValueError("k and p must be non-negative")
    if modulus is not None and not _is_prime(modulus):
        raise ValueError(f"modulus must be a prime, got {modulus}")
    inverted = inverted_primes(invert)
    if modulus is not None and inverted:
        raise ValueError("choose either a prime field or primes to invert, not both")
    group = sl2z_cohomology_module(standard_coefficient_module("sym_k", k, base=modulus), p)
    return localize(group, inverted) if inverted else group


def sl2z_cohomology_module(module: GroupModule, p: int) -> FgAbelianGroup:
    """H^p(SL2(Z), M) from M's degree-3 complex, built (checking M) once per M."""
    if p < 0:
        raise ValueError("p must be non-negative")
    return transfer_cohomology(_module_complex(module), p)
