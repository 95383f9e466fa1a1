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

The blocks come straight from S and U, with -I acting as c = S^2.
``_parity_blocks`` checks the relations S^4 = 1 and S^2 = U^3 that make
them the cyclic groups' blocks, by two r x r products.  It is the only
check of those relations (a ``GroupModule`` checks just the shapes of S
and U), and it is exactly the d o d = 0 of the complex, which is
therefore stored without the row-by-row check of ``CochainComplex``.
Each block of D_n depends only on the parity of n once n >= 1, so
D_n = D_{n+2} for n >= 1.  Each module gets one complex, in degrees 0..3.
As C^3 = C^1, H^3 = ker D_1 / im D_2 has the free rank of H^2 and the
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

from functools import lru_cache
from typing import NamedTuple

from .exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix,
                           _is_prime, _require_int, cohomology_at)
from .group_modules import GroupModule, standard_coefficient_module


class AmalgamComplex(NamedTuple):
    """Total complex of the amalgam mapping cone for one coefficient module."""

    complex: CochainComplex


def _parity_blocks(module: GroupModule):
    """Blocks of D_n for even and for odd n: (dA, dB, -dC at n - 1, r_A, -r_B),
    after checking that the module satisfies the relations of SL2(Z).

    With c = S^2, the action of -I, (dA, dB, dC, r_A, r_B) is
    (S - 1, U - 1, 1 + c, 1, 1) for even n and ((1 + c)(1 + S),
    (1 + c)(1 + U + U^2), c - 1, 1 + S, 1 + U + U^2) for odd n.  Over F_p
    every block is reduced, as built, and the algebra below holds in
    M_r(F_p) as it does in M_r(Z).  Each X + t with X one of S, U, c, -c or
    0, and the identity in 1 + U + U^2, is ``IntegerMatrix.add_identity``,
    which touches one entry per row and reduces only it, as S and U of an
    F_p module are stored reduced.

    The relation check is the d o d = 0 of the whole complex.  The nonzero
    blocks of D_1 o D_0 are c^2 - 1 (row A), (1 + c)(U^3 - 1) (row B) and
    c - U^3 (row C, column B); its block in row C, column A is S^2 - c,
    which is 0 by the definition of c.  So D_1 o D_0 = 0 exactly when
    S^4 = c^2 = 1 and U^3 = c, the presentation <S, U | S^4 = 1, S^2 = U^3>
    of SL2(Z) (Serre, *Trees*, I.4).  Given them, U commutes with c = U^3,
    and every block of D_2 o D_1 and of D_1 o D_2 is c^2 - 1,
    (1 + c)(U^3 - 1) = c^2 - 1, c - U^3 or identically 0, so each vanishes.
    As D_n = D_{n+2} for n >= 1, d o d = 0 in every degree.  The two
    relations cost the products c c and U (U U), where the row-by-row check
    multiplies D_1 by D_0 and D_2 by D_1 out.  A module that fails either
    raises the ValueError that check would, naming the relation.  Then
    every block is that of ``cyclic.CyclicAction`` or
    ``restriction_cochain_matrix`` for <S>, <U> and <c>: the norms are
    1 + S + S^2 + S^3 and 1 + U + ... + U^5.
    """
    base = module.base

    def reduced(m: IntegerMatrix) -> IntegerMatrix:
        return m if base is None else m.mod(base)

    s, u = module.s, module.u
    c = reduced(s * s)
    u_u = reduced(u * u)
    broken = [relation for relation, holds in (("S^4 = 1", reduced(c * c).is_identity()),
                                               ("U^3 = S^2", reduced(u * u_u) == c))
              if not holds]
    if broken:
        raise ValueError("d1 o d0 is not zero; not a complex: the module fails "
                         + " and ".join(broken))
    r = module.rank
    res_a = s.add_identity(1, base)
    res_b = reduced(u + u_u).add_identity(1, base)
    norm_c = c.add_identity(1, base)
    neg_c = reduced(-c)
    return [(s.add_identity(-1, base), u.add_identity(-1, base), neg_c.add_identity(-1, base),
             IntegerMatrix.identity(r), IntegerMatrix.zeros(r, r).add_identity(-1, base)),
            (reduced(norm_c * res_a), reduced(norm_c * res_b), neg_c.add_identity(1, base),
             res_a, reduced(-res_b))]


def build_total_complex(module: GroupModule, top_degree: int) -> AmalgamComplex:
    """Assemble the mapping-cone complex in degrees 0..top_degree.

    top_degree must be at least 2, so that the relations that
    ``_parity_blocks`` checks are exactly d o d = 0 of the complex built;
    a complex without D_1 would not need them.  That check certifies the
    complex, which is therefore stored unchecked.  H^p needs degrees up to
    p + 1.
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

    ranks = (2 * r,) + (3 * r,) * top_degree
    # D_n = D_{n+2} for n >= 1, so one matrix serves both; over F_p it is
    # built reduced, so the complex keeps it as it is and it stays shared
    diffs = []
    for n in range(top_degree):
        diffs.append(differential(n) if n < 3 else diffs[n - 2])
    return AmalgamComplex(CochainComplex._stored(ranks, tuple(diffs), module.base))


TRANSFER_MODULUS = 24


def transfer_cohomology(complex_: CochainComplex, p: int) -> FgAbelianGroup:
    """H^p(SL2(Z), M) from the degree-3 amalgam complex of M (module docstring)."""
    _check_degree(p)
    if len(complex_.ranks) != 4:
        raise ValueError(f"need the degree-3 complex, not degree {len(complex_.ranks) - 1}")
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


def sl2z_cohomology(k: int, p: int, modulus: int | None = None) -> FgAbelianGroup:
    """H^p(SL2(Z), Sym^k) over Z, or over F_modulus.

    With primes inverted it is ``exact_linalg.localize`` of the integral group.

    >>> str(sl2z_cohomology(0, 2))
    'Z/12'
    >>> str(sl2z_cohomology(2, 1))
    'Z + Z/2'
    >>> str(sl2z_cohomology(1, 1, modulus=2))
    'Z/2'
    >>> str(sl2z_cohomology(28, 2))
    'Z/2 + Z/2 + Z/2 + Z/2 + Z/4'
    """
    _require_int("k", k)
    _require_int("p", p)
    if modulus is not None:
        _require_int("modulus", modulus)
    if k < 0 or p < 0:
        raise ValueError("k and p must be non-negative")
    if modulus is not None and not _is_prime(modulus):
        raise ValueError(f"modulus must be a prime, got {modulus}")
    return sl2z_cohomology_module(standard_coefficient_module("sym_k", k, base=modulus), p)


def sl2z_cohomology_module(module: GroupModule, p: int) -> FgAbelianGroup:
    """H^p(SL2(Z), M) from M's degree-3 complex, built (checking M) once per M."""
    _check_degree(p)
    return transfer_cohomology(_module_complex(module), p)


def _check_degree(p: int) -> None:
    _require_int("p", p)
    if p < 0:
        raise ValueError("p must be non-negative")
