"""Cohomology of SL2(Z) through its amalgam decomposition.

SL2(Z) = Z/4 *_{Z/2} Z/6, amalgamated over the central subgroup generated
by -I.  Acting on the Bass-Serre tree gives a short exact sequence of
permutation modules which, after applying Hom and Shapiro's lemma,
identifies the cochain complex of SL2(Z) with the mapping cone of the
restriction-difference map

    C*(Z/4, M) (+) C*(Z/6, M)  --( r_A - r_B )-->  C*(Z/2, M).

Its degree-n term is A^n (+) B^n (+) C^{n-1} (no C block in degree 0),
each a copy of the rank-r module, and its differential is

    D(a, b, g) = (dA a, dB b, r_A(a) - r_B(b) - dC g),

which squares to zero because the restrictions are chain maps.  Computing
cohomology of this single complex avoids the extension ambiguities a long
exact sequence would leave behind; in particular the Z/4 inside
H^2(SL2(Z), Sym^4) comes out as Z/4 and not (Z/2)^2.

That cone has ranks 2r, 3r, 3r, ...  In every even degree n both
restrictions are identities, so the C^n row of D_n is (1, -1, -(1 + c)),
with c = S^2 the action of -I: a unit block.  ``build_total_complex``
cancels it once, on the blocks, by the step the unit-pivot reduction
would take one pivot at a time: it substitutes b = a - (1 + c)g and drops
B^n and C^n.  What is left is the classical period-2 resolution, of ranks
r, 2r, ..., 2r, and 3r in the top degree when that is even (no D_top
cancels B^top), with N = 1 + U + U^2:

    D_0 = [S - 1; U - 1],
    odd D_n = [[(1 + c)(1 + S), 0], [1 + S, -N]] on (A^n, B^n),
    even D_n = [[S - 1, 0], [U - 1, -(U - 1)(1 + c)]] on (A^n, C^{n-1}),

and an odd D_n whose n + 1 is an even top keeps the row [0, (1 + c)N] of
B^{n+1} between its two rows.  The blocks come straight from S and U,
and ``_parity_blocks`` checks the relations S^4 = 1 and S^2 = U^3 that
make them the cyclic groups' blocks, by two r x r products.  It is the
only check of those relations (a ``GroupModule`` checks just the shapes
of S and U), and it is exactly the d o d = 0 of the resolution, which is
therefore stored without the row-by-row check of ``CochainComplex``.
D_n = D_{n+2} for n >= 1 but at an even top.  Each module gets one
complex, in degrees 0..3.  As C^3 = C^1, H^3 = ker D_1 / im D_2 has the
free rank of H^2 and the torsion of coker D_2, and H^p for p >= 4 is
H^{2 + p % 2}.

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
cache.  Reduced once on its remaining unit pivots, the complex keeps one
record per reduced differential (``exact_linalg.CochainComplex.reduced``)
for every H^p to read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix,
                           _is_prime, _require_int, cohomology_at)
from .group_modules import GroupModule, standard_coefficient_module


class AmalgamComplex(NamedTuple):
    """The amalgam resolution of one coefficient module (module docstring)."""

    complex: CochainComplex


def _parity_blocks(module: GroupModule):
    """The blocks of the resolution, after checking that the module satisfies
    the relations of SL2(Z): for even n (S - 1, U - 1, -(U - 1)(1 + c)), for
    odd n ((1 + c)(1 + S), 1 + S, -N), and 1 + c, with N = 1 + U + U^2.

    Over F_p each is formed reduced, with no ``IntegerMatrix.mod`` rescan:
    X + t by ``add_identity``, which touches one entry per row, and every
    product and sum by ``times`` and ``plus``, which reduce each row in its
    accumulator, so a factor may be unreduced (-U, 1 - U, -U^2) and a negated
    block is formed from a negated factor.

    The relation check is the d o d = 0 of the whole complex.  As
    (1 + S)(S - 1) = c - 1 and N(U - 1) = U^3 - 1, D_1 o D_0 is
    ((1 + c)(c - 1); c - U^3), with the row (1 + c)(U^3 - 1) between at
    top 2.  So D_1 o D_0 = 0 exactly when S^4 = c^2 = 1 and U^3 = c, the
    presentation <S, U | S^4 = 1, S^2 = U^3> of SL2(Z) (Serre, *Trees*,
    I.4), which the products c c and U (U U) decide.  Given them, U commutes
    with c = U^3, and D_2 o D_1 = ((1 + c)(c - 1), 0; 0, (1 + c)(U^3 - 1)),
    D_1 o D_2 = ((1 + c)(c - 1), 0; c - U^3, (U^3 - 1)(1 + c)) and the row
    of B^top times D_2, (1 + c)(U^3 - 1)(1, -(1 + c)), all vanish.  As
    D_n = D_{n+2} otherwise, d o d = 0 in every degree.  A module that
    fails a relation raises the ValueError the row-by-row check would,
    naming the relation.  Then every block is that of ``cyclic.CyclicAction``
    or ``restriction_cochain_matrix`` for <S>, <U> and <c>: (1 + c)(1 + S)
    and (1 + c)N are the norms of Z/4 and Z/6, 1 + S and N the partial
    norms of the restrictions to Z/2.
    """
    base, s, u = module.base, module.s, module.u
    c, u_u = s.times(s, base), u.times(u, base)
    broken = [relation for relation, holds in (("S^4 = 1", c.times(c, base).is_identity()),
                                               ("U^3 = S^2", u.times(u_u, base) == c))
              if not holds]
    if broken:
        raise ValueError("d1 o d0 is not zero; not a complex: the module fails "
                         + " and ".join(broken))
    neg_u = u * -1
    norm_c, res_a = c.add_identity(1, base), s.add_identity(1, base)
    return ((s.add_identity(-1, base), u.add_identity(-1, base),
             neg_u.add_identity(1).times(norm_c, base)),
            (norm_c.times(res_a, base), res_a, neg_u.plus(u_u * -1, base).add_identity(-1, base)),
            norm_c)


def build_total_complex(module: GroupModule, top_degree: int) -> AmalgamComplex:
    """The resolution in degrees 0..top_degree (module docstring): ranks r,
    2r, ..., 2r, and 3r in the top degree when it is even.

    top_degree must be at least 2, so that the relations that
    ``_parity_blocks`` checks are exactly d o d = 0 of the complex built;
    a complex without D_1 would not need them.  That check certifies the
    complex, which is therefore stored unchecked.  H^p needs degrees up to
    p + 1.
    """
    if top_degree < 2:
        raise ValueError("top_degree must be at least 2")
    (s_1, u_1, paired), (norm_s, res_a, neg_norm), norm_c = _parity_blocks(module)
    r = module.rank
    zero = IntegerMatrix.zeros(r, r)
    odd = [[norm_s, zero], [res_a, neg_norm]]
    grids = ([[s_1], [u_1]], odd, [[s_1, zero], [u_1, paired]])
    # D_n = D_{n+2} for n >= 1, so one matrix serves both; over F_p it is
    # built reduced, so the complex keeps it as it is and it stays shared
    diffs = [IntegerMatrix.from_blocks(grid) for grid in grids[:top_degree]]
    diffs += [diffs[2 - n % 2] for n in range(3, top_degree)]
    if top_degree % 2 == 0:
        # no D_top pairs B^top off, so the last odd differential keeps its row
        odd.insert(1, [zero, (norm_c * -1).times(neg_norm, module.base)])
        diffs[-1] = IntegerMatrix.from_blocks(odd)
    ranks = (r,) + (2 * r,) * (top_degree - 1) + ((3 - top_degree % 2) * r,)
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
