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

Every block of D_n depends only on the parity of n once n >= 1 (the
periodic differentials and the restrictions alternate with period 2), so
D_n = D_{n+2} for n >= 1, and ``build_total_complex`` holds one matrix
for both.  ``sl2z_cohomology`` therefore builds one complex
per (k, base), in degrees 0..4, which carries D_0..D_3, validates it once,
and reads every p >= 4 as p' = 2 + p % 2: H^p needs D_{p-1} and D_p, and
those are D_{p'-1} and D_{p'}.  The cached complex reduces itself on its
unit pivots once and keeps one invariants record per reduced
differential (``exact_linalg.CochainComplex.reduced``), so every H^p of a
given (k, base) reads ranks and divisors computed once; there is no
separate cache of groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .cyclic import CyclicAction, restriction_cochain_matrix
from .exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix,
                           _is_prime, cohomology_at, inverted_primes, localize)
from .group_modules import GroupModule, standard_coefficient_module


@dataclass(frozen=True)
class AmalgamComplex:
    """Total complex of the amalgam mapping cone for one coefficient module."""

    complex: CochainComplex
    module_name: str
    module_rank: int
    top_degree: int


def _vertex_actions(module: GroupModule):
    s = module.action("S")
    u = module.action("U")
    if "-I" in module.actions:
        minus = module.actions["-I"]
    else:
        minus = s * s
    base = module.base
    return (CyclicAction(4, s, base), CyclicAction(6, u, base),
            CyclicAction(2, minus, base))


def _parity_blocks(module: GroupModule):
    """Blocks of D_n for even and for odd n: (dA, dB, dC at n - 1, r_A, r_B)."""
    a, b, c = _vertex_actions(module)

    def delta(action: CyclicAction, n: int) -> IntegerMatrix:
        return action.coboundary() if n % 2 == 0 else action.norm()

    return [(delta(a, n), delta(b, n), delta(c, n - 1),
             restriction_cochain_matrix(a, 2, n), restriction_cochain_matrix(b, 3, n))
            for n in (0, 1)]


def build_total_complex(module: GroupModule, top_degree: int) -> AmalgamComplex:
    """Assemble the mapping-cone complex in degrees 0..top_degree.

    top_degree must be at least 1 so that the complex carries at least one
    differential; H^p needs degrees up to p + 1 so that both neighbouring
    differentials exist.
    """
    if top_degree < 1:
        raise ValueError("top_degree must be at least 1")
    blocks = _parity_blocks(module)
    r = module.rank
    zero = IntegerMatrix.zeros(r, r)

    def differential(n: int) -> IntegerMatrix:
        da, db, dc, res_a, res_b = blocks[n % 2]
        if n == 0:
            grid = [[da, zero],
                    [zero, db],
                    [res_a, -res_b]]
        else:
            grid = [[da, zero, zero],
                    [zero, db, zero],
                    [res_a, -res_b, -dc]]
        total = IntegerMatrix.from_blocks(grid)
        return total if module.base is None else total.mod(module.base)

    ranks = [2 * r] + [3 * r] * top_degree
    # D_n = D_{n+2} for n >= 1, so one matrix serves both; over F_p it is
    # built reduced, so the complex keeps it as it is and it stays shared
    diffs = []
    for n in range(top_degree):
        diffs.append(differential(n) if n < 3 else diffs[n - 2])
    total = CochainComplex(ranks, diffs, base=module.base)
    return AmalgamComplex(total, module.name, r, top_degree)


@lru_cache(maxsize=None)
def _sym_complex(k: int, modulus: int | None) -> AmalgamComplex:
    return build_total_complex(standard_coefficient_module("sym_k", k, base=modulus), 4)


def sl2z_cohomology(k: int, p: int, modulus: int | None = None,
                    invert: Iterable[int] = ()) -> FgAbelianGroup:
    """H^p(SL2(Z), Sym^k) over Z, over F_modulus, or with primes inverted.

    >>> str(sl2z_cohomology(0, 2))
    'Z/12'
    >>> str(sl2z_cohomology(2, 1))
    'Z + Z/2'
    >>> str(sl2z_cohomology(1, 1, modulus=2))
    'Z/2'
    """
    if k < 0 or p < 0:
        raise ValueError("k and p must be non-negative")
    if modulus is not None and not _is_prime(modulus):
        raise ValueError(f"modulus must be a prime, got {modulus}")
    inverted = inverted_primes(invert)
    if modulus is not None and inverted:
        raise ValueError("choose either a prime field or primes to invert, not both")
    if p >= 4:
        # D_{p-1}, D_p are D_1, D_2 (p even) or D_2, D_3 (p odd)
        p = 2 + p % 2
    group = cohomology_at(_sym_complex(k, modulus).complex, p)
    if inverted:
        group = localize(group, inverted)
    return group


def sl2z_cohomology_module(module: GroupModule, p: int) -> FgAbelianGroup:
    """H^p(SL2(Z), M) for an arbitrary module carrying the generator actions."""
    if p < 0:
        raise ValueError("p must be non-negative")
    return cohomology_at(build_total_complex(module, p + 2).complex, p)
