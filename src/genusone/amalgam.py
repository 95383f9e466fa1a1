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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .cyclic import CyclicAction, restriction_cochain_matrix
from .exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix,
                           _is_prime, cohomology_at, localize)
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


def build_total_complex(module: GroupModule, top_degree: int) -> AmalgamComplex:
    """Assemble the mapping-cone complex in degrees 0..top_degree.

    top_degree must be at least 1 so that the complex carries at least one
    differential; callers wanting H^p should build to p + 2 (the default in
    ``sl2z_cohomology``) so both neighbouring differentials exist.
    """
    if top_degree < 1:
        raise ValueError("top_degree must be at least 1")
    a, b, c = _vertex_actions(module)
    r = module.rank
    zero = IntegerMatrix.zeros(r, r)

    def delta(action: CyclicAction, n: int) -> IntegerMatrix:
        return action.coboundary() if n % 2 == 0 else action.norm()

    ranks = [2 * r] + [3 * r] * top_degree
    diffs = []
    for n in range(top_degree):
        res_a = restriction_cochain_matrix(a, 2, n)
        res_b = restriction_cochain_matrix(b, 3, n)
        if n == 0:
            grid = [[delta(a, 0), zero],
                    [zero, delta(b, 0)],
                    [res_a, -res_b]]
        else:
            grid = [[delta(a, n), zero, zero],
                    [zero, delta(b, n), zero],
                    [res_a, -res_b, -delta(c, n - 1)]]
        diffs.append(IntegerMatrix.from_blocks(grid))
    total = CochainComplex(ranks, diffs, base=module.base)
    return AmalgamComplex(total, module.name, r, top_degree)


@lru_cache(maxsize=None)
def _sym_complex(k: int, top_degree: int, modulus: int | None) -> AmalgamComplex:
    module = standard_coefficient_module("sym_k", k)
    if modulus is not None:
        module = module.reduce(modulus)
    return build_total_complex(module, top_degree)


@lru_cache(maxsize=None)
def _sym_cohomology(k: int, p: int, modulus: int | None) -> FgAbelianGroup:
    return cohomology_at(_sym_complex(k, p + 2, modulus).complex, p)


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
    inverted = frozenset(invert)
    if modulus is not None and inverted:
        raise ValueError("choose either a prime field or primes to invert, not both")
    group = _sym_cohomology(k, p, modulus)
    if inverted:
        group = localize(group, inverted)
    return group


def sl2z_cohomology_module(module: GroupModule, p: int) -> FgAbelianGroup:
    """H^p(SL2(Z), M) for an arbitrary module carrying the generator actions."""
    if p < 0:
        raise ValueError("p must be non-negative")
    return cohomology_at(build_total_complex(module, p + 2).complex, p)
