"""Integer exterior algebra on a split basis of torus and circle duals,
used to check a commuting square of pullback maps exactly.

The algebra is free on 2 * copies torus generators (two per torus copy)
followed by `copies` circle generators.  A principal torus-bundle pullback
sends a linear form on the torus lattice to a sum of circle-wedge-torus
terms, one per copy; symmetric monomials of such forms can then be
compared against a direct inclusion that puts all circle duals in front.
The two disagree by a sign depending only on the number of copies, so the
comparison must succeed with one global sign across the whole monomial
basis, never per-element.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cochains import DualVector

LATTICE_RANK = 2


class ExteriorElement:
    """An integer combination of strictly increasing wedge monomials."""

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if any(mono[i] >= mono[i + 1] for i in range(len(mono) - 1)):
                raise ValueError(f"monomial {mono} is not strictly increasing")
            if coeff:
                self.terms[mono] = self.terms.get(mono, 0) + int(coeff)

    @classmethod
    def zero(cls) -> "ExteriorElement":
        return cls()

    @classmethod
    def generator(cls, index: int) -> "ExteriorElement":
        return cls({(index,): 1})

    def __eq__(self, other):
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return ExteriorElement(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExteriorElement({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged, sign = _merge_monomials(m1, m2)
                if sign:
                    out[merged] = out.get(merged, 0) + sign * c1 * c2
        return ExteriorElement(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            name = "^".join(f"e{i}" for i in mono) or "1"
            bits.append(f"{coeff}*{name}")
        return " + ".join(bits)


def _merge_monomials(m1: tuple, m2: tuple):
    """Concatenate and sort two strictly increasing monomials with sign.

    Returns (monomial, sign); sign 0 when an index repeats.
    """
    if set(m1) & set(m2):
        return (), 0
    combined = list(m1 + m2)
    sign, swapped = 1, True
    while swapped:
        swapped = False
        for i in range(len(combined) - 1):
            if combined[i] > combined[i + 1]:
                combined[i], combined[i + 1] = combined[i + 1], combined[i]
                sign = -sign
                swapped = True
    return tuple(combined), sign


def wedge_all(factors) -> ExteriorElement:
    result = ExteriorElement({(): 1})
    for f in factors:
        result = result * f
    return result


def _torus_generator(copy: int, coordinate: int) -> ExteriorElement:
    return ExteriorElement.generator(LATTICE_RANK * copy + coordinate)


def _circle_generator(copy: int, copies: int) -> ExteriorElement:
    return ExteriorElement.generator(LATTICE_RANK * copies + copy)


def pullback_on_h2(lam: DualVector, copy: int = 0, copies: int = 1) -> ExteriorElement:
    """Pull a torus linear form back along one copy: circle wedge lattice dual."""
    if lam.rank != LATTICE_RANK:
        raise ValueError(f"expected a rank-{LATTICE_RANK} lattice form")
    if not 0 <= copy < copies:
        raise ValueError("copy index out of range")
    total = ExteriorElement.zero()
    eps = _circle_generator(copy, copies)
    for coordinate, coeff in enumerate(lam.coefficients):
        if coeff.denominator != 1:
            raise ValueError("integral classes only")
        total = total + (eps * _torus_generator(copy, coordinate)) * int(coeff)
    return total


def classifying_pullback(lam: DualVector, copies: int) -> ExteriorElement:
    """The full bundle pullback: one circle-wedge-lattice term per copy."""
    total = ExteriorElement.zero()
    for copy in range(copies):
        total = total + pullback_on_h2(lam, copy, copies)
    return total


class SquareReport(NamedTuple):
    k: int
    passed: bool
    sign: int | None
    monomials: tuple


def verify_square(k: int, flip_basis_vector: int | None = None) -> SquareReport:
    """Compare the two paths around the pullback square in symmetric degree k.

    Path one expands a symmetric monomial as a cup product of pullbacks.
    Path two places all circle duals up front and symmetrizes the lattice
    forms over the copies.  Passing requires one sign that reconciles the
    paths on every monomial at once; ``flip_basis_vector`` negates path
    two on a single monomial to show the check genuinely fails then.
    """
    if k not in (1, 2):
        raise ValueError("only symmetric degrees 1 and 2 are supported")
    duals = [DualVector([1, 0]), DualVector([0, 1])]
    monomials = list(itertools.combinations_with_replacement(range(LATTICE_RANK), k))
    eps_block = wedge_all(_circle_generator(c, k) for c in range(k))
    pairs = []
    for index, mono in enumerate(monomials):
        cup_path = wedge_all(classifying_pullback(duals[j], k) for j in mono)
        symmetrized = ExteriorElement.zero()
        for perm in itertools.permutations(mono):
            symmetrized = symmetrized + wedge_all(
                _torus_generator(copy, perm[copy]) for copy in range(k))
        inclusion_path = eps_block * symmetrized
        if index == flip_basis_vector:
            inclusion_path = inclusion_path * -1
        pairs.append((mono, cup_path, inclusion_path))
    for sign in (1, -1):
        if all(cup == incl * sign for _, cup, incl in pairs):
            return SquareReport(k, True, sign, tuple(m for m, _, _ in pairs))
    return SquareReport(k, False, None, tuple(m for m, _, _ in pairs))
