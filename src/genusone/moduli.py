"""Leray page bookkeeping for the unpointed genus-one moduli space.

The page has H^p(SL2(Z), Sym^(q/2)) in even rows and zero in odd rows.
The pointed moduli space contributes the base row; its canonical
complement (split off by the forgetful section) is the sum of the rows
q > 0.  Degeneration of the page is only certified through total degree
9 by the dimension count in ``mod2_consistency``, so the complement
accessor refuses beyond that.
"""

from __future__ import annotations

from typing import NamedTuple

from .amalgam import sl2z_cohomology
from .exact_linalg import (FgAbelianGroup, IntegerMatrix, _is_prime, direct_sum,
                           localize, mod_p_dims)
from .group_modules import S_MATRIX, T_MATRIX, sym_power_matrix

#: mod-2 dimensions of the complement part in degrees 0..8, an external
#: input to the degeneration argument, frozen rather than derived
EXPECTED_MOD2_DIMS = (0, 0, 0, 1, 2, 3, 4, 5, 6)

DEGENERATION_BOUND = 9


class DegenerationUnproven(ValueError):
    """Raised for degrees where page degeneration has no certificate."""


def e2_entry(p: int, q: int) -> FgAbelianGroup:
    """Page entry at (p, q): zero in odd rows, H^p(SL2(Z), Sym^(q/2)) else."""
    if p < 0 or q < 0:
        raise ValueError("page indices must be nonnegative")
    if q % 2:
        return FgAbelianGroup(0, [])
    return sl2z_cohomology(q // 2, p)


class E2Page(NamedTuple):
    """The page entries ``entries[(p, q)]`` for p + q <= n_max, read by antidiagonal."""

    n_max: int
    entries: dict

    def antidiagonal(self, n: int):
        """Entries with p + q = n, as a list of ((p, q), group), 0 <= n <= n_max."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"antidiagonal {n} is outside the assembled range 0..{self.n_max}")
        return [((p, q), group) for (p, q), group in sorted(self.entries.items())
                if p + q == n]


def e2_page(n_max: int) -> E2Page:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    entries = {}
    for q in range(n_max + 1):
        for p in range(n_max + 1 - q):
            entries[(p, q)] = e2_entry(p, q)
    return E2Page(n_max, entries)


def m11_group(n: int) -> FgAbelianGroup:
    """Degree-n cohomology of the pointed moduli space, i.e. the base row."""
    return e2_entry(n, 0)


def complement_group(n: int) -> FgAbelianGroup:
    """Direct sum of the rows q > 0 on the antidiagonal p + q = n.

    Only proved equal to the degree-n complement for n <= 9; the
    numerical certificate breaks afterwards (the first obstruction is a
    Z/4 entry in row q = 8 at total degree 10), so larger degrees raise
    instead of guessing.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > DEGENERATION_BOUND:
        raise DegenerationUnproven(
            f"degeneration unproven beyond degree {DEGENERATION_BOUND}: "
            f"degree {n} was requested"
        )
    parts = [e2_entry(n - 2 * k, 2 * k) for k in range(1, n // 2 + 1)]
    return direct_sum(*parts) if parts else FgAbelianGroup(0, [])


def half_inverted_group(n: int) -> FgAbelianGroup:
    """Cohomology of the unpointed space with 2 inverted, degree n <= 9."""
    return localize(direct_sum(m11_group(n), complement_group(n)), (2,))


class Mod2Row(NamedTuple):
    n: int
    expected: int
    computed: int

    @property
    def matches(self) -> bool:
        return self.expected == self.computed


class Mod2Report(NamedTuple):
    rows: tuple

    @property
    def mismatches(self) -> tuple:
        return tuple(r for r in self.rows if not r.matches)

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def mod2_consistency(n_max: int = 8) -> Mod2Report:
    """Compare mod-2 dimension counts of the complement with the frozen row.

    In degree n the mod-2 cohomology dimension equals
    dim(H^n (x) F_2) + dim H^(n+1)[2] by universal coefficients.  The
    counts matching the frozen dimensions in every degree is exactly
    what forces the page to degenerate and the filtration to split in
    degrees <= 9: any nonzero differential or nonsplit extension would
    make some computed count too small.
    """
    if not 0 <= n_max <= len(EXPECTED_MOD2_DIMS) - 1:
        raise ValueError(f"n_max must be in 0..{len(EXPECTED_MOD2_DIMS) - 1}, got {n_max}")
    rows = []
    for n in range(n_max + 1):
        tensor = mod_p_dims(complement_group(n), 2).dim_tensor
        torsion = mod_p_dims(complement_group(n + 1), 2).dim_torsion
        rows.append(Mod2Row(n, EXPECTED_MOD2_DIMS[n], tensor + torsion))
    return Mod2Report(tuple(rows))


class PTorsionWitness(NamedTuple):
    fixed_by_s: bool
    fixed_by_t: bool
    h1_group: FgAbelianGroup
    divisible_factor: int | None

    @property
    def passed(self) -> bool:
        return self.fixed_by_s and self.fixed_by_t and self.divisible_factor is not None


def p_torsion_scan(q: int) -> PTorsionWitness:
    """Certify q-torsion in H^1(SL2(Z), Sym^(q+1)).

    Two witnesses: the coefficient vector of X^q Y - Y^q X is fixed mod q
    by the actions of S and T = S^-1 U on degree-(q+1) forms, and some
    invariant factor of the integral H^1 is divisible by q.
    """
    if q == 2:
        raise ValueError("only odd primes are supported")
    if not _is_prime(q):
        raise ValueError(f"{q} is not an odd prime")
    k = q + 1
    vector = [0] * (k + 1)
    vector[1] = 1        # X^q Y
    vector[k - 1] = -1   # X Y^q
    fixed = []
    for g in (S_MATRIX, T_MATRIX):
        action = sym_power_matrix(g, k)
        image = (action * IntegerMatrix([[v] for v in vector], cols=1)).to_lists()
        fixed.append(all((row[0] - v) % q == 0 for row, v in zip(image, vector)))
    h1 = sl2z_cohomology(k, 1)
    factor = next((d for d in h1.invariant_factors if d % q == 0), None)
    return PTorsionWitness(fixed[0], fixed[1], h1, factor)
