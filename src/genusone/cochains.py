"""Lattice cochains as evaluation objects, and the alternating maps that
split them after inverting small factorials.

A cochain on a rank-d lattice is a function of n integer vectors; the
spaces are infinite, so nothing is tabulated.  Every cochain this module
builds is integer-valued over a fixed positive ``denominator``: its
``evaluator`` returns the integer ``denominator * f(v_1, ..., v_n)``.
A linear form keeps its coefficients as integer numerators over one
common denominator, the alternating map a^k sums integer products of
those numerators over k! times the product of the denominators, and the
differential keeps the denominator of its input.  So the identities below
are compared as integers.  There is no call API: the value of a cochain at
integer vectors is ``Fraction(c.evaluator(*vectors), c.denominator)``, and
that of a form ``Fraction(phi.numerator(v), phi.denominator)``.

Two identities are certified, each proved on a finite grid that
determines every polynomial of the degree involved: d(a^k) = 0 on tuples
of basis forms and the degree-1 grid (see ``verify_d_after_a``), and the
cup-product primitive on pairs of basis forms and the degree-2 grid (see
``verify_cup_primitive``).  Seeded random samples remain available for
both.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import NamedTuple


class DualVector:
    """A linear form on the lattice, given by its coefficient vector.

    The coefficients are also kept as integer ``numerators`` over their
    least common ``denominator``.  Equality and hashing cover the
    coefficients only.
    """

    __slots__ = ("coefficients", "denominator", "numerators")

    def __init__(self, coefficients):
        from fractions import Fraction  # kept off the import path of the CLI

        coefficients = tuple(Fraction(c) for c in coefficients)
        denominator = math.lcm(*(c.denominator for c in coefficients))
        self.coefficients = coefficients
        self.denominator = denominator
        self.numerators = tuple(
            c.numerator * (denominator // c.denominator) for c in coefficients)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.coefficients,))

    def __repr__(self):
        return f"DualVector(coefficients={self.coefficients!r})"

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def numerator(self, vector) -> int:
        """denominator * phi(vector), for ints of the right length."""
        return sum(map(operator.mul, self.numerators, vector))


class Cochain(NamedTuple):
    """An n-argument function of integer lattice vectors, exact rationals out.

    ``evaluator`` takes tuples of ints and returns the value times
    ``denominator``: an int for every cochain this module builds.
    """

    arity: int
    rank: int
    evaluator: object
    denominator: int = 1


def cochain_differential(f: Cochain) -> Cochain:
    """The three-term alternating coboundary, raising arity by one."""
    n = f.arity

    def df(*vectors):
        # terms[i] carries the sign (-1)^i
        terms = [f.evaluator(*vectors[1:])]
        for i in range(1, n + 1):
            merged = tuple(map(operator.add, vectors[i - 1], vectors[i]))
            terms.append(f.evaluator(*vectors[:i - 1], merged, *vectors[i + 1:]))
        terms.append(f.evaluator(*vectors[:n]))
        return sum(terms[0::2]) - sum(terms[1::2])

    return Cochain(n + 1, f.rank, df, f.denominator)


@functools.lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple:
    out = []
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for i, j in itertools.combinations(range(k), 2)
                         if perm[i] > perm[j])
        out.append((-1 if inversions % 2 else 1, perm))
    return tuple(out)


def splitting_map(phis) -> Cochain:
    """The arity-k alternating average of products of the k linear forms."""
    phis = tuple(phis)
    if not phis:
        raise ValueError("need at least one linear form")
    rank = phis[0].rank
    if any(phi.rank != rank for phi in phis):
        raise ValueError("linear forms must share one lattice rank")
    k = len(phis)
    if k > rank:
        raise ValueError(f"arity {k} exceeds lattice rank {rank}")
    perms = _signed_permutations(k)
    denominator = math.factorial(k) * math.prod(phi.denominator for phi in phis)

    def evaluate(*vectors):
        # table[i][j] = den_i * phi_i(v_j); the alternating sum is an integer
        table = [[phi.numerator(v) for v in vectors] for phi in phis]
        total = 0
        for sign, perm in perms:
            term = sign
            for row, j in zip(table, perm):
                term *= row[j]
            total += term
        return total

    return Cochain(k, rank, evaluate, denominator)


def cup(phi1: DualVector, phi2: DualVector) -> Cochain:
    """The naive product cochain (l1, l2) -> phi1(l1) * phi2(l2)."""
    if phi1.rank != phi2.rank:
        raise ValueError("linear forms must share one lattice rank")
    return Cochain(2, phi1.rank,
                   lambda v1, v2: phi1.numerator(v1) * phi2.numerator(v2),
                   phi1.denominator * phi2.denominator)


class PointwiseReport(NamedTuple):
    passed: bool
    samples: int
    failure: tuple | None = None


def _random_vectors(rng: random.Random, count: int, rank: int):
    return tuple(tuple(rng.randint(-10, 10) for _ in range(rank))
                 for _ in range(count))


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")


def _degree_one_grid(rank: int) -> tuple:
    """0 and every e_i: unisolvent for degree <= 1."""
    return ((0,) * rank, *(tuple(int(i == j) for j in range(rank))
                           for i in range(rank)))


def _degree_two_grid(rank: int) -> tuple:
    """0, every e_i and every e_i + e_j (i <= j): unisolvent for degree <= 2."""
    zero, *basis = _degree_one_grid(rank)
    return (zero, *basis, *(
        tuple(map(operator.add, a, b))
        for a, b in itertools.combinations_with_replacement(basis, 2)))


def verify_d_after_a(k: int, d: int, samples: int | None = 1000,
                     seed: int = 0) -> PointwiseReport:
    """Check d(a^k(phis)) = 0 exactly, for k forms on the rank-d lattice.

    With ``samples=None`` the check is a proof.  The forms run over the
    increasing k-tuples of basis forms and the vectors over the grid
    {0, e_1, ..., e_d}^(k + 1), and this determines d(a^k) everywhere:

    - d(a^k(phis)) is linear in each form, because d is linear and every
      term of a^k has one factor per form.
    - It is alternating in the forms, because a^k is a signed sum over
      S_k.  So a tuple with a repeated form gives 0, and the increasing
      tuples of basis forms determine it for all rational forms.
    - Every term of d evaluates a^k at arguments v_j or v_(j-1) + v_j,
      and a^k is linear in each argument.  So d(a^k) is a polynomial of
      degree <= 1 in the coordinates of each vector v_0, ..., v_k.
    - {0, e_1, ..., e_d} is unisolvent for polynomials of degree <= 1 on
      Q^d, so the product grid determines every polynomial of degree
      <= 1 in each vector: vanishing there means vanishing everywhere.

    That is C(d, k) (d + 1)^(k + 1) points: 4, 18, 27, 48, 192 and 256
    for (k, d) = (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3).

    With an integer ``samples`` the forms and the vectors are that many
    seeded random draws from [-10, 10] instead.  Either way ``samples``
    in the report counts the points checked, and a failure carries the
    forms, the vectors and the nonzero value.
    """
    if not 1 <= k <= d <= 3:
        raise ValueError("supported range is 1 <= k <= d <= 3")
    if samples is None:
        grid = _degree_one_grid(d)
        basis = [DualVector(e) for e in grid[1:]]
        points = list(itertools.product(grid, repeat=k + 1))
        trials = ((list(phis), points)
                  for phis in itertools.combinations(basis, k))
    else:
        _check_samples(samples)
        rng = random.Random(seed)
        # all draws at once: k forms and k + 1 vectors of d integers per trial
        draws = rng.choices(range(-10, 11), k=samples * (2 * k + 1) * d)
        chunks = zip(*[iter(draws)] * d)
        trials = (([DualVector(c) for c in itertools.islice(chunks, k)],
                   [tuple(itertools.islice(chunks, k + 1))])
                  for _ in range(samples))
    checked = 0
    for phis, points in trials:
        image = cochain_differential(splitting_map(phis))
        for vectors in points:
            checked += 1
            value = image.evaluator(*vectors)
            if value != 0:
                from fractions import Fraction

                return PointwiseReport(False, checked, (
                    phis, vectors, Fraction(value, image.denominator)))
    return PointwiseReport(True, checked)


def verify_cup_primitive(phi1: DualVector, phi2: DualVector,
                         samples: int | None = None,
                         seed: int = 0) -> PointwiseReport:
    """Check cup(phi1, phi2) - a^2(phi1 ^ phi2) = d g for g = -1/2 phi1 phi2.

    The half-integral primitive is what lets the naive product cochain be
    straightened to its alternating form after 2 is invertible.

    With ``samples=None`` the check is a proof.  Every evaluator involved
    is a product of at most two linear ``numerator``s, each taken at v1,
    v2 or v1 + v2, so lhs - rhs is a polynomial of degree <= 2 in the
    coordinates of v1 and of degree <= 2 in those of v2.  The points 0,
    e_i and e_i + e_j (i <= j) are unisolvent for polynomials of degree
    <= 2 (the order-2 principal lattice of the simplex), so the pairs
    of them, 36 at rank 2 and 100 at rank 3, determine such a polynomial:
    vanishing there means vanishing on the whole lattice.  Each side is
    also bilinear in (phi1, phi2), so proving the identity for every pair
    of basis forms proves it for every pair of forms of that rank.

    With an integer ``samples`` the points are that many seeded random
    pairs instead.  Either way both sides are compared as integers,
    cross-multiplied by the three denominators, and ``samples`` in the
    report counts the points checked.
    """
    if phi1.rank != phi2.rank:
        raise ValueError("linear forms must share one lattice rank")
    if phi1.rank < 2:
        raise ValueError("need lattice rank at least 2")
    naive = cup(phi1, phi2)
    straightened = splitting_map([phi1, phi2])
    primitive = Cochain(
        1, phi1.rank, lambda v: -phi1.numerator(v) * phi2.numerator(v),
        2 * phi1.denominator * phi2.denominator)
    boundary = cochain_differential(primitive)
    dn, ds, db = naive.denominator, straightened.denominator, boundary.denominator
    if samples is None:
        points = itertools.product(_degree_two_grid(phi1.rank), repeat=2)
    else:
        _check_samples(samples)
        rng = random.Random(seed)
        points = (_random_vectors(rng, 2, phi1.rank) for _ in range(samples))
    for checked, (v1, v2) in enumerate(points, 1):
        lhs = (naive.evaluator(v1, v2) * ds
               - straightened.evaluator(v1, v2) * dn) * db
        rhs = boundary.evaluator(v1, v2) * dn * ds
        if lhs != rhs:
            from fractions import Fraction

            scale = dn * ds * db
            return PointwiseReport(False, checked, (
                (v1, v2), Fraction(lhs, scale), Fraction(rhs, scale)))
    return PointwiseReport(True, checked)
