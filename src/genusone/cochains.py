"""Lattice cochains as evaluation objects, and the alternating maps that
split them after inverting small factorials.

A cochain on a rank-d lattice is a function of n integer vectors; the
spaces are infinite, so nothing is tabulated.  The polynomial identities
(square-zero differential, cocycle property of the alternating maps, the
cup-product primitive) are certified by exact evaluation on seeded
pseudo-random tuples: enough points in a fixed box to exceed the
interpolation bound at each tested degree.

The arithmetic stays in integers until the last step.  A linear form
keeps its coefficients over one common denominator, so evaluating it is
an integer dot product.  The alternating map tabulates the integer
numerators phi_i(v_j) once, takes their alternating sum over
permutations, and divides once, by k! times the product of the
denominators.  Every value still comes back as an exact ``Fraction``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class DualVector:
    """A linear form on the lattice, given by its coefficient vector.

    The coefficients are also kept as integer ``numerators`` over their
    least common ``denominator``.
    """

    coefficients: tuple
    denominator: int = field(repr=False, compare=False)
    numerators: tuple = field(repr=False, compare=False)

    def __init__(self, coefficients):
        coefficients = tuple(Fraction(c) for c in coefficients)
        denominator = math.lcm(*(c.denominator for c in coefficients))
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "numerators", tuple(
            c.numerator * (denominator // c.denominator) for c in coefficients))

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def __call__(self, vector) -> Fraction:
        if len(vector) != self.rank:
            raise ValueError(f"expected a vector of length {self.rank}")
        return Fraction(self.numerator(map(int, vector)), self.denominator)

    def numerator(self, vector) -> int:
        """denominator * phi(vector), for ints of the right length."""
        return sum(map(operator.mul, self.numerators, vector))


@dataclass(frozen=True)
class Cochain:
    """An n-argument function of integer lattice vectors, exact rationals out."""

    arity: int
    rank: int
    evaluator: object

    def __call__(self, *vectors) -> Fraction:
        if len(vectors) != self.arity:
            raise ValueError(f"arity {self.arity} cochain got {len(vectors)} arguments")
        clean = []
        for v in vectors:
            if len(v) != self.rank:
                raise ValueError(f"lattice vectors have length {self.rank}")
            clean.append(tuple(map(int, v)))
        return Fraction(self.evaluator(*clean))


def cochain_differential(f: Cochain) -> Cochain:
    """The three-term alternating coboundary, raising arity by one."""
    n = f.arity

    def df(*vectors):
        total = f.evaluator(*vectors[1:])
        for i in range(1, n + 1):
            merged = (vectors[:i - 1]
                      + (tuple(a + b for a, b in zip(vectors[i - 1], vectors[i])),)
                      + vectors[i + 1:])
            total += (-1) ** i * f.evaluator(*merged)
        total += (-1) ** (n + 1) * f.evaluator(*vectors[:n])
        return total

    return Cochain(n + 1, f.rank, df)


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
        return Fraction(total, denominator)

    return Cochain(k, rank, evaluate)


def cup(phi1: DualVector, phi2: DualVector) -> Cochain:
    """The naive product cochain (l1, l2) -> phi1(l1) * phi2(l2)."""
    if phi1.rank != phi2.rank:
        raise ValueError("linear forms must share one lattice rank")
    denominator = phi1.denominator * phi2.denominator
    return Cochain(2, phi1.rank, lambda v1, v2: Fraction(
        phi1.numerator(v1) * phi2.numerator(v2), denominator))


@dataclass(frozen=True)
class PointwiseReport:
    passed: bool
    samples: int
    failure: tuple | None = None


def _random_vectors(rng: random.Random, count: int, rank: int):
    return tuple(tuple(rng.randint(-10, 10) for _ in range(rank))
                 for _ in range(count))


def verify_d_after_a(k: int, d: int, samples: int = 1000,
                     seed: int = 0) -> PointwiseReport:
    """Check d(a^k(phis)) = 0 exactly on random forms and lattice tuples."""
    if not 1 <= k <= d <= 3:
        raise ValueError("supported range is 1 <= k <= d <= 3")
    rng = random.Random(seed)
    for trial in range(samples):
        phis = [DualVector(rng.randint(-10, 10) for _ in range(d))
                for _ in range(k)]
        image = cochain_differential(splitting_map(phis))
        vectors = _random_vectors(rng, k + 1, d)
        value = image(*vectors)
        if value != 0:
            return PointwiseReport(False, trial + 1, (phis, vectors, value))
    return PointwiseReport(True, samples)


def verify_cup_primitive(phi1: DualVector, phi2: DualVector,
                         samples: int = 1000, seed: int = 0) -> PointwiseReport:
    """Check cup(phi1, phi2) - a^2(phi1 ^ phi2) = d g for g = -1/2 phi1 phi2.

    The half-integral primitive is what lets the naive product cochain be
    straightened to its alternating form after 2 is invertible.
    """
    if phi1.rank != phi2.rank:
        raise ValueError("linear forms must share one lattice rank")
    if phi1.rank < 2:
        raise ValueError("need lattice rank at least 2")
    naive = cup(phi1, phi2)
    straightened = splitting_map([phi1, phi2])
    denominator = -2 * phi1.denominator * phi2.denominator
    primitive = Cochain(1, phi1.rank, lambda v: Fraction(
        phi1.numerator(v) * phi2.numerator(v), denominator))
    boundary = cochain_differential(primitive)
    rng = random.Random(seed)
    for trial in range(samples):
        v1, v2 = _random_vectors(rng, 2, phi1.rank)
        lhs = naive(v1, v2) - straightened(v1, v2)
        rhs = boundary(v1, v2)
        if lhs != rhs:
            return PointwiseReport(False, trial + 1, ((v1, v2), lhs, rhs))
    return PointwiseReport(True, samples)
