import itertools
import math
import random
from fractions import Fraction

import pytest

from genusone import cochains
from genusone.checks import run_splitting
from genusone.cochains import (Cochain, DualVector, cochain_differential, cup,
                               splitting_map, verify_cup_primitive,
                               verify_d_after_a)
from genusone.exact_linalg import IntegerMatrix, bareiss_rank


def duals(rank):
    return [DualVector([1 if j == i else 0 for j in range(rank)])
            for i in range(rank)]


def test_dual_vector_pairing():
    phi = DualVector([2, -3])
    assert phi((1, 1)) == Fraction(-1)
    assert phi((0, 2)) == Fraction(-6)
    assert phi.rank == 2
    with pytest.raises(ValueError):
        phi((1, 2, 3))


def test_cochain_call_validation():
    f = Cochain(2, 2, lambda a, b: a[0] * b[1])
    assert f((1, 0), (0, 3)) == 3
    with pytest.raises(ValueError):
        f((1, 0))
    with pytest.raises(ValueError):
        f((1, 0, 0), (0, 3, 0))


def test_differential_on_a_square():
    # f(v) = v_x^2 has df(a, b) = -2 a_x b_x
    f = Cochain(1, 2, lambda v: Fraction(v[0]) ** 2)
    df = cochain_differential(f)
    assert df.arity == 2
    rng = random.Random(3)
    for _ in range(25):
        a, b = [tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2)]
        assert df(a, b) == -2 * a[0] * b[0]


def test_differential_squares_to_zero():
    # cubic evaluator, so neither d nor d o d is trivially zero termwise
    f = Cochain(1, 3, lambda v: Fraction(v[0] ** 3 + 2 * v[1] * v[2]))
    ddf = cochain_differential(cochain_differential(f))
    rng = random.Random(4)
    for _ in range(40):
        vecs = [tuple(rng.randint(-8, 8) for _ in range(3)) for _ in range(3)]
        assert ddf(*vecs) == 0
    g = Cochain(2, 2, lambda a, b: Fraction(a[0] * a[1] * b[0]))
    ddg = cochain_differential(cochain_differential(g))
    for _ in range(40):
        vecs = [tuple(rng.randint(-8, 8) for _ in range(2)) for _ in range(4)]
        assert ddg(*vecs) == 0


def test_splitting_map_basis_normalization():
    e1, e2 = duals(2)
    a2 = splitting_map([e1, e2])
    assert a2.arity == 2
    assert a2((1, 0), (0, 1)) == Fraction(1, 2)
    assert a2((0, 1), (1, 0)) == Fraction(-1, 2)
    assert a2((1, 0), (1, 0)) == 0
    e = duals(3)
    a3 = splitting_map(e)
    assert a3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == Fraction(1, 6)


def test_dual_vector_keeps_integer_numerators():
    phi = DualVector([Fraction(1, 2), Fraction(-2, 3), 5])
    assert phi.coefficients == (Fraction(1, 2), Fraction(-2, 3), Fraction(5))
    assert phi.denominator == 6
    assert phi.numerators == (3, -4, 30)
    value = phi((1, 1, 1))
    assert type(value) is Fraction
    assert value == Fraction(29, 6)
    assert phi == DualVector([Fraction(3, 6), Fraction(-4, 6), 5])
    # equality and hashing read the coefficients, the repr shows only them
    one_two = DualVector([1, 2])
    assert one_two == DualVector([Fraction(2, 2), 2])
    assert hash(one_two) == hash(DualVector([Fraction(2, 2), 2]))
    assert one_two != DualVector([1, 3])
    assert repr(one_two) == "DualVector(coefficients=(Fraction(1, 1), Fraction(2, 1)))"


def _reference_splitting(phis, vectors):
    # sum over permutations of sign * prod phi_i(v_perm(i)), over k!, in Fractions
    k = len(phis)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
        term = Fraction((-1) ** inversions)
        for i, phi in enumerate(phis):
            term *= sum(c * v for c, v in zip(phi.coefficients, vectors[perm[i]]))
        total += term
    return total / math.factorial(k)


def test_splitting_map_with_fractional_forms():
    rng = random.Random(6)
    coefficient_pool = [Fraction(1, 2), Fraction(-2, 3), Fraction(5),
                        Fraction(7, 4), Fraction(0), Fraction(-1, 5)]
    for k in (1, 2, 3):
        for _ in range(10):
            phis = [DualVector(rng.choice(coefficient_pool) for _ in range(3))
                    for _ in range(k)]
            a = splitting_map(phis)
            for _ in range(5):
                vecs = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(k)]
                value = a(*vecs)
                assert type(value) is Fraction
                assert value == _reference_splitting(phis, vecs), (k, phis, vecs)
    half_forms = [DualVector([Fraction(1, 2), Fraction(-2, 3), 5]),
                  DualVector([Fraction(1, 3), 1, Fraction(-1, 2)])]
    assert splitting_map(half_forms)((1, 0, 0), (0, 1, 0)) == Fraction(1, 2) * (
        Fraction(1, 2) * 1 - Fraction(-2, 3) * Fraction(1, 3))


def _sign_flipped_splitting_map(phis):
    # the alternating average with the identity permutation's sign flipped
    phis = tuple(phis)
    k = len(phis)

    def evaluate(*vectors):
        correct = _reference_splitting(phis, vectors)
        identity = math.prod(phi(v) for phi, v in zip(phis, vectors))
        return correct - 2 * identity / math.factorial(k)

    return Cochain(k, phis[0].rank, evaluate)


def _off_by_one(make):
    def wrong(*args):
        right = make(*args)
        return Cochain(right.arity, right.rank,
                       lambda *vectors: right.evaluator(*vectors) + 1)
    return wrong


def test_cup_primitive_check_catches_a_sign_error(monkeypatch):
    e1, e2 = duals(2)
    assert verify_cup_primitive(e1, e2, samples=50, seed=3).passed
    monkeypatch.setattr(cochains, "splitting_map", _sign_flipped_splitting_map)
    report = verify_cup_primitive(e1, e2, samples=50, seed=3)
    assert not report.passed
    # every multilinear map is a cocycle, so d(a^k) = 0 cannot see a sign
    # error; the cup primitive is the check that pins the alternation
    assert verify_d_after_a(2, 2, samples=50, seed=3).passed


def test_cup_primitive_check_catches_an_off_by_one_cup(monkeypatch):
    e1, e2 = duals(3)[:2]
    monkeypatch.setattr(cochains, "cup", _off_by_one(cup))
    report = verify_cup_primitive(e1, e2, samples=50, seed=3)
    assert not report.passed
    assert report.samples == 1


def test_d_after_a_check_catches_an_off_by_one_map(monkeypatch):
    # d of a constant c of odd arity n is c, so k = 1 and k = 3 must fail,
    # sampled or on the grid
    monkeypatch.setattr(cochains, "splitting_map", _off_by_one(splitting_map))
    for samples in (50, None):
        for k, d in ((1, 1), (1, 3), (3, 3)):
            report = verify_d_after_a(k, d, samples=samples, seed=3)
            assert not report.passed, (samples, k, d)
            assert report.failure[2] == 1


def test_splitting_map_is_alternating_in_the_forms():
    # the premise that lets the grid proof of d(a^k) = 0 read increasing
    # tuples of basis forms only
    rng = random.Random(5)
    for k in (2, 3):
        phis = [DualVector([rng.randint(-4, 4) for _ in range(3)])
                for _ in range(k)]
        plain = splitting_map(phis)
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[i] > perm[j]
                             for i, j in itertools.combinations(range(k), 2))
            permuted = splitting_map([phis[i] for i in perm])
            for _ in range(20):
                vecs = [tuple(rng.randint(-6, 6) for _ in range(3))
                        for _ in range(k)]
                assert permuted(*vecs) == (-1) ** inversions * plain(*vecs), perm


def test_splitting_map_validation():
    e1, e2 = duals(2)
    with pytest.raises(ValueError):
        splitting_map([])
    with pytest.raises(ValueError):
        splitting_map([e1, e2, e2])
    with pytest.raises(ValueError):
        splitting_map([e1, DualVector([1, 0, 0])])


def test_d_after_a_vanishes():
    for k in (1, 2, 3):
        for d in range(k, 4):
            report = verify_d_after_a(k, d, samples=60, seed=1)
            assert report.passed, (k, d)
            assert report.samples == 60
    # the proof: C(d, k) increasing basis-form tuples times the
    # (d + 1)^(k + 1) points of the degree-1 grid
    points = {(1, 1): 4, (1, 2): 18, (2, 2): 27, (1, 3): 48, (2, 3): 192,
              (3, 3): 256}
    for (k, d), count in points.items():
        assert count == math.comb(d, k) * (d + 1) ** (k + 1)
        report = verify_d_after_a(k, d, samples=None)
        assert report.passed and report.samples == count, (k, d)
    assert sum(points.values()) == 545
    with pytest.raises(ValueError):
        verify_d_after_a(0, 1)
    with pytest.raises(ValueError):
        verify_d_after_a(2, 1)
    with pytest.raises(ValueError):
        verify_d_after_a(1, 4)


def test_splitting_suite_reads_no_seed():
    assert run_splitting(0) == run_splitting(7)


def test_cup_product_primitive():
    e1, e2 = duals(2)
    report = verify_cup_primitive(e1, e2, samples=80, seed=2)
    assert report.passed
    cupped = cup(e1, e2)
    assert cupped.arity == 2
    assert cupped((1, 0), (0, 1)) == 1
    assert cupped((0, 1), (1, 0)) == 0
    with pytest.raises(ValueError):
        verify_cup_primitive(DualVector([1]), DualVector([2]))
    with pytest.raises(ValueError):
        cup(e1, DualVector([1, 0, 0]))


def test_sample_counts_below_one_are_rejected():
    e1, e2 = duals(2)
    for samples in (0, -5):
        with pytest.raises(ValueError):
            verify_d_after_a(1, 1, samples=samples)
        with pytest.raises(ValueError):
            verify_cup_primitive(e1, e2, samples=samples)


def test_non_integer_vectors_are_rejected():
    phi = DualVector([1, 0])
    a2 = splitting_map(duals(2))
    for bad in ((1.5, 0), (Fraction(3, 2), 0), ("1", 0), (float("inf"), 0),
                (float("nan"), 0), (None, 0)):
        with pytest.raises(ValueError):
            phi(bad)
        with pytest.raises(ValueError):
            a2(bad, (0, 1))
    with pytest.raises(ValueError):
        a2((1.9, 0), (0, 1))
    # integral values of other numeric types are still lattice vectors
    assert phi((1.0, 0)) == 1
    assert a2((Fraction(2), 0), (0, 1.0)) == 1


def test_built_cochains_are_integer_valued():
    phis = [DualVector([Fraction(1, 2), 3, -1]), DualVector([2, Fraction(-1, 3), 0])]
    a2 = splitting_map(phis)
    assert a2.denominator == 2 * 2 * 3
    d = cochain_differential(a2)
    assert d.denominator == a2.denominator
    c = cup(*phis)
    assert c.denominator == 6
    vectors = ((1, -2, 3), (0, 4, 1), (2, 2, -1))
    for value in (a2.evaluator(*vectors[:2]), d.evaluator(*vectors),
                  c.evaluator(*vectors[:2])):
        assert type(value) is int
    assert a2(*vectors[:2]) == _reference_splitting(phis, vectors[:2])
    assert c(*vectors[:2]) == phis[0](vectors[0]) * phis[1](vectors[1])


def _monomials(rank):
    return [e for e in itertools.product(range(3), repeat=rank) if sum(e) <= 2]


@pytest.mark.parametrize("rank", [2, 3])
def test_degree_two_grid_is_unisolvent(rank):
    # the pair grid determines every polynomial of degree <= 2 in each of
    # v1 and v2: its evaluation matrix on the monomial basis is invertible
    grid = cochains._degree_two_grid(rank)
    monomials = [(a, b) for a in _monomials(rank) for b in _monomials(rank)]
    rows = [[math.prod(x ** e for x, e in zip(v1 + v2, a + b))
             for a, b in monomials]
            for v1, v2 in itertools.product(grid, repeat=2)]
    assert len(rows) == len(monomials) == {2: 36, 3: 100}[rank]
    assert bareiss_rank(IntegerMatrix(rows))[0] == len(monomials)


@pytest.mark.parametrize("rank,vectors", [(2, 3), (3, 3)])
def test_degree_one_product_grid_is_unisolvent(rank, vectors):
    # {0, e_i}^n determines every polynomial of degree <= 1 in each of
    # v_1..v_n: its evaluation matrix on the monomial basis is invertible
    grid = cochains._degree_one_grid(rank)
    linear = [e for e in itertools.product(range(2), repeat=rank) if sum(e) <= 1]
    monomials = list(itertools.product(linear, repeat=vectors))
    rows = [[math.prod(x ** e for v, m in zip(point, mono)
                       for x, e in zip(v, m)) for mono in monomials]
            for point in itertools.product(grid, repeat=vectors)]
    assert len(rows) == len(monomials) == (rank + 1) ** vectors
    assert bareiss_rank(IntegerMatrix(rows))[0] == len(monomials)


def test_cup_primitive_grid_proves_the_identity():
    for rank, points in ((2, 36), (3, 100)):
        basis = duals(rank)
        for phi1, phi2 in itertools.product(basis, repeat=2):
            report = verify_cup_primitive(phi1, phi2)
            assert report.passed and report.samples == points
    # fractional forms exercise all three denominators
    phi1 = DualVector([Fraction(1, 2), Fraction(-2, 3), 5])
    phi2 = DualVector([Fraction(1, 3), 1, Fraction(-1, 4)])
    assert verify_cup_primitive(phi1, phi2).passed
    assert verify_cup_primitive(phi1, phi2, samples=40, seed=1).passed


def test_cup_primitive_grid_catches_a_sign_error(monkeypatch):
    e1, e2 = duals(2)
    monkeypatch.setattr(cochains, "splitting_map", _sign_flipped_splitting_map)
    report = verify_cup_primitive(e1, e2)
    assert not report.passed
    (v1, v2), lhs, rhs = report.failure
    assert lhs != rhs and report.samples > 1


def test_cup_primitive_grid_catches_an_off_by_one_cup(monkeypatch):
    e1, e2 = duals(3)[:2]
    monkeypatch.setattr(cochains, "cup", _off_by_one(cup))
    report = verify_cup_primitive(e1, e2)
    assert not report.passed
    assert report.failure == (((0, 0, 0), (0, 0, 0)), 1, 0)


def test_cup_primitive_grid_catches_a_wrong_primitive_scale(monkeypatch):
    # d g vanishes when v1 or v2 is 0, so the first grid points miss this
    phi1, phi2 = DualVector([1, 2]), DualVector([3, -1])
    original = cochains.cochain_differential

    def doubled(f):
        g = original(f)
        return cochains.Cochain(g.arity, g.rank,
                                lambda *vs: 2 * g.evaluator(*vs), g.denominator)

    monkeypatch.setattr(cochains, "cochain_differential", doubled)
    assert not verify_cup_primitive(phi1, phi2).passed
