import json
import math
import random

import pytest

from genusone.amalgam import build_total_complex
from genusone.exact_linalg import (CochainComplex, FgAbelianGroup,
                                   IntegerMatrix, bareiss_rank, cohomology_at,
                                   direct_sum, elementary_divisors, fp_rank,
                                   group_from_json, group_to_json,
                                   inverted_primes, localize, mod_p_dims,
                                   smith_normal_form, snf_diagonal)
from genusone.group_modules import standard_coefficient_module
from genusone.oracles import random_known_complex


def random_matrix(rng, rows, cols, bound=9):
    return IntegerMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def test_matrix_basics():
    a = IntegerMatrix([[1, 2], [3, 4]])
    b = IntegerMatrix([[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert (a + b).to_lists() == [[1, 3], [4, 4]]
    assert a.transpose().to_lists() == [[1, 3], [2, 4]]
    assert a.det() == -2
    assert (a ** 0) == IntegerMatrix.identity(2)
    assert a.mod(2).to_lists() == [[1, 0], [1, 0]]


def test_mod_keeps_a_reduced_matrix():
    reduced = IntegerMatrix([[0, 2], [1, 0]])
    assert reduced.mod(3) is reduced
    for data in ([[0, 3], [1, 0]], [[0, -1], [1, 0]], [[5, 0], [0, 0]]):
        m = IntegerMatrix(data)
        assert m.mod(3) is not m
        assert m.mod(3).to_lists() == [[x % 3 for x in row] for row in data]


def _naive_product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)]


def test_product_matches_triple_loop():
    rng = random.Random(11)
    big = 2 ** 200
    pools = ([0, 0, 0, 1, -1], [-1, 0, 1], [0, 0, big - 1, -big, 3 * big + 7])
    for pool in pools:
        for _ in range(20):
            n, m, k = (rng.randint(1, 7) for _ in range(3))
            a = IntegerMatrix([[rng.choice(pool) for _ in range(m)] for _ in range(n)])
            b = IntegerMatrix([[rng.choice(pool) for _ in range(k)] for _ in range(m)])
            assert (a * b).to_lists() == _naive_product(a, b)
    for n, m in ((0, 3), (3, 0), (0, 0)):
        a = IntegerMatrix.zeros(n, m)
        b = IntegerMatrix.zeros(m, 2)
        assert (a * b).shape == (n, 2)
        assert (a * b).to_lists() == _naive_product(a, b)
        c = IntegerMatrix.zeros(2, n)
        assert (c * a).shape == (2, m) and (c * a).is_zero()
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 3) * IntegerMatrix.zeros(2, 3)


def test_powers_match_repeated_products():
    rng = random.Random(5)
    for size in (1, 2, 4):
        a = random_matrix(rng, size, size, bound=3)
        want = IntegerMatrix.identity(size)
        for k in range(8):
            assert a ** k == want, (size, k)
            want = want * a


def test_snf_certificate_random():
    rng = random.Random(0)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        u, d, v = smith_normal_form(a)
        assert u * a * v == d
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diag = [d[i][i] for i in range(min(d.rows, d.cols))]
        for x, y in zip(diag, diag[1:]):
            assert x >= 0
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_snf_diagonal_known():
    a = IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf_diagonal(a) == [2, 2, 156]
    assert snf_diagonal(IntegerMatrix.zeros(2, 3)) == [0, 0]


def _smith_diagonal(a):
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(a.rows, a.cols))]


def test_elementary_divisors_match_smith_form():
    rng = random.Random(2)
    big_primes = (999983, 1000003, 2 ** 31 - 1)
    cases = [IntegerMatrix.zeros(3, 4), IntegerMatrix.zeros(0, 2),
             IntegerMatrix.zeros(2, 0), IntegerMatrix([[6, 10, 15]]),
             IntegerMatrix([[0, 12, 0]]),
             IntegerMatrix([[999983, 0], [0, 2 * 1000003]]),
             # rank 1 with N = 6, but two pivots modulo 6 (Z/3 + Z/2)
             IntegerMatrix([[6, 4], [9, 6]])]
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        inner = rng.randint(1, min(rows, cols))
        # a product through a narrower matrix is rank-deficient
        cases.append(random_matrix(rng, rows, inner, 4) * random_matrix(rng, inner, cols, 4))
        cases.append(random_matrix(rng, 1, cols, 50))
        cases.append(IntegerMatrix([[rng.choice(big_primes) * rng.randint(-3, 3)
                                     for _ in range(cols)] for _ in range(rows)]))
        cases.append(random_matrix(rng, rows, cols))
    for a in cases:
        want = _smith_diagonal(a)
        rank, divisors = elementary_divisors(a)
        assert rank == sum(1 for d in want if d), a
        assert list(divisors) == [d for d in want if d > 1], a
        assert snf_diagonal(a) == want, a
        r, minor = bareiss_rank(a)
        assert r == rank and minor > 0 and minor % math.prod(divisors) == 0, a


def test_elementary_divisors_of_a_unimodular_matrix():
    # the maximal minor is a unit, so the modular pass is skipped
    a = IntegerMatrix([[2, 1, 0], [1, 1, 0], [0, 0, -1]])
    assert bareiss_rank(a) == (3, 1)
    assert elementary_divisors(a) == (3, ())
    assert snf_diagonal(a) == [1, 1, 1]


def test_fp_rank():
    assert fp_rank([[2, 4], [4, 2]], 2) == 0
    assert fp_rank([[2, 4], [1, 2]], 2) == 1
    assert fp_rank([[2, 4], [1, 2]], 3) == 1
    assert fp_rank([[1, 0], [0, 1]], 5) == 2
    with pytest.raises(ValueError):
        fp_rank([[1]], 4)


def test_group_normalization():
    assert FgAbelianGroup(0, [4, 3]) == FgAbelianGroup(0, [12])
    assert FgAbelianGroup(0, [2, 2, 2, 2, 3]).invariant_factors == (2, 2, 2, 6)
    assert FgAbelianGroup(2, [1, 1]).render() == "Z^2"
    assert str(FgAbelianGroup()) == "0"
    assert FgAbelianGroup(0, [6, 4]).invariant_factors == (2, 12)


def test_group_render():
    g = FgAbelianGroup(1, [12])
    assert g.render() == "Z + Z/12"
    assert g.render(free_symbol="Z[1/2]") == "Z[1/2] + Z/12"


def test_direct_sum_and_localize():
    g = direct_sum(FgAbelianGroup(1, [4]), FgAbelianGroup(0, [6]))
    assert g == FgAbelianGroup(1, [2, 12])
    assert localize(g, (2,)) == FgAbelianGroup(1, [3])
    assert localize(g, (6,)) == FgAbelianGroup(1)
    with pytest.raises(ValueError):
        localize(g, (1,))
    assert inverted_primes([4, 6, 3]) == (2, 3)
    assert inverted_primes([]) == ()


def test_mod_p_dims():
    g = FgAbelianGroup(1, [2, 12])
    assert mod_p_dims(g, 2) == (3, 2)
    assert mod_p_dims(g, 3) == (2, 1)
    assert mod_p_dims(g, 5) == (1, 0)


def test_json_round_trip():
    rng = random.Random(1)
    for _ in range(25):
        g = FgAbelianGroup(rng.randint(0, 3),
                           [rng.randint(2, 30) for _ in range(rng.randint(0, 4))])
        blob = json.dumps(group_to_json(g))
        assert group_from_json(json.loads(blob)) == g


def test_complex_rejects_nonzero_composite():
    good = CochainComplex([1, 1, 1],
                          [IntegerMatrix([[2]]), IntegerMatrix([[0]])])
    assert good.ranks == (1, 1, 1)
    with pytest.raises(ValueError):
        CochainComplex([1, 1, 1],
                       [IntegerMatrix([[2]]), IntegerMatrix([[3]])])


def test_cohomology_of_multiplication_complex():
    # 0 -> Z -2-> Z -0-> Z -3-> Z: middle degrees give Z/2 and Z/3
    cpx = CochainComplex([1, 1, 1, 1],
                         [IntegerMatrix([[2]]), IntegerMatrix([[0]]),
                          IntegerMatrix([[3]])])
    assert cohomology_at(cpx, 0) == FgAbelianGroup(0)
    assert cohomology_at(cpx, 1) == FgAbelianGroup(0, [2])
    assert cohomology_at(cpx, 2) == FgAbelianGroup(0)
    assert cohomology_at(cpx, 3) == FgAbelianGroup(0, [3])


def _unimodular_pair(rng, n):
    """A random unimodular n x n matrix and its inverse."""
    m, inv = IntegerMatrix.identity(n).to_lists(), IntegerMatrix.identity(n).to_lists()
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in m:
            row[j] += c * row[i]
        inv[i] = [x - c * y for x, y in zip(inv[i], inv[j])]
    return IntegerMatrix(m, cols=n), IntegerMatrix(inv, cols=n)


def test_cohomology_of_planted_complexes():
    # the middle term gets an adapted basis: scaled image vectors, kernel
    # vectors that are not hit, and vectors sent out by nonzero multiples;
    # the group is read off the construction
    rng = random.Random(3)
    for _ in range(60):
        divisors = [rng.choice((1, 2, 4, 12, 999983, 2 * 1000003))
                    for _ in range(rng.randint(0, 4))]
        n_free, n_out = rng.randint(0, 3), rng.randint(0, 3)
        n = len(divisors) + n_free + n_out
        if n == 0:
            continue
        n_in, n_next = len(divisors) + rng.randint(0, 1), n_out + rng.randint(0, 1)
        left, left_inv = _unimodular_pair(rng, n)
        right, _ = _unimodular_pair(rng, n_in)
        outer, _ = _unimodular_pair(rng, n_next)
        b0 = [[d if i == j else 0 for j in range(n_in)] for i, d in enumerate(divisors)]
        b0 += [[0] * n_in for _ in range(n - len(divisors))]
        a0 = [[0] * n for _ in range(n_next)]
        for j in range(n_out):
            a0[j][n - n_out + j] = rng.choice((1, -3, 10))
        incoming = left * IntegerMatrix(b0, cols=n_in) * right
        outgoing = outer * IntegerMatrix(a0, cols=n) * left_inv
        cpx = CochainComplex([n_in, n, n_next], [incoming, outgoing])
        assert cohomology_at(cpx, 1) == FgAbelianGroup(n_free, divisors)


def test_cohomology_rejects_out_of_range_degree():
    cpx = CochainComplex([1, 1], [IntegerMatrix([[1]])])
    with pytest.raises(ValueError):
        cohomology_at(cpx, 5)
    with pytest.raises(ValueError):
        cohomology_at(cpx, -1)


def test_mod_p_complex():
    delta = IntegerMatrix([[1, 1], [1, 1]])
    cpx = CochainComplex([2, 2, 2], [delta, IntegerMatrix.zeros(2, 2)], base=2)
    # kernel of the zero map is everything, image of delta is one-dimensional
    assert cohomology_at(cpx, 1) == FgAbelianGroup(0, [2])
    assert cohomology_at(cpx, 0) == FgAbelianGroup(0, [2])


def reference_cohomology(cpx, n):
    """H^n from the unreduced differentials: Bareiss ranks and divisors over Z,
    ``fp_rank`` over F_p."""
    rank_here = cpx.ranks[n]
    outgoing, incoming = cpx.differential(n), cpx.differential(n - 1)
    if cpx.base is not None:
        p = cpx.base
        return FgAbelianGroup(0, [p] * (rank_here - fp_rank(outgoing, p)
                                        - fp_rank(incoming, p)))
    rank_in, torsion = elementary_divisors(incoming)
    return FgAbelianGroup(rank_here - bareiss_rank(outgoing)[0] - rank_in, torsion)


def test_complex_without_units_passes_through_unreduced():
    # entries in {0, +-2, +-3}: nothing to cancel
    d0 = IntegerMatrix([[2, 3], [2, 3], [0, 0]])
    d1 = IntegerMatrix([[3, -3, 2], [2, -2, 3]])
    cpx = CochainComplex([2, 3, 2], [d0, d1])
    reduced = cpx.reduced()
    assert reduced.ranks == cpx.ranks
    assert [record.shape for record in reduced.records] == [d0.shape, d1.shape]
    assert [record.rank for record in reduced.records] == [bareiss_rank(d0)[0],
                                                           bareiss_rank(d1)[0]]
    for n in range(3):
        assert cohomology_at(cpx, n) == reference_cohomology(cpx, n), n
    assert [cohomology_at(cpx, n) for n in range(3)] == [
        FgAbelianGroup(1), FgAbelianGroup(), FgAbelianGroup(0, [5])]
    multiplication = CochainComplex([1, 1, 1, 1], [IntegerMatrix([[2]]), IntegerMatrix([[0]]),
                                                   IntegerMatrix([[-3]])])
    assert multiplication.reduced().ranks == (1, 1, 1, 1)


def test_cancelling_drops_the_pivot_row_of_the_map_below():
    # d_1 = (2 0 1) has its only unit in column 2, so e_2 of C^1 pairs with
    # C^2; row 2 of d_0 = -2 * row 0 must go, or C^1 keeps a third vector
    d0 = IntegerMatrix([[3, 0], [0, 5], [-6, 0]])
    d1 = IntegerMatrix([[2, 0, 1]])
    cpx = CochainComplex([2, 3, 1], [d0, d1])
    assert cpx.reduced().ranks == (2, 2, 0)
    assert [cohomology_at(cpx, n) for n in range(3)] == [
        FgAbelianGroup(), FgAbelianGroup(0, [15]), FgAbelianGroup()]


def test_cancelling_drops_the_pivot_column_of_the_map_above():
    # d_0 pairs e_0 of C^0 with f_0 of C^1 and takes row 1 to zero; column 0
    # of d_1 then belongs to a cancelled vector and must not be read again
    d0 = IntegerMatrix([[1], [-1]])
    d1 = IntegerMatrix([[1, 1], [3, 3]])
    cpx = CochainComplex([1, 2, 2], [d0, d1])
    assert cpx.reduced().ranks == (0, 0, 1)
    assert [cohomology_at(cpx, n) for n in range(3)] == [
        FgAbelianGroup(), FgAbelianGroup(), FgAbelianGroup(1)]
    # the same shape with a non-unit first entry: d_1 keeps a unit column
    d0 = IntegerMatrix([[2], [-2]])
    cpx = CochainComplex([1, 2, 2], [d0, d1])
    assert [cohomology_at(cpx, n) for n in range(3)] == [
        FgAbelianGroup(), FgAbelianGroup(0, [2]), FgAbelianGroup(1)]


def test_unit_reduction_empties_every_differential_over_f_p():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(15):
            integral, _ = random_known_complex(rng)
            cpx = CochainComplex(integral.ranks, integral.differentials, base=p)
            assert all(record.rank == 0 for record in cpx.reduced().records)
            for n in range(3):
                assert cohomology_at(cpx, n) == reference_cohomology(cpx, n), (p, n)


def test_reduction_matches_planted_complexes():
    rng = random.Random(8)
    for _ in range(50):
        cpx, planted = random_known_complex(rng)
        assert cohomology_at(cpx, 1) == planted
        for n in range(3):
            assert cohomology_at(cpx, n) == reference_cohomology(cpx, n), n


@pytest.mark.parametrize("base", [None, 2, 3])
def test_reduction_matches_unreduced_sym_k_complexes(base):
    for k in range(13):
        module = standard_coefficient_module("sym_k", k, base=base)
        cpx = build_total_complex(module, 6).complex
        for n in range(6):
            assert cohomology_at(cpx, n) == reference_cohomology(cpx, n), (k, n)


def test_records_compute_each_invariant_once(monkeypatch):
    import genusone.exact_linalg as exact_linalg
    calls = []
    original = exact_linalg.bareiss_rank

    def spy(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(exact_linalg, "bareiss_rank", spy)
    d0 = IntegerMatrix([[2, 3], [2, 3], [0, 0]])
    d1 = IntegerMatrix([[3, -3, 2], [2, -2, 3]])
    cpx = CochainComplex([2, 3, 2], [d0, d1])
    groups = [cohomology_at(cpx, n) for n in (0, 1, 2, 0, 1, 2)]
    assert groups[:3] == groups[3:]
    assert calls == [(3, 2), (2, 3)]
    assert cpx.reduced() is cpx.reduced()
