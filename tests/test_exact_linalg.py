import json
import math
import random

import pytest

from genusone.amalgam import build_total_complex
from genusone.exact_linalg import (CochainComplex, DifferentialRecord, FgAbelianGroup,
                                   IntegerMatrix, _factor, _is_prime, bareiss_rank, cohomology_at,
                                   direct_sum, fp_rank,
                                   group_to_json,
                                   inverted_primes, localize, mod_p_dims,
                                   smith_normal_form)
from genusone.group_modules import standard_coefficient_module
from genusone.oracles import random_known_complex


def random_matrix(rng, rows, cols, bound=9):
    return IntegerMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def assert_stored(m, want=None, p=None):
    """``m`` keeps the stored form (per row the flat tuple of its (column,
    value) pairs: columns ascending, no zero value, values in [1, p) over
    F_p) and reads as ``want``."""
    rows = m.sparse_rows()
    assert type(rows) is tuple and len(rows) == m.rows
    for row in rows:
        assert type(row) is tuple and len(row) % 2 == 0
        columns, values = row[::2], row[1::2]
        assert list(columns) == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(x != 0 and (p is None or 0 < x < p) for x in values), row
    if want is not None:
        assert m.to_lists() == want


def test_matrix_basics():
    a = IntegerMatrix([[1, 2], [3, 4]])
    b = IntegerMatrix([[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert (a + b).to_lists() == [[1, 3], [4, 4]]
    assert a.det() == -2
    assert a.mod(2).to_lists() == [[1, 0], [1, 0]]
    assert [list(row) for row in a] == a.to_lists() and a[1] == (3, 4)
    for other in (1, 1.5, None):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
    # entries are ints; a bool is not one
    for data in ([[1.5, 2]], [[True, 2]]):
        with pytest.raises(TypeError, match="must be int"):
            IntegerMatrix(data)


def test_mod_keeps_a_reduced_matrix():
    reduced = IntegerMatrix([[0, 2], [1, 0]])
    assert reduced.mod(3) is reduced
    for data in ([[0, 3], [1, 0]], [[0, -1], [1, 0]], [[5, 0], [0, 0]]):
        m = IntegerMatrix(data)
        assert m.mod(3) is not m
        assert m.mod(3).to_lists() == [[x % 3 for x in row] for row in data]


def test_identity_shift_matches_the_sum():
    # rows with a diagonal entry, without one, empty, and with a diagonal
    # entry that the shift cancels, over Z and reduced mod p
    rng = random.Random(12)
    for n in (0, 1, 2, 5, 9):
        for _ in range(6):
            data = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n)]
                    for _ in range(n)]
            for t in (-3, -1, 0, 1, 2):
                for i in range(0, n, 2):
                    data[i][i] = -t  # cancels to 0 over Z
                x = IntegerMatrix(data, cols=n)
                shifted = x.add_identity(t)
                assert shifted == x + IntegerMatrix.identity(n) * t
                assert_stored(shifted, [[v + t * (i == j) for j, v in enumerate(row)]
                                        for i, row in enumerate(data)])
                for p in (2, 3, 5):
                    reduced = x.mod(p).add_identity(t, p)
                    assert reduced == (x + IntegerMatrix.identity(n) * t).mod(p), (n, t, p)
                    assert_stored(reduced, p=p)
    with pytest.raises(ValueError, match="non-square"):
        IntegerMatrix([[1, 2]]).add_identity(1)


def _naive_product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)]


def test_product_matches_triple_loop():
    rng = random.Random(11)
    big = 2 ** 200
    pools = ([0, 0, 0, 1, -1], [-1, 0, 1], [0, 0, big - 1, -big, 3 * big + 7])
    mostly_zero = [0] * 12 + [1, -1, big]
    pairs = [(pool, pool) for pool in pools] + [(pool, mostly_zero) for pool in pools]
    for left, right in pairs:
        for _ in range(20):
            n, m, k = (rng.randint(1, 7) for _ in range(3))
            a = [[rng.choice(left) for _ in range(m)] for _ in range(n)]
            b = [[rng.choice(right) for _ in range(k)] for _ in range(m)]
            # the same factors with every other row of a, and one row of b, zero
            a_zeroed = [[0] * m if i % 2 else row for i, row in enumerate(a)]
            zero_row = rng.randrange(m)
            b_zeroed = [[0] * k if j == zero_row else row for j, row in enumerate(b)]
            for lhs, rhs in ((a, b), (a_zeroed, b), (a, b_zeroed)):
                lhs, rhs = IntegerMatrix(lhs), IntegerMatrix(rhs)
                assert_stored(lhs * rhs, _naive_product(lhs, rhs))
            # every other result keeps the stored form too
            x, y = IntegerMatrix(a), IntegerMatrix(a_zeroed)
            assert_stored(x + y, [[s + t for s, t in zip(r, q)] for r, q in zip(a, a_zeroed)])
            assert_stored(x - x, [[0] * m for _ in range(n)])
            assert_stored(y - x, [[t - s for s, t in zip(r, q)] for r, q in zip(a, a_zeroed)])
            assert_stored(-x, [[-s for s in r] for r in a])
            assert_stored(x * 3, [[3 * s for s in r] for r in a])
            assert_stored(x * 0, [[0] * m for _ in range(n)])
            for p in (2, 3, 7):
                assert_stored(x.mod(p), [[s % p for s in r] for r in a], p)
            assert_stored(IntegerMatrix.from_blocks([[x, y], [y, x]]),
                          [r + q for r, q in zip(a, a_zeroed)]
                          + [q + r for r, q in zip(a, a_zeroed)])
    for n, m in ((0, 3), (3, 0), (0, 0)):
        a = IntegerMatrix.zeros(n, m)
        b = IntegerMatrix.zeros(m, 2)
        assert (a * b).shape == (n, 2)
        assert_stored(a * b, _naive_product(a, b))
        c = IntegerMatrix.zeros(2, n)
        assert (c * a).shape == (2, m) and (c * a).is_zero()
    for n in range(4):
        assert_stored(IntegerMatrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)])
        assert_stored(IntegerMatrix.zeros(n, 2), [[0, 0] for _ in range(n)])
    with pytest.raises(ValueError, match="widths"):
        IntegerMatrix.from_blocks([[IntegerMatrix.zeros(1, 2)], [IntegerMatrix.zeros(1, 3)]])
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 3) * IntegerMatrix.zeros(2, 3)


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
    assert _smith_diagonal(a) == [2, 2, 156]
    record = DifferentialRecord(a)
    assert (record.rank, record.divisors) == (3, (2, 2, 156))
    zero = IntegerMatrix.zeros(2, 3)
    assert _smith_diagonal(zero) == [0, 0]
    assert (DifferentialRecord(zero).rank, DifferentialRecord(zero).divisors) == (0, ())


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
        record = DifferentialRecord(a)
        rank, divisors = record.rank, record.divisors
        assert rank == sum(1 for d in want if d), a
        assert list(divisors) == [d for d in want if d > 1], a
        r, minor = bareiss_rank(a)
        assert r == rank and minor > 0 and minor % math.prod(divisors) == 0, a


def test_elementary_divisors_of_a_unimodular_matrix():
    # the maximal minor is a unit, so the modular pass is skipped
    a = IntegerMatrix([[2, 1, 0], [1, 1, 0], [0, 0, -1]])
    assert bareiss_rank(a) == (3, 1)
    record = DifferentialRecord(a)
    assert (record.rank, record.divisors) == (3, ())
    assert _smith_diagonal(a) == [1, 1, 1]


def test_fp_rank():
    assert fp_rank([[2, 4], [4, 2]], 2) == 0
    assert fp_rank([[2, 4], [1, 2]], 2) == 1
    assert fp_rank([[2, 4], [1, 2]], 3) == 1
    assert fp_rank([[1, 0], [0, 1]], 5) == 2
    with pytest.raises(ValueError):
        fp_rank([[1]], 4)
    with pytest.raises(ValueError):
        fp_rank([[1], [1, 1]], 2)


def test_primality_and_factoring():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n)] == [
        n for n in range(-3, 5000) if trial_division(n)]
    # strong pseudoprimes to every prime base up to 23 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(10 ** 18 + 3) and _is_prime(2 ** 61 - 1)
    # past the exact range, a multiple of a base is still decided
    assert not _is_prime(10 ** 27) and not _is_prime(3 * 3317044064679887385961981)
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(3317044064679887385961981)
    assert _factor(2 ** 10 * 3 * 999983 ** 2) == {2: 10, 3: 1, 999983: 2}
    assert _factor(12 * (10 ** 18 + 3)) == {2: 2, 3: 1, 10 ** 18 + 3: 1}
    assert _factor(1) == {}
    with pytest.raises(ValueError, match="cannot factor"):
        _factor(1_000_003 * 1_000_033)


def test_group_normalization():
    assert FgAbelianGroup(0, [4, 3]) == FgAbelianGroup(0, [12])
    assert FgAbelianGroup(0, [2, 2, 2, 2, 3]).invariant_factors == (2, 2, 2, 6)
    assert FgAbelianGroup(2, [1, 1]).render() == "Z^2"
    assert str(FgAbelianGroup()) == "0"
    assert FgAbelianGroup(0, [6, 4]).invariant_factors == (2, 12)
    # a free rank or a cyclic order is an int; a bool is not one
    for args in ((1.5,), (0, [2.0]), (True, [2]), (0, [2, False])):
        with pytest.raises(TypeError, match="must be int"):
            FgAbelianGroup(*args)


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
    with pytest.raises(ValueError, match=">= 2"):
        localize(g, [4, 1])
    assert inverted_primes([4, 6, 3]) == (2, 3)
    assert inverted_primes([]) == ()
    # a float or a bool is not an int to invert, even when it is integral
    for bad in ([6.0], [2.5], [True], [2, 3.0]):
        with pytest.raises(TypeError, match="can only invert ints"):
            inverted_primes(bad)
        with pytest.raises(TypeError, match="can only invert ints"):
            localize(g, bad)


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
        obj = json.loads(json.dumps(group_to_json(g)))
        assert FgAbelianGroup(obj["free_rank"], obj["invariant_factors"]) == g


def test_complex_rejects_a_base_that_is_not_an_int():
    # 2.0 passed the prime test (2.0 % 2 == 0), stored the row (0, 1.0) and
    # failed in pow() when the complex was read; bool and float are refused
    # before the prime test, as GroupModule and CyclicAction refuse them
    for base in (2.0, True, 3.0):
        with pytest.raises(TypeError, match="^base must be int, got "):
            CochainComplex((1, 1), [IntegerMatrix([[3]])], base=base)
    cpx = CochainComplex((1, 1), [IntegerMatrix([[3]])], base=2)
    assert cpx.differentials[0].sparse_rows() == ((0, 1),)
    assert cohomology_at(cpx, 1) == FgAbelianGroup()


def test_complex_rejects_nonzero_composite():
    good = CochainComplex([1, 1, 1],
                          [IntegerMatrix([[2]]), IntegerMatrix([[0]])])
    assert good.ranks == (1, 1, 1)
    with pytest.raises(ValueError):
        CochainComplex([1, 1, 1],
                       [IntegerMatrix([[2]]), IntegerMatrix([[3]])])
    # a rank that is not an int is refused, not rounded into a complex
    for ranks in ([1.7, True], [1.0, 1], [1, True]):
        with pytest.raises(TypeError, match="ranks must be int"):
            CochainComplex(ranks, [IntegerMatrix([[2]])])


def _with_one_more(matrix, i, j):
    rows = matrix.to_lists()
    rows[i][j] += 1
    return IntegerMatrix(rows, cols=matrix.cols)


@pytest.mark.parametrize("base", [None, 2, 3])
def test_complex_rejects_a_defect_in_the_last_row_or_column(base):
    # one entry of a random complex is raised by 1: in the last row of d1, or
    # in the last column of d0, where it leaves d1 o d0 nonzero (mod base)
    def nonzero(values):
        return any(x % base if base else x for x in values)

    rng = random.Random(3)
    seen = {"last row": 0, "last column": 0}
    while min(seen.values()) < 5:
        cpx, _ = random_known_complex(rng)
        d0, d1 = cpx.differentials
        assert CochainComplex(cpx.ranks, [d0, d1], base=base).ranks == cpx.ranks
        defects = []
        if d1.rows:
            defects += [("last row", d0, _with_one_more(d1, d1.rows - 1, j))
                        for j in range(d0.rows) if nonzero(d0[j])]
        if d0.cols:
            defects += [("last column", _with_one_more(d0, i, d0.cols - 1), d1)
                        for i in range(d1.cols) if nonzero(row[i] for row in d1)]
        for where, lower, upper in defects[:2]:
            assert any(nonzero(row) for row in _naive_product(upper, lower)), where
            with pytest.raises(ValueError, match="d1 o d0"):
                CochainComplex(cpx.ranks, [lower, upper], base=base)
            seen[where] += 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_complex_reads_the_composite_mod_p(p):
    # d1 o d0 = (p): zero over F_p although neither map is zero mod p
    d0, d1 = IntegerMatrix([[1], [1]]), IntegerMatrix([[1, p - 1]])
    assert CochainComplex([1, 2, 1], [d0, d1], base=p).differentials == (d0, d1)
    with pytest.raises(ValueError, match="d1 o d0"):
        CochainComplex([1, 2, 1], [d0, d1])


def test_complex_checks_a_shared_differential_on_both_sides():
    # d3 is d1, one object; d1 o d0 = 0 and d2 o d1 = 0, but d3 o d2 = E_01
    def unit(i, j):
        return IntegerMatrix([[int((r, c) == (i, j)) for c in range(2)] for r in range(2)])

    d0, d1, d2 = unit(1, 1), unit(0, 0), unit(0, 1)
    for base in (None, 2, 3):
        assert CochainComplex([2] * 4, [d0, d1, d2], base=base).ranks == (2,) * 4
        with pytest.raises(ValueError, match="d3 o d2"):
            CochainComplex([2] * 5, [d0, d1, d2, d1], base=base)


def test_complex_check_takes_each_distinct_differential_once(monkeypatch):
    # D_3 is D_1 in the amalgam complex at an odd top; the check forms no
    # matrix product
    diffs = build_total_complex(standard_coefficient_module("sym_k", 4), 5).complex.differentials
    assert diffs[3] is diffs[1] and diffs[4] is diffs[2]

    def no_product(self, other, base=None):
        raise AssertionError("the d o d check built a product")

    monkeypatch.setattr(IntegerMatrix, "__mul__", no_product)
    monkeypatch.setattr(IntegerMatrix, "times", no_product)
    CochainComplex([5] + [10] * 5, diffs)


def test_internal_results_skip_the_public_constructor(monkeypatch):
    # entries are checked where a matrix enters through IntegerMatrix(...);
    # the blocks, the complex and its reduced records are built unchecked
    modules = [standard_coefficient_module("sym_k", 19, base=base) for base in (None, 2)]
    want = [[cohomology_at(build_total_complex(module, 4).complex, p) for p in range(5)]
            for module in modules]
    calls = []
    init = IntegerMatrix.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntegerMatrix, "__init__", spy)
    for module, groups in zip(modules, want):
        cpx = build_total_complex(module, 4).complex
        assert [cohomology_at(cpx, p) for p in range(5)] == groups
    assert calls == []


def test_complex_check_with_zero_width_terms():
    # d o d through a zero term vanishes whatever the maps beside it
    for ranks in ([0, 2, 0], [2, 0, 2], [0, 0, 0], [2, 3, 0], [0, 3, 2]):
        diffs = [IntegerMatrix([[1] * ranks[n]] * ranks[n + 1], cols=ranks[n])
                 for n in range(2)]
        for base in (None, 2):
            assert CochainComplex(ranks, diffs, base=base).ranks == tuple(ranks)
    one = IntegerMatrix([[1]])
    for base in (None, 2):
        with pytest.raises(ValueError, match="d2 o d1"):
            CochainComplex([0, 1, 1, 1], [IntegerMatrix.zeros(1, 0), one, one], base=base)


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
    for degree in (True, 1.0):
        with pytest.raises(TypeError, match="degree must be int"):
            cohomology_at(cpx, degree)


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
    record = DifferentialRecord(incoming)
    return FgAbelianGroup(rank_here - bareiss_rank(outgoing)[0] - record.rank, record.divisors)


def test_complex_without_units_passes_through_unreduced():
    # entries in {0, +-2, +-3}: nothing to cancel
    d0 = IntegerMatrix([[2, 3], [2, 3], [0, 0]])
    d1 = IntegerMatrix([[3, -3, 2], [2, -2, 3]])
    cpx = CochainComplex([2, 3, 2], [d0, d1])
    reduced = cpx.reduced()
    assert reduced.ranks == cpx.ranks
    for record, d in zip(reduced.records, (d0, d1)):
        assert_stored(record._matrix, d.to_lists())
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
    # cancelling d_0[0][0] gives row 1 the entry -4 in column 1, left of its
    # 3 in column 2; the record keeps the columns in order
    cpx = CochainComplex([3, 2], [IntegerMatrix([[1, 2, 0], [2, 0, 3]])])
    record, = cpx.reduced().records
    assert_stored(record._matrix, [[-4, 3]])
    assert [cohomology_at(cpx, n) for n in range(2)] == [FgAbelianGroup(1), FgAbelianGroup()]


def test_unit_reduction_empties_every_differential_over_f_p():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(15):
            integral, _ = random_known_complex(rng)
            cpx = CochainComplex(integral.ranks, integral.differentials, base=p)
            for d, integral_d in zip(cpx.differentials, integral.differentials):
                assert_stored(d, [[x % p for x in row] for row in integral_d], p)
            for record in cpx.reduced().records:
                assert_stored(record._matrix, [[0] * record.shape[1]] * record.shape[0], p)
            assert all(record.rank == 0 for record in cpx.reduced().records)
            for n in range(3):
                assert cohomology_at(cpx, n) == reference_cohomology(cpx, n), (p, n)


def test_reduction_matches_planted_complexes():
    rng = random.Random(8)
    for _ in range(50):
        cpx, planted = random_known_complex(rng)
        for record in cpx.reduced().records:
            assert_stored(record._matrix)
            assert record._matrix.shape == record.shape
        assert cohomology_at(cpx, 1) == planted
        for n in range(3):
            assert cohomology_at(cpx, n) == reference_cohomology(cpx, n), n


@pytest.mark.parametrize("base", [None, 2, 3])
def test_reduction_matches_unreduced_sym_k_complexes(base):
    for k in range(13):
        module = standard_coefficient_module("sym_k", k, base=base)
        cpx = build_total_complex(module, 6).complex
        ranks, records = cpx.reduced()
        assert len(ranks) == len(records) + 1
        for n, record in enumerate(records):
            assert ranks[n] == record.shape[1] and ranks[n + 1] == record.shape[0], (k, n)
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
    # divisors are derived on each read, from the cached diagonal form
    moduli = []
    original_diagonal = exact_linalg._diagonal_mod

    def diagonal_spy(a, modulus):
        moduli.append(modulus)
        return original_diagonal(a, modulus)

    monkeypatch.setattr(exact_linalg, "_diagonal_mod", diagonal_spy)
    d0 = IntegerMatrix([[2, 3], [2, 3], [0, 0]])
    d1 = IntegerMatrix([[3, -3, 2], [2, -2, 3]])
    cpx = CochainComplex([2, 3, 2], [d0, d1])
    groups = [cohomology_at(cpx, n) for n in (0, 1, 2, 0, 1, 2)]
    assert groups[:3] == groups[3:]
    assert calls == [(3, 2), (2, 3)]
    assert len(set(moduli)) == len(moduli) == 2
    assert cpx.reduced() is cpx.reduced()


def test_pivot_scan_that_stops_at_a_one_picks_the_same_pivots(monkeypatch):
    # the scan of the whole matrix for its first least nonzero entry, as the
    # diagonal form ran it before stopping at the first 1
    import genusone.exact_linalg as exact_linalg
    from genusone.amalgam import TRANSFER_MODULUS, _module_complex

    def full_scan(m):
        best = None
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best[1], best[2]

    reads = []
    for k in range(41):
        records = _module_complex(standard_coefficient_module("sym_k", k)).reduced().records
        reads += [(record._matrix, TRANSFER_MODULUS) for record in records]
        reads.append((records[0]._matrix, bareiss_rank(records[0]._matrix)[1]))
    pivots = [exact_linalg._diagonal_mod(a, modulus) for a, modulus in reads]
    monkeypatch.setattr(exact_linalg, "_least_entry", full_scan)
    assert pivots == [exact_linalg._diagonal_mod(a, modulus) for a, modulus in reads]
    assert sum(map(len, pivots)) > 1000
