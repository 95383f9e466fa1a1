import ast
import itertools
import random

import pytest

from genusone import oracles
from genusone.amalgam import build_total_complex
from genusone.cyclic import CyclicAction, cyclic_cohomology
from genusone.exact_linalg import (FgAbelianGroup, IntegerMatrix,
                                   cohomology_at, snf_diagonal)
from genusone.group_modules import standard_coefficient_module
from genusone.oracles import (_bar_differential, _fraction_det, _sparse_rows,
                              _sparse_rows_diagonal, bar_cohomology,
                              determinantal_invariant_factors,
                              random_cyclic_action, random_known_complex,
                              rational_rank, sparse_diagonal)


def random_matrix(rng, rows, cols, bound=6):
    return IntegerMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def test_sparse_diagonal_agrees_with_snf():
    rng = random.Random(11)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert sparse_diagonal(m) == snf_diagonal(m)


def test_sparse_diagonal_is_the_rows_helper():
    rng = random.Random(19)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), bound=2)
        assert sparse_diagonal(m) == _sparse_rows_diagonal(_sparse_rows(m))


def test_rows_diagonal_without_unit_entries():
    # no +-1 anywhere: no unit pivot exists, the gcd residue does it all
    rng = random.Random(21)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntegerMatrix([[rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -9))
                            for _ in range(cols)] for _ in range(rows)])
        assert _sparse_rows_diagonal(_sparse_rows(m)) == [d for d in snf_diagonal(m) if d]


def test_rows_diagonal_with_unit_fill_in():
    # a dense unit row and column: the first unit pivot fills the whole
    # block, changed rows go back on the heap, and later pivots must see
    # the filled entries (including new +-1s and vanished ones)
    rng = random.Random(22)
    for _ in range(40):
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        data = [[rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(cols)]
                for _ in range(rows)]
        r, c = rng.randrange(rows), rng.randrange(cols)
        for j in range(cols):
            data[r][j] = rng.choice((1, -1, 2))
        for i in range(rows):
            data[i][c] = rng.choice((1, -1, 2))
        data[r][c] = rng.choice((1, -1))
        m = IntegerMatrix(data)
        assert _sparse_rows_diagonal(_sparse_rows(m)) == [d for d in snf_diagonal(m) if d]


def test_rows_diagonal_with_a_duplicate_column_member():
    # pivot (row 0, col 0) cancels col 1 out of row 3; pivot (row 1, col 2)
    # puts it back, so cols[1] lists row 3 twice.  Pivoting col 1 at row 2
    # updates row 3 at its first listing and skips the second, where row 3
    # no longer holds col 1; the rows 0 and 1 listed there are pivoted.
    data = [[1, 1, 0, 0], [0, 2, -1, 0], [1, 0, 0, 2], [1, 1, -1, 1]]
    m = IntegerMatrix(data)
    assert _sparse_rows_diagonal(_sparse_rows(m)) == snf_diagonal(m) == [1, 1, 1, 3]


def test_rows_diagonal_with_a_pivoted_row_still_listed():
    # row 0 is pivoted on col 2 and stays listed under col 1; pivoting col 1
    # at row 1 skips it and turns row 2 into a non-unit residue
    data = [[0, 2, -1], [2, -1, 0], [0, 2, 0]]
    m = IntegerMatrix(data)
    assert _sparse_rows_diagonal(_sparse_rows(m)) == snf_diagonal(m) == [1, 1, 4]


def test_oracles_share_no_engine_elimination():
    # the oracles check the engine, so they must never call its elimination
    engine = {"bareiss_rank", "_reduce_on_units", "_diagonal_mod",
              "_divisors_mod_minor", "elementary_divisors",
              "smith_normal_form", "snf_diagonal", "fp_rank", "cohomology_at",
              "det"}
    with open(oracles.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert named & engine == set()


def test_rational_rank_agrees_with_snf():
    rng = random.Random(12)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rational_rank(m) == sum(1 for d in snf_diagonal(m) if d)


def test_determinantal_invariant_factors():
    m = IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert determinantal_invariant_factors(m) == [2, 2, 156]
    rng = random.Random(13)
    for _ in range(15):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        want = [d for d in snf_diagonal(a) if d]
        assert determinantal_invariant_factors(a) == want
    with pytest.raises(ValueError):
        determinantal_invariant_factors(IntegerMatrix.zeros(9, 9))


def test_fraction_det_matches_bareiss():
    rng = random.Random(19)
    for n in range(1, 9):
        for _ in range(6):
            a = random_matrix(rng, n, n, bound=rng.choice((1, 6)))
            assert _fraction_det(a.to_lists()) == a.det(), a.to_lists()


# the distinct order-6 rank-3 actions that the oracles suite draws at seed
# 201; their degree-3 bar differentials (1875 x 375) are its largest
_SEED_201_ORDER_6 = (
    [[-1, 1, 0], [-1, 0, 0], [0, 1, -1]],
    [[0, -1, 0], [1, 1, 0], [-1, 1, -1]],
    [[-1, 1, 0], [-1, 0, 0], [0, 0, -1]],
    [[1, 0, 0], [0, 0, -1], [0, 1, -1]],
)


def test_bar_matches_periodic_resolution():
    # the generic bar complex knows nothing about the 2-periodic one, so
    # agreement across degrees is an independent check of both
    rng = random.Random(14)
    actions = [random_cyclic_action(rng, order)
               for order in (2, 3, 4, 6) for _ in range(3)]
    actions += [CyclicAction(6, IntegerMatrix(g)) for g in _SEED_201_ORDER_6]
    for act in actions:
        groups = bar_cohomology(act, 3)
        assert len(groups) == 4
        for n in range(4):
            assert groups[n] == cyclic_cohomology(act, n), (act.order, n)


@pytest.mark.parametrize("base", [None, 2])
def test_bar_differential_squares_to_zero(base):
    # d_{n+1} d_n = 0 on the normalized sparse rows, over Z or modulo
    # base; d_n maps (m - 1)^n r coordinates to (m - 1)^(n + 1) r
    rng = random.Random(20)
    terms = 0
    for order in (2, 3, 4, 6):
        for _ in range(2):
            act = random_cyclic_action(rng, order)
            powers = [act.power(i) for i in range(order)]
            if base is not None:
                powers = [p.mod(base) for p in powers]
            for n in range(3):
                inner = _bar_differential(order, powers, n, base)
                outer = _bar_differential(order, powers, n + 1, base)
                width = (order - 1) ** n * act.rank
                assert all(0 <= i < width * (order - 1) and
                           all(0 <= j < width for j in row)
                           for i, row in inner.items())
                for i, row in outer.items():
                    product = {}
                    for j, v in row.items():
                        for col, w in inner.get(j, {}).items():
                            product[col] = product.get(col, 0) + v * w
                            terms += 1
                    assert all(x % base == 0 if base else x == 0
                               for x in product.values()), (order, n, i)
    assert terms > 1000


def test_bar_mod_p():
    rng = random.Random(15)
    act = random_cyclic_action(rng, 4)
    reduced = CyclicAction(act.order, act.gen, base=2)
    assert bar_cohomology(act, 2, base=2) == [cyclic_cohomology(reduced, n)
                                              for n in range(3)]


def _full_bar_rows(order, powers, n):
    # the standard (unnormalized) cochains: every tuple in G^n, base m
    r = powers[0].rows
    rows = {}

    def add(row_tup, col_tup, sign, matrix):
        base_r = sum(t * order ** e for e, t in enumerate(reversed(row_tup))) * r
        base_c = sum(t * order ** e for e, t in enumerate(reversed(col_tup))) * r
        for i in range(r):
            for j in range(r):
                if matrix[i][j]:
                    row = rows.setdefault(base_r + i, {})
                    row[base_c + j] = row.get(base_c + j, 0) + sign * matrix[i][j]

    eye = powers[0].to_lists()
    for tup in itertools.product(range(order), repeat=n + 1):
        add(tup, tup[1:], 1, powers[tup[0]].to_lists())
        for i in range(n):
            merged = tup[:i] + ((tup[i] + tup[i + 1]) % order,) + tup[i + 2:]
            add(tup, merged, (-1) ** (i + 1), eye)
        add(tup, tup[:-1], (-1) ** (n + 1), eye)
    return {i: {j: v for j, v in e.items() if v} for i, e in rows.items()}


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_normalized_bar_matches_unnormalized(order):
    # the normalized cochains are a homotopy-equivalent subcomplex, so the
    # full standard complex, with its m^n r coordinates, gives the same H^n
    rng = random.Random(23 + order)
    for _ in range(3):
        act = random_cyclic_action(rng, order, max_rank=2)
        powers = [act.power(i) for i in range(order)]
        full = []
        rank_in, torsion_in = 0, []
        for n in range(3):
            diag = _sparse_rows_diagonal(_full_bar_rows(order, powers, n))
            free = order ** n * act.rank - len(diag) - rank_in
            full.append(FgAbelianGroup(free, torsion_in))
            rank_in, torsion_in = len(diag), [d for d in diag if d > 1]
        assert bar_cohomology(act, 2) == full, (order, act.gen)


@pytest.mark.parametrize("base", [2, 3])
def test_bar_over_prime_fields(base):
    # F_p ranks are the divisors prime to p; compare with the periodic
    # resolution of the reduced action
    rng = random.Random(24 + base)
    for order in (2, 3, 4, 6):
        for _ in range(2):
            act = random_cyclic_action(rng, order)
            reduced = CyclicAction(order, act.gen, base=base)
            assert bar_cohomology(act, 3, base=base) == \
                [cyclic_cohomology(reduced, n) for n in range(4)], (order, base)


def test_random_known_complex_plants_its_answer():
    rng = random.Random(16)
    for _ in range(30):
        cpx, planted = random_known_complex(rng)
        assert cohomology_at(cpx, 1) == planted


@pytest.mark.parametrize("k,p", [(18, 1), (20, 2), (24, 1)])
def test_integral_cohomology_matches_oracles_at_large_k(k, p):
    # cells where the groups carry large torsion (Z/3060 at (18, 1),
    # Z/1275120 at (24, 1)); the expected group comes from the sparse
    # divisor and fraction-rank oracles on the same complex
    cpx = build_total_complex(standard_coefficient_module("sym_k", k), p + 2).complex
    incoming = cpx.differential(p - 1)
    divisors = sparse_diagonal(incoming)
    rank_in = rational_rank(incoming)
    assert len(divisors) == rank_in
    free = cpx.ranks[p] - rational_rank(cpx.differential(p)) - rank_in
    assert cohomology_at(cpx, p) == FgAbelianGroup(free, [d for d in divisors if d > 1])


def test_random_cyclic_action_has_right_order():
    rng = random.Random(17)
    for order in (2, 3, 4, 6):
        act = random_cyclic_action(rng, order)
        assert act.order == order
        assert act.power(order).is_identity()
        assert not all(act.power(i).is_identity() for i in range(1, order))


def test_bar_degree_validation():
    rng = random.Random(18)
    act = random_cyclic_action(rng, 2)
    with pytest.raises(ValueError):
        bar_cohomology(act, -1)
    assert bar_cohomology(act, 0) == [cyclic_cohomology(act, 0)]


@pytest.mark.parametrize("base", [0, 1, 4, 6, 9, -2])
def test_bar_rejects_a_base_that_is_not_prime(base):
    # a composite base would count divisors prime to it as an F_base rank
    act = CyclicAction(2, IntegerMatrix([[-1]]))
    with pytest.raises(ValueError, match="base must be None or a prime"):
        bar_cohomology(act, 2, base=base)
