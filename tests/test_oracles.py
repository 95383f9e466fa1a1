import ast
import itertools
import random

import pytest

from genusone import oracles
from genusone.amalgam import build_total_complex
from genusone.cyclic import CyclicAction, cyclic_cohomology
from genusone.exact_linalg import (FgAbelianGroup, IntegerMatrix,
                                   cohomology_at, smith_normal_form)
from genusone.group_modules import standard_coefficient_module
from genusone.oracles import (_bar_transposed, _fraction_det, _sparse_rows,
                              _sparse_rows_diagonal, bar_cohomology,
                              determinantal_invariant_factors,
                              random_cyclic_action, random_known_complex,
                              rational_rank, sparse_diagonal)


def random_matrix(rng, rows, cols, bound=6):
    return IntegerMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def _smith_diagonal(a):
    """The diagonal of the certified dense reference, ``smith_normal_form``."""
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(a.rows, a.cols))]


def test_sparse_diagonal_agrees_with_snf():
    rng = random.Random(11)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert sparse_diagonal(m) == _smith_diagonal(m)


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
        assert _sparse_rows_diagonal(_sparse_rows(m)) == [d for d in _smith_diagonal(m) if d]


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
        assert _sparse_rows_diagonal(_sparse_rows(m)) == [d for d in _smith_diagonal(m) if d]


def test_rows_diagonal_with_a_duplicate_column_member():
    # pivot (row 0, col 0) cancels col 1 out of row 3; pivot (row 1, col 2)
    # puts it back, so cols[1] lists row 3 twice.  Pivoting col 1 at row 2
    # updates row 3 at its first listing and skips the second, where row 3
    # no longer holds col 1; the rows 0 and 1 listed there are pivoted.
    data = [[1, 1, 0, 0], [0, 2, -1, 0], [1, 0, 0, 2], [1, 1, -1, 1]]
    m = IntegerMatrix(data)
    assert _sparse_rows_diagonal(_sparse_rows(m)) == _smith_diagonal(m) == [1, 1, 1, 3]


def test_rows_diagonal_with_a_pivoted_row_still_listed():
    # row 0 is pivoted on col 2 and stays listed under col 1; pivoting col 1
    # at row 1 skips it and turns row 2 into a non-unit residue
    data = [[0, 2, -1], [2, -1, 0], [0, 2, 0]]
    m = IntegerMatrix(data)
    assert _sparse_rows_diagonal(_sparse_rows(m)) == _smith_diagonal(m) == [1, 1, 4]


def test_oracles_share_no_engine_elimination():
    # the oracles check the engine, so they must never call its elimination
    engine = {"bareiss_rank", "_bareiss", "_reduce_on_units", "_cancel_units", "reduced",
              "DifferentialRecord", "_diagonal_mod", "_divisors_mod_minor",
              "elementary_divisors", "smith_normal_form", "snf_diagonal", "fp_rank",
              "cohomology_at", "det"}
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
        assert rational_rank(m) == sum(1 for d in _smith_diagonal(m) if d)


def test_determinantal_invariant_factors():
    m = IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert determinantal_invariant_factors(m) == [2, 2, 156]
    rng = random.Random(13)
    for _ in range(15):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        want = [d for d in _smith_diagonal(a) if d]
        assert determinantal_invariant_factors(a) == want
    with pytest.raises(ValueError):
        determinantal_invariant_factors(IntegerMatrix.zeros(9, 9))


def test_fraction_det_matches_bareiss():
    rng = random.Random(19)
    for n in range(1, 9):
        for _ in range(6):
            a = random_matrix(rng, n, n, bound=rng.choice((1, 6)))
            assert _fraction_det(a.to_lists()) == a.det(), a.to_lists()
    assert _fraction_det([]) == IntegerMatrix([], cols=0).det() == 1
    # a permutation matrix's det is the permutation's sign, so a wrong sign
    # on an odd row move fails here
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
            a = IntegerMatrix([[int(j == perm[i]) for j in range(n)] for i in range(n)])
            assert _fraction_det(a.to_lists()) == a.det() == (-1) ** inversions, perm


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


def _bar_differential(order, powers, n, base=None):
    # the row-wise reference: sparse rows {i: {j: v}} of d: C^n -> C^(n+1),
    # one dict per (n+1)-tuple coordinate, g^(t_0) on the block of
    # (t_1..t_n), then signed identity blocks on the merged tuples and on
    # (t_0..t_(n-1)), summed entry by entry
    r = powers[0].rows
    q = order - 1
    g_rows = [[[(j, v) for j, v in enumerate(row) if v] for row in p.to_lists()]
              for p in powers]
    last_sign = -1 if n % 2 == 0 else 1
    half = base // 2 if base is not None else None
    rows = {}

    def tuple_index(tup):
        idx = 0
        for t in tup:
            idx = idx * q + t - 1
        return idx

    for idx, tup in enumerate(itertools.product(range(1, order), repeat=n + 1)):
        first = idx % q ** n * r
        terms = []
        for i in range(n):
            product = (tup[i] + tup[i + 1]) % order
            if product:
                merged = tup[:i] + (product,) + tup[i + 2:]
                terms.append((tuple_index(merged) * r, -1 if i % 2 == 0 else 1))
        terms.append((idx // q * r, last_sign))
        for c, g_row in enumerate(g_rows[tup[0]]):
            row = {first + j: v for j, v in g_row}
            for col, sign in terms:
                row[col + c] = row.get(col + c, 0) + sign
            if base is not None:
                row = {j: (v + half) % base - half for j, v in row.items()}
            row = {j: v for j, v in row.items() if v}
            if row:
                rows[idx * r + c] = row
    return rows


def _ends_in_one(i, order, r):
    # row i of d_n is coordinate i % r of tuple i // r, whose last entry is
    # its least significant digit (base m - 1, digit t - 1)
    return (i // r) % (order - 1) == 0


@pytest.mark.parametrize("base", [None, 2, 3, 5])
def test_transposed_bar_builder_is_the_transpose_of_the_row_builder(base):
    # with nothing dropped, the builder gives the transpose of the row-wise
    # reference restricted to the tuples ending in 1, rows keeping their
    # global numbering, each row listing its columns in ascending order
    # (the order the elimination reads, so its pivots follow from it)
    rng = random.Random(26)
    for order in (2, 3, 4, 6):
        for _ in range(2):
            act = random_cyclic_action(rng, order)
            powers = [act.power(i) for i in range(order)]
            for n in range(4):
                want = {}
                for i, row in _bar_differential(order, powers, n, base).items():
                    if not _ends_in_one(i, order, act.rank):
                        continue
                    for j, v in row.items():
                        want.setdefault(j, {})[i] = v
                got = _bar_transposed(order, powers, n, base)
                assert got == want, (order, n)
                assert all(list(row) == sorted(row) for row in got.values())


@pytest.mark.parametrize("base", [None, 2, 3, 5])
def test_bar_differential_squares_to_zero(base):
    # d_{n+1} d_n = 0 on the full row-wise reference, over Z or modulo base:
    # row i of d_n lists (j, v) with d_n[i][j] = v, for i among the
    # (m - 1)^(n + 1) r coordinates of C^(n+1) and j among the (m - 1)^n r
    # of C^n, and d_{n+1} d_n [k][j] is the sum of d_{n+1}[k][i] d_n[i][j]
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
                for k, row in outer.items():
                    product = {}
                    for i, v in row.items():
                        for j, w in inner.get(i, {}).items():
                            product[j] = product.get(j, 0) + v * w
                            terms += 1
                    assert all(x % base == 0 if base else x == 0
                               for x in product.values()), (order, n, k)
    assert terms > 1000


def _rebuild_rows(order, powers, n, kept):
    # every row of d_n from the rows on the tuples ending in 1: each column
    # of d_n is a coboundary y, and dy(s, t, 1) = 0 for an n-tuple s reads
    # y(s, t+1) = y(s, t) + (-1)^n (g^(u_0) y(u_1..u_(n+1)) + sum over
    # j < n of (-1)^(j+1) y(u with u_j u_(j+1) merged)), u = (s, t, 1);
    # every y on the right but y(s, t) ends in 1, and y is 0 on a tuple
    # holding the identity.  Integral, so it holds mod p as well.
    r = powers[0].rows
    g = [p.to_lists() for p in powers]
    index = {tup: i for i, tup in
             enumerate(itertools.product(range(1, order), repeat=n + 1))}
    rows = dict(kept)

    def add(out, tup, c, sign):
        if 0 not in tup:
            for j, v in rows.get(index[tup] * r + c, {}).items():
                out[j] = out.get(j, 0) + sign * v

    for s in itertools.product(range(1, order), repeat=n):
        for t in range(1, order - 1):
            u = s + (t, 1)
            for c in range(r):
                out = {}
                add(out, s + (t,), c, 1)
                for e, v in enumerate(g[u[0]][c]):
                    if v:
                        add(out, u[1:], e, (-1) ** n * v)
                for j in range(n):
                    merged = u[:j] + ((u[j] + u[j + 1]) % order,) + u[j + 2:]
                    add(out, merged, c, (-1) ** (n + j + 1))
                rows[index[s + (t + 1,)] * r + c] = out
    return rows


@pytest.mark.parametrize("base", [None, 2, 3, 5])
def test_tuples_ending_in_one_determine_the_bar_differential(base):
    # the lemma behind the projected build: the full d_n is rebuilt from its
    # rows on the tuples ending in 1 by the integral recurrence, and the
    # projected d_n has the full one's divisors over Z and rank over F_p
    rng = random.Random(27)
    residue = (lambda v: v) if base is None else (lambda v: (v + base // 2) % base - base // 2)
    actions = [random_cyclic_action(rng, order)
               for order in (3, 4, 6) for _ in range(2)]
    actions += [CyclicAction(6, IntegerMatrix(g)) for g in _SEED_201_ORDER_6]
    for act in actions:
        m, r = act.order, act.rank
        powers = [act.power(i) for i in range(m)]
        for n in (0, 1, 2, 3, 5) if m <= 4 else range(4):
            full = _bar_differential(m, powers, n, base)
            kept = {i: row for i, row in full.items() if _ends_in_one(i, m, r)}
            rebuilt = _rebuild_rows(m, powers, n, kept)
            for i in range((m - 1) ** (n + 1) * r):
                got = {j: residue(v) for j, v in rebuilt.get(i, {}).items() if residue(v)}
                assert got == full.get(i, {}), (act.gen, n, i)
            projected = _sparse_rows_diagonal(_bar_transposed(m, powers, n, base))
            whole = _sparse_rows_diagonal(full)
            if base is None:
                assert projected == whole, (act.gen, n)
            else:
                assert (sum(1 for d in projected if d % base)
                        == sum(1 for d in whole if d % base)), (act.gen, n)


def test_bar_cohomology_builds_only_the_tuples_ending_in_one(monkeypatch):
    # the order-6 rank-3 d_3 keeps one tuple in 5: every column of its
    # transpose, a row of d_3, has a tuple ending in 1
    seen = []

    def spy(order, powers, n, base=None, drop=()):
        rows = _bar_transposed(order, powers, n, base, drop)
        seen.append(n)
        r = powers[0].rows
        assert all((i // r) % (order - 1) == 0 for row in rows.values() for i in row), n
        return rows

    monkeypatch.setattr(oracles, "_bar_transposed", spy)
    act = CyclicAction(6, IntegerMatrix(_SEED_201_ORDER_6[0]))
    assert bar_cohomology(act, 3) == [cyclic_cohomology(act, n) for n in range(4)]
    assert seen == [0, 1, 2, 3]


@pytest.mark.parametrize("base", [None, 2, 3])
def test_restricted_transposed_bar_diagonals_match_the_full_ones(base):
    # replay bar_cohomology's chain: d_n transposed, on the tuples ending
    # in 1 and without the rows that d_(n-1)'s unit pivots took, has the
    # divisors of the whole d_n of the row-wise reference (over F_p, as
    # many prime to p), and its own unit pivots, each (row j of d_n^T,
    # column i), span a block d_n[I, J] of the reference of determinant +-1
    rng = random.Random(25)
    actions = [random_cyclic_action(rng, order)
               for order in (2, 3, 4, 6) for _ in range(2)]
    actions += [CyclicAction(6, IntegerMatrix(g)) for g in _SEED_201_ORDER_6]
    blocks = 0
    for act in actions:
        m, r = act.order, act.rank
        powers = [act.power(i) for i in range(m)]
        pivots = {}
        for n in range(4):
            full = _bar_differential(m, powers, n, base)
            rows = _bar_transposed(m, powers, n, base, pivots)
            if n == 3 and m == 6:
                assert len(rows) < (m - 1) ** 3 * r
            pivots = {}
            restricted = _sparse_rows_diagonal(rows, pivots)
            whole = _sparse_rows_diagonal({i: dict(e) for i, e in full.items()})
            if base is None:
                assert restricted == whole, (act.gen, n)
            else:
                assert (sum(1 for d in restricted if d % base)
                        == sum(1 for d in whole if d % base)), (act.gen, n)
            # every block below 200 pivots, the 60- to 104-pivot blocks of
            # the order-6 d_2 and d_3 included, has its determinant taken;
            # the 208- and 312-pivot blocks are left to the diagonal
            # comparison above
            if 0 < len(pivots) < 200:
                block = [[full.get(i, {}).get(j, 0) for j in pivots.values()]
                         for i in pivots]
                assert _fraction_det(block) in (1, -1), (act.gen, n)
                blocks += 1
    assert blocks >= 2 * len(actions)


def test_bar_cohomology_rejects_a_non_complex(monkeypatch):
    # d_0 = (2) has no unit pivot to drop, so d_1 = (1) keeps its row in
    # the transposed form and H^1 would get free rank 1 - 1 - 1
    def non_complex(order, powers, n, base=None, drop=()):
        return {j: {0: 2 if n == 0 else 1} for j in (0,) if j not in drop}

    monkeypatch.setattr(oracles, "_bar_transposed", non_complex)
    with pytest.raises(RuntimeError, match="d o d"):
        bar_cohomology(CyclicAction(2, IntegerMatrix([[-1]])), 2)


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
