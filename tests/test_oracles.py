import random

import pytest

from genusone.amalgam import build_total_complex
from genusone.cyclic import cyclic_cohomology
from genusone.exact_linalg import (FgAbelianGroup, IntegerMatrix,
                                   cohomology_at, snf_diagonal)
from genusone.group_modules import standard_coefficient_module
from genusone.oracles import (_bar_differential, _sparse_rows,
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


def test_bar_matches_periodic_resolution():
    # the generic bar complex knows nothing about the 2-periodic one, so
    # agreement across degrees is an independent check of both
    rng = random.Random(14)
    for order in (2, 3, 4, 6):
        for _ in range(3):
            act = random_cyclic_action(rng, order)
            for n in range(4):
                assert bar_cohomology(act, n) == cyclic_cohomology(act, n), \
                    (order, n)


@pytest.mark.parametrize("base", [None, 2])
def test_bar_differential_squares_to_zero(base):
    # d_{n+1} d_n = 0 on the sparse rows, over Z or modulo base
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
    from genusone.cyclic import CyclicAction
    rng = random.Random(15)
    act = random_cyclic_action(rng, 4)
    reduced = CyclicAction(act.order, act.gen, base=2)
    for n in range(3):
        assert bar_cohomology(act, n, base=2) == cyclic_cohomology(reduced, n)


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
    assert bar_cohomology(act, 0) == cyclic_cohomology(act, 0)
