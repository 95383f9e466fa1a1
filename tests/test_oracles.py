import random

import pytest

from genusone.amalgam import build_total_complex
from genusone.cyclic import cyclic_cohomology
from genusone.exact_linalg import (FgAbelianGroup, IntegerMatrix,
                                   cohomology_at, snf_diagonal)
from genusone.group_modules import standard_coefficient_module
from genusone.oracles import (bar_cohomology, determinantal_invariant_factors,
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
