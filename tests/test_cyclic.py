import pytest

import genusone.cyclic as cyclic
from genusone.cyclic import (CyclicAction, cyclic_cohomology, periodic_complex,
                             restriction_cochain_matrix)
from genusone.exact_linalg import FgAbelianGroup, IntegerMatrix, cohomology_at


def trivial(order, rank=1):
    return CyclicAction(order, IntegerMatrix.identity(rank))


def test_rejects_wrong_order():
    with pytest.raises(ValueError):
        CyclicAction(3, IntegerMatrix([[-1]]))


@pytest.mark.parametrize("base", [0, 1, 4, -2])
def test_rejects_a_base_that_is_not_prime(base):
    # checked before anything is reduced: base 0 would divide by zero,
    # bases 1 and -2 would fail as a wrong order, and base 4 would pass
    with pytest.raises(ValueError, match="base must be None or a prime"):
        CyclicAction(2, IntegerMatrix([[-1]]), base=base)


def test_cached_powers_are_reduced_and_periodic():
    u = IntegerMatrix([[0, -1], [1, 1]])
    powers = [IntegerMatrix.identity(2)]
    for _ in range(12):
        powers.append(powers[-1] * u)
    for base in (None, 2, 5):
        act = CyclicAction(6, u, base=base)
        for i in range(13):
            want = powers[i] if base is None else powers[i].mod(base)
            assert act.power(i) == want, (base, i)
        total = IntegerMatrix.zeros(2, 2)
        for i in range(6):
            total = total + powers[i]
        assert act.norm() == (total if base is None else total.mod(base))
    with pytest.raises(ValueError):
        CyclicAction(2, u, base=5)


def test_trivial_module_values():
    # H^0 = Z, H^odd = 0, H^even = Z/m for trivial coefficients
    for m in (2, 3, 4, 6):
        act = trivial(m)
        assert cyclic_cohomology(act, 0) == FgAbelianGroup(1)
        assert cyclic_cohomology(act, 1) == FgAbelianGroup(0)
        assert cyclic_cohomology(act, 2) == FgAbelianGroup(0, [m])
        assert cyclic_cohomology(act, 3) == FgAbelianGroup(0)
        assert cyclic_cohomology(act, 4) == FgAbelianGroup(0, [m])


def test_sign_action_values():
    flip = CyclicAction(2, IntegerMatrix([[-1]]))
    assert cyclic_cohomology(flip, 0) == FgAbelianGroup(0)
    assert cyclic_cohomology(flip, 1) == FgAbelianGroup(0, [2])
    assert cyclic_cohomology(flip, 2) == FgAbelianGroup(0)
    swap = CyclicAction(2, IntegerMatrix([[0, 1], [1, 0]]))
    assert cyclic_cohomology(swap, 2) == FgAbelianGroup(0)
    reflect = CyclicAction(2, IntegerMatrix([[1, 0], [0, -1]]))
    assert cyclic_cohomology(reflect, 2) == FgAbelianGroup(0, [2])


def test_rotation_action_values():
    # norm of the quarter turn is zero and g - 1 is injective of index 2,
    # so odd degrees give Z/2 and positive even degrees vanish
    rot = CyclicAction(4, IntegerMatrix([[0, -1], [1, 0]]))
    assert cyclic_cohomology(rot, 0) == FgAbelianGroup(0)
    assert cyclic_cohomology(rot, 1) == FgAbelianGroup(0, [2])
    assert cyclic_cohomology(rot, 2) == FgAbelianGroup(0)
    assert cyclic_cohomology(rot, 3) == FgAbelianGroup(0, [2])
    # the hexagonal rotation has g - 1 invertible, so every degree vanishes
    hexa = CyclicAction(6, IntegerMatrix([[0, -1], [1, 1]]))
    for n in range(4):
        assert cyclic_cohomology(hexa, n) == FgAbelianGroup(0)


def test_trivial_group_complex_uses_identity_norm():
    # one extra term because the truncated top degree cannot see the next
    # differential
    act = trivial(1, rank=2)
    cpx = periodic_complex(act, 4)
    assert cohomology_at(cpx, 0) == FgAbelianGroup(2)
    for n in (1, 2, 3):
        assert cohomology_at(cpx, n) == FgAbelianGroup(0)


def test_mod_p_cohomology():
    rot = CyclicAction(4, IntegerMatrix([[0, -1], [1, 0]]), base=2)
    assert cyclic_cohomology(rot, 1) == FgAbelianGroup(0, [2])
    triv3 = CyclicAction(3, IntegerMatrix.identity(1), base=3)
    assert cyclic_cohomology(triv3, 1) == FgAbelianGroup(0, [3])
    assert cyclic_cohomology(triv3, 2) == FgAbelianGroup(0, [3])


def test_restriction_is_a_chain_map():
    # identity in even degrees, partial norm in odd ones; the two must
    # intertwine the periodic differentials of group and subgroup
    for m, d in ((4, 2), (6, 2), (6, 3)):
        act = CyclicAction(m, IntegerMatrix([[0, -1], [1, 1]] if m == 6
                                            else [[0, -1], [1, 0]]))
        sub = CyclicAction(m // d, act.power(d))
        for n in range(4):
            top = restriction_cochain_matrix(act, d, n)
            bottom = restriction_cochain_matrix(act, d, n + 1)
            d_group = (act.coboundary() if n % 2 == 0 else act.norm())
            d_sub = (sub.coboundary() if n % 2 == 0 else sub.norm())
            assert d_sub * top == bottom * d_group


def test_high_degrees_fold_onto_a_complex_of_degree_three(monkeypatch):
    tops = []
    original = cyclic.periodic_complex

    def spy(action, top_degree):
        tops.append(top_degree)
        return original(action, top_degree)

    monkeypatch.setattr(cyclic, "periodic_complex", spy)
    actions = [CyclicAction(4, IntegerMatrix([[0, -1], [1, 0]])),
               CyclicAction(6, IntegerMatrix([[0, -1], [1, 1]]), base=3),
               CyclicAction(2, IntegerMatrix([[1, 0], [0, -1]])),
               trivial(3, rank=2)]
    for act in actions:
        for n in range(13):
            explicit = cohomology_at(original(act, n + 1), n)
            assert cyclic_cohomology(act, n) == explicit, (act.order, n)
    # n = 0..12 read one complex of degree 3 per action
    assert tops == [3] * len(actions)
    # the cached complex takes no part in equality or hashing
    for act in actions:
        fresh = CyclicAction(act.order, IntegerMatrix(act.gen.to_lists()), act.base)
        assert act._complex is not None and fresh._complex is None
        assert act == fresh and hash(act) == hash(fresh)
    assert actions[0] != CyclicAction(4, actions[0].gen, base=5)
    assert repr(actions[1]) == f"CyclicAction(order=6, gen={actions[1].gen!r}, base=3)"
