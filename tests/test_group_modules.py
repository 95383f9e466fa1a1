import math
import random

import pytest

from genusone.amalgam import build_total_complex
from genusone.exact_linalg import IntegerMatrix
from genusone.group_modules import (GroupModule, S_MATRIX,
                                    standard_coefficient_module, sym_power_matrix,
                                    T_MATRIX, U_MATRIX)


def test_generator_relations():
    s2, u3 = S_MATRIX * S_MATRIX, U_MATRIX * U_MATRIX * U_MATRIX
    assert s2 == u3 == IntegerMatrix([[-1, 0], [0, -1]])
    assert s2 * s2 == u3 * u3 == IntegerMatrix.identity(2)
    assert s2 * S_MATRIX * U_MATRIX == T_MATRIX


def _rejected_by_the_complex(module):
    # the d o d check of D_1 o D_0 certifies S^2 = U^3 = c and c^2 = 1
    for top in (2, 4):
        with pytest.raises(ValueError, match="d1 o d0 is not zero"):
            build_total_complex(module, top)


def test_generator_validation():
    # construction checks the form: a prime base and square actions S and U
    # of one size; -I acts as S^2 and is not an input
    one, minus = IntegerMatrix([[1]]), IntegerMatrix([[-1]])
    with pytest.raises(ValueError, match="base must be None or a prime"):
        GroupModule(minus, one, base=4)
    with pytest.raises(ValueError, match="action of U has shape"):
        GroupModule(minus, IntegerMatrix.identity(2))
    with pytest.raises(ValueError, match="action of S has shape"):
        GroupModule(IntegerMatrix([[0, 1]]), IntegerMatrix([[0, 1]]))
    assert GroupModule(S_MATRIX, U_MATRIX).rank == 2
    # the relations are checked by the complex built from the module
    _rejected_by_the_complex(GroupModule(U_MATRIX, U_MATRIX))
    # S^2 = 1 != -1 = U^3
    _rejected_by_the_complex(GroupModule(one, minus))
    _rejected_by_the_complex(GroupModule(one, minus, base=3))
    # S^2 = U^3 = 64, but S^4 = 4096 != 1
    _rejected_by_the_complex(GroupModule(IntegerMatrix([[8]]), IntegerMatrix([[4]])))


def test_modules_are_equal_and_hash_alike_by_their_actions():
    # the name is a label: it takes no part in equality or hashing
    first = GroupModule(S_MATRIX, U_MATRIX, name="first")
    second = GroupModule(IntegerMatrix(S_MATRIX.to_lists()), U_MATRIX, name="second")
    assert first == second and hash(first) == hash(second)
    assert len({first, second, standard_coefficient_module("sym_k", 1)}) == 1
    assert first != first.reduce(2)
    assert first != GroupModule(U_MATRIX, S_MATRIX)


def test_singular_actions_are_rejected_by_the_complex():
    # no determinant is taken: the relations make S and U invertible, and a
    # singular S or U breaks them
    two, one = IntegerMatrix([[2]]), IntegerMatrix([[1]])
    _rejected_by_the_complex(GroupModule(two, one))
    _rejected_by_the_complex(GroupModule(two, one, base=2))
    _rejected_by_the_complex(GroupModule(one, two, base=5))
    # over F_3, S = 2 acts as -1 and U trivially: a module, and accepted
    module = GroupModule(two, one, base=3)
    assert build_total_complex(module, 4).complex.base == 3


def test_construction_forms_no_product_and_takes_no_det(monkeypatch):
    actions = sym_power_matrix(S_MATRIX, 16), sym_power_matrix(U_MATRIX, 16)
    calls = []
    for name in ("__mul__", "det"):
        original = getattr(IntegerMatrix, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(IntegerMatrix, name, spy)
    GroupModule(*actions).reduce(5)
    assert calls == []


def test_sym_power_is_multiplicative():
    rng = random.Random(3)
    mats = [S_MATRIX, U_MATRIX, T_MATRIX, S_MATRIX * S_MATRIX]
    for k in (1, 2, 3, 4, 5):
        for _ in range(10):
            a, b = rng.choice(mats), rng.choice(mats)
            assert (sym_power_matrix(a, k) * sym_power_matrix(b, k)
                    == sym_power_matrix(a * b, k))


def _random_word(rng, length):
    letters = [S_MATRIX, U_MATRIX, T_MATRIX, IntegerMatrix([[1, -1], [0, 1]])]
    g = IntegerMatrix.identity(2)
    for _ in range(length):
        g = g * rng.choice(letters)
    return g


def test_sym_power_is_functorial_on_words():
    rng = random.Random(4)
    for k in range(13):
        for _ in range(4):
            g, h = _random_word(rng, rng.randint(1, 8)), _random_word(rng, rng.randint(1, 8))
            assert sym_power_matrix(g * h, k) == sym_power_matrix(g, k) * sym_power_matrix(h, k)


def test_sym_power_matches_binomial_expansion():
    # entry (i, j): the e2^i coefficient of (a e1 + b e2)^(k-j) (c e1 + d e2)^j
    rng = random.Random(5)
    for k in range(13):
        g = _random_word(rng, 6)
        (a, c), (b, d) = g.to_lists()
        want = [[sum(math.comb(k - j, r) * a ** (k - j - r) * b ** r
                     * math.comb(j, i - r) * c ** (j - i + r) * d ** (i - r)
                     for r in range(max(0, i - j), min(i, k - j) + 1))
                 for j in range(k + 1)] for i in range(k + 1)]
        assert sym_power_matrix(g, k).to_lists() == want


def test_sym_power_low_degrees():
    assert sym_power_matrix(S_MATRIX, 0) == IntegerMatrix.identity(1)
    assert sym_power_matrix(S_MATRIX, 1) == S_MATRIX
    k2 = sym_power_matrix(T_MATRIX, 2)
    # (x + y)^2 expands with the middle coefficient doubled
    assert k2.cols == 3
    assert abs(k2.det()) == 1


def test_minus_identity_acts_by_parity():
    # -I acts as S^2, so a module needs no third action
    for k in (0, 1, 2, 3, 4, 19):
        m = sym_power_matrix(S_MATRIX * S_MATRIX, k)
        expected = IntegerMatrix.identity(k + 1) * ((-1) ** k)
        assert m == expected
        s = standard_coefficient_module("sym_k", k).s
        assert s * s == expected


def test_standard_modules():
    sym3 = standard_coefficient_module("sym_k", 3)
    assert sym3.rank == 4
    f2 = standard_coefficient_module("f2_squared")
    assert f2.base == 2
    assert f2.rank == 2
    with pytest.raises(ValueError):
        standard_coefficient_module("sym_k")
    with pytest.raises(ValueError):
        standard_coefficient_module("nope")


def test_module_reduction():
    sym2 = standard_coefficient_module("sym_k", 2)
    red = sym2.reduce(3)
    assert red.base == 3
    assert red.rank == sym2.rank
    assert red.s == sym2.s.mod(3) and red.u == sym2.u.mod(3)


def test_sym_module_over_a_prime_field_is_the_reduction():
    for k in (0, 1, 5):
        for p in (2, 3, 5):
            direct = standard_coefficient_module("sym_k", k, base=p)
            reduced = standard_coefficient_module("sym_k", k).reduce(p)
            assert direct == reduced
            assert direct.name == reduced.name == f"sym_{k} mod {p}"
    assert standard_coefficient_module("f2_squared").name == "sym_1 mod 2"
    with pytest.raises(ValueError, match="can only reduce modulo a prime"):
        standard_coefficient_module("sym_k", 2, base=4)
    with pytest.raises(ValueError, match="takes no base"):
        standard_coefficient_module("f2_squared", base=2)


def test_sym_module_over_a_prime_field_is_reduced_once(monkeypatch):
    # the record is kept per (k, p), so a later call reduces nothing
    first = standard_coefficient_module("sym_k", 23, base=7)
    reductions = []
    original = GroupModule.reduce

    def spy(module, p):
        reductions.append(p)
        return original(module, p)

    monkeypatch.setattr(GroupModule, "reduce", spy)
    assert standard_coefficient_module("sym_k", 23, base=7) is first
    assert reductions == []


@pytest.mark.parametrize("p", [0, 1, 4])
def test_reduction_rejects_non_prime(p):
    with pytest.raises(ValueError, match="can only reduce modulo a prime"):
        standard_coefficient_module("sym_k", k=1).reduce(p)
