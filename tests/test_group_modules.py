import math
import random

import pytest

import genusone.amalgam as amalgam
import genusone.moduli as moduli
import genusone.oracles as oracles
from genusone.amalgam import build_total_complex, sl2z_cohomology, sl2z_cohomology_module
from genusone.cyclic import CyclicAction, periodic_complex, restriction_cochain_matrix
from genusone.exact_linalg import FgAbelianGroup, IntegerMatrix, fp_rank, mod_p_dims
from genusone.group_modules import (GroupModule, S_MATRIX,
                                    standard_coefficient_module, sym_power_matrix,
                                    T_MATRIX, U_MATRIX)
from genusone.moduli import complement_group, e2_page, mod2_consistency, p_torsion_scan
from genusone.oracles import bar_cohomology
from genusone.torsor import FiniteGroupData, cyclic_group_data


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
    with pytest.raises(ValueError, match="base must be a prime"):
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
    # equal matrices built apart make one module, and one cache key
    first = GroupModule(S_MATRIX, U_MATRIX)
    second = GroupModule(IntegerMatrix(S_MATRIX.to_lists()), U_MATRIX)
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
            assert direct == reduced and direct.base == p
    f2_squared = standard_coefficient_module("f2_squared")
    assert f2_squared == standard_coefficient_module("sym_k", 1).reduce(2)
    assert f2_squared.rank == 2 and f2_squared.base == 2
    with pytest.raises(ValueError, match="base must be a prime"):
        standard_coefficient_module("sym_k", 2, base=4)
    with pytest.raises(ValueError, match="takes no base"):
        standard_coefficient_module("f2_squared", base=2)


def test_sym_module_over_a_prime_field_is_reduced_once(monkeypatch):
    # Sym^k over F_p is built reduced and kept per (k, p): no call reduces
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
    with pytest.raises(ValueError, match="p must be a prime"):
        standard_coefficient_module("sym_k", k=1).reduce(p)


#: S, U and T, and two matrices with all four entries nonzero
SYM_ARGUMENTS = (S_MATRIX, U_MATRIX, T_MATRIX, IntegerMatrix([[2, 1], [1, 1]]),
                 IntegerMatrix([[1, 1], [1, 2]]))


def test_sym_power_mod_p_is_the_reduction_of_the_integral_one():
    for g in SYM_ARGUMENTS:
        for k in range(41):
            integral = sym_power_matrix(g, k)
            for p in (2, 3, 5, 7):
                assert sym_power_matrix(g, k, p) == integral.mod(p), (g, k, p)


def test_sym_power_mod_p_is_functorial():
    rng = random.Random(6)
    for k in range(13):
        for p in (2, 3, 5, 7):
            g, h = _random_word(rng, rng.randint(1, 8)), rng.choice(SYM_ARGUMENTS)
            assert (sym_power_matrix(g * h, k, p)
                    == (sym_power_matrix(g, k, p) * sym_power_matrix(h, k, p)).mod(p)), (k, p)


def test_sym_module_over_a_prime_field_is_built_without_the_integral_one(monkeypatch):
    # Sym^k mod p is formed reduced, not as Sym^k over Z followed by reduce
    from genusone.group_modules import _sym_module

    calls = []
    original = sym_power_matrix

    def spy(g, k, base=None):
        calls.append(base)
        return original(g, k, base)

    monkeypatch.setattr("genusone.group_modules.sym_power_matrix", spy)
    monkeypatch.setattr(GroupModule, "reduce", lambda *args: pytest.fail("reduced"))
    _sym_module.cache_clear()
    try:
        module = standard_coefficient_module("sym_k", 29, base=5)
    finally:
        _sym_module.cache_clear()
    assert calls == [5, 5]
    assert (module.s, module.u) == (original(S_MATRIX, 29).mod(5), original(U_MATRIX, 29).mod(5))


def test_non_int_bases_and_degrees_are_rejected_before_any_cache():
    # a float base used to be stored: GroupModule and CyclicAction failed
    # later inside pow, and standard_coefficient_module cached Sym^3 with
    # float entries under the key (3, 2.0) == (3, 2), which a later
    # sl2z_cohomology(3, 1, modulus=2) then read; a bool degree read Sym^1
    from genusone.group_modules import _sym_module

    before = _sym_module.cache_info()
    with pytest.raises(TypeError, match="^base must be int, got float"):
        GroupModule(S_MATRIX, U_MATRIX, base=2.0)
    with pytest.raises(TypeError, match="^base must be int, got float"):
        CyclicAction(4, S_MATRIX, base=2.0)
    with pytest.raises(TypeError, match="^base must be int, got float"):
        standard_coefficient_module("sym_k", 3, base=2.0)
    with pytest.raises(TypeError, match="^k must be int, got bool"):
        standard_coefficient_module("sym_k", True)
    with pytest.raises(TypeError, match="^p must be int, got float"):
        GroupModule(S_MATRIX, U_MATRIX).reduce(2.0)
    for args in ((S_MATRIX, 2.0), (S_MATRIX, 2, 2.0), (S_MATRIX, True)):
        with pytest.raises(TypeError, match="must be int"):
            sym_power_matrix(*args)
    assert _sym_module.cache_info() == before
    assert sl2z_cohomology(3, 1, modulus=2) == FgAbelianGroup(0, [2, 2])


def _never(*args, **kwargs):
    raise AssertionError("work started before the argument was checked")


def test_float_primes_and_orders_are_rejected_before_any_work(monkeypatch):
    # every prime is checked by exact_linalg._require_prime, which checks
    # the int first: 3.0 and 2.0 used to pass the prime test and fail deep
    # in the work (or, in mod_p_dims, return), and CyclicAction(True, g)
    # was the order-1 action; a spy on each entry point's work shows it
    # never starts
    consumed = []
    rows = (consumed.append(row) or row for row in [[1, 2], [3, 4]])
    with pytest.raises(TypeError, match="^p must be int, got float$"):
        fp_rank(rows, 3.0)
    assert consumed == []
    with pytest.raises(TypeError, match="^p must be int, got float$"):
        mod_p_dims(FgAbelianGroup(1, [6]), 3.0)
    action = CyclicAction(2, IntegerMatrix([[-1]]))
    monkeypatch.setattr(oracles, "_bar_transposed", _never)
    with pytest.raises(TypeError, match="^base must be int, got float$"):
        bar_cohomology(action, 2, base=2.0)
    # the table is not associative, which FiniteGroupData would report
    with pytest.raises(TypeError, match="^p must be int, got float$"):
        FiniteGroupData((0, 1), ((0, 1), (1, 1)), (), 2.0)
    with pytest.raises(TypeError, match="^p must be int, got float$"):
        cyclic_group_data(4, [[0, -1], [1, 0]], 2.0)
    monkeypatch.setattr(moduli, "sym_power_matrix", _never)
    monkeypatch.setattr(moduli, "sl2z_cohomology", _never)
    with pytest.raises(TypeError, match="^q must be int, got float$"):
        p_torsion_scan(5.0)
    monkeypatch.setattr(IntegerMatrix, "times", _never)
    for order, gen in ((True, IntegerMatrix.identity(2)), (4.0, S_MATRIX)):
        with pytest.raises(TypeError, match=f"^order must be int, got {type(order).__name__}$"):
            CyclicAction(order, gen)


_ACTION = CyclicAction(2, IntegerMatrix([[-1]]))


@pytest.mark.parametrize("bad", [3.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("build, name", [
    (lambda bad: build_total_complex(standard_coefficient_module("sym_k", 2), bad), "top_degree"),
    (lambda bad: periodic_complex(_ACTION, bad), "top_degree"),
    (lambda bad: restriction_cochain_matrix(_ACTION, bad, 1), "d"),
    (lambda bad: restriction_cochain_matrix(_ACTION, 1, bad), "n"),
    (complement_group, "n"),
    (e2_page, "n_max"),
    (mod2_consistency, "n_max"),
], ids=["build_total_complex", "periodic_complex", "restriction_d", "restriction_n",
        "complement_group", "e2_page", "mod2_consistency"])
def test_builders_reject_counts_that_are_not_ints(monkeypatch, build, name, bad):
    # 3.0 failed inside a slice or a range, True was read as 1; each builder
    # now names the count in a one-line TypeError before its work starts
    for owner, attr in ((amalgam, "_parity_blocks"), (CyclicAction, "coboundary"),
                        (CyclicAction, "partial_norm"), (moduli, "e2_entry")):
        monkeypatch.setattr(owner, attr, _never)
    with pytest.raises(TypeError, match=f"^{name} must be int, got {type(bad).__name__}$"):
        build(bad)


def test_a_module_over_f_p_is_one_cache_key_however_its_entries_are_given(monkeypatch):
    # S and U are stored reduced, so unreduced and reduced entries give one
    # module, one key of the complex cache and one build
    given = GroupModule(S_MATRIX, U_MATRIX, base=3)
    reduced = GroupModule(S_MATRIX.mod(3), U_MATRIX.mod(3), base=3)
    assert given == reduced and hash(given) == hash(reduced)
    assert given == standard_coefficient_module("sym_k", 1, base=3)
    assert given.s == IntegerMatrix([[0, 2], [1, 0]])
    built = []
    original = amalgam.build_total_complex

    def spy(module, top_degree):
        built.append(module)
        return original(module, top_degree)

    monkeypatch.setattr(amalgam, "build_total_complex", spy)
    amalgam._module_complex.cache_clear()
    try:
        groups = [sl2z_cohomology_module(module, 1) for module in (given, reduced)]
    finally:
        amalgam._module_complex.cache_clear()
    assert built == [given] and groups[0] == groups[1]
