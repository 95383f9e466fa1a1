import json
from pathlib import Path

import pytest

import genusone.amalgam as amalgam
from genusone.amalgam import (_parity_blocks, _sym_complex, build_total_complex,
                              sl2z_cohomology, sl2z_cohomology_module)
from genusone.cyclic import CyclicAction, restriction_cochain_matrix
from genusone.exact_linalg import FgAbelianGroup, IntegerMatrix, cohomology_at
from genusone.group_modules import (MINUS_IDENTITY, S_MATRIX, T_MATRIX, U_MATRIX,
                                    GroupModule, standard_coefficient_module,
                                    sym_power_matrix)
from genusone.oracles import sparse_diagonal

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"

Z = FgAbelianGroup(1)
ZERO = FgAbelianGroup(0)


def _t(*orders):
    return FgAbelianGroup(0, list(orders))


# Integral values for the symmetric powers, each one certified three ways
# before being frozen here: the mapping-cone engine, a presentation-based
# one-cocycle computation, and a localization argument that pins the 2-part
# and 3-part separately.
KNOWN = {
    (0, 0): Z,
    (0, 1): ZERO,
    (0, 2): _t(12),
    (0, 3): ZERO,
    (1, 0): ZERO,
    (1, 1): ZERO,
    (1, 2): _t(2),
    (1, 3): ZERO,
    (2, 0): ZERO,
    (2, 1): FgAbelianGroup(1, [2]),
    (2, 2): ZERO,
    (2, 3): _t(2, 2),
    (3, 0): ZERO,
    (3, 1): _t(2),
    (3, 2): _t(2),
    (3, 3): _t(2),
    (4, 0): ZERO,
    (4, 1): FgAbelianGroup(1, [12]),
    (4, 2): _t(4),
    (4, 3): _t(2, 6),
}


def test_integral_grid():
    for (k, p), want in KNOWN.items():
        assert sl2z_cohomology(k, p) == want, (k, p)


def test_higher_weight_calibration():
    assert sl2z_cohomology(6, 1) == FgAbelianGroup(1, [2, 60])
    assert sl2z_cohomology(8, 1) == FgAbelianGroup(1, [2, 168])


def _cusp_form_dim(weight):
    """dim S_w for even w >= 4: dim M_w = w // 12 + (0 if w = 2 mod 12 else 1)."""
    return weight // 12 + (weight % 12 != 2) - 1


@pytest.mark.parametrize("k,rank", [(24, 3), (32, 5), (48, 7)])
def test_eichler_shimura_free_rank(k, rank):
    # H^1(SL2(Z), Sym^k) (x) Q has dimension 2 dim S_{k+2} + 1 for even k
    assert 2 * _cusp_form_dim(k + 2) + 1 == rank
    assert sl2z_cohomology(k, 1).free_rank == rank


@pytest.mark.parametrize("k", [17, 25])
def test_odd_weight_h1_is_torsion(k):
    # -I acts by -1 on Sym^k for odd k, which kills the rational cohomology
    assert sl2z_cohomology(k, 1).free_rank == 0


def test_periodicity_above_degree_one():
    # D_n == D_{n+2} for n >= 1, so degrees >= 2 repeat with period 2; the
    # complexes are built long because sl2z_cohomology folds p >= 4
    for k in range(9):
        cpx = build_total_complex(standard_coefficient_module("sym_k", k), 9).complex
        for n in range(1, 7):
            assert cpx.differential(n) == cpx.differential(n + 2), (k, n)
        for p in (2, 3):
            assert cohomology_at(cpx, p) == cohomology_at(cpx, p + 2), (k, p)


def test_periodic_differentials_are_shared():
    # one matrix serves D_n and D_{n+2} (n >= 1) over Z and over F_p, and
    # each F_p differential is the integral one reduced mod p
    for k in (0, 3, 6):
        integral = build_total_complex(standard_coefficient_module("sym_k", k), 7).complex
        for base in (None, 2, 3):
            cpx = build_total_complex(standard_coefficient_module("sym_k", k, base=base),
                                      7).complex
            for n in range(7):
                if n >= 3:
                    assert cpx.differential(n) is cpx.differential(n - 2), (k, base, n)
                if base is not None:
                    assert cpx.differential(n) == integral.differential(n).mod(base), \
                        (k, base, n)


@pytest.mark.parametrize("modulus", [None, 2])
def test_folded_degrees_match_explicit_complexes(modulus):
    for k in (3, 4, 7):
        module = standard_coefficient_module("sym_k", k)
        if modulus is not None:
            module = module.reduce(modulus)
        for p in range(4, 8):
            explicit = cohomology_at(build_total_complex(module, p + 2).complex, p)
            assert sl2z_cohomology(k, p, modulus=modulus) == explicit, (k, p)


def test_bad_inversion_is_rejected_before_computing():
    before = _sym_complex.cache_info().misses
    with pytest.raises(ValueError, match="can only invert"):
        sl2z_cohomology(30, 2, invert=(1,))
    assert _sym_complex.cache_info().misses == before


def test_mod_p_values():
    assert sl2z_cohomology(2, 1, modulus=2) == _t(2, 2)
    assert sl2z_cohomology(0, 0, modulus=5) == _t(5)
    # mod 2 dimension equals tensor plus next-degree torsion over Z
    from genusone.exact_linalg import mod_p_dims
    for k in range(5):
        for p in range(3):
            dims = mod_p_dims(sl2z_cohomology(k, p), 2)
            tor = mod_p_dims(sl2z_cohomology(k, p + 1), 2)
            want = dims.dim_tensor + tor.dim_torsion
            got = sl2z_cohomology(k, p, modulus=2)
            assert len(got.invariant_factors) == want, (k, p)


def test_inverting_two():
    assert sl2z_cohomology(4, 1, invert=(2,)) == FgAbelianGroup(1, [3])
    assert sl2z_cohomology(0, 2, invert=(2,)) == _t(3)
    assert sl2z_cohomology(0, 2, invert=(2, 3)) == ZERO


def test_field_and_inversion_are_exclusive():
    with pytest.raises(ValueError):
        sl2z_cohomology(1, 1, modulus=2, invert=(3,))
    with pytest.raises(ValueError):
        sl2z_cohomology(-1, 0)


def test_module_interface_matches_sym_path():
    for k in range(4):
        mod = standard_coefficient_module("sym_k", k=k)
        for p in range(3):
            assert sl2z_cohomology_module(mod, p) == sl2z_cohomology(k, p)


def _kronecker(p, m):
    # rows and columns indexed by (c, i) -> c * m.rows + i
    return IntegerMatrix([[x * y for x in p_row for y in m_row]
                          for p_row in p for m_row in m.to_lists()])


def _commutator_module(k, names=("S", "U", "-I")):
    # S -> +3, U -> +2, -I -> +6 on Z[Z/12], Kronecker with Sym^k
    shifts = {"S": (3, S_MATRIX), "U": (2, U_MATRIX), "-I": (6, MINUS_IDENTITY)}
    actions = {}
    for name in names:
        shift, g = shifts[name]
        translation = [[int((c + shift) % 12 == d) for c in range(12)] for d in range(12)]
        actions[name] = _kronecker(translation, sym_power_matrix(g, k))
    return actions


def test_shapiro_through_the_commutator_subgroup(monkeypatch):
    # S -> 3, U -> 2 maps SL2(Z) onto Z/12 with kernel the commutator
    # subgroup, free on A and B.  Shapiro's lemma gives H^p(SL2(Z), M_k) =
    # H^p(free group, Sym^k) for the permutation module M_k = Z[Z/12] (x)
    # Sym^k, so H^{>= 2} = 0, H^0 = (Sym^k)^{<A, B>} and H^1 is the
    # cokernel of m -> ((A - 1)m, (B - 1)m), read from the oracle
    a, b = IntegerMatrix([[2, 1], [1, 1]]), IntegerMatrix([[1, 1], [1, 2]])
    h1 = []
    for k in (0, 1, 2, 3, 4, 5, 6, 8):
        module = GroupModule(12 * (k + 1), _commutator_module(k))
        eye = IntegerMatrix.identity(k + 1)
        coboundary = IntegerMatrix((sym_power_matrix(a, k) - eye).to_lists()
                                   + (sym_power_matrix(b, k) - eye).to_lists())
        divisors = sparse_diagonal(coboundary)
        groups = [sl2z_cohomology_module(module, p) for p in range(6)]
        assert groups[0] == FgAbelianGroup(k + 1 - len(divisors)) == (Z if k == 0 else ZERO), k
        assert groups[1] == FgAbelianGroup(2 * (k + 1) - len(divisors), divisors), k
        assert groups[2:] == [ZERO] * 4, k
        h1.append(str(groups[1]))
    assert h1 == ["Z^2", "Z^2", "Z^3 + Z/2", "Z^4 + Z/2 + Z/2", "Z^5 + Z/3 + Z/12",
                  "Z^6 + Z/2 + Z/2", "Z^7 + Z/2 + Z/4 + Z/60",
                  "Z^9 + Z/6 + Z/6 + Z/168"]
    # without -I the module is given by S and U alone; it is built and read
    # with no determinant, since the complex certifies S^2 = U^3 = c, c^2 = 1
    actions = _commutator_module(8, ("S", "U"))
    dets = []
    original = IntegerMatrix.det

    def spy(self):
        dets.append(self.shape)
        return original(self)

    monkeypatch.setattr(IntegerMatrix, "det", spy)
    module = GroupModule(12 * 9, actions)
    assert [sl2z_cohomology_module(module, p) for p in range(6)] == groups
    assert dets == []


def test_module_interface_f2_squared():
    mod = standard_coefficient_module("f2_squared")
    assert sl2z_cohomology_module(mod, 1) == _t(2)


def test_total_complex_is_a_complex():
    mod = standard_coefficient_module("sym_k", k=3)
    total = build_total_complex(mod, 5)
    cpx = total.complex
    for a, b in zip(cpx.differentials, cpx.differentials[1:]):
        assert (b * a).is_zero()
    assert cohomology_at(cpx, 1) == _t(2)
    with pytest.raises(ValueError):
        build_total_complex(mod, 0)


@pytest.mark.parametrize("modulus", [2, 3])
def test_f_p_values_match_the_reduced_integral_module(modulus):
    for k in range(13):
        reduced = standard_coefficient_module("sym_k", k).reduce(modulus)
        cpx = build_total_complex(reduced, 6).complex
        for p in range(6):
            assert sl2z_cohomology(k, p, modulus=modulus) == cohomology_at(cpx, p), (k, p)


def test_transfer_bound_kills_higher_cohomology():
    # the commutator subgroup of SL2(Z) is free of index 12, so cor o res
    # = 12 kills H^p(SL2(Z), M) for p >= 2: no free part, and every
    # invariant factor divides 12
    for k in range(25):
        for p in (2, 3):
            group = sl2z_cohomology(k, p)
            assert group.free_rank == 0, (k, p)
            assert all(12 % f == 0 for f in group.invariant_factors), (k, p, group)


def test_three_primary_pattern_after_inverting_two():
    # H^p(SL2(Z), M)[1/2] = H^p(Z/6, M)[1/2] for p >= 2 (Mayer-Vietoris,
    # with the cohomology of Z/4 and Z/2 all 2-primary); engine values
    for j in range(31):
        for p in range(2, 6):
            three = j % 6 == (0 if p % 2 == 0 else 4)
            want = _t(3) if three else ZERO
            assert sl2z_cohomology(j, p, invert=(2,)) == want, (j, p)


def test_table_eliminates_each_reduced_differential_once(monkeypatch, capsys):
    # one bareiss_rank per reduced D_0..D_3 of each Sym^k, k <= 19: the
    # divisors reuse its minor, and every H^p, p >= 4, reads folded records
    import genusone.exact_linalg as exact_linalg
    from genusone.cli import main

    calls = []
    original = exact_linalg.bareiss_rank

    def spy(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(exact_linalg, "bareiss_rank", spy)
    _sym_complex.cache_clear()
    try:
        assert main(["table", "sl2z", "--max-k", "19", "--max-p", "5"]) == 0
    finally:
        _sym_complex.cache_clear()
    assert "Z/12" in capsys.readouterr().out
    assert 0 < len(calls) <= 80


def _cyclic_blocks(module):
    # the parity blocks as the vertex groups' CyclicActions give them
    s, u = module.action("S"), module.action("U")
    minus = module.actions["-I"] if "-I" in module.actions else s * s
    a, b, c = (CyclicAction(4, s, module.base), CyclicAction(6, u, module.base),
               CyclicAction(2, minus, module.base))

    def delta(action, n):
        return action.coboundary() if n % 2 == 0 else action.norm()

    def negated(m):
        return -m if module.base is None else (-m).mod(module.base)

    return [(delta(a, n), delta(b, n), negated(delta(c, n - 1)),
             restriction_cochain_matrix(a, 2, n),
             negated(restriction_cochain_matrix(b, 3, n)))
            for n in (0, 1)]


def test_factored_blocks_match_the_cyclic_actions():
    modules = [standard_coefficient_module("sym_k", k, base=base)
               for k in range(13) for base in (None, 2, 3)]
    modules += [standard_coefficient_module("trivial_Z"),
                standard_coefficient_module("f2_squared")]
    for module in modules:
        assert _parity_blocks(module) == _cyclic_blocks(module), module.name


@pytest.mark.parametrize("base", [None, 3])
@pytest.mark.parametrize("s,u", [
    (T_MATRIX, U_MATRIX),   # S of infinite order, U^3 = -I != S^2
    (S_MATRIX, T_MATRIX),   # U^3 = T^3 != -I = S^2
])
def test_relations_that_fail_only_in_the_complex_are_rejected(base, s, u):
    # the module checks only names and shapes; the relations are left to
    # the d o d check of the complex
    module = GroupModule(2, {"S": s, "U": u}, base=base)
    for top in (2, 3, 4):
        with pytest.raises(ValueError, match="not a complex"):
            build_total_complex(module, top)
    with pytest.raises(ValueError, match="at least 2"):
        build_total_complex(module, 1)


@pytest.mark.parametrize("s,u,base", [
    (T_MATRIX ** 3, T_MATRIX ** 2, None),   # S^2 = U^3 = T^6, c^2 = T^12
    (T_MATRIX, T_MATRIX ** 4, 5),           # S^2 = U^3 = T^2 mod 5, c^2 = T^4
])
def test_a_central_element_of_infinite_order_is_rejected(s, u, base):
    # S^2 = U^3 = c holds, so the C row of D_1 o D_0 vanishes; its A and B
    # rows are (1 + c)(S^2 - 1) = c^2 - 1 and reject c^2 != 1 from degree 2
    def reduced(m):
        return m if base is None else m.mod(base)

    assert reduced(s ** 2) == reduced(u ** 3)
    assert not reduced(s ** 4).is_identity()
    module = GroupModule(2, {"S": s, "U": u}, base=base)
    for top in (2, 3, 4):
        with pytest.raises(ValueError, match="d1 o d0 is not zero"):
            build_total_complex(module, top)


def test_sl2z_cohomology_constructs_no_cyclic_action(monkeypatch):
    built = []
    original = CyclicAction.__post_init__

    def spy(self):
        built.append(self.order)
        original(self)

    monkeypatch.setattr(CyclicAction, "__post_init__", spy)
    _sym_complex.cache_clear()
    try:
        for modulus in (None, 2, 3):
            sl2z_cohomology(10, 5, modulus=modulus)
        sl2z_cohomology_module(standard_coefficient_module("trivial_Z"), 3)
    finally:
        _sym_complex.cache_clear()
    assert built == []


def test_module_route_builds_one_degree_four_complex(monkeypatch):
    tops = []
    original = amalgam.build_total_complex

    def spy(module, top_degree):
        tops.append(top_degree)
        return original(module, top_degree)

    monkeypatch.setattr(amalgam, "build_total_complex", spy)
    modules = [standard_coefficient_module("sym_k", k, base=base)
               for k in (3, 4, 7) for base in (None, 2)]
    modules += [standard_coefficient_module("trivial_Z"),
                standard_coefficient_module("f2_squared")]
    for module in modules:
        for p in range(10):
            explicit = cohomology_at(original(module, p + 2).complex, p)
            assert sl2z_cohomology_module(module, p) == explicit, (module.name, p)
    assert set(tops) == {4}


def test_engine_matches_the_benchmark_answer_key():
    # bench/expected.json is read, never written: its integral cells come
    # from the oracles and its F_2 dimensions from universal coefficients
    key = json.loads(EXPECTED.read_text(encoding="utf-8"))
    cells = 0
    for cell, (free, divisors) in key["integral"].items():
        k, p = map(int, cell.split(","))
        if k <= 28:
            assert sl2z_cohomology(k, p) == FgAbelianGroup(free, divisors), cell
            cells += 1
    for cell, dim in key["mod2"].items():
        k, p = map(int, cell.split(","))
        group = sl2z_cohomology(k, p, modulus=2)
        assert group.free_rank == 0 and set(group.invariant_factors) <= {2}, cell
        assert len(group.invariant_factors) == dim, cell
    assert cells >= 120 and key["mod2"]
