import json
from pathlib import Path

import pytest

import genusone.amalgam as amalgam
from genusone.amalgam import (TRANSFER_MODULUS, _module_complex, _parity_blocks,
                              build_total_complex, sl2z_cohomology, sl2z_cohomology_module,
                              transfer_cohomology)
from genusone.cyclic import (CyclicAction, cyclic_cohomology, periodic_complex,
                             restriction_cochain_matrix)
from genusone.exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix, cohomology_at,
                                   localize)
from genusone.group_modules import (S_MATRIX, T_MATRIX, U_MATRIX, GroupModule, standard_coefficient_module,
                                    sym_power_matrix)
from genusone.oracles import sparse_diagonal

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"

Z = FgAbelianGroup(1)
TRIVIAL = GroupModule(IntegerMatrix([[1]]), IntegerMatrix([[1]]))
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
    # every argument is checked before Sym^k is built or a complex looked up;
    # a caller that inverts integers factors them first, as `genusone sl2z` does
    from genusone.exact_linalg import inverted_primes
    from genusone.group_modules import _sym_module

    def calls():
        sym = _sym_module.cache_info()
        return sym.hits + sym.misses, _module_complex.cache_info().misses

    before = calls()
    with pytest.raises(ValueError, match="can only invert"):
        primes = inverted_primes((1,))
        localize(sl2z_cohomology(30, 2), primes)
    with pytest.raises(ValueError, match="must be non-negative"):
        sl2z_cohomology(10**6, -1)
    with pytest.raises(ValueError, match="modulus must be a prime"):
        sl2z_cohomology(10**6, 1, modulus=4)
    assert calls() == before


def test_non_int_arguments_are_rejected_before_any_cache():
    # a float or a bool compared and hashed like an int, so (3, 1.0) read
    # H^1, (2.0, 1) and (True, 1) read cached Sym^2 and Sym^1, and (3, 2.5)
    # and (3, 1, 2.0) failed inside the engine; each is now a TypeError
    # raised before Sym^k is built or a complex looked up
    from genusone.group_modules import _sym_module

    def calls():
        sym, cpx = _sym_module.cache_info(), _module_complex.cache_info()
        return sym.hits + sym.misses, cpx.hits + cpx.misses

    before = calls()
    for args, name in [((3, 1.0), "p"), ((2.0, 1), "k"), ((True, 1), "k"), ((3, 2.5), "p"),
                       ((3, 1, 2.0), "modulus")]:
        with pytest.raises(TypeError, match=f"^{name} must be int, got "):
            sl2z_cohomology(*args)
        assert calls() == before, args
    module = standard_coefficient_module("sym_k", 3)
    before = calls()
    for p in (1.0, True):
        with pytest.raises(TypeError, match="^p must be int"):
            sl2z_cohomology_module(module, p)
    assert calls() == before
    with pytest.raises(TypeError, match="^p must be int"):
        transfer_cohomology(_module_complex(module), 1.0)


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
    assert localize(sl2z_cohomology(4, 1), (2,)) == FgAbelianGroup(1, [3])
    assert localize(sl2z_cohomology(0, 2), (2,)) == _t(3)
    assert localize(sl2z_cohomology(0, 2), (2, 3)) == ZERO


def test_field_and_inversion_are_exclusive():
    # the engine works over Z or one prime field; inverting is left to localize
    with pytest.raises(TypeError):
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


def _commutator_module(k):
    # S -> +3, U -> +2 on Z[Z/12], Kronecker with Sym^k
    actions = []
    for shift, g in ((3, S_MATRIX), (2, U_MATRIX)):
        translation = [[int((c + shift) % 12 == d) for c in range(12)] for d in range(12)]
        actions.append(_kronecker(translation, sym_power_matrix(g, k)))
    return GroupModule(*actions)


def test_shapiro_through_the_commutator_subgroup(monkeypatch):
    # S -> 3, U -> 2 maps SL2(Z) onto Z/12 with kernel the commutator
    # subgroup, free on A and B.  Shapiro's lemma gives H^p(SL2(Z), M_k) =
    # H^p(free group, Sym^k) for the permutation module M_k = Z[Z/12] (x)
    # Sym^k, so H^{>= 2} = 0, H^0 = (Sym^k)^{<A, B>} and H^1 is the
    # cokernel of m -> ((A - 1)m, (B - 1)m), read from the oracle.  The
    # module is given by S and U alone; it is built and read with no
    # determinant, since the complex certifies S^4 = 1 and S^2 = U^3
    dets = []
    original = IntegerMatrix.det

    def spy(self):
        dets.append(self.shape)
        return original(self)

    monkeypatch.setattr(IntegerMatrix, "det", spy)
    a, b = IntegerMatrix([[2, 1], [1, 1]]), IntegerMatrix([[1, 1], [1, 2]])
    h1 = []
    for k in (0, 1, 2, 3, 4, 5, 6, 8):
        module = _commutator_module(k)
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
    # sym_power_matrix checks its 2x2 argument by ad - bc: no det at all
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
    # = 12 kills H^p(SL2(Z), M) for p >= 2; the route reads D_1 and D_2
    # mod 24 on that theorem, so it is checked against cohomology_at on the
    # full degree-4 complex, with Bareiss on every reduced differential
    modules = [standard_coefficient_module("sym_k", k) for k in [*range(41), 64, 70]]
    modules += [_commutator_module(k) for k in (0, 1, 2, 3, 4, 5, 6, 8)]
    for module in modules:
        full = build_total_complex(module, 4).complex
        groups = [sl2z_cohomology_module(module, p) for p in range(4)]
        assert groups == [cohomology_at(full, p) for p in range(4)], module.rank
        for group in groups[2:]:
            assert group.free_rank == 0, module.rank
            assert all(12 % f == 0 for f in group.invariant_factors), (module.rank, group)


@pytest.mark.parametrize("divisor", [12, 24, 48])
def test_transfer_guard_rejects_a_multiple_of_24(divisor):
    # D_1 = (divisor, 0)^T and D_2 = (0 5) have true ranks 1 + 1 = rank C^2,
    # so H^2 = Z/divisor; mod 24 a multiple of 24 reads as rank 0 and the
    # guard fires, where 12 passes
    cpx = CochainComplex([1, 1, 2, 1], [IntegerMatrix([[0]]), IntegerMatrix([[divisor], [0]]),
                                        IntegerMatrix([[0, 5]])])
    assert cohomology_at(cpx, 2) == _t(divisor)
    if divisor % 24:
        assert transfer_cohomology(cpx, 2) == _t(divisor)
        return
    for p in (1, 2, 3):
        with pytest.raises(RuntimeError, match="transfer bound failed"):
            transfer_cohomology(cpx, p)


@pytest.mark.parametrize("base", [None, 2])
def test_transfer_cohomology_rejects_a_negative_degree(base):
    # over Z, p = -1 would otherwise read H^3 by parity (Z/2 + Z/6 for Sym^4)
    cpx = _module_complex(standard_coefficient_module("sym_k", 4, base=base))
    with pytest.raises(ValueError, match="non-negative"):
        transfer_cohomology(cpx, -1)


@pytest.mark.parametrize("degree", [2, 4, 9])
def test_transfer_cohomology_needs_exactly_three_differentials(degree):
    cpx = build_total_complex(standard_coefficient_module("sym_k", 4), degree).complex
    assert len(cpx.differentials) == degree
    for p in (0, 1, 2):
        with pytest.raises(ValueError, match="degree-3 complex"):
            transfer_cohomology(cpx, p)


def test_three_primary_pattern_matches_the_order_six_vertex_group():
    # with 2 inverted, H^p(SL2(Z), Sym^j) = H^p(Z/6, Sym^j) for p >= 2,
    # Z/6 = <U>: Mayer-Vietoris for the amalgam, whose other terms (Z/4
    # and Z/2) have 2-primary cohomology.  Z/3 would not do: at odd j,
    # -I = U^3 acts by -1.  An oracle for the mod-24 route at large k
    for j in [*range(31), 64, 96]:
        action = CyclicAction(6, sym_power_matrix(U_MATRIX, j))
        for p in range(2, 6):
            want = localize(cyclic_cohomology(action, p), (2,))
            assert localize(sl2z_cohomology(j, p), (2,)) == want, (j, p)


def test_three_primary_pattern_after_inverting_two():
    # H^p(SL2(Z), M)[1/2] = H^p(Z/6, M)[1/2] for p >= 2 (Mayer-Vietoris,
    # with the cohomology of Z/4 and Z/2 all 2-primary); engine values
    for j in range(31):
        for p in range(2, 6):
            three = j % 6 == (0 if p % 2 == 0 else 4)
            want = _t(3) if three else ZERO
            assert localize(sl2z_cohomology(j, p), (2,)) == want, (j, p)


def test_table_eliminates_each_reduced_differential_once(monkeypatch, capsys):
    # one bareiss_rank per reduced D_0 of each Sym^k, k <= 19, whose
    # divisors reuse its minor, and one mod-24 pass each for D_1 and D_2,
    # however many p are read
    import genusone.exact_linalg as exact_linalg
    from genusone.cli import main

    calls, moduli = [], []
    original, original_diagonal = exact_linalg.bareiss_rank, exact_linalg._diagonal_mod

    def spy(a):
        calls.append(a.shape)
        return original(a)

    def diagonal_spy(a, modulus):
        moduli.append(modulus)
        return original_diagonal(a, modulus)

    monkeypatch.setattr(exact_linalg, "bareiss_rank", spy)
    monkeypatch.setattr(exact_linalg, "_diagonal_mod", diagonal_spy)
    _module_complex.cache_clear()
    try:
        assert main(["table", "sl2z", "--max-k", "19", "--max-p", "5"]) == 0
    finally:
        _module_complex.cache_clear()
    assert "Z/12" in capsys.readouterr().out
    assert len(calls) == 20
    assert moduli.count(TRANSFER_MODULUS) == 2 * 20


def _cyclic_blocks(module):
    # the parity blocks as the vertex groups' CyclicActions give them
    s, u = module.s, module.u
    minus = s * s
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
    modules += [TRIVIAL, standard_coefficient_module("f2_squared")]
    for module in modules:
        assert _parity_blocks(module) == _cyclic_blocks(module), (module.rank, module.base)


@pytest.mark.parametrize("base", [None, 3])
@pytest.mark.parametrize("s,u", [
    (T_MATRIX, U_MATRIX),   # S of infinite order, U^3 = -I != S^2
    (S_MATRIX, T_MATRIX),   # U^3 = T^3 != -I = S^2
])
def test_relations_that_fail_only_in_the_complex_are_rejected(base, s, u):
    # the module checks only shapes; the relations are left to the build
    # of the complex
    module = GroupModule(s, u, base=base)
    for top in (2, 3, 4):
        with pytest.raises(ValueError, match="not a complex"):
            build_total_complex(module, top)
    with pytest.raises(ValueError, match="at least 2"):
        build_total_complex(module, 1)


@pytest.mark.parametrize("s,u,base", [
    (T_MATRIX * T_MATRIX * T_MATRIX, T_MATRIX * T_MATRIX, None),  # S^2 = U^3 = T^6, c^2 = T^12
    (T_MATRIX, T_MATRIX * T_MATRIX * T_MATRIX * T_MATRIX, 5),    # S^2 = U^3 = T^2 mod 5, c^2 = T^4
])
def test_a_central_element_of_infinite_order_is_rejected(s, u, base):
    # S^2 = U^3 = c holds, so the C row of D_1 o D_0 vanishes; its A and B
    # rows are (1 + c)(S^2 - 1) = c^2 - 1 and reject c^2 != 1 from degree 2
    def reduced(m):
        return m if base is None else m.mod(base)

    assert reduced(s * s) == reduced(u * u * u)
    assert not reduced(s * s * s * s).is_identity()
    module = GroupModule(s, u, base=base)
    for top in (2, 3, 4):
        with pytest.raises(ValueError, match="d1 o d0 is not zero"):
            build_total_complex(module, top)


def _unchecked_differentials(module, top):
    # D_0..D_{top-1} of the mapping cone assembled from S and U as the
    # module docstring gives them, assuming no relation: D(a, b, c) =
    # (dA a, dB b, r_A(a) - r_B(b) - dC c) with the periodic blocks of
    # <S>, <U> and <c = S^2> written out
    s, u = module.s, module.u
    r = module.rank
    eye, zero = IntegerMatrix.identity(r), IntegerMatrix.zeros(r, r)
    c = s * s
    norm_c, res_a, res_b = eye + c, eye + s, eye + u + u * u
    diffs = [IntegerMatrix.from_blocks([[s - eye, zero], [zero, u - eye], [eye, -eye]])]
    for n in range(1, top):
        if n % 2:
            da, db, dc, ra, rb = norm_c * res_a, norm_c * res_b, c - eye, res_a, res_b
        else:
            da, db, dc, ra, rb = s - eye, u - eye, norm_c, eye, eye
        diffs.append(IntegerMatrix.from_blocks([[da, zero, zero], [zero, db, zero],
                                                [ra, -rb, -dc]]))
    return [2 * r] + [3 * r] * top, diffs


# the (S, U, base) of the two rejection tests above
BAD_MODULES = [GroupModule(s, u, base=base) for s, u, base in [
    (T_MATRIX, U_MATRIX, None), (T_MATRIX, U_MATRIX, 3),
    (S_MATRIX, T_MATRIX, None), (S_MATRIX, T_MATRIX, 3),
    (T_MATRIX * T_MATRIX * T_MATRIX, T_MATRIX * T_MATRIX, None),
    (T_MATRIX, T_MATRIX * T_MATRIX * T_MATRIX * T_MATRIX, 5),
]]


@pytest.mark.parametrize("top", [2, 3, 4, 9])
def test_the_relation_check_accepts_exactly_what_the_d_o_d_check_accepts(top):
    # build_total_complex checks S^4 = 1 and U^3 = S^2 and stores the
    # complex unchecked; the public constructor multiplies every d_{n+1} o
    # d_n out.  The two must agree on every module, and on the matrices
    modules = [standard_coefficient_module("sym_k", k, base=base)
               for k in range(13) for base in (None, 2, 3)]
    modules += [standard_coefficient_module("f2_squared"), TRIVIAL, *BAD_MODULES]
    rejected = []
    for module in modules:
        ranks, diffs = _unchecked_differentials(module, top)
        try:
            reference = CochainComplex(ranks, diffs, base=module.base)
        except ValueError as err:
            assert str(err).startswith("d1 o d0 is not zero"), err
            with pytest.raises(ValueError, match="^d1 o d0 is not zero"):
                build_total_complex(module, top)
            rejected.append(module)
            continue
        built = build_total_complex(module, top).complex
        assert (built.ranks, built.differentials, built.base) == \
            (reference.ranks, reference.differentials, reference.base), module
    assert rejected == BAD_MODULES


def test_built_complexes_skip_the_row_by_row_check(monkeypatch):
    # the amalgam and periodic complexes are certified by their builders
    # and stored; only a complex given as bare matrices runs the check
    checked = []
    original = CochainComplex.__init__

    def spy(self, *args, **kwargs):
        checked.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CochainComplex, "__init__", spy)
    for module in (standard_coefficient_module("sym_k", 6), TRIVIAL,
                   standard_coefficient_module("sym_k", 6, base=3)):
        for top in (2, 3, 9):
            assert isinstance(build_total_complex(module, top).complex, CochainComplex)
    for action in (CyclicAction(4, S_MATRIX), CyclicAction(6, U_MATRIX, 5)):
        for top in (0, 1, 3, 9):
            assert isinstance(periodic_complex(action, top), CochainComplex)
    assert checked == []
    with pytest.raises(ValueError, match="d1 o d0 is not zero"):
        CochainComplex([1, 1, 1], [IntegerMatrix([[1]]), IntegerMatrix([[1]])])
    assert len(checked) == 1


def test_sl2z_cohomology_constructs_no_cyclic_action(monkeypatch):
    built = []
    original = CyclicAction.__post_init__

    def spy(self):
        built.append(self.order)
        original(self)

    monkeypatch.setattr(CyclicAction, "__post_init__", spy)
    _module_complex.cache_clear()
    try:
        for modulus in (None, 2, 3):
            sl2z_cohomology(10, 5, modulus=modulus)
        sl2z_cohomology_module(TRIVIAL, 3)
    finally:
        _module_complex.cache_clear()
    assert built == []


def test_module_route_builds_one_degree_three_complex(monkeypatch):
    # one degree-3 complex per module, however many degrees are read, and
    # sl2z_cohomology reads Sym^k from the same cache
    built = []
    original = amalgam.build_total_complex

    def spy(module, top_degree):
        built.append((module, top_degree))
        return original(module, top_degree)

    monkeypatch.setattr(amalgam, "build_total_complex", spy)
    modules = [standard_coefficient_module("sym_k", k, base=base)
               for k in (3, 4, 7) for base in (None, 2)]
    modules += [TRIVIAL,
                standard_coefficient_module("f2_squared"), _commutator_module(2)]
    _module_complex.cache_clear()
    try:
        for module in modules:
            for p in range(10):
                explicit = cohomology_at(original(module, p + 2).complex, p)
                assert sl2z_cohomology_module(module, p) == explicit, (module.rank, p)
        assert built == [(module, 3) for module in modules]
        for modulus in (None, 2):
            for p in range(10):
                sl2z_cohomology(3, p, modulus=modulus)
        sl2z_cohomology_module(standard_coefficient_module("sym_k", 9), 4)
        sl2z_cohomology(9, 4)
    finally:
        _module_complex.cache_clear()
    sym_9 = standard_coefficient_module("sym_k", 9)
    assert built == [(module, 3) for module in modules] + [(sym_9, 3)]


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
