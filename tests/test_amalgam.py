import pytest

from genusone.amalgam import (_sym_complex, build_total_complex, sl2z_cohomology,
                              sl2z_cohomology_module)
from genusone.exact_linalg import FgAbelianGroup, cohomology_at
from genusone.group_modules import GroupModule, standard_coefficient_module

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


def test_f_p_route_checks_only_the_reduced_module(monkeypatch):
    # the F_p complex is built from Sym^k taken mod p, so the relations of
    # the integral module are never checked on the way
    bases = []
    check = GroupModule._check_relations

    def spy(self):
        bases.append(self.base)
        check(self)

    monkeypatch.setattr(GroupModule, "_check_relations", spy)
    _sym_complex.cache_clear()
    sl2z_cohomology(10, 3, modulus=2)
    assert bases == [2]
    _sym_complex.cache_clear()


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
