import pytest

from genusone.exact_linalg import FgAbelianGroup
from genusone.moduli import (DEGENERATION_BOUND, DegenerationUnproven,
                             EXPECTED_MOD2_DIMS, complement_group, e2_entry,
                             e2_page, half_inverted_group, m11_group,
                             mod2_consistency, p_torsion_scan)

Z = FgAbelianGroup(1)
ZERO = FgAbelianGroup(0)


def _t(*orders):
    return FgAbelianGroup(0, list(orders))


def test_odd_rows_vanish():
    for p in range(6):
        for q in (1, 3, 5):
            assert e2_entry(p, q) == ZERO
    with pytest.raises(ValueError):
        e2_entry(-1, 0)


def test_base_row_values():
    want = [Z, ZERO, _t(12), ZERO, _t(12), ZERO]
    for n, group in enumerate(want):
        assert m11_group(n) == group, n


def test_complement_values():
    want = {
        0: ZERO,
        1: ZERO,
        2: ZERO,
        3: ZERO,
        4: _t(2),
        5: FgAbelianGroup(1, [2]),
        6: _t(2),
        7: _t(2, 2, 2),
        8: _t(2, 2),
        9: FgAbelianGroup(1, [2, 2, 2, 12]),
    }
    for n, group in want.items():
        assert complement_group(n) == group, n


def test_degeneration_guard():
    assert DEGENERATION_BOUND == 9
    with pytest.raises(DegenerationUnproven):
        complement_group(10)
    with pytest.raises(ValueError):
        complement_group(-1)
    # the guard is a ValueError subclass so generic handlers still work
    assert issubclass(DegenerationUnproven, ValueError)


def test_half_inverted_values():
    # inverting 2 keeps only the 3-part of the torsion
    want = {
        0: FgAbelianGroup(1),
        1: ZERO,
        2: _t(3),
        3: ZERO,
        4: _t(3),
        5: FgAbelianGroup(1),
        6: _t(3),
        7: ZERO,
        8: _t(3),
        9: FgAbelianGroup(1, [3]),
    }
    for n, group in want.items():
        assert half_inverted_group(n) == group, n
    for n in range(10):
        for d in half_inverted_group(n).invariant_factors:
            assert d % 2 == 1, n


def test_page_assembly_and_antidiagonal():
    page = e2_page(6)
    assert sorted(page.entries) == [(p, q) for p in range(7) for q in range(7 - p)]
    assert page.entries[(2, 0)] == _t(12)
    cells = page.antidiagonal(5)
    assert [pq for pq, _ in cells] == [(p, 5 - p) for p in range(6)]
    for (p, q), group in cells:
        if q % 2:
            assert group == ZERO, (p, q)
    lookup = dict(cells)
    assert lookup[(1, 4)] == FgAbelianGroup(1, [2])
    assert lookup[(3, 2)] == ZERO
    assert [pq for pq, _ in page.antidiagonal(0)] == [(0, 0)]
    for n in (-1, 7):
        with pytest.raises(ValueError, match="outside the assembled range"):
            page.antidiagonal(n)


def test_mod2_consistency_report():
    report = mod2_consistency(8)
    assert report.consistent
    assert tuple(r.computed for r in report.rows) == EXPECTED_MOD2_DIMS
    assert tuple(r.n for r in report.rows) == tuple(range(9))
    assert [r.n for r in mod2_consistency(0).rows] == [0]
    for n_max in (-1, 9):
        with pytest.raises(ValueError, match="n_max must be in 0..8"):
            mod2_consistency(n_max)


def test_p_torsion_scan_small_primes():
    # every odd prime q <= 47: odd primes do occur in H^1 at large weight
    factors = {}
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        witness = p_torsion_scan(q)
        assert witness.passed, q
        assert witness.fixed_by_s and witness.fixed_by_t
        assert witness.divisible_factor is not None
        assert witness.divisible_factor % q == 0
        factors[q] = witness.divisible_factor
    assert (factors[3], factors[5], factors[31], factors[47]) == (12, 60, 104160, 119861280)


def test_p_torsion_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        p_torsion_scan(2)
    with pytest.raises(ValueError):
        p_torsion_scan(9)
