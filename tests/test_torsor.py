import ast
import random

import pytest

from genusone import torsor
from genusone.torsor import (FiniteGroupData, _f2_cocycle_columns, _rank_f2,
                             build_canonical_torsor,
                             cycle_lengths, cyclic_group_data, gl2_z4_group,
                             h1_one_cocycles, torsor_matrix_action,
                             torsor_nontriviality_witness,
                             torsor_translation_orbit)


def test_configuration_counts():
    cfg = build_canonical_torsor()
    assert len(cfg.order_four) == 12
    assert len(cfg.classes) == 6
    assert len(cfg.two_torsion) == 4
    assert len(cfg.targets) == 3
    assert len(cfg.elements) == 4
    assert cfg.raw_labeling_count == 8
    # phi is 2:1 onto the order-2 targets
    for target in cfg.targets:
        assert sum(1 for c in cfg.classes if cfg.phi[c] == target) == 2


def test_partition_encoding_is_stable():
    cfg = build_canonical_torsor()
    for t in cfg.elements:
        assert len(t) == 3
        assert cfg.classes[0] in t
        other = frozenset(cfg.classes) - frozenset(t)
        assert cfg.canonical_part(other) == t
        # each part is a section of phi: one class per target
        assert sorted(cfg.phi[c] for c in t) == sorted(cfg.targets)


def test_translation_is_simply_transitive():
    cfg = build_canonical_torsor()
    for t in cfg.elements:
        orbit = torsor_translation_orbit(t, cfg)
        assert sorted(orbit.values()) == sorted(cfg.elements)
        assert orbit[(0, 0)] == t
        stabilizer = [a for a, image in orbit.items() if image == t]
        assert stabilizer == [(0, 0)]


def test_translation_rejects_bad_input():
    cfg = build_canonical_torsor()
    with pytest.raises(ValueError):
        cfg.translate((1, 0), cfg.elements[0])
    with pytest.raises(ValueError):
        cfg.translate((0, 2), ("nonsense",))


def test_shear_acts_by_a_four_cycle():
    witness = torsor_nontriviality_witness(build_canonical_torsor())
    assert witness.generator == ((1, 1), (0, 1))
    assert witness.cycles == (4,)
    assert witness.fixed_point_free
    assert witness.passed


def test_minus_identity_acts_trivially():
    cfg = build_canonical_torsor()
    perm = torsor_matrix_action(((-1, 0), (0, -1)), cfg)
    assert all(image == t for t, image in perm.items())
    with pytest.raises(ValueError):
        torsor_matrix_action(((2, 0), (0, 1)), cfg)


def test_matrix_action_is_a_homomorphism():
    cfg = build_canonical_torsor()
    g = ((1, 1), (0, 1))
    h = ((0, -1), (1, 0))
    gh = tuple(tuple(sum(g[i][l] * h[l][j] for l in range(2)) % 4
                     for j in range(2)) for i in range(2))
    pg = torsor_matrix_action(g, cfg)
    ph = torsor_matrix_action(h, cfg)
    pgh = torsor_matrix_action(gh, cfg)
    for t in cfg.elements:
        assert pgh[t] == pg[ph[t]]


def test_cycle_lengths():
    assert cycle_lengths({1: 2, 2: 1, 3: 3}) == (2, 1)
    assert cycle_lengths({"a": "b", "b": "c", "c": "a"}) == (3,)
    assert cycle_lengths({}) == ()


def test_gl2_z4_order_and_h1():
    group = gl2_z4_group()
    assert group.order == 96
    assert group.p == 2
    assert group.dim == 2
    assert h1_one_cocycles(group) == 1
    trivial = FiniteGroupData((0,), ((0,),), (((1, 0), (0, 1)),), 2)
    assert h1_one_cocycles(trivial) == 0
    assert h1_one_cocycles(cyclic_group_data(3, ((1,),), 2)) == 0


def _cocycle_columns_by_equation(group):
    # the per-equation reference: equation e = (i n + j) d + r XORs its bit
    # into the columns of c(ij)_r, c(i)_r and every (j, s) with act_i[r][s]
    n, d = group.order, group.dim
    cols = [0] * (n * d)
    e = 0
    for i in range(n):
        act = group.action[i]
        for j in range(n):
            k = group.table[i][j]
            for r in range(d):
                bit = 1 << e
                cols[k * d + r] ^= bit
                cols[i * d + r] ^= bit
                for s in range(d):
                    if act[r][s]:
                        cols[j * d + s] ^= bit
                e += 1
    return cols


def test_block_cocycle_columns_match_the_per_equation_system():
    # the torsor suite's F_2 systems: GL_2(Z/4), the trivial group, Z/3,
    # and its cyclic cases taken mod 2
    groups = [gl2_z4_group(),
              FiniteGroupData((0,), ((0,),), (((1, 0), (0, 1)),), 2),
              cyclic_group_data(3, ((1,),), 2)]
    groups += [cyclic_group_data(order, mat, 2)
               for order, mat in ((4, ((0, -1), (1, 0))), (6, ((0, -1), (1, 1))),
                                  (2, ((0, 1), (1, 0))), (5, ((1,),)))]
    for group in groups:
        assert _f2_cocycle_columns(group) == _cocycle_columns_by_equation(group), group.order


def test_gl2_z4_table_is_the_matrix_product():
    group = gl2_z4_group()
    mats = group.elements
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            product = tuple(tuple(sum(x[r][m] * y[m][c] for m in range(2)) % 4
                                  for c in range(2)) for r in range(2))
            assert mats[group.table[i][j]] == product
    assert mats[group.identity] == ((1, 0), (0, 1))


def _transpose_bits(rows, width):
    return [sum(((row >> c) & 1) << e for e, row in enumerate(rows))
            for c in range(width)]


def _dense_rank_f2(rows, width):
    dense = [[(row >> c) & 1 for c in range(width)] for row in rows]
    rank = 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][c]:
                dense[i] = [a ^ b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("height, width", [
    (40, 8), (8, 40), (12, 12), (0, 5), (5, 0), (0, 0)])
def test_rank_f2_of_the_rows_equals_that_of_the_transpose(height, width):
    rng = random.Random(height * 100 + width)
    for density in (0.0, 0.1, 0.5):
        for _ in range(5):
            rows = [sum(1 << c for c in range(width) if rng.random() < density)
                    for _ in range(height)]
            rank = _dense_rank_f2(rows, width)
            assert _rank_f2(rows) == rank
            assert _rank_f2(_transpose_bits(rows, width)) == rank
            if density == 0.0:
                assert rank == 0


def test_cyclic_group_h1_matches_resolution():
    from genusone.cyclic import CyclicAction, cyclic_cohomology
    from genusone.exact_linalg import FgAbelianGroup, IntegerMatrix
    cases = [
        (4, [[0, -1], [1, 0]], 2),
        (6, [[0, -1], [1, 1]], 2),
        (2, [[-1, 0], [0, -1]], 2),
        (3, [[0, -1], [1, -1]], 3),
        # the torsor suite's cases besides (4, [[0, -1], [1, 0]], 2)
        (6, [[0, -1], [1, 1]], 3),
        (2, [[0, 1], [1, 0]], 2),
        (5, [[1]], 5),
    ]
    dims = []
    for order, mat, p in cases:
        data = cyclic_group_data(order, mat, p)
        act = CyclicAction(order, IntegerMatrix(mat), base=p)
        want = cyclic_cohomology(act, 1)
        assert want.free_rank == 0
        dims.append(h1_one_cocycles(data))
        assert dims[-1] == len(want.invariant_factors), (order, p)
    assert dims == [1, 0, 2, 1, 0, 0, 1]


def test_finite_group_data_validation():
    # a non-associative "table" must be rejected
    elements = (0, 1)
    bad_table = ((0, 1), (1, 1))
    eye = ((1, 0), (0, 1))
    action = (eye, eye)
    with pytest.raises(ValueError):
        FiniteGroupData(elements, bad_table, action, 2)
    # wrong identity action
    flip = ((0, 1), (1, 0))
    good_table = ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        FiniteGroupData(elements, good_table, (flip, eye), 2)
    # composite coefficient modulus
    with pytest.raises(ValueError):
        FiniteGroupData(elements, good_table, action, 4)
    # an empty group, an empty action, an identity outside range(n) and
    # action matrices that are not all d x d are rejected before anything
    # is indexed
    eye3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for args, message in [(((), (), (), 2), "at least one element"),
                          (((0,), ((0,),), (), 2), "one action matrix per element"),
                          ((elements, good_table, (eye, eye3), 2), "must be 2 x 2"),
                          ((elements, good_table, (eye, ((1,), (0, 1))), 2), "must be 2 x 2"),
                          (((0,), ((0,),), (eye,), 2, 5), "outside range"),
                          (((0,), ((0,),), (eye,), 2, -3), "outside range")]:
        with pytest.raises(ValueError, match=message):
            FiniteGroupData(*args)
    # and a sane instance passes
    data = FiniteGroupData(elements, good_table, (eye, flip), 2)
    assert data.order == 2


def test_cyclic_group_data_rejects_wrong_order():
    with pytest.raises(ValueError):
        cyclic_group_data(4, [[0, -1], [1, 1]], 2)


def test_solver_shares_no_engine_elimination():
    # the solver checks the engine's H^1, so it may use the dense reference
    # fp_rank but never the engine's own eliminations
    engine = {"bareiss_rank", "_bareiss", "_reduce_on_units", "reduced", "_cancel_units",
              "DifferentialRecord", "_diagonal_mod", "_divisors_mod_minor", "_factors_mod",
              "elementary_divisors", "snf_diagonal", "cohomology_at", "det"}
    with open(torsor.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert "fp_rank" in named
    assert named & engine == set()
