import random

import pytest

from genusone.cochains import DualVector
from genusone.exterior import (ExteriorElement, classifying_pullback,
                               pullback_on_h2, verify_square, wedge_all)

G = ExteriorElement.generator


def random_element(rng, indices=6, terms=4):
    out = ExteriorElement.zero()
    for _ in range(terms):
        width = rng.randint(0, 3)
        mono = tuple(sorted(rng.sample(range(indices), width)))
        out = out + ExteriorElement({mono: rng.randint(-5, 5)})
    return out


def test_monomial_validation_and_zero():
    with pytest.raises(ValueError):
        ExteriorElement({(2, 1): 1})
    with pytest.raises(ValueError):
        ExteriorElement({(1, 1): 1})
    assert ExteriorElement.zero().terms == {}
    assert ExteriorElement({(0,): 0}) == ExteriorElement.zero()


def test_wedge_is_anticommutative_on_generators():
    a, b = G(0), G(1)
    assert a * b == ExteriorElement({(0, 1): 1})
    assert b * a == ExteriorElement({(0, 1): -1})
    assert a * a == ExteriorElement.zero()
    assert wedge_all([G(2), G(0), G(1)]) == ExteriorElement({(0, 1, 2): 1})


def test_algebra_laws_on_random_elements():
    rng = random.Random(6)
    for _ in range(30):
        x, y, z = (random_element(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + y == y + x
        assert x + x * -1 == ExteriorElement.zero()
        assert x * 3 == x + x + x


def test_graded_commutativity():
    rng = random.Random(7)
    for _ in range(30):
        # homogeneous picks so the sign rule is well defined
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = wedge_all(G(i) for i in sorted(rng.sample(range(8), da)))
        b = wedge_all(G(i) for i in sorted(rng.sample(range(8), db)))
        sign = (-1) ** (da * db)
        assert a * b == (b * a) * sign


def test_pullback_shape():
    lam = DualVector([3, -2])
    # one copy: eps is generator 2, torus duals are 0 and 1
    pulled = pullback_on_h2(lam)
    want = (G(2) * G(0)) * 3 + (G(2) * G(1)) * -2
    assert pulled == want
    assert pullback_on_h2(DualVector([0, 0])) == ExteriorElement.zero()


def test_pullback_is_additive():
    rng = random.Random(8)
    for _ in range(20):
        a = DualVector([rng.randint(-5, 5), rng.randint(-5, 5)])
        b = DualVector([rng.randint(-5, 5), rng.randint(-5, 5)])
        total = DualVector([x + y for x, y in
                            zip(a.coefficients, b.coefficients)])
        assert pullback_on_h2(total) == pullback_on_h2(a) + pullback_on_h2(b)


def test_pullback_validation():
    with pytest.raises(ValueError):
        pullback_on_h2(DualVector([1, 0, 0]))
    with pytest.raises(ValueError):
        pullback_on_h2(DualVector([1, 0]), copy=1, copies=1)


def test_classifying_pullback_sums_copies():
    lam = DualVector([1, 1])
    two = classifying_pullback(lam, 2)
    assert two == pullback_on_h2(lam, 0, 2) + pullback_on_h2(lam, 1, 2)


def test_square_commutes_in_degree_one():
    report = verify_square(1)
    assert report.passed
    assert report.sign == 1


def test_square_commutes_in_degree_two():
    report = verify_square(2)
    assert report.passed
    assert report.sign == -1


def test_square_flip_control_fails():
    # perturbing one basis vector must break the identity; a check that
    # cannot fail would certify nothing
    report = verify_square(2, flip_basis_vector=0)
    assert not report.passed


def test_square_rejects_high_degree():
    with pytest.raises(ValueError):
        verify_square(3)
