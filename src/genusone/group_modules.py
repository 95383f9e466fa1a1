"""Coefficient modules for SL2(Z) and its finite subgroups.

SL2(Z) is generated by

    S = [[0, -1], [1, 0]]   of order 4,
    U = [[0, -1], [1, 1]]   of order 6,

with S^2 = U^3 = -I central of order 2, exhibiting the group as the
amalgamated product Z/4 *_{Z/2} Z/6 with presentation
<S, U | S^4 = 1, S^2 = U^3> (Serre, *Trees*, I.4).  The unipotent
T = [[1, 1], [0, 1]] is recovered as S^{-1} U.

A ``GroupModule`` is the pair of matrices by which S and U act; -I acts
as S^2 and the rank is the size of S.  Construction checks only shapes
and the prime base, and over F_p stores S and U reduced: the relations
are certified once, when the amalgam complex is built from the module
(``amalgam._parity_blocks``), by the two products S^2 S^2 and U (U U),
which is exactly that complex's d o d = 0: the C^1 row of its D_1 o D_0 is
S^2 - U^3 and its A^2 row S^4 - 1.  The k-th symmetric power of
the standard rank-2 module uses the monomial basis

    e1^k, e1^{k-1} e2, ..., e2^k          (decreasing e1-degree),

and a matrix g acts on e1, e2 through its columns, so Sym is a covariant
functor: sym_power_matrix(g*h, k) == sym_power_matrix(g, k) * sym_power_matrix(h, k).
Over F_p the module is formed reduced from the start
(``sym_power_matrix(g, k, base)``), with no integral Sym^k in between, and
stored as formed (``GroupModule._stored``), with no ``mod`` rescan.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_linalg import IntegerMatrix, _require_int, _require_prime

S_MATRIX = IntegerMatrix([[0, -1], [1, 0]])
U_MATRIX = IntegerMatrix([[0, -1], [1, 1]])
T_MATRIX = IntegerMatrix([[1, 1], [0, 1]])  # equals S^{-1} * U


def _poly_mul(f: dict, g: dict, base: int | None) -> dict:
    """The product of two sparse polynomials {degree: nonzero coefficient},
    reduced mod base where one is given."""
    if len(f) > len(g):
        f, g = g, f
    terms = iter(f.items())
    i, x = next(terms)
    out = {i + j: x * y for j, y in g.items()}
    for i, x in terms:
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    if base is None:
        return {e: v for e, v in out.items() if v}
    return {e: r for e, v in out.items() if (r := v % base)}


def sym_power_matrix(g: IntegerMatrix, k: int, base: int | None = None) -> IntegerMatrix:
    """Matrix of the k-th symmetric power of g on the monomial basis,
    over Z or, with ``base``, reduced mod base.

    Column i is (a e1 + b e2)^(k-i) (c e1 + d e2)^i, formed from sparse
    polynomials reduced mod base as they are formed, so the cost follows
    the nonzero entries: for S and U, whose first column is e2, the first
    factor is a monomial, S costs O(k) and Sym^96(U) mod 2 has 1219
    nonzero entries of 9409 (Lucas).  The rows are stored as they are
    collected, in column order.

    >>> sym_power_matrix(S_MATRIX, 2).to_lists()
    [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    >>> sym_power_matrix(S_MATRIX, 2, base=3).to_lists()
    [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    >>> sym_power_matrix(S_MATRIX, 0).to_lists()
    [[1]]
    """
    _require_int("k", k)
    if base is not None:
        _require_int("base", base)
        if base < 2:
            raise ValueError(f"base must be None or at least 2, got {base}")
    if g.shape != (2, 2):
        raise ValueError("symmetric powers are taken of 2x2 matrices here")
    if k < 0:
        raise ValueError("k must be non-negative")
    (a, c), (b, d) = g  # a e1 + b e2 and c e1 + d e2 are the images of e1, e2
    if abs(a * d - b * c) != 1:
        raise ValueError("g must be invertible over Z")
    # powers of a + b x and of c + d x, by x = e2-degree, for 0..k
    first, second = [{0: 1}], [{0: 1}]
    for powers, linear in ((first, {0: a, 1: b}), (second, {0: c, 1: d})):
        linear = _poly_mul({0: 1}, linear, base)  # drops a zero term, reduces
        for _ in range(k):
            powers.append(_poly_mul(powers[-1], linear, base))
    # a + b x and c + d x have coprime coefficients, so by Gauss's lemma so
    # has every power and column: none vanishes mod base, none is empty
    rows = [[] for _ in range(k + 1)]
    for i in range(k + 1):
        for r, v in _poly_mul(first[k - i], second[i], base).items():
            rows[r] += (i, v)
    return IntegerMatrix._stored(tuple(map(tuple, rows)), k + 1)


class GroupModule:
    """A module for SL2(Z), over Z (base None) or F_p: the actions S and U.

    S and U are square matrices of one size, the module's ``rank``; -I
    acts as S^2.  Construction checks only this form.  The relations
    S^4 = 1 and S^2 = U^3 are certified in one place, by two products when
    ``amalgam.build_total_complex`` builds the module's complex; they are
    exactly its d o d = 0 (see ``amalgam._parity_blocks``).  They make S
    and U invertible, so no determinant is taken.  Over F_p, S and U are
    stored reduced, once ``_require_prime`` has passed the base.  Equality and
    hashing cover ``(s, u, base)``, so a module, however its entries were
    given, is one cache key of ``amalgam._module_complex``.  The check keeps
    the name ``__post_init__``, which ``bench/spans.py`` traces to count
    modules.
    """

    __slots__ = ("s", "u", "base")

    def __init__(self, s: IntegerMatrix, u: IntegerMatrix, base: int | None = None):
        self.s, self.u, self.base = s, u, base
        self.__post_init__()
        if base is not None:
            self.s, self.u = s.mod(base), u.mod(base)

    @classmethod
    def _stored(cls, s: IntegerMatrix, u: IntegerMatrix, base: int | None) -> "GroupModule":
        """A module whose S and U are given reduced: checked, not rescanned."""
        module = object.__new__(cls)
        module.s, module.u, module.base = s, u, base
        module.__post_init__()
        return module

    def __post_init__(self):
        if self.base is not None:
            _require_prime("base", self.base)
        for gen, mat in (("S", self.s), ("U", self.u)):
            if mat.shape != (self.rank, self.rank):
                raise ValueError(f"action of {gen} has shape {mat.shape}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.s, self.u, self.base) == (other.s, other.u, other.base)

    def __hash__(self):
        return hash((self.s, self.u, self.base))

    def __repr__(self):
        return f"GroupModule(s={self.s!r}, u={self.u!r}, base={self.base!r})"

    @property
    def rank(self) -> int:
        return self.s.rows

    def reduce(self, p: int) -> "GroupModule":
        """The same module with coefficients reduced mod a prime."""
        if self.base is not None:
            raise ValueError("module is already over a prime field")
        _require_prime("p", p)
        return GroupModule(self.s, self.u, base=p)


@lru_cache(maxsize=None)
def _sym_module(k: int, base: int | None) -> GroupModule:
    return GroupModule._stored(sym_power_matrix(S_MATRIX, k, base),
                               sym_power_matrix(U_MATRIX, k, base), base)


def standard_coefficient_module(name: str, k: int | None = None,
                                base: int | None = None) -> GroupModule:
    """The coefficient systems used throughout: "sym_k" and "f2_squared".

    "sym_k" needs the symmetric-power degree k; with a prime ``base`` it
    is Sym^k over F_base, formed reduced by ``sym_power_matrix`` and kept
    per (k, base).  "f2_squared" is the rank-2 mod-2 reduction of the
    standard module.  k and base are checked to be ints before the cache
    is read.
    """
    if base is not None:
        if name != "sym_k":
            raise ValueError(f"module {name!r} takes no base")
        _require_prime("base", base)
    if name == "sym_k":
        if k is None:
            raise ValueError("sym_k needs a non-negative degree k")
        _require_int("k", k)
        if k < 0:
            raise ValueError("sym_k needs a non-negative degree k")
        return _sym_module(k, base)
    if name == "f2_squared":
        return standard_coefficient_module("sym_k", 1, base=2)
    raise ValueError(f"unknown coefficient module {name!r}")
