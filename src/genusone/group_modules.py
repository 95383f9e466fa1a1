"""Coefficient modules for SL2(Z) and its finite subgroups.

SL2(Z) is generated by

    S = [[0, -1], [1, 0]]   of order 4,
    U = [[0, -1], [1, 1]]   of order 6,

with S^2 = U^3 = -I central of order 2, exhibiting the group as the
amalgamated product Z/4 *_{Z/2} Z/6 with presentation
<S, U | S^4 = 1, S^2 = U^3> (Serre, *Trees*, I.4).  The unipotent
T = [[1, 1], [0, 1]] is recovered as S^{-1} U.

A ``GroupModule`` is the pair of matrices by which S and U act; -I acts
as S^2 and the rank is the size of S.  Construction checks only shapes:
the relations are certified once, when the amalgam complex is built from
the module (``amalgam._parity_blocks``), by the two products S^2 S^2 and
U (U U), which is exactly that complex's d o d = 0.  The k-th symmetric
power of the standard rank-2 module uses the monomial basis

    e1^k, e1^{k-1} e2, ..., e2^k          (decreasing e1-degree),

and a matrix g acts on e1, e2 through its columns, so Sym is a covariant
functor: sym_power_matrix(g*h, k) == sym_power_matrix(g, k) * sym_power_matrix(h, k).
"""

from __future__ import annotations

from functools import lru_cache

from .exact_linalg import IntegerMatrix, _is_prime

S_MATRIX = IntegerMatrix([[0, -1], [1, 0]])
U_MATRIX = IntegerMatrix([[0, -1], [1, 1]])
T_MATRIX = IntegerMatrix([[1, 1], [0, 1]])  # equals S^{-1} * U


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def sym_power_matrix(g: IntegerMatrix, k: int) -> IntegerMatrix:
    """Matrix of the k-th symmetric power of g on the monomial basis.

    >>> sym_power_matrix(S_MATRIX, 2).to_lists()
    [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    >>> sym_power_matrix(S_MATRIX, 0).to_lists()
    [[1]]
    """
    if g.shape != (2, 2):
        raise ValueError("symmetric powers are taken of 2x2 matrices here")
    if k < 0:
        raise ValueError("k must be non-negative")
    a, b = g[0][0], g[1][0]  # image of e1
    c, d = g[0][1], g[1][1]  # image of e2
    if abs(a * d - b * c) != 1:
        raise ValueError("g must be invertible over Z")
    # powers (a e1 + b e2)^i and (c e1 + d e2)^i for i = 0..k, coefficients
    # by e2-degree; column i is (a e1 + b e2)^(k-i) * (c e1 + d e2)^i
    first, second = [[1]], [[1]]
    for _ in range(k):
        first.append(_poly_mul(first[-1], [a, b]))
        second.append(_poly_mul(second[-1], [c, d]))
    cols = [_poly_mul(first[k - i], second[i]) for i in range(k + 1)]
    return IntegerMatrix([[cols[j][i] for j in range(k + 1)] for i in range(k + 1)],
                         cols=k + 1)


class GroupModule:
    """A module for SL2(Z), over Z (base None) or F_p: the actions S and U.

    S and U are square matrices of one size, the module's ``rank``; -I
    acts as S^2.  Construction checks only this form.  The relations
    S^4 = 1 and S^2 = U^3 are certified in one place, by two products when
    ``amalgam.build_total_complex`` builds the module's complex; they are
    exactly its d o d = 0 (see ``amalgam._parity_blocks``).  They make S
    and U invertible, so no determinant is taken.  Equality and hashing
    cover ``(s, u, base)``, so a module is the cache key of
    ``amalgam._module_complex``.  The shape check keeps the name
    ``__post_init__``, which ``bench/spans.py`` traces to count modules.
    """

    __slots__ = ("s", "u", "base")

    def __init__(self, s: IntegerMatrix, u: IntegerMatrix, base: int | None = None):
        self.s, self.u, self.base = s, u, base
        self.__post_init__()

    def __post_init__(self):
        if self.base is not None and not _is_prime(self.base):
            raise ValueError(f"base must be None or a prime, got {self.base}")
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
        if not _is_prime(p):
            raise ValueError(f"can only reduce modulo a prime, got {p}")
        return GroupModule(self.s.mod(p), self.u.mod(p), base=p)


@lru_cache(maxsize=None)
def _sym_module(k: int, base: int | None) -> GroupModule:
    module = GroupModule(sym_power_matrix(S_MATRIX, k), sym_power_matrix(U_MATRIX, k))
    return module if base is None else module.reduce(base)


def standard_coefficient_module(name: str, k: int | None = None,
                                base: int | None = None) -> GroupModule:
    """The coefficient systems used throughout: "sym_k" and "f2_squared".

    "sym_k" needs the symmetric-power degree k; with a prime ``base`` it
    is the integral Sym^k reduced mod base (``GroupModule.reduce``) once.
    "f2_squared" is the rank-2 mod-2 reduction of the standard module.
    """
    if base is not None and name != "sym_k":
        raise ValueError(f"module {name!r} takes no base")
    if name == "sym_k":
        if k is None or k < 0:
            raise ValueError("sym_k needs a non-negative degree k")
        return _sym_module(k, base)
    if name == "f2_squared":
        return standard_coefficient_module("sym_k", 1, base=2)
    raise ValueError(f"unknown coefficient module {name!r}")
