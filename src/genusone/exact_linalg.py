"""Exact linear algebra over the integers and over prime fields.

Matrices are ``IntegerMatrix`` values of arbitrary-precision Python
integers, stored as sparse rows of their nonzero (column, value) pairs.
Products, sums, identity shifts, blocks, the d o d check of a
``CochainComplex`` and the unit-pivot reduction work on that form; only
the eliminations (Bareiss, the divisor pass, ``smith_normal_form``)
densify, locally; ``det`` reads the signed last pivot of the Bareiss pass
that ``bareiss_rank`` runs.  There is deliberately no floating point and
no fixed-width arithmetic anywhere.
The central operations are

* ``cohomology_at``: the isomorphism class of ker(d_n)/im(d_{n-1}) of a
  finite cochain complex, returned as an ``FgAbelianGroup``.  It reads the
  complex reduced on its unit pivots (``CochainComplex.reduced``), a
  homotopy equivalent complex (Gaussian elimination on chain complexes,
  Kaczynski, Mrozek and Slusarek 1998; the argument is at
  ``_reduce_on_units``), in which each differential has one
  ``DifferentialRecord``;
* ``bareiss_rank``: rank and a nonzero maximal minor N by fraction-free
  elimination, whose entries are minors and so stay within Hadamard's bound;
* ``DifferentialRecord``: the one reader of a differential's rank, its
  elementary divisors above 1 and its cokernel mod m.  The divisors come
  from a diagonal form modulo N, which they all divide, so no coefficient
  exceeds N (the mod-determinant method of Hafner and McCurley);
* ``smith_normal_form``: U * A * V = D with unimodular U, V and a diagonal
  whose entries form a divisibility chain, certified before it returns.
  It is the dense reference the divisor route is tested against.

Groups are always reduced to canonical invariant-factor form, so equality
of ``FgAbelianGroup`` values is isomorphism of the groups they denote.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import chain, compress
from typing import Iterable, NamedTuple


#: the first 13 primes; as Miller-Rabin bases they decide primality exactly
#: below _PRIME_TEST_LIMIT (Sorenson and Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
#: _factor trial-divides up to here; a larger cofactor must be prime
_TRIAL_DIVISION_LIMIT = 10 ** 6


def _require_int(name: str, x) -> None:
    """TypeError unless x is an int: a float or a bool would reach the
    caches and the engine as an int."""
    if type(x) is not int:
        raise TypeError(f"{name} must be int, got {type(x).__name__}")


def _is_prime(n: int) -> bool:
    """Trial division by the bases, then deterministic Miller-Rabin.

    A multiple of a base is decided at any size; any other n at or above
    the exact range raises ValueError.

    >>> [q for q in range(30) if _is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> _is_prime(10 ** 18 + 3), _is_prime(1_000_003 * 1_000_033)
    (True, False)
    >>> _is_prime(10 ** 27)
    False
    """
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"only integers below {_PRIME_TEST_LIMIT} are tested")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1: trial division, then a prime cofactor.

    Divisors are tried up to 10^6; what is left must be 1 or a prime, or
    ValueError is raised rather than factoring further.
    """
    out: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_DIVISION_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if not _is_prime(n):
            raise ValueError(f"cannot factor {n}: it has no prime factor up to "
                             f"{_TRIAL_DIVISION_LIMIT} and is not prime")
        out[n] = out.get(n, 0) + 1
    return out


class IntegerMatrix:
    """Immutable sparse matrix of Python ints.

    Each row is stored as the flat tuple (c_0, v_0, c_1, v_1, ...) of its
    (column, value) pairs with value != 0, columns ascending
    (``sparse_rows``; ``_pairs`` reads the pairs back).  Flat, a nonzero
    entry costs two references rather than a tuple of its own.  The public
    constructor takes dense rows and checks their shape and entry types
    once; every matrix computed here is built from stored rows and not
    checked again.  Indexing, iteration and ``to_lists`` give dense rows.

    Costs: a product forms a_ij * b_jc only for nonzero factors; ``+``
    densifies each row to its width; ``mod`` scans every entry and rebuilds
    a matrix that is not yet reduced; ``add_identity`` (X + t I) touches
    one entry per row and shares the rest.

    Degenerate shapes (zero rows or zero columns) are allowed and behave
    correctly under multiplication; they show up as the boundary maps of
    truncated complexes.

    >>> m = IntegerMatrix([[1, 2], [3, 0]])
    >>> (m * m)[0], m.sparse_rows()
    ((7, 2), ((0, 1, 1, 2), (0, 3)))
    >>> IntegerMatrix.identity(2) * m == m
    True
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        table = [tuple(row) for row in data]
        if table:
            if cols is not None and cols != len(table[0]):
                raise ValueError("explicit column count disagrees with row data")
            cols = len(table[0])
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        for row in table:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        self.rows, self.cols = len(table), cols
        self._rows = tuple(map(_stored_row, table))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _stored(cls, rows: tuple, cols: int) -> "IntegerMatrix":
        """A matrix of stored rows, unchecked."""
        m = object.__new__(cls)
        m.rows, m.cols, m._rows = len(rows), cols, rows
        return m

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls._stored(tuple((i, 1) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls._stored(((),) * rows, cols)

    @classmethod
    def from_blocks(cls, grid: list[list["IntegerMatrix"]]) -> "IntegerMatrix":
        """Assemble a block matrix; blocks in a row share heights, in a column widths."""
        widths = [b.cols for b in grid[0]] if grid else []
        offsets = [sum(widths[:t]) for t in range(len(widths))]
        rows = []
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ValueError("inconsistent block heights")
            if [b.cols for b in block_row] != widths:
                raise ValueError("inconsistent block widths")
            for i in range(height):
                rows.append(tuple(chain.from_iterable(_shifted(b._rows[i], offset)
                                                      for b, offset in zip(block_row, offsets))))
        return cls._stored(tuple(rows), sum(widths))

    # -- access ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(_dense(self._rows[i], self.cols))

    def __iter__(self):
        return (tuple(_dense(row, self.cols)) for row in self._rows)

    def to_lists(self) -> list[list[int]]:
        return [_dense(row, self.cols) for row in self._rows]

    def sparse_rows(self) -> tuple[tuple[int, ...], ...]:
        """The stored rows: each the flat tuple of its nonzero (column, value) pairs."""
        return self._rows

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return IntegerMatrix.zeros(self.rows, self.cols)
            return IntegerMatrix._stored(tuple(_scaled(row, other) for row in self._rows),
                                         self.cols)
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        right, width = other._rows, other.cols
        return IntegerMatrix._stored(tuple(_stored_row(_row_product(row, right, width))
                                           for row in self._rows), width)

    def __add__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntegerMatrix._stored(tuple(_row_sum(row, other_row, self.cols) for row, other_row
                                           in zip(self._rows, other._rows)), self.cols)

    def __sub__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def add_identity(self, t: int, base: int | None = None) -> "IntegerMatrix":
        """self + t * I for a square matrix, touching one entry per row.

        Over F_p (a prime ``base``) self must be reduced, as every matrix of
        an F_p module is, and so is the result: only the diagonal entry of
        each row is reduced.  The other entries are shared, not rescanned.
        """
        if self.rows != self.cols:
            raise ValueError("identity shift of a non-square matrix")
        rows = []
        for i, row in enumerate(self._rows):
            at = 2 * bisect_left(row[::2], i)
            if at < len(row) and row[at] == i:
                value = row[at + 1] + t
                tail = row[at + 2:]
            else:
                value, tail = t, row[at:]
            if base is not None:
                value %= base
            rows.append(row[:at] + (i, value) + tail if value else row[:at] + tail)
        return IntegerMatrix._stored(tuple(rows), self.cols)

    def mod(self, p: int) -> "IntegerMatrix":
        """Entries reduced into [0, p); a matrix already reduced is returned as is."""
        if all(0 < x < p for row in self._rows for x in row[1::2]):
            return self
        return IntegerMatrix._stored(tuple(tuple(chain.from_iterable(
            (j, r) for j, x in _pairs(row) if (r := x % p))) for row in self._rows), self.cols)

    def det(self) -> int:
        """Determinant: the signed last pivot of the Bareiss pass (``_bareiss``)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rank, pivot, sign = _bareiss(self)
        return sign * pivot if rank == self.rows else 0

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(row == (i, 1) for i, row in enumerate(self._rows))

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.cols, self._rows))

    def __repr__(self):
        return f"IntegerMatrix({self.to_lists()!r})"


def _pairs(row: tuple):
    """The (column, value) pairs of a stored row."""
    entries = iter(row)
    return zip(entries, entries)


def _stored_row(dense) -> tuple:
    """A dense row as a stored row."""
    return tuple(chain.from_iterable(compress(enumerate(dense), dense)))


def _dense(row: tuple, width: int) -> list[int]:
    """A stored row as a dense list of ``width`` entries."""
    out = [0] * width
    for j, x in _pairs(row):
        out[j] = x
    return out


def _shifted(row: tuple, offset: int):
    """A stored row with every column moved right by ``offset``."""
    out = list(row)
    out[::2] = [j + offset for j in row[::2]]
    return out


def _scaled(row: tuple, factor: int) -> tuple:
    """A stored row times a nonzero integer."""
    out = list(row)
    out[1::2] = [x * factor for x in row[1::2]]
    return tuple(out)


def _row_product(row: tuple, right: tuple, width: int) -> list[int]:
    """The row vector ``row`` times the matrix ``right``, both as stored rows.

    Row i of A * B is the sum of a_ij * (row j of B) over the nonzero a_ij,
    so a product a_ij * b_jc is formed only when both factors are nonzero.
    """
    acc = [0] * width
    for j, a in _pairs(row):
        entries = iter(right[j])
        for c, v in zip(entries, entries):
            acc[c] += a * v
    return acc


def _row_sum(row: tuple, other: tuple, width: int) -> tuple:
    """The sum of two stored rows."""
    acc = _dense(row, width)
    for c, v in _pairs(other):
        acc[c] += v
    return _stored_row(acc)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y == g == gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _snf_transforms(a: IntegerMatrix):
    """Diagonalize by elementary unimodular row and column operations.

    Returns nested-list matrices (u, d, v) with u*a*v == d, the diagonal of d
    non-negative and each entry dividing the next.  u and v are products of
    elementary operations and therefore unimodular by construction.
    """
    m, n = a.rows, a.cols
    d = a.to_lists()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_combine(i, k, x, y, z, w):
        # (row_i, row_k) <- (x*row_i + y*row_k, z*row_i + w*row_k); det must be +-1
        for mat in (d, u):
            ri, rk = mat[i], mat[k]
            mat[i] = [x * p + y * q for p, q in zip(ri, rk)]
            mat[k] = [z * p + w * q for p, q in zip(ri, rk)]

    def col_combine(j, k, x, y, z, w):
        # (col_j, col_k) <- (x*col_j + y*col_k, z*col_j + w*col_k); det must be +-1
        for mat in (d, v):
            for row in mat:
                cj, ck = row[j], row[k]
                row[j] = x * cj + y * ck
                row[k] = z * cj + w * ck

    def clear(t, count, entry, combine):
        # zero entry(i), i > t, of row or column t against the pivot d[t][t]
        for i in range(t + 1, count):
            b, p = entry(i), d[t][t]
            if not b:
                continue
            if b % p == 0:
                combine(i, t, 1, -(b // p), 0, 1)
            else:
                g, x, y = _xgcd(p, b)
                combine(t, i, x, y, -(b // g), p // g)

    for t in range(min(m, n)):
        # the smallest nonzero entry of the trailing submatrix is the pivot
        pos = min(((abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j]),
                  default=None)
        if pos is None:
            break
        _, i, j = pos
        if i != t:
            row_combine(t, i, 0, 1, 1, 0)
        if j != t:
            col_combine(t, j, 0, 1, 1, 0)
        while True:
            clear(t, m, lambda i: d[i][t], row_combine)
            clear(t, n, lambda j: d[t][j], col_combine)
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            # the pivot must divide the trailing submatrix, or the diagonal
            # will not form a chain
            piv = d[t][t]
            offender = next((i for i in range(t + 1, m) if any(x % piv for x in d[i][t + 1:])),
                            None)
            if offender is None:
                break
            row_combine(t, offender, 1, 1, 0, 1)
        if d[t][t] < 0:
            for mat in (d, u):
                mat[t] = [-x for x in mat[t]]
    return u, d, v


def smith_normal_form(a: IntegerMatrix):
    """Return (U, D, V) with U*A*V == D in Smith normal form.

    U and V are unimodular; D is diagonal, non-negative, and its nonzero
    entries form a divisibility chain.  The factorization is re-verified
    before returning, so a successful call certifies its own output.
    """
    u, d, v = _snf_transforms(a)
    um = IntegerMatrix(u, cols=a.rows)
    dm = IntegerMatrix(d, cols=a.cols)
    vm = IntegerMatrix(v, cols=a.cols)
    if um * a * vm != dm:
        raise RuntimeError("Smith normal form certificate failed: U*A*V != D")
    stored = dm.sparse_rows()
    if any(j != i for i, row in enumerate(stored) for j in row[::2]):
        raise RuntimeError("Smith normal form certificate failed: off-diagonal entry")
    diag = [row[1] if row else 0 for row in stored[:a.cols]]
    for i in range(len(diag) - 1):
        if diag[i] < 0 or (diag[i + 1] % diag[i] if diag[i] else diag[i + 1]):
            raise RuntimeError("Smith normal form certificate failed: bad diagonal")
    return um, dm, vm


def _bareiss(a: IntegerMatrix) -> tuple[int, int, int]:
    """Rank r, last pivot and row-order sign of fraction-free elimination.

    After the t-th Bareiss step every live entry is a (t+1) x (t+1) minor of
    ``a``, so coefficients stay within Hadamard's bound and each division by
    the previous pivot is exact; an inexact one raises RuntimeError.  The
    last pivot is the r x r minor on the pivot rows, taken in pivot order,
    and the sign is that order's: popping row i of the remaining rows moves
    it past i rows.  At full rank of a square ``a`` no row is dropped, so
    sign * pivot is det(a).  The zero matrix has r = 0 and pivot 1.
    """
    rows = [_dense(row, a.cols) for row in a.sparse_rows() if row]
    rank, prev, sign = 0, 1, 1
    while rows and rows[0]:
        live = [i for i, row in enumerate(rows) if row[0]]
        if not live:
            rows = [row[1:] for row in rows]
            continue
        i = min(live, key=lambda t: abs(rows[t][0]))
        if i % 2:
            sign = -sign
        pivot_row = rows.pop(i)
        pivot, tail = pivot_row[0], pivot_row[1:]
        out = []
        for row in rows:
            f = row[0]
            if f:
                vals = [x * pivot - f * y for x, y in zip(row[1:], tail)]
            else:
                vals = [x * pivot for x in row[1:]]
            if prev != 1:
                quot = [divmod(x, prev) for x in vals]
                if any(r for _, r in quot):
                    raise RuntimeError("Bareiss certificate failed: inexact division")
                vals = [q for q, _ in quot]
            if any(vals):
                out.append(vals)
        rows = out
        rank, prev = rank + 1, pivot
    return rank, prev, sign


def bareiss_rank(a: IntegerMatrix) -> tuple[int, int]:
    """Rank r of ``a`` and N = |last pivot| of fraction-free elimination
    (``_bareiss``).  N is a nonzero r x r minor, hence a multiple of the
    product of the elementary divisors.  The zero matrix has r = 0, N = 1.
    """
    rank, pivot, _ = _bareiss(a)
    return rank, abs(pivot)


def _diagonal_mod(a: IntegerMatrix, modulus: int) -> list[int]:
    """Pivots, each in [1, modulus), of a diagonal form of ``a`` over Z/modulus.

    Row and column operations are unimodular and every entry is kept reduced
    into [0, modulus).  The pivot of a stage only shrinks when it has to be
    replaced by a gcd, so each stage ends; no divisibility chain is enforced.
    Diagonal positions past the returned pivots are 0 modulo ``modulus``.
    """
    m = [[x % modulus for x in _dense(row, a.cols)] for row in a.sparse_rows()]
    m = [row for row in m if any(row)]
    pivots = []
    while m:
        i, j = _least_entry(m)
        prow = m.pop(i)
        for row in m + [prow]:
            row[0], row[j] = row[j], row[0]
        while True:
            # clear the pivot column by row operations
            for idx, row in enumerate(m):
                b = row[0]
                if not b:
                    continue
                p = prow[0]
                if b % p == 0:
                    q = b // p
                    m[idx] = [(x - q * y) % modulus for x, y in zip(row, prow)]
                else:
                    g, x, y = _xgcd(p, b)
                    s, t = b // g, p // g
                    prow, m[idx] = ([(x * u + y * v) % modulus for u, v in zip(prow, row)],
                                    [(t * v - s * u) % modulus for u, v in zip(prow, row)])
            # a pivot dividing the rest of its row clears it by column
            # operations that leave every other row alone
            p = prow[0]
            j = next((j for j in range(1, len(prow)) if prow[j] % p), None)
            if j is None:
                break
            g, x, y = _xgcd(p, prow[j])
            s, t = prow[j] // g, p // g
            for row in m + [prow]:
                u, v = row[0], row[j]
                row[0], row[j] = (x * u + y * v) % modulus, (t * v - s * u) % modulus
        pivots.append(prow[0])
        m = [row[1:] for row in m if any(row[1:])]
    return pivots


def _least_entry(m: list[list[int]]) -> tuple[int, int]:
    """Position (i, j) of the first least nonzero entry of nonzero rows ``m``,
    in row-major order.  No nonzero residue is below 1, so the scan stops at
    the first 1."""
    best, at = None, None
    for i, row in enumerate(m):
        x = min(filter(None, row))
        if best is None or x < best:
            best, at = x, (i, row.index(x))
            if x == 1:
                break
    return at


def fp_rank(rows: Iterable[Iterable[int]], p: int) -> int:
    """Rank over F_p of a matrix given as an iterable of integer rows of one length."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise ValueError("rows of unequal length")
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


class FgAbelianGroup:
    """Isomorphism class of a finitely generated abelian group.

    Stored as a free rank plus the ascending chain of invariant factors,
    each at least 2 and each dividing the next.  The constructor accepts an
    arbitrary multiset of cyclic orders and normalizes, so
    ``FgAbelianGroup(0, [4, 3]) == FgAbelianGroup(0, [12])``.  The free rank
    and the orders are ints (a bool is not one); anything else is a TypeError.

    >>> FgAbelianGroup(1, [2, 6]).render()
    'Z + Z/2 + Z/6'
    >>> FgAbelianGroup(0, [2, 2, 2, 2, 3]).invariant_factors
    (2, 2, 2, 6)
    >>> str(FgAbelianGroup())
    '0'
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int = 0, cyclic_orders: Iterable[int] = ()):
        orders = list(cyclic_orders)
        for x in (free_rank, *orders):
            if type(x) is not int:
                raise TypeError(f"free rank and cyclic orders must be int, got {type(x).__name__}")
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        orders = [order for order in orders if order != 1]
        if any(order < 1 for order in orders):
            raise ValueError(f"cyclic order must be positive, got {min(orders)}")
        # Z/a + Z/b = Z/gcd + Z/lcm; after pass i, orders[i] divides every
        # later entry, so no order is ever factored
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                a, b = orders[i], orders[j]
                g = math.gcd(a, b)
                orders[i], orders[j] = g, a // g * b
        self.free_rank = free_rank
        self.invariant_factors = tuple(f for f in orders if f > 1)

    # -- structure ----------------------------------------------------------

    @property
    def torsion_order(self) -> int:
        return math.prod(self.invariant_factors)

    # -- presentation --------------------------------------------------------

    def render(self, free_symbol: str = "Z") -> str:
        parts = []
        if self.free_rank == 1:
            parts.append(free_symbol)
        elif self.free_rank > 1:
            parts.append(f"{free_symbol}^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"FgAbelianGroup({self.free_rank}, {list(self.invariant_factors)!r})"

    def __eq__(self, other):
        return (isinstance(other, FgAbelianGroup)
                and self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash((self.free_rank, self.invariant_factors))


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    return FgAbelianGroup(sum(g.free_rank for g in groups),
                          [f for g in groups for f in g.invariant_factors])


def inverted_primes(inverted: Iterable[int]) -> tuple[int, ...]:
    """The primes dividing some member of ``inverted``, ascending.

    >>> inverted_primes([4, 6])
    (2, 3)
    """
    primes: set[int] = set()
    for n in inverted:
        if type(n) is not int:
            raise TypeError(f"can only invert ints, got {type(n).__name__}")
        if n < 2:
            raise ValueError("can only invert integers >= 2")
        primes.update(_factor(n))
    return tuple(sorted(primes))


def localize(group: FgAbelianGroup, inverted: Iterable[int]) -> FgAbelianGroup:
    """Strip the primary parts at every prime dividing a member of ``inverted``.

    This is the effect on isomorphism classes of tensoring with the subring
    of Q in which those integers become units.  Every member of ``inverted``
    must be at least 2: ``inverted_primes`` raises ValueError otherwise.
    """
    primes = inverted_primes(inverted)
    stripped = []
    for f in group.invariant_factors:
        for q in primes:
            while f % q == 0:
                f //= q
        stripped.append(f)
    return FgAbelianGroup(group.free_rank, stripped)


class ModPDims(NamedTuple):
    """Pair (dim of G tensor F_p, dim of the p-torsion G[p])."""

    dim_tensor: int
    dim_torsion: int


def mod_p_dims(group: FgAbelianGroup, p: int) -> ModPDims:
    """Dimensions over F_p of G (x) F_p and of G[p].

    Both equal ``free_rank + #factors divisible by p`` and
    ``#factors divisible by p`` respectively, by the invariant-factor
    description.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    divisible = sum(1 for f in group.invariant_factors if f % p == 0)
    return ModPDims(group.free_rank + divisible, divisible)


def group_to_json(group: FgAbelianGroup) -> dict:
    return {"free_rank": group.free_rank,
            "invariant_factors": list(group.invariant_factors)}


class CochainComplex:
    """A finite cochain complex over Z or over a prime field.

    ``ranks[n]`` is the rank of the degree-n term; ``differentials[n]`` maps
    degree n to degree n+1 and therefore has shape ranks[n+1] x ranks[n].
    The complex is zero outside the stored range.  d(n+1) o d(n) == 0 is
    checked at construction and construction fails otherwise.  ``_stored``
    builds a complex without the check, for a builder that has certified
    d o d = 0 itself, more cheaply: ``amalgam.build_total_complex`` by the
    relations of SL2(Z) (``amalgam._parity_blocks``) and
    ``cyclic.periodic_complex`` by g^m = 1 (``cyclic.CyclicAction``).

    The check forms each row of d(n+1) o d(n) as the sum of a * (row j of
    d(n)) over the nonzero entries a = d(n+1)[i][j], in exact integer
    arithmetic.  A row fails if it is nonzero over Z, or has an entry not
    divisible by p over F_p; it is dropped once seen to vanish, so the
    product matrix is never built.  Skipping zero entries changes no sum,
    so the check is exactly the test that the product is zero.  It stays
    on these unreduced differentials: the unit-pivot reduction that
    ``cohomology_at`` reads from (``reduced``) relies on d o d = 0 to drop
    a row, so a defect can vanish from the reduced complex (see
    ``_reduce_on_units``).

    ``base`` is None for Z or a prime p for F_p; over F_p the entries are
    stored reduced.
    """

    __slots__ = ("ranks", "differentials", "base", "_reduced")

    def __init__(self, ranks: Iterable[int], differentials: Iterable[IntegerMatrix],
                 base: int | None = None):
        ranks = tuple(ranks)
        for r in ranks:
            if type(r) is not int:
                raise TypeError(f"ranks must be int, got {type(r).__name__}")
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        if base is not None and not _is_prime(base):
            raise ValueError(f"base must be a prime or None, got {base}")
        # reduce while consuming, so an iterator's unreduced matrices are freed
        # one by one; a matrix given reduced is kept, and so stays shared
        diffs = tuple(d if base is None else d.mod(base) for d in differentials)
        if len(diffs) != max(len(ranks) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair of degrees")
        for n, d in enumerate(diffs):
            if d.shape != (ranks[n + 1], ranks[n]):
                raise ValueError(f"differential {n} has shape {d.shape}, "
                                 f"expected {(ranks[n + 1], ranks[n])}")
        for n in range(len(diffs) - 1):
            right = diffs[n].sparse_rows()
            for row in diffs[n + 1].sparse_rows():
                acc = _row_product(row, right, ranks[n])
                if any(acc) and (base is None or any(x % base for x in acc)):
                    raise ValueError(f"d{n + 1} o d{n} is not zero; not a complex")
        self.ranks = ranks
        self.differentials = diffs
        self.base = base
        self._reduced = None

    @classmethod
    def _stored(cls, ranks: tuple, differentials: tuple, base: int | None) -> "CochainComplex":
        """A complex whose builder has certified d o d = 0, unchecked; over
        F_p its differentials are given reduced."""
        c = object.__new__(cls)
        c.ranks, c.differentials, c.base, c._reduced = ranks, differentials, base, None
        return c

    def differential(self, n: int) -> IntegerMatrix:
        """d_n, zero-extended outside the stored range."""
        if 0 <= n < len(self.differentials):
            return self.differentials[n]
        rows = self.ranks[n + 1] if 0 <= n + 1 < len(self.ranks) else 0
        cols = self.ranks[n] if 0 <= n < len(self.ranks) else 0
        return IntegerMatrix.zeros(rows, cols)

    def reduced(self) -> "ReducedComplex":
        """The complex reduced on its unit pivots, computed on first use."""
        if self._reduced is None:
            self._reduced = _reduce_on_units(self.ranks, self.differentials, self.base)
        return self._reduced


class DifferentialRecord:
    """What cohomology reads from one differential d, each part once.

    ``shape`` is the shape of d.  Its rank r and a nonzero maximal minor N
    come from one ``bareiss_rank`` when first asked for.  Its elementary
    divisors s_1 | ... | s_r multiply to the gcd of the r x r minors, so
    each divides N.  Hence Z^rows / (im d + N Z^rows) is
    Z/s_1 + ... + Z/s_r + (Z/N)^(rows - r), which ``factors_mod(N)`` computes
    from a diagonal form modulo N with entries below N (the mod-determinant
    method of Hafner and McCurley); ``divisors`` strips the top rows - r
    invariant factors, which are N, and keeps the rest above 1, checking
    that fit on each read of the cached ``factors_mod(N)``.
    ``factors_mod(m)`` reads the cokernel mod any m, once per modulus.
    """

    __slots__ = ("shape", "_matrix", "_rank_minor", "_mod_factors")

    def __init__(self, matrix: IntegerMatrix):
        self.shape = matrix.shape
        self._matrix = matrix
        self._rank_minor = None
        self._mod_factors = {}

    def _bareiss(self) -> tuple[int, int]:
        if self._rank_minor is None:
            self._rank_minor = bareiss_rank(self._matrix)
        return self._rank_minor

    @property
    def rank(self) -> int:
        return self._bareiss()[0]

    @property
    def divisors(self) -> tuple[int, ...]:
        rank, minor = self._bareiss()
        if minor == 1:
            return ()
        factors = self.factors_mod(minor)
        top = self.shape[0] - rank
        divisors, stripped = factors[:len(factors) - top], factors[len(factors) - top:]
        if stripped != (minor,) * top or minor % math.prod(divisors):
            raise RuntimeError("elementary divisor certificate failed: "
                               f"factors {factors} do not fit the minor {minor}")
        return divisors

    def factors_mod(self, modulus: int) -> tuple[int, ...]:
        """Invariant factors of coker(d) / modulus coker(d) from a diagonal form mod
        ``modulus``, canonicalised, not counted: diag(8, 3) is diag(1, 0) modulo 24."""
        if modulus not in self._mod_factors:
            pivots = _diagonal_mod(self._matrix, modulus)
            orders = ([math.gcd(x, modulus) for x in pivots]
                      + [modulus] * (self.shape[0] - len(pivots)))
            self._mod_factors[modulus] = FgAbelianGroup(0, orders).invariant_factors
        return self._mod_factors[modulus]


class ReducedComplex(NamedTuple):
    """A cochain complex after every unit pivot has been cancelled.

    ``ranks[n]`` is the number of surviving basis vectors of C^n and
    ``records[n]`` holds the reduced d_n between them.  Its cohomology is
    that of the complex it came from.
    """

    ranks: tuple[int, ...]
    records: tuple[DifferentialRecord, ...]


def _reduce_on_units(ranks: tuple[int, ...], differentials: tuple[IntegerMatrix, ...],
                     base: int | None) -> ReducedComplex:
    """Cancel unit pivots until no differential has one left.

    A unit is +-1 over Z and any nonzero residue over F_p.  Let u = d_n[i][j]
    be one, pairing e_j in C^n with f_i in C^{n+1}.  As u is invertible,
    d_n e_j and the f_a (a != i) form a basis of C^{n+1}, and e_j with
    e'_b = e_b - u^-1 d_n[i][b] e_j (b != j) a basis of C^n; both changes of
    basis are unimodular.  In the new bases the complex splits as C' + E,
    where E is Z e_j --u--> Z d_n e_j, an isomorphism and so acyclic, and
    C' is spanned by the other basis vectors:

    * d_n e'_b = sum over a != i of (d_n[a][b] - d_n[a][j] u^-1 d_n[i][b]) f_a,
      so d_n gets the rank-one update row_a -= (d_n[a][j] / u) row_i and
      loses row i and column j;
    * d_{n+1} d_n e_j = 0 and the f_a keep their images, so d_{n+1} loses
      column i;
    * d_{n-1} x = sum over b != j of d_{n-1}[b][x] e'_b + c e_j, and applying
      d_n gives c d_n e_j plus a vector in the span of the f_a, so
      d_n d_{n-1} = 0 forces c = 0 and d_{n-1} loses row j.

    The inclusion of C' and the projection onto it are inverse chain
    homotopy equivalences, so H(C') = H(C), over Z and equally over F_p.
    The last step is why d o d = 0 must be certified before reducing: if
    d_n d_{n-1} were nonzero, c would be the defect, and dropping row j
    discards it, so the reduced complex can satisfy d o d = 0 where the
    original does not.  The public ``CochainComplex`` constructor checks it
    on the unreduced differentials; a ``CochainComplex._stored`` complex has
    it from its builder, by the relations S^4 = 1 and S^2 = U^3
    (``amalgam._parity_blocks``) or g^m = 1 (``cyclic.CyclicAction``).

    Pivots are taken within each d_n, n ascending (``_cancel_units``).
    Cancelling in d_n only deletes entries of d_{n-1} and d_{n+1}, so no
    unit is left anywhere at the end.  The deletions are bookkeeping on the
    surviving bases ``alive``: each pass reads d_n without the columns
    cancelled before it and keeps the rows it leaves, and once every pass
    is done each reduced d_n is those rows on the bases that survived, rows
    alive[n+1] and columns alive[n].  Over F_p every entry is a unit, so
    every reduced differential is zero.
    """
    alive = [set(range(r)) for r in ranks]
    passes = []
    for n, d in enumerate(differentials):
        live = alive[n]
        rows = {}
        for i, row in enumerate(d.sparse_rows()):
            entries = {j: v for j, v in _pairs(row) if j in live}
            if entries:
                rows[i] = entries
        for i, j in _cancel_units(rows, base):
            live.discard(j)
            alive[n + 1].discard(i)
        if base is not None and rows:
            raise RuntimeError("unit reduction over F_p left a nonzero differential")
        passes.append(rows)
    return ReducedComplex(tuple(map(len, alive)),
                          tuple(DifferentialRecord(_renumbered(rows, alive[n + 1], alive[n]))
                                for n, rows in enumerate(passes)))


def _cancel_units(rows: dict, base: int | None):
    """Cancel unit pivots of sparse rows {i: {j: v}} in place; yield each (i, j).

    The pivot is taken from the shortest row holding a unit, in the unit
    column of that row with the fewest entries.  Row i and column j are
    deleted, and every other row a gets row_a -= (row_a[j] / u) row_i,
    reduced mod ``base`` over F_p.
    """
    cols = {}
    for i, entries in rows.items():
        for j in entries:
            cols.setdefault(j, set()).add(i)
    # (length, row) entries go stale when a row changes; a changed row is
    # pushed again, and a stale entry is skipped when it is popped
    heap = [(len(entries), i) for i, entries in rows.items()]
    heapq.heapify(heap)
    while heap:
        length, i = heapq.heappop(heap)
        prow = rows.get(i)
        if prow is None or len(prow) != length:
            continue
        units = list(prow) if base is not None else [j for j, v in prow.items()
                                                      if v == 1 or v == -1]
        if not units:
            continue
        j = min(units, key=lambda c: len(cols[c]))
        inverse = prow[j] if base is None else pow(prow[j], -1, base)
        del rows[i]
        for c in prow:
            cols[c].discard(i)
        for a in cols.pop(j):
            target = rows[a]
            q = target[j] * inverse
            for c, v in prow.items():
                new = target.get(c, 0) - q * v
                if base is not None:
                    new %= base
                if new:
                    if c not in target:
                        cols.setdefault(c, set()).add(a)
                    target[c] = new
                elif c in target:
                    del target[c]
                    if c != j:
                        cols[c].discard(a)
            if target:
                heapq.heappush(heap, (len(target), a))
            else:
                del rows[a]
        yield i, j


def _renumbered(rows: dict, row_basis: set, col_basis: set) -> IntegerMatrix:
    """Rows {i: {j: v}} on the bases given, rows and columns numbered in basis order."""
    position = {j: t for t, j in enumerate(sorted(col_basis))}
    renumbered = (sorted((position[j], v) for j, v in rows.get(i, {}).items())
                  for i in sorted(row_basis))
    return IntegerMatrix._stored(tuple(tuple(chain.from_iterable(pairs)) for pairs in renumbered),
                                 len(col_basis))


def cohomology_at(complex_: CochainComplex, n: int) -> FgAbelianGroup:
    """ker(d_n)/im(d_{n-1}) as an abelian group in canonical form.

    It is read from ``complex_.reduced()``, the complex with every unit
    pivot cancelled, which has the same cohomology and keeps one
    ``DifferentialRecord`` per reduced differential.  Over F_p nothing is
    left of the differentials, so the answer is F_p to the number of
    surviving basis vectors of C^n.

    Over Z, ker(d_n) is saturated in C^n: C^n/ker(d_n) embeds in the free
    group C^{n+1}.  So the torsion of ker(d_n)/im(d_{n-1}) is the torsion of
    coker(d_{n-1}), whose invariant factors are the elementary divisors of
    d_{n-1}, and the free rank is rank C^n - rank d_n - rank d_{n-1}.  The
    records of d_n and d_{n-1} give them, each from one Bareiss pass and a
    diagonal form modulo its minor N, with no unimodular transform carried.
    """
    if type(n) is not int:
        raise TypeError(f"degree must be int, got {type(n).__name__}")
    if n < 0 or n >= len(complex_.ranks):
        raise ValueError(f"degree {n} outside the constructed range")
    ranks, records = complex_.reduced()
    if complex_.base is not None:
        return FgAbelianGroup(0, [complex_.base] * ranks[n])
    if ranks[n] == 0:
        return FgAbelianGroup()
    rank_out = records[n].rank if n < len(records) else 0
    rank_in, torsion = (records[n - 1].rank, records[n - 1].divisors) if n else (0, ())
    free = ranks[n] - rank_out - rank_in
    if free < 0:
        raise RuntimeError("rank d_n + rank d_{n-1} exceeds rank C^n; d o d != 0?")
    return FgAbelianGroup(free, torsion)
