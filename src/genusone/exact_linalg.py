"""Exact linear algebra over the integers and over prime fields.

Matrices are dense ``IntegerMatrix`` values of arbitrary-precision Python
integers.  Work that should cost in proportion to the nonzero entries
reads a matrix as sparse rows: the matrix product and the d o d check of a
``CochainComplex``, which forms the composite one row at a time and never
builds it, take (column, value) pairs (``IntegerMatrix.sparse_rows``), and
the unit-pivot reduction of a complex keeps its rows as dicts.  There is
deliberately no floating point and no fixed-width arithmetic anywhere.
The central operations are

* ``cohomology_at``: the isomorphism class of ker(d_n)/im(d_{n-1}) of a
  finite cochain complex, returned as an ``FgAbelianGroup``.  It reads the
  complex reduced on its unit pivots (``CochainComplex.reduced``): each
  +-1 of a differential, or each nonzero residue over F_p, pairs two basis
  vectors whose span is an acyclic summand, and cancelling the pair leaves
  a homotopy equivalent complex (Gaussian elimination on chain complexes,
  Kaczynski, Mrozek and Slusarek 1998; the argument is at
  ``_reduce_on_units``).  Over F_p nothing is left of the differentials.
  Over Z each reduced differential keeps one ``DifferentialRecord``: its
  shape, its rank and a nonzero maximal minor N from one Bareiss pass,
  and, once it is read as an incoming map, its elementary divisors from
  that N.  The torsion of H^n needs only the divisors of d_{n-1}, because
  a kernel is a saturated sublattice;
* ``bareiss_rank``: rank and a nonzero maximal minor N by fraction-free
  elimination, whose entries are minors and so stay within Hadamard's bound;
* ``elementary_divisors``: the divisors above 1 from a diagonal form modulo
  N, which they all divide, so no coefficient exceeds N (the mod-determinant
  method of Hafner and McCurley);
* ``smith_normal_form``: U * A * V = D with unimodular U, V and a diagonal
  whose entries form a divisibility chain, certified before it returns.
  It is the dense reference the divisor route is tested against.

Groups are always reduced to canonical invariant-factor form, so equality
of ``FgAbelianGroup`` values is isomorphism of the groups they denote.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, NamedTuple


#: the first 13 primes; as Miller-Rabin bases they decide primality exactly
#: below _PRIME_TEST_LIMIT (Sorenson and Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
#: _factor trial-divides up to here; a larger cofactor must be prime
_TRIAL_DIVISION_LIMIT = 10 ** 6


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above the exact range.

    >>> [q for q in range(30) if _is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> _is_prime(10 ** 18 + 3), _is_prime(1_000_003 * 1_000_033)
    (True, False)
    """
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"only integers below {_PRIME_TEST_LIMIT} are tested")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
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
    """Immutable dense matrix of Python ints.

    Degenerate shapes (zero rows or zero columns) are allowed and behave
    correctly under multiplication; they show up as the boundary maps of
    truncated complexes.

    >>> m = IntegerMatrix([[1, 2], [3, 4]])
    >>> (m * m)[0]
    (7, 10)
    >>> IntegerMatrix.identity(2) * m == m
    True
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        table = [tuple(row) for row in data]
        self.rows = len(table)
        if table:
            width = len(table[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row data")
            self.cols = width
        else:
            if cols is None:
                raise ValueError("a matrix with no rows needs an explicit column count")
            self.cols = cols
        for row in table:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        self._data = tuple(table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_blocks(cls, grid: list[list["IntegerMatrix"]]) -> "IntegerMatrix":
        """Assemble a block matrix; blocks in a row share heights, in a column widths."""
        data: list[list[int]] = []
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ValueError("inconsistent block heights")
            for i in range(height):
                data.append(tuple(x for b in block_row for x in b[i]))
        cols = sum(b.cols for b in grid[0]) if grid else 0
        return cls(data, cols=cols)

    # -- access ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def sparse_rows(self) -> list[list[tuple[int, int]]]:
        """Each row as its (column, value) pairs with value != 0, in column order."""
        return [[(j, x) for j, x in enumerate(row) if x] for row in self._data]

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerMatrix([[x * other for x in r] for r in self._data],
                                 cols=self.cols)
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        right = other.sparse_rows()
        return IntegerMatrix((_row_product(row, right, other.cols)
                              for row in self.sparse_rows()), cols=other.cols)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntegerMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(self._data, other._data)],
                             cols=self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntegerMatrix([[-x for x in r] for r in self._data], cols=self.cols)

    def __pow__(self, k: int):
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if k < 0:
            raise ValueError("negative powers not supported")
        result = IntegerMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def transpose(self) -> "IntegerMatrix":
        if self.rows == 0:
            return IntegerMatrix([[] for _ in range(self.cols)], cols=0)
        return IntegerMatrix(list(zip(*self._data)), cols=self.rows)

    def mod(self, p: int) -> "IntegerMatrix":
        """Entries reduced into [0, p); a matrix already reduced is returned as is."""
        if all(min(r, default=0) >= 0 and max(r, default=0) < p for r in self._data):
            return self
        return IntegerMatrix(([x % p for x in r] for r in self._data), cols=self.cols)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._data for x in r)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == (1 if i == j else 0) for i, r in enumerate(self._data) for j, x in enumerate(r))

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.cols == other.cols
                and self._data == other._data)

    def __hash__(self):
        return hash((self.cols, self._data))

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self._data]!r})"


def _row_product(row: list[tuple[int, int]], right: list[list[tuple[int, int]]],
                 width: int) -> list[int]:
    """The row vector ``row`` times the matrix ``right``, both as sparse rows.

    Row i of A * B is the sum of a_ij * (row j of B) over the nonzero a_ij,
    so a product a_ij * b_jc is formed only when both factors are nonzero.
    """
    acc = [0] * width
    for j, a in row:
        for c, v in right[j]:
            acc[c] += a * v
    return acc


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

    def row_add(i, k, q):
        for mat in (d, u):
            rk = mat[k]
            mat[i] = [p + q * r for p, r in zip(mat[i], rk)]

    def row_swap(i, k):
        for mat in (d, u):
            mat[i], mat[k] = mat[k], mat[i]

    def row_negate(i):
        for mat in (d, u):
            mat[i] = [-x for x in mat[i]]

    def col_add(j, k, q):
        # col_j += q * col_k on d and v
        for mat in (d, v):
            for row in mat:
                row[j] += q * row[k]

    def col_swap(j, k):
        for mat in (d, v):
            for row in mat:
                row[j], row[k] = row[k], row[j]

    def col_combine(j, k, x, y, z, w):
        # (col_j, col_k) <- (x*col_j + y*col_k, z*col_j + w*col_k), det(x*w - y*z) == 1
        for mat in (d, v):
            for row in mat:
                cj, ck = row[j], row[k]
                row[j] = x * cj + y * ck
                row[k] = z * cj + w * ck

    def clear_column(t):
        for i in range(t + 1, m):
            b = d[i][t]
            if b == 0:
                continue
            p = d[t][t]
            if b % p == 0:
                row_add(i, t, -(b // p))
            else:
                g, x, y = _xgcd(p, b)
                row_combine(t, i, x, y, -(b // g), p // g)

    def clear_row(t):
        for j in range(t + 1, n):
            b = d[t][j]
            if b == 0:
                continue
            p = d[t][t]
            if b % p == 0:
                col_add(j, t, -(b // p))
            else:
                g, x, y = _xgcd(p, b)
                col_combine(t, j, x, y, -(b // g), p // g)

    t = 0
    limit = min(m, n)
    while t < limit:
        # pick the smallest nonzero entry of the trailing submatrix as pivot
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pos = (i, j)
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        while True:
            clear_column(t)
            clear_row(t)
            if all(d[i][t] == 0 for i in range(t + 1, m)):
                # pivot must divide the whole trailing submatrix or the
                # diagonal will not form a chain
                offender = None
                piv = d[t][t]
                for i in range(t + 1, m):
                    row = d[i]
                    for j in range(t + 1, n):
                        if row[j] % piv:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_add(t, offender, 1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1
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
    diag = [dm[i][i] for i in range(min(a.rows, a.cols))]
    for i in range(len(diag) - 1):
        if diag[i] < 0 or (diag[i + 1] % diag[i] if diag[i] else diag[i + 1]):
            raise RuntimeError("Smith normal form certificate failed: bad diagonal")
    off = any(dm[i][j] for i in range(a.rows) for j in range(a.cols) if i != j)
    if off:
        raise RuntimeError("Smith normal form certificate failed: off-diagonal entry")
    return um, dm, vm


def bareiss_rank(a: IntegerMatrix) -> tuple[int, int]:
    """Rank r of ``a`` and N = |last pivot| of fraction-free elimination.

    After the t-th Bareiss step every live entry is a (t+1) x (t+1) minor of
    ``a``, so coefficients stay within Hadamard's bound and each division by
    the previous pivot is exact; an inexact one raises RuntimeError.  N is a
    nonzero r x r minor, hence a multiple of the product of the elementary
    divisors.  The zero matrix has r = 0 and N = 1.
    """
    rows = [list(row) for row in a if any(row)]
    rank, prev = 0, 1
    while rows and rows[0]:
        live = [i for i, row in enumerate(rows) if row[0]]
        if not live:
            rows = [row[1:] for row in rows]
            continue
        pivot_row = rows.pop(min(live, key=lambda i: abs(rows[i][0])))
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
    return rank, abs(prev)


def _diagonal_mod(a: IntegerMatrix, modulus: int) -> list[int]:
    """Pivots, each in [1, modulus), of a diagonal form of ``a`` over Z/modulus.

    Row and column operations are unimodular and every entry is kept reduced
    into [0, modulus).  The pivot of a stage only shrinks when it has to be
    replaced by a gcd, so each stage ends; no divisibility chain is enforced.
    Diagonal positions past the returned pivots are 0 modulo ``modulus``.
    """
    m = [[x % modulus for x in row] for row in a]
    m = [row for row in m if any(row)]
    pivots = []
    while m:
        best = None
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        _, i, j = best
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


def elementary_divisors(a: IntegerMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank r of ``a`` and its elementary divisors above 1, ascending.

    The divisors s_1 | ... | s_r multiply to the gcd of the r x r minors, so
    each divides the minor N from ``bareiss_rank``.  Hence
    Z^rows / (im a + N Z^rows) is Z/s_1 + ... + Z/s_r + (Z/N)^(rows - r),
    which a diagonal form modulo N computes with entries below N.  The top
    rows - r invariant factors of that group are N and are stripped.
    """
    rank, minor = bareiss_rank(a)
    return rank, _divisors_mod_minor(a, rank, minor)


def _divisors_mod_minor(a: IntegerMatrix, rank: int, minor: int) -> tuple[int, ...]:
    """The divisor pass of ``elementary_divisors``, given ``bareiss_rank(a)``."""
    if minor == 1:
        return ()
    pivots = _diagonal_mod(a, minor)
    orders = [math.gcd(x, minor) for x in pivots] + [minor] * (a.rows - len(pivots))
    factors = FgAbelianGroup(0, orders).invariant_factors
    top = a.rows - rank
    divisors, stripped = factors[:len(factors) - top], factors[len(factors) - top:]
    if stripped != (minor,) * top or minor % math.prod(divisors):
        raise RuntimeError("elementary divisor certificate failed: "
                           f"factors {factors} do not fit the minor {minor}")
    return divisors


def snf_diagonal(a: IntegerMatrix) -> list[int]:
    """Just the diagonal of the Smith normal form."""
    rank, divisors = elementary_divisors(a)
    return ([1] * (rank - len(divisors)) + list(divisors)
            + [0] * (min(a.rows, a.cols) - rank))


def fp_rank(rows: Iterable[Iterable[int]], p: int) -> int:
    """Rank over F_p of a matrix given as an iterable of integer rows."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
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
    ``FgAbelianGroup(0, [4, 3]) == FgAbelianGroup(0, [12])``.

    >>> FgAbelianGroup(1, [2, 6]).render()
    'Z + Z/2 + Z/6'
    >>> FgAbelianGroup(0, [2, 2, 2, 2, 3]).invariant_factors
    (2, 2, 2, 6)
    >>> str(FgAbelianGroup())
    '0'
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int = 0, cyclic_orders: Iterable[int] = ()):
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        orders = [order for order in cyclic_orders if order != 1]
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

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def torsion_order(self) -> int:
        return math.prod(self.invariant_factors)

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        rank = self.free_rank + sum(g.free_rank for g in others)
        orders = list(self.invariant_factors)
        for g in others:
            orders.extend(g.invariant_factors)
        return FgAbelianGroup(rank, orders)

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
    if not groups:
        return FgAbelianGroup()
    return groups[0].direct_sum(*groups[1:])


def inverted_primes(inverted: Iterable[int]) -> tuple[int, ...]:
    """The primes dividing some member of ``inverted``, ascending.

    >>> inverted_primes([4, 6])
    (2, 3)
    """
    primes: set[int] = set()
    for n in inverted:
        if n < 2:
            raise ValueError("can only invert integers >= 2")
        primes.update(_factor(n))
    return tuple(sorted(primes))


def localize(group: FgAbelianGroup, inverted: Iterable[int]) -> FgAbelianGroup:
    """Strip the primary parts at every prime dividing a member of ``inverted``.

    This is the effect on isomorphism classes of tensoring with the subring
    of Q in which those integers become units.  Total on any input.
    """
    primes = inverted_primes(inverted)
    stripped = []
    for f in group.invariant_factors:
        for q in primes:
            while f % q == 0:
                f //= q
        stripped.append(f)
    return FgAbelianGroup(group.free_rank, stripped)


class ModPDims(tuple):
    """Pair (dim of G tensor F_p, dim of the p-torsion G[p])."""
    __slots__ = ()

    def __new__(cls, dim_tensor, dim_torsion):
        return super().__new__(cls, (dim_tensor, dim_torsion))

    @property
    def dim_tensor(self):
        return self[0]

    @property
    def dim_torsion(self):
        return self[1]


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


def group_from_json(obj: dict) -> FgAbelianGroup:
    return FgAbelianGroup(obj["free_rank"], obj["invariant_factors"])


class CochainComplex:
    """A finite cochain complex over Z or over a prime field.

    ``ranks[n]`` is the rank of the degree-n term; ``differentials[n]`` maps
    degree n to degree n+1 and therefore has shape ranks[n+1] x ranks[n].
    The complex is zero outside the stored range.  d(n+1) o d(n) == 0 is
    checked at construction and construction fails otherwise.

    The check takes each distinct differential as sparse rows once (the
    amalgam complex passes D_1 and D_3 as one object) and forms each row
    of d(n+1) o d(n) as the sum of a * (row j of d(n)) over the nonzero
    entries a = d(n+1)[i][j], in exact integer arithmetic.  A row fails if
    it is nonzero over Z, or has an entry not divisible by p over F_p; it is
    dropped once seen to vanish, so the product matrix is never built.
    Skipping zero entries changes no sum, so the check is exactly the test
    that the product is zero.  It stays on these unreduced differentials:
    the unit-pivot reduction that ``cohomology_at`` reads from (``reduced``)
    relies on d o d = 0 to drop a row, so a defect can vanish from the
    reduced complex (see ``_reduce_on_units``).

    ``base`` is None for Z or a prime p for F_p; over F_p the entries are
    stored reduced.
    """

    __slots__ = ("ranks", "differentials", "base", "_reduced")

    def __init__(self, ranks: Iterable[int], differentials: Iterable[IntegerMatrix],
                 base: int | None = None):
        ranks = tuple(int(r) for r in ranks)
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
        # keyed by identity, so a differential passed twice is converted once
        sparse = {}
        for d in diffs:
            if id(d) not in sparse:
                sparse[id(d)] = d.sparse_rows()
        for n in range(len(diffs) - 1):
            right = sparse[id(diffs[n])]
            for row in sparse[id(diffs[n + 1])]:
                acc = _row_product(row, right, ranks[n])
                if any(acc) and (base is None or any(x % base for x in acc)):
                    raise ValueError(f"d{n + 1} o d{n} is not zero; not a complex")
        self.ranks = ranks
        self.differentials = diffs
        self.base = base
        self._reduced = None

    def differential(self, n: int) -> IntegerMatrix:
        """d_n, zero-extended outside the stored range."""
        if 0 <= n < len(self.differentials):
            return self.differentials[n]
        rows = self.ranks[n + 1] if 0 <= n + 1 < len(self.ranks) else 0
        cols = self.ranks[n] if 0 <= n < len(self.ranks) else 0
        return IntegerMatrix.zeros(rows, cols)

    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def reduced(self) -> "ReducedComplex":
        """The complex reduced on its unit pivots, computed on first use."""
        if self._reduced is None:
            self._reduced = _reduce_on_units(self.ranks, self.differentials, self.base)
        return self._reduced


class DifferentialRecord:
    """What cohomology reads from one reduced differential, each part once.

    ``shape`` is the shape of the reduced differential.  Its rank and a
    nonzero maximal minor N come from one ``bareiss_rank`` when first asked
    for, and its elementary divisors from that N when the map is first read
    as an incoming map.  The matrix itself is released once both are known.
    """

    __slots__ = ("shape", "_matrix", "_rank_minor", "_divisors")

    def __init__(self, matrix: IntegerMatrix):
        self.shape = matrix.shape
        self._matrix = matrix
        self._rank_minor = None
        self._divisors = None

    def _bareiss(self) -> tuple[int, int]:
        if self._rank_minor is None:
            self._rank_minor = bareiss_rank(self._matrix)
        return self._rank_minor

    @property
    def rank(self) -> int:
        return self._bareiss()[0]

    @property
    def divisors(self) -> tuple[int, ...]:
        if self._divisors is None:
            self._divisors = _divisors_mod_minor(self._matrix, *self._bareiss())
            self._matrix = None
        return self._divisors


class ReducedComplex(NamedTuple):
    """A cochain complex after every unit pivot has been cancelled.

    ``records[n]`` holds the reduced d_n, and ``ranks[n]``, the number of
    surviving basis vectors of C^n, is read off the records' shapes.  Its
    cohomology is that of the complex it came from.
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
    The last step is why d o d is checked before reducing: if d_n d_{n-1}
    were nonzero, c would be the defect, and dropping row j discards it, so
    the reduced complex can satisfy d o d = 0 where the original does not.

    Pivots are taken within each d_n, n ascending (``_cancel_units``).
    Cancelling in d_n only deletes entries of d_{n-1} and d_{n+1}, so no
    unit is left anywhere at the end.  The deletions are bookkeeping on the
    surviving bases: d_{n+1} is read without its cancelled columns, and
    d_{n-1}, kept as dense rows after its own pass, drops its rows during
    the pass over d_n and is recorded after it.  Over F_p every entry is a
    unit, so every reduced differential is zero.
    """
    alive = [set(range(r)) for r in ranks]
    records = []
    lower = None  # d_{n-1} after its pass, as dense rows {i: row}
    for n, d in enumerate(differentials):
        live = alive[n]
        rows = {}
        for i, row in enumerate(d):
            entries = {j: v for j, v in enumerate(row) if v and j in live}
            if entries:
                rows[i] = entries
        for i, j in _cancel_units(rows, base):
            if lower is not None:
                del lower[j]
            alive[n].discard(j)
            alive[n + 1].discard(i)
        if base is not None and rows:
            raise RuntimeError("unit reduction over F_p left a nonzero differential")
        if lower is not None:
            records.append(DifferentialRecord(IntegerMatrix(lower.values(),
                                                            cols=len(alive[n - 1]))))
        lower = _dense_rows(rows, alive[n + 1], alive[n])
    if lower is None:
        return ReducedComplex(ranks, ())
    records.append(DifferentialRecord(IntegerMatrix(lower.values(), cols=len(alive[-2]))))
    return ReducedComplex((records[0].shape[1],) + tuple(r.shape[0] for r in records),
                          tuple(records))


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


def _dense_rows(rows: dict, row_basis: set, col_basis: set) -> dict:
    """Sparse rows as dense tuples {i: row} over the surviving bases, in order.

    Zero rows share one tuple, and ``IntegerMatrix`` keeps tuples as they are.
    """
    position = {j: t for t, j in enumerate(sorted(col_basis))}
    zero = (0,) * len(position)
    dense = {}
    for i in sorted(row_basis):
        if i in rows:
            row = list(zero)
            for j, v in rows[i].items():
                row[position[j]] = v
            dense[i] = tuple(row)
        else:
            dense[i] = zero
    return dense


def cohomology_at(complex_: CochainComplex, n: int) -> FgAbelianGroup:
    """ker(d_n)/im(d_{n-1}) as an abelian group in canonical form.

    It is read from ``complex_.reduced()``, the complex with every unit
    pivot cancelled, which has the same cohomology and whose records hold
    each differential's invariants once computed.  Over F_p nothing is
    left of the differentials, so the answer is F_p to the number of
    surviving basis vectors of C^n.

    Over Z, ker(d_n) is saturated in C^n: C^n/ker(d_n) embeds in the free
    group C^{n+1}.  So the torsion of ker(d_n)/im(d_{n-1}) is the torsion of
    coker(d_{n-1}), whose invariant factors are the elementary divisors of
    d_{n-1}, and the free rank is rank C^n - rank d_n - rank d_{n-1}.  One
    fraction-free elimination per reduced differential gives its rank and
    a nonzero maximal minor N; the divisors come from a diagonal form
    modulo N, which they divide, so that pass keeps every entry below N.
    Bareiss entries are themselves minors, bounded by Hadamard's
    inequality, and no unimodular transform is carried.
    """
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
