"""Exact linear algebra over the integers and over prime fields.

Everything in this module works with dense matrices of arbitrary-precision
Python integers; there is deliberately no floating point and no fixed-width
arithmetic anywhere.  The central operations are

* ``cohomology_at``: the isomorphism class of ker(d_n)/im(d_{n-1}) of a
  finite cochain complex, returned as an ``FgAbelianGroup``.  Over Z it
  needs only ranks and the elementary divisors of d_{n-1}, because a
  kernel is a saturated sublattice;
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

import math
from typing import Iterable


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at the sizes we meet."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
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

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerMatrix([[x * other for x in r] for r in self._data],
                                 cols=self.cols)
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        # row i of the product is the sum of a_ij * (row j of other) over the
        # nonzero a_ij, so zero entries cost nothing
        out = []
        for row in self._data:
            acc = [0] * other.cols
            for a, other_row in zip(row, other._data):
                if a:
                    acc = [x + a * y for x, y in zip(acc, other_row)]
            out.append(tuple(acc))
        return IntegerMatrix(out, cols=other.cols)

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
    if minor == 1:
        return rank, ()
    pivots = _diagonal_mod(a, minor)
    orders = [math.gcd(x, minor) for x in pivots] + [minor] * (a.rows - len(pivots))
    factors = FgAbelianGroup(0, orders).invariant_factors
    top = a.rows - rank
    divisors, stripped = factors[:len(factors) - top], factors[len(factors) - top:]
    if stripped != (minor,) * top or minor % math.prod(divisors):
        raise RuntimeError("elementary divisor certificate failed: "
                           f"factors {factors} do not fit the minor {minor}")
    return rank, divisors


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

    ``base`` is None for Z or a prime p for F_p; over F_p the entries are
    stored reduced.
    """

    __slots__ = ("ranks", "differentials", "base")

    def __init__(self, ranks: Iterable[int], differentials: Iterable[IntegerMatrix],
                 base: int | None = None):
        ranks = tuple(int(r) for r in ranks)
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        if base is not None and not _is_prime(base):
            raise ValueError(f"base must be a prime or None, got {base}")
        # reduce while consuming, so an iterator's unreduced matrices are freed one by one
        diffs = tuple(d if base is None else d.mod(base) for d in differentials)
        if len(diffs) != max(len(ranks) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair of degrees")
        for n, d in enumerate(diffs):
            if d.shape != (ranks[n + 1], ranks[n]):
                raise ValueError(f"differential {n} has shape {d.shape}, "
                                 f"expected {(ranks[n + 1], ranks[n])}")
        for n in range(len(diffs) - 1):
            square = diffs[n + 1] * diffs[n]
            if base is not None:
                square = square.mod(base)
            if not square.is_zero():
                raise ValueError(f"d{n + 1} o d{n} is not zero; not a complex")
        self.ranks = ranks
        self.differentials = diffs
        self.base = base

    def differential(self, n: int) -> IntegerMatrix:
        """d_n, zero-extended outside the stored range."""
        if 0 <= n < len(self.differentials):
            return self.differentials[n]
        rows = self.ranks[n + 1] if 0 <= n + 1 < len(self.ranks) else 0
        cols = self.ranks[n] if 0 <= n < len(self.ranks) else 0
        return IntegerMatrix.zeros(rows, cols)

    def top_degree(self) -> int:
        return len(self.ranks) - 1


def cohomology_at(complex_: CochainComplex, n: int) -> FgAbelianGroup:
    """ker(d_n)/im(d_{n-1}) as an abelian group in canonical form.

    Over Z, ker(d_n) is saturated in C^n: C^n/ker(d_n) embeds in the free
    group C^{n+1}.  So the torsion of ker(d_n)/im(d_{n-1}) is the torsion of
    coker(d_{n-1}), whose invariant factors are the elementary divisors of
    d_{n-1}, and the free rank is rank C^n - rank d_n - rank d_{n-1}.  One
    fraction-free elimination per differential gives the ranks; the
    divisors come from a diagonal form modulo a nonzero maximal minor N of
    d_{n-1}, which they divide, so that pass keeps every entry below N.
    Bareiss entries are themselves minors, bounded by Hadamard's
    inequality, and no unimodular transform is carried.  Over F_p only
    ranks are needed and the answer is a direct sum of copies of Z/p.
    """
    if n < 0 or n >= len(complex_.ranks):
        raise ValueError(f"degree {n} outside the constructed range")
    outgoing = complex_.differential(n)
    incoming = complex_.differential(n - 1)
    rank_here = complex_.ranks[n]

    if complex_.base is not None:
        p = complex_.base
        nullity = rank_here - fp_rank(outgoing, p) if rank_here else 0
        dim = nullity - fp_rank(incoming, p)
        return FgAbelianGroup(0, [p] * dim)

    if rank_here == 0:
        return FgAbelianGroup()
    rank_out, _ = bareiss_rank(outgoing)
    rank_in, torsion = elementary_divisors(incoming)
    free = rank_here - rank_out - rank_in
    if free < 0:
        raise RuntimeError("rank d_n + rank d_{n-1} exceeds rank C^n; d o d != 0?")
    return FgAbelianGroup(free, torsion)
