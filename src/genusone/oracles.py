"""Independent cross-checking oracles.

Everything here deliberately avoids the elimination strategy and the
transform bookkeeping of ``exact_linalg``: ranks and elementary divisors
come from a sparse gcd diagonalization, small invariant factors from
determinantal divisors, rational ranks from fraction elimination, and
cyclic-group cohomology from a truncated bar complex.  The verification
suites assert agreement between these routes and the production ones.

The bar complex stays sparse end to end: each differential is built as
sparse rows {i: {j: v}}, and its F_p rank and elementary divisors are
read from those rows, with no dense matrix in between.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from .cyclic import CyclicAction
from .exact_linalg import CochainComplex, FgAbelianGroup, IntegerMatrix, _is_prime


def _sparse_rows(m: IntegerMatrix) -> dict:
    rows = {}
    data = m.to_lists()
    for i, row in enumerate(data):
        entries = {j: v for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
    return rows


def sparse_diagonal(m: IntegerMatrix) -> list:
    """Elementary divisors of an integer matrix, by sparse elimination.

    Unit pivots are consumed first, chosen to minimize fill-in; they
    never grow coefficients, and on the bar complexes below they remove
    almost everything.  Whatever dense residue is left gets the
    classical gcd reduction.  Returned values are the nonzero diagonal
    entries of a Smith form, ascending.
    """
    return _sparse_rows_diagonal(_sparse_rows(m))


def _sparse_rows_diagonal(rows: dict) -> list:
    """``sparse_diagonal`` on sparse rows {i: {j: v}}, which it consumes."""
    cols = {}
    for i, entries in rows.items():
        for j in entries:
            cols.setdefault(j, set()).add(i)

    ones = 0
    while True:
        best = None
        for i, entries in rows.items():
            weight_row = len(entries) - 1
            for j, v in entries.items():
                if v in (1, -1):
                    fill = weight_row * (len(cols[j]) - 1)
                    if best is None or fill < best[0]:
                        best = (fill, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pi, pj = best
        pivot = rows[pi][pj]
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
        for i in list(cols[pj]):
            target = rows[i]
            q = target[pj] // pivot
            for j, v in prow.items():
                new = target.get(j, 0) - q * v
                if new:
                    if j not in target:
                        cols.setdefault(j, set()).add(i)
                    target[j] = new
                elif j in target:
                    del target[j]
                    cols[j].discard(i)
            if not target:
                del rows[i]
        cols.pop(pj, None)
        ones += 1

    live_rows = sorted(rows)
    live_cols = sorted({j for e in rows.values() for j in e})
    dense = [[rows[i].get(j, 0) for j in live_cols] for i in live_rows]
    diag = [1] * ones + _dense_gcd_diagonal(dense)
    diag = [abs(d) for d in diag if d]
    diag.sort()
    return diag


def _dense_gcd_diagonal(a: list) -> list:
    a = [row[:] for row in a]
    out = []
    while a and a[0]:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        while True:
            _, pi, pj = min(nonzero)
            a[0], a[pi] = a[pi], a[0]
            for row in a:
                row[0], row[pj] = row[pj], row[0]
            pivot = a[0][0]
            for i in range(1, len(a)):
                q = a[i][0] // pivot
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            for j in range(1, len(a[0])):
                q = a[0][j] // pivot
                if q:
                    for row in a:
                        row[j] -= q * row[0]
            if not any(r[0] for r in a[1:]) and not any(a[0][1:]):
                break
            # a remainder survived; it is strictly smaller than the old
            # pivot, so re-selecting the minimum makes progress
            nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        pivot = a[0][0]
        bad = next((i for i in range(1, len(a)) if any(v % pivot for v in a[i])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            continue
        out.append(abs(pivot))
        a = [row[1:] for row in a[1:]]
    return out


def sparse_rank(m: IntegerMatrix) -> int:
    return len(sparse_diagonal(m))


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals by plain fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in m.to_lists()]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def determinantal_invariant_factors(m: IntegerMatrix) -> list:
    """Invariant factors from gcds of k-by-k minors.  Tiny matrices only."""
    if m.rows * m.cols > 64:
        raise ValueError("minor expansion is only sane for tiny matrices")
    data = m.to_lists()
    factors = []
    previous = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = IntegerMatrix([[data[i][j] for j in cols] for i in rows])
                g = math.gcd(g, abs(sub.det()))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


# ---------------------------------------------------------------------------
# truncated bar complex for a finite cyclic group


def _bar_differential(order: int, powers: list, n: int, base=None) -> dict:
    """Sparse rows {i: {j: v}} of d: C^n -> C^(n+1) for the inhomogeneous
    bar cochains, with entries reduced mod ``base`` when it is given.

    C^n is the space of maps G^n -> M, flattened with the tuple index
    major and the coordinate index minor.
    """
    r = powers[0].rows
    blocks = [[(i, j, v) for i, row in enumerate(p.to_lists())
               for j, v in enumerate(row) if v] for p in powers]
    identity = [(c, c, 1) for c in range(r)]
    rows = {}

    def tuple_index(tup):
        idx = 0
        for t in tup:
            idx = idx * order + t
        return idx

    def add_block(row_tup, col_tup, sign, entries=identity):
        base_r = tuple_index(row_tup) * r
        base_c = tuple_index(col_tup) * r
        for i, j, v in entries:
            row = rows.setdefault(base_r + i, {})
            row[base_c + j] = row.get(base_c + j, 0) + sign * v

    for tup in itertools.product(range(order), repeat=n + 1):
        add_block(tup, tup[1:], 1, blocks[tup[0]])
        for i in range(n):
            merged = tup[:i] + ((tup[i] + tup[i + 1]) % order,) + tup[i + 2:]
            add_block(tup, merged, -1 if (i + 1) % 2 else 1)
        add_block(tup, tup[:-1], -1 if (n + 1) % 2 else 1)

    if base is not None:
        rows = {i: {j: v % base for j, v in e.items()} for i, e in rows.items()}
    rows = {i: {j: v for j, v in e.items() if v} for i, e in rows.items()}
    return {i: e for i, e in rows.items() if e}


def bar_cohomology(action: CyclicAction, n: int, base=None) -> FgAbelianGroup:
    """H^n of a cyclic group via the truncated bar complex.

    Free rank is nullity(d_n) - rank(d_{n-1}).  Torsion is read off the
    elementary divisors of d_{n-1}: the quotient of the cochain space by
    the coboundaries has the same torsion as the cohomology because the
    kernel of d_n is saturated and contains the image.

    The rational rank of d_n is computed modulo a prime coprime to the
    group order.  That is exact: the cokernel torsion of a bar
    differential is cohomology one degree up, which the transfer
    argument annihilates by the group order, so no elementary divisor
    has a prime factor outside the group order.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    m = action.order
    powers = [action.power(i) for i in range(m)]
    if base is not None:
        powers = [p.mod(base) for p in powers]
    r = action.rank
    d_out = _bar_differential(m, powers, n, base=base)
    rank_out = _mod_rank_sparse(d_out, _coprime_prime(m) if base is None else base)
    nullity = m ** n * r - rank_out
    if n == 0:
        if base is not None:
            return FgAbelianGroup(0, [base] * nullity)
        return FgAbelianGroup(nullity, [])
    d_in = _bar_differential(m, powers, n - 1, base=base)
    if base is not None:
        rank_in = _mod_rank_sparse(d_in, base)
        return FgAbelianGroup(0, [base] * (nullity - rank_in))
    diag = _sparse_rows_diagonal(d_in)
    return FgAbelianGroup(nullity - len(diag), [d for d in diag if d > 1])


def _coprime_prime(m: int) -> int:
    p = 2
    while not (_is_prime(p) and m % p):
        p += 1
    return p


def _mod_rank_sparse(sparse_rows: dict, p: int) -> int:
    """Rank over F_p of the matrix with sparse rows {i: {j: v}}."""
    rows = {}
    cols = {}
    for i, row in sparse_rows.items():
        entries = {j: v % p for j, v in row.items() if v % p}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    heap = [(len(entries), i) for i, entries in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while rows:
        pi = None
        while heap:
            length, i = heapq.heappop(heap)
            if i in rows and len(rows[i]) == length:
                pi = i
                break
        if pi is None:
            pi = next(iter(rows))
        prow = rows.pop(pi)
        pj = min(prow, key=lambda j: len(cols[j]))
        for j in prow:
            cols[j].discard(pi)
        inv = pow(prow[pj], -1, p)
        prow = {j: (v * inv) % p for j, v in prow.items()}
        for i in list(cols[pj]):
            target = rows[i]
            f = target[pj]
            for j, v in prow.items():
                new = (target.get(j, 0) - f * v) % p
                if new:
                    if j not in target:
                        cols.setdefault(j, set()).add(i)
                    target[j] = new
                elif j in target:
                    del target[j]
                    cols[j].discard(i)
            if not target:
                del rows[i]
            else:
                heapq.heappush(heap, (len(target), i))
        cols.pop(pj, None)
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# randomized ground-truth instances


_SHEAR_COEFFS = (-2, -1, 1, 2)


def _random_unimodular_pair(rng, n: int, ops: int):
    """A unimodular matrix and its exact inverse, built op by op."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if n > 1:
            while j == i:
                j = rng.randrange(n)
        if kind == 0 and n > 1:
            c = rng.choice(_SHEAR_COEFFS)
            for k in range(n):
                m[k][j] += c * m[k][i]
            for k in range(n):
                inv[i][k] -= c * inv[j][k]
        elif kind == 1 and n > 1:
            for k in range(n):
                m[k][i], m[k][j] = m[k][j], m[k][i]
            inv[i], inv[j] = inv[j], inv[i]
        else:
            for k in range(n):
                m[k][i] = -m[k][i]
            inv[i] = [-v for v in inv[i]]
    return IntegerMatrix(m), IntegerMatrix(inv)


def random_known_complex(rng):
    """A three-term complex whose middle cohomology is known by design.

    The middle lattice gets an adapted unimodular basis: some vectors
    span the image (scaled by chosen elementary divisors), some extend
    it to the kernel, the rest are sent out injectively.  The expected
    group is read off the construction, never computed.
    """
    n = rng.randrange(2, 7)
    n_im = rng.randrange(0, n + 1)
    n_free = rng.randrange(0, n - n_im + 1)
    n_out = n - n_im - n_free
    divisors = [rng.choice((1, 1, 2, 2, 3, 4, 6, 12)) for _ in range(n_im)]

    a_cols = n_im + rng.randrange(0, 2)
    b_rows = n_out + rng.randrange(0, 2)

    left, left_inv = _random_unimodular_pair(rng, n, 2 * n)
    v_right, _ = _random_unimodular_pair(rng, a_cols, 2 * a_cols) if a_cols else (IntegerMatrix([], cols=0), None)
    w_left, _ = _random_unimodular_pair(rng, b_rows, 2 * b_rows) if b_rows else (IntegerMatrix([], cols=0), None)

    b0 = [[0] * a_cols for _ in range(n)]
    for idx, d in enumerate(divisors):
        b0[idx][idx] = d
    a0 = [[0] * n for _ in range(b_rows)]
    for idx in range(n_out):
        a0[idx][n_im + n_free + idx] = 1

    incoming = left * IntegerMatrix(b0, cols=a_cols)
    if a_cols:
        incoming = incoming * v_right
    outgoing = IntegerMatrix(a0, cols=n) * left_inv
    if b_rows:
        outgoing = w_left * outgoing

    cx = CochainComplex([a_cols, n, b_rows], [incoming, outgoing])
    expected = FgAbelianGroup(n_free, [d for d in divisors if d > 1])
    return cx, expected


_ORDER_BLOCKS = {
    1: [[1]],
    2: [[-1]],
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[0, -1], [1, 1]],
}


def random_cyclic_action(rng, order: int, max_rank: int = 3) -> CyclicAction:
    """A random integer matrix g with g^order = I and entries in [-2, 2]."""
    allowed = [d for d in _ORDER_BLOCKS if order % d == 0]
    while True:
        rank = rng.randrange(1, max_rank + 1)
        blocks = []
        size = 0
        while size < rank:
            d = rng.choice([d for d in allowed if len(_ORDER_BLOCKS[d]) <= rank - size])
            blocks.append(_ORDER_BLOCKS[d])
            size += len(_ORDER_BLOCKS[d])
        g = [[0] * rank for _ in range(rank)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block):
                for j, v in enumerate(row):
                    g[offset + i][offset + j] = v
            offset += len(block)
        gm = IntegerMatrix(g)
        if rank > 1:
            conj, conj_inv = _random_unimodular_pair(rng, rank, rng.randrange(1, 4))
            gm = conj * gm * conj_inv
        if all(abs(v) <= 2 for row in gm.to_lists() for v in row):
            return CyclicAction(order, gm)
