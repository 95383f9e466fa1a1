"""Independent cross-checking oracles.

Everything here deliberately avoids the elimination strategy and the
transform bookkeeping of ``exact_linalg``: ranks and elementary divisors
come from one sparse pivot loop with no dense fallback
(``_sparse_rows_diagonal``), small invariant factors from determinantal
divisors, rational ranks and those divisors' minors from one forward
fraction elimination (``_fraction_pivots``: a rank counts its pivots, a
minor is their signed product), and cyclic-group cohomology from a
truncated bar complex.  The verification suites assert agreement
between these routes and the production ones.

The bar complex is built on normalized cochains, as sparse rows
{i: {j: v}}, and stays sparse end to end.  One elimination routine,
``_sparse_rows_diagonal``, diagonalizes each of its differentials once;
the rational rank, the F_p rank and the elementary divisors are all read
from that diagonal, with no dense matrix in between.  Each differential
d_n is built already transposed, and only on the (n+1)-tuples ending in
the generator g: a cocycle is recovered integrally from its values there,
so the divisors and the F_p rank stay those of d_n.  The coordinates that
the previous unit pivots cover are left out too: those pivots form a
unimodular block, so the dropped columns add nothing to the image (a unit
pivot cancelled as by Kaczynski, Mrozek and Slusarek, 1998).  Both are
proved at ``bar_cohomology``.  The tuple pattern is worked out once per
group order and degree; an action only scatters its matrices into it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

from .cyclic import CyclicAction
from .exact_linalg import CochainComplex, FgAbelianGroup, IntegerMatrix, _require_prime


def _sparse_rows(m: IntegerMatrix) -> dict:
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m.to_lists())}


def sparse_diagonal(m: IntegerMatrix) -> list:
    """Elementary divisors of an integer matrix, by sparse elimination.

    One loop takes one pivot at a time.  Unit pivots come first, in heap
    order: the shortest row holding a +-1 entry, and within it the +-1
    column with the fewest entries.  They need no division, and on the
    bar complexes below they remove almost everything.  When no unit is
    left, the content g of the residue is divided out (every later
    diagonal entry is a multiple of g, and new units may show); a residue
    of content 1 pivots on an entry of least absolute value.  Returned
    values are the nonzero diagonal entries of a Smith form, ascending.
    """
    return _sparse_rows_diagonal(_sparse_rows(m))


def _sparse_rows_diagonal(rows: dict, pivots=None) -> list:
    """``sparse_diagonal`` on sparse rows {i: {j: v}}, which it consumes.

    A pivot v at (i, j) clears column j by floor-division row operations.
    If v is then alone in its column, row i is reduced mod v by column
    operations, which change no other row; if v is then alone in its row
    too, it is a diagonal entry |v| times the content divided out so far.
    A nonzero remainder is smaller than |v| and becomes a later pivot.
    The invariant factors of ``FgAbelianGroup`` turn the entries above 1
    into a divisor chain.

    When a dict ``pivots`` is given, each unit pivot (i, j) taken before
    the heap first runs dry is recorded in it as ``pivots[j] = i``.
    """
    rows = {i: entries for i, entries in rows.items() if entries}
    # cols[j] lists, append-only, every row that has held column j; the
    # list length is an upper bound on the column count
    cols = {}
    for i, entries in rows.items():
        for j in entries:
            cols.setdefault(j, []).append(i)
    # (length, row) entries go stale when a row changes; a changed row is
    # pushed again, and a stale entry is skipped when it is popped
    heap = [(len(entries), i) for i, entries in rows.items()]
    heapq.heapify(heap)
    diagonal, scale = [], 1
    while rows:
        if heap:
            length, pi = heapq.heappop(heap)
            prow = rows.get(pi)
            if prow is None or len(prow) != length:
                continue
            pj, fewest = None, 0  # the first unit column with the fewest listed rows
            for j, v in prow.items():
                if (v == 1 or v == -1) and (pj is None or len(cols[j]) < fewest):
                    pj, fewest = j, len(cols[j])
            if pj is None:
                continue
            if pivots is not None:
                pivots[pj] = pi
        else:
            pivots = None  # only units taken before the heap first runs dry are recorded
            content = math.gcd(*(v for entries in rows.values() for v in entries.values()))
            if content > 1:
                rows = {i: {j: v // content for j, v in e.items()} for i, e in rows.items()}
                heap = sorted((len(entries), i) for i, entries in rows.items())
                scale *= content
                continue
            _, pi, pj = min((abs(v), i, j) for i, e in rows.items() for j, v in e.items())
            prow = rows[pi]
        pivot = prow[pj]
        for i in cols[pj]:
            target = rows.get(i)
            # a stale member (a pivoted or emptied row, or one that lost pj,
            # possibly listed twice) holds no pj now, so it needs no update
            if i == pi or target is None or pj not in target:
                continue
            q = target[pj] // pivot
            for j, v in prow.items():
                new = target.get(j, 0) - q * v
                if new:
                    if j not in target:
                        cols[j].append(i)
                    target[j] = new
                elif j in target:
                    del target[j]
            if target:
                heapq.heappush(heap, (len(target), i))
            else:
                del rows[i]
        if pivot != 1 and pivot != -1:  # a unit leaves no remainder
            if any(pj in rows.get(i, ()) for i in cols[pj] if i != pi):
                continue  # a remainder left in column pj is a smaller pivot
            rest = {j: r for j, v in prow.items() if (r := v % pivot)}
            if rest:
                rows[pi] = {pj: pivot, **rest}
                heapq.heappush(heap, (len(rest) + 1, pi))
                continue
        del rows[pi], cols[pj]
        diagonal.append(abs(pivot) * scale)

    chain = FgAbelianGroup(0, diagonal).invariant_factors
    return [1] * (len(diagonal) - len(chain)) + list(chain)


def _fraction_pivots(rows: list, cols: int) -> tuple[list, int]:
    """Pivots of forward fraction elimination on integer ``rows`` of width
    ``cols``, in order, and the sign of its row swaps."""
    from fractions import Fraction  # kept off the import path of the CLI

    rows = [[Fraction(v) for v in row] for row in rows]
    pivots, sign = [], 1
    for col in range(cols):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        head = rows[top]
        pivots.append(head[col])
        for i in range(top + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / head[col]
                rows[i] = [v - f * w for v, w in zip(rows[i], head)]
    return pivots, sign


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals: the number of fraction-elimination pivots."""
    return len(_fraction_pivots(m.to_lists(), m.cols)[0])


def _fraction_det(rows: list) -> int:
    """Determinant of a square list of integer rows: the signed product of
    its fraction-elimination pivots, 0 if one is missing."""
    pivots, sign = _fraction_pivots(rows, len(rows))
    return sign * int(math.prod(pivots)) if len(pivots) == len(rows) else 0


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
                g = math.gcd(g, abs(_fraction_det([[data[i][j] for j in cols]
                                                    for i in rows])))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


# ---------------------------------------------------------------------------
# truncated bar complex for a finite cyclic group


@lru_cache(maxsize=None)
def _bar_pattern(order: int, n: int) -> tuple:
    """The action-free part of d_n (``_bar_transposed``), per (n+1)-tuple
    ending in 1, in index order: t_0, the block of (t_1..t_n), the identity
    sign summed onto that block, and the other identity blocks with nonzero
    sums."""
    index = {tup: i for i, tup in enumerate(itertools.product(range(1, order), repeat=n))}
    pattern = []
    for head in index:
        tup = head + (1,)
        signs = {index[head]: (-1) ** (n + 1)}
        for i in range(n):
            product = (tup[i] + tup[i + 1]) % order
            if product:
                block = index[tup[:i] + (product,) + tup[i + 2:]]
                signs[block] = signs.get(block, 0) + (-1) ** (i + 1)
        first = index[tup[1:]]
        pattern.append((tup[0], first, signs.pop(first, 0), tuple((b, s) for b, s in signs.items() if s)))
    return tuple(pattern)


def _bar_transposed(order: int, powers: list, n: int, base=None, drop=()) -> dict:
    """Sparse rows {j: {i: v}} of the transpose of d: C^n -> C^(n+1) on the
    normalized bar cochains, restricted to the rows i of d whose tuple ends
    in 1 and without the rows j in ``drop``, each row's columns ascending,
    entries symmetric residues mod ``base`` if given.

    Normalized n-cochains vanish on tuples with an identity entry, so C^n
    holds the maps (G - 1)^n -> M, tuple index major (base m - 1) and
    coordinate minor; i keeps that global numbering.  Row block (t_0..t_n)
    of d holds g^(t_0) on block (t_1..t_n), and signed identities on
    (t_0..t_(n-1)) and on each merged tuple whose product is not the
    identity.
    """
    r = powers[0].rows
    half = base // 2 if base is not None else None  # so that -1 stays a unit pivot
    sign = {s: s if base is None else (s + half) % base - half for s in range(-n - 1, n + 2)}
    out = [None if j in drop else {} for j in range((order - 1) ** n * r)]
    g_rows = {}  # (t, shift): per row c of g^t + shift, its nonzero (column, value) pairs
    for k, (t0, first, shift, terms) in enumerate(_bar_pattern(order, n)):
        i = k * (order - 1) * r  # the global index of row 0 of tuple (.., 1)
        rows = g_rows.get((t0, shift))
        if rows is None:
            rows = g_rows[t0, shift] = []
            for c, row in enumerate(powers[t0].to_lists()):
                row[c] += shift
                if base is not None:
                    row = [(v + half) % base - half for v in row]
                rows.append([(j, v) for j, v in enumerate(row) if v])
        first *= r
        terms = [(b * r, sign[s]) for b, s in terms if sign[s]]
        for c, row in enumerate(rows):
            for j, v in row:
                col = out[first + j]
                if col is not None:
                    col[i] = v
            for b, s in terms:
                col = out[b + c]
                if col is not None:
                    col[i] = s
            i += 1
    return {j: col for j, col in enumerate(out) if col}


def bar_cohomology(action: CyclicAction, n: int, base=None) -> list:
    """[H^0, ..., H^n] of a cyclic group via the normalized bar complex.

    The normalized cochains form a subcomplex of the standard ones that
    is chain homotopy equivalent to it over Z (Brown, *Cohomology of
    Groups*, I.5), and C^i shrinks from m^i r to (m - 1)^i r coordinates.
    Each d_i is built once and diagonalized once by
    ``_sparse_rows_diagonal``; every rank is read from that diagonal.
    Over Z the rank of d_i is the number of divisors, and the torsion of
    H^(i+1) is the divisors above 1: the quotient of the cochain space by
    the coboundaries has the same torsion as the cohomology because the
    kernel of d_(i+1) is saturated and contains the image.  With ``base``
    p the entries are reduced to symmetric residues mod p, and the F_p
    rank of d_i is the number of divisors prime to p, since a Smith form
    over Z reduces to one over F_p.

    Each d_i is built transposed by ``_bar_transposed`` as P d_i, P the
    projection onto the (i+1)-tuples ending in 1, without the columns that
    the unit pivots of P d_(i-1) took; its own unit pivots are kept for
    d_(i+1).  Its divisors over Z, and its F_p rank, stay those of d_i:

    - Lemma: P is injective on the cocycles Z^(i+1), with an integral left
      inverse.  For a cocycle y and an i-tuple s, entry (s, t, 1) of
      dy = 0 reads y(s, t+1) = y(s, t) + (a signed sum of y on tuples
      ending in 1), so y follows from P y by induction on t, over Z and
      mod p.  So P maps Z^(i+1) isomorphically onto a saturated lattice
      (k v = P y gives y / k = L v, L the left inverse); as im d_i lies in
      the saturated Z^(i+1), P d_i has the Smith diagonal of d_i (mod p,
      its rank).
    - Drop: let I (in C^i, among P's rows) and J (in C^(i-1)) be the
      pivot indices of the unit phase on P d_(i-1).  That phase only adds
      multiples of earlier pivot lines to later ones, so the block on
      I x J is triangular with +-1 on its diagonal: d_(i-1)[I, J] is
      unimodular (invertible mod p).  Every x in C^i is d_(i-1)(y) + x'
      with x' zero on I, and d_i(x) = d_i(x'): the columns outside I give
      the same image.  A transpose has the same Smith diagonal.

    Both need d o d = 0, which ``test_bar_differential_squares_to_zero``
    checks over Z and mod 2, 3 and 5.  A negative free rank, which only a
    failure of it can produce, raises RuntimeError.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if base is not None:
        _require_prime("base", base)
    m, r = action.order, action.rank
    powers = [action.power(i) for i in range(m)]
    groups = []
    rank_in, torsion_in = 0, []
    pivots = {}
    for i in range(n + 1):
        rows = _bar_transposed(m, powers, i, base, pivots)
        pivots = {}
        diag = _sparse_rows_diagonal(rows, pivots)
        rank_out = len(diag) if base is None else sum(1 for d in diag if d % base)
        free = (m - 1) ** i * r - rank_out - rank_in
        if free < 0:
            raise RuntimeError(f"rank d_{i} + rank d_{i - 1} exceeds rank C^{i}; "
                               "d o d != 0?")
        if base is None:
            groups.append(FgAbelianGroup(free, torsion_in))
            torsion_in = [d for d in diag if d > 1]
        else:
            groups.append(FgAbelianGroup(0, [base] * free))
        rank_in = rank_out
    return groups


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


def random_cyclic_action(rng, order: int) -> CyclicAction:
    """A random integer matrix g of rank 1..3 with g^order = I and entries in [-2, 2]."""
    allowed = [d for d in _ORDER_BLOCKS if order % d == 0]
    while True:
        rank = rng.randrange(1, 4)
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
