"""The canonical 4-element torsor attached to 2-torsion, and a brute-force
1-cocycle solver for small matrix groups.

Everything here is finite: the module is (Z/4)^2 with 16 elements, the
torsor has 4, and the largest group handled by the cocycle solver is
GL_2(Z/4) with 96 elements.  The solver deliberately writes down the full
|G|^2 system of cocycle equations instead of reducing to generators, so
it can serve as an independent check on the resolution-based machinery.
The torsor functions take the configuration ``build_canonical_torsor``
returns, built once by the caller.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .exact_linalg import _require_prime, fp_rank

MODULUS = 4


def _neg(m: tuple) -> tuple:
    return (-m[0] % MODULUS, -m[1] % MODULUS)


def _class_rep(m: tuple) -> tuple:
    """Canonical representative of {m, -m}, the lexicographic minimum."""
    return min(m, _neg(m))


class TorsorConfiguration(NamedTuple):
    """The doubling cover of (Z/4)^2 and its partitions into two sections.

    ``classes`` lists sign-classes of exact-order-4 elements, each named
    by its lexicographically least member.  ``phi`` sends a class to its
    double, a 2:1 map onto the three order-2 elements.  ``elements`` are
    the partitions of ``phi`` into two sections, each encoded by the part
    containing ``classes[0]``.
    """

    order_four: tuple
    classes: tuple
    two_torsion: tuple
    targets: tuple
    phi: dict
    elements: tuple
    raw_labeling_count: int

    def canonical_part(self, part) -> tuple:
        """Encode a partition, given either part, by the part with classes[0]."""
        part = frozenset(part)
        if self.classes[0] not in part:
            part = frozenset(self.classes) - part
        return tuple(sorted(part))

    def translate_class(self, a: tuple, c: tuple) -> tuple:
        if a not in self.two_torsion:
            raise ValueError(f"{a} is not 2-torsion")
        return _class_rep(((c[0] + a[0]) % MODULUS, (c[1] + a[1]) % MODULUS))

    def translate(self, a: tuple, t: tuple) -> tuple:
        if t not in self.elements:
            raise ValueError(f"{t} is not a torsor element")
        return self.canonical_part(self.translate_class(a, c) for c in t)


def build_canonical_torsor() -> TorsorConfiguration:
    module = tuple((x, y) for x in range(MODULUS) for y in range(MODULUS))
    order_four = tuple(m for m in module if m[0] % 2 or m[1] % 2)
    classes = tuple(sorted({_class_rep(m) for m in order_four}))
    two_torsion = tuple(m for m in module if m[0] % 2 == 0 and m[1] % 2 == 0)
    targets = tuple(t for t in two_torsion if t != (0, 0))
    phi = {c: (2 * c[0] % MODULUS, 2 * c[1] % MODULUS) for c in classes}

    if len(order_four) != 12 or len(classes) != 6 or len(targets) != 3:
        raise AssertionError("doubling-cover counts are off")
    fibers = [tuple(c for c in classes if phi[c] == t) for t in targets]
    if any(len(f) != 2 for f in fibers):
        raise AssertionError("phi is not a 2:1 cover")

    # a section picks one class over each target; the complementary picks
    # form the partner section, and the unordered pair is a torsor element
    raw, elements = 2 ** len(fibers), set()
    for bits in range(raw):
        part = frozenset(f[(bits >> i) & 1] for i, f in enumerate(fibers))
        complement = frozenset(classes) - part
        if classes[0] not in part:
            part = complement
        elements.add(tuple(sorted(part)))
    config = TorsorConfiguration(order_four, classes, two_torsion,
                                 targets, phi, tuple(sorted(elements)), raw)
    if len(config.elements) != 4:
        raise AssertionError("torsor must have 4 elements")
    for a in two_torsion:
        for t in config.elements:
            image = config.translate(a, t)
            if image not in config.elements:
                raise AssertionError("translation left the torsor")
            if sorted(phi[c] for c in image) != list(targets):
                raise AssertionError("translation broke the section property")
    return config


def torsor_translation_orbit(t: tuple, config: TorsorConfiguration) -> dict:
    """Map each 2-torsion translation to its effect on the element t of ``config``."""
    return {a: config.translate(a, t) for a in config.two_torsion}


def torsor_matrix_action(g, config: TorsorConfiguration) -> dict:
    """The permutation of the torsor ``config`` induced by g in GL_2(Z/4)."""
    (a, b), (c, d) = ((x % MODULUS for x in row) for row in g)
    if (a * d - b * c) % 2 == 0:
        raise ValueError("matrix is not invertible mod 4")
    move = lambda m: _class_rep(((a * m[0] + b * m[1]) % MODULUS,
                                 (c * m[0] + d * m[1]) % MODULUS))
    return {t: config.canonical_part(move(cl) for cl in t) for t in config.elements}


def cycle_lengths(perm: dict) -> tuple:
    """Cycle type of a permutation given as a dict, longest first."""
    seen, lengths = set(), []
    for start in perm:
        if start in seen:
            continue
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


class TorsorWitness(NamedTuple):
    permutation: dict
    cycles: tuple

    @property
    def fixed_point_free(self) -> bool:
        return all(image != t for t, image in self.permutation.items())

    @property
    def passed(self) -> bool:
        # a fixed-point-free action means the torsor has no section, which
        # pins its class to the one nonzero element of an order-2 H^1
        return self.fixed_point_free and self.cycles == (4,)


def torsor_nontriviality_witness(config: TorsorConfiguration) -> TorsorWitness:
    """The permutation of the torsor ``config`` by T = ((1, 1), (0, 1)), with its cycles."""
    perm = torsor_matrix_action(((1, 1), (0, 1)), config)
    return TorsorWitness(perm, cycle_lengths(perm))


def _mat_mul(x: tuple, y: tuple, p: int) -> tuple:
    """Product of two square matrices (tuples of rows) over F_p."""
    d = len(x)
    return tuple(tuple(sum(x[r][m] * y[m][c] for m in range(d)) % p
                       for c in range(d)) for r in range(d))


class FiniteGroupData:
    """A finite group as a full multiplication table, acting on F_p^d.

    ``table[i][j]`` is the index of element i times element j; ``action``
    gives one d x d matrix mod p per element.  The identity is the element
    whose row is range(n), and its column must be range(n) too.
    Construction validates the table (identity and inverses in full,
    associativity on seeded random triples) and the action (homomorphism on
    seeded random pairs).  Every shape and index is checked before it is
    read, so bad input raises ValueError, never IndexError.
    """

    __slots__ = ("elements", "table", "action", "p")

    def __init__(self, elements: tuple, table: tuple, action: tuple, p: int):
        self.elements, self.table, self.action, self.p = elements, table, action, p
        _require_prime("p", self.p)
        n = len(self.elements)
        if n < 1:
            raise ValueError("a finite group needs at least one element")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("multiplication table has the wrong shape")
        e = next((i for i, row in enumerate(self.table) if tuple(row) == tuple(range(n))), None)
        if e is None or any(self.table[j][e] != j for j in range(n)):
            raise ValueError("no element acts as the identity")
        for i in range(n):
            if sorted(self.table[i]) != list(range(n)):
                raise ValueError("rows must be permutations (no inverses otherwise)")
        rng = random.Random(0)
        for _ in range(min(500, n ** 3)):
            i, j, k = (rng.randrange(n) for _ in range(3))
            if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                raise ValueError("multiplication table is not associative")
        if len(self.action) != n:
            raise ValueError("need one action matrix per element")
        d = len(self.action[0])
        if any(len(mat) != d or any(len(row) != d for row in mat) for mat in self.action):
            raise ValueError(f"every action matrix must be {d} x {d}")
        if self.action[e] != tuple(tuple(int(r == c) for c in range(d)) for r in range(d)):
            raise ValueError("identity must act as the identity matrix")
        for _ in range(min(500, n * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if _mat_mul(self.action[i], self.action[j], self.p) != self.action[self.table[i][j]]:
                raise ValueError("action is not a homomorphism")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return len(self.action[0])


def gl2_z4_group() -> FiniteGroupData:
    """GL_2(Z/4) by exhaustive enumeration, acting on (Z/2)^2 via reduction.

    The multiplication table is written entry by entry from the product
    formula: ((a, b), (c, d)) is looked up by its base-4 code abcd.
    """
    mats = [((a, b), (c, d)) for a in range(4) for b in range(4)
            for c in range(4) for d in range(4) if (a * d - b * c) % 2]
    if len(mats) != 96:
        raise AssertionError(f"|GL_2(Z/4)| should be 96, got {len(mats)}")
    index = [None] * 256
    for i, ((a, b), (c, d)) in enumerate(mats):
        index[64 * a + 16 * b + 4 * c + d] = i
    table = tuple(
        tuple(index[64 * ((a * e + b * g) % 4) + 16 * ((a * f + b * h) % 4)
                    + 4 * ((c * e + d * g) % 4) + (c * f + d * h) % 4]
              for (e, f), (g, h) in mats)
        for (a, b), (c, d) in mats)
    action = tuple(tuple(tuple(v % 2 for v in row) for row in m) for m in mats)
    return FiniteGroupData(tuple(mats), table, action, 2)


def cyclic_group_data(order: int, matrix, p: int) -> FiniteGroupData:
    """Z/order acting on F_p^d through powers of the given matrix."""
    d = len(matrix)
    matrix = tuple(tuple(v % p for v in row) for row in matrix)
    eye = tuple(tuple(int(r == c) for c in range(d)) for r in range(d))
    powers, current = [eye], eye
    for _ in range(order - 1):
        current = _mat_mul(current, matrix, p)
        powers.append(current)
    if _mat_mul(current, matrix, p) != eye:
        raise ValueError(f"matrix order does not divide {order}")
    table = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    return FiniteGroupData(tuple(range(order)), table, tuple(powers), p)


def _rank_f2(rows) -> int:
    """Rank of a bitmask matrix over F_2, incremental reduction."""
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def _f2_cocycle_columns(group: FiniteGroupData) -> list:
    """The F_2 cocycle equations, one bitmask per unknown (``h1_one_cocycles``).

    Equation (i, j, r) is bit (i n + j) d + r; unknown (x, s), entry s of
    c(x), is the XOR of one mask per term: c(i) with i = x, g_i c(j) with
    j = x, and c(ij) with ij = x, one j per i.
    """
    n, d = group.order, group.dim
    width = n * n * d

    def bits(positions) -> int:
        mask = bytearray((width + 7) // 8)
        for pos in positions:
            mask[pos >> 3] |= 1 << (pos & 7)
        return int.from_bytes(mask, "little")

    stride = sum(1 << j * d for j in range(n))
    act_mask = [bits(i * n * d + r for i in range(n) for r in range(d)
                     if group.action[i][r][s]) for s in range(d)]
    # inverse[i][x] is the j with table[i][j] = x
    inverse = [sorted(range(n), key=row.__getitem__) for row in group.table]
    cols = []
    for x in range(n):
        kmask = bits((i * n + inverse[i][x]) * d for i in range(n))
        for s in range(d):
            cols.append((stride << x * n * d + s) ^ (act_mask[s] << x * d) ^ (kmask << s))
    return cols


def h1_one_cocycles(group: FiniteGroupData) -> int:
    """dim Z^1 - dim B^1 over F_p, from the full |G|^2 system of equations.

    Unknowns are the |G| * d values of a map c: G -> F_p^d; each pair
    (g, h) imposes c(gh) = c(g) + g.c(h).  Coboundaries are the maps
    g |-> (g - 1)v.

    Over F_2 all |G|^2 d equations are stored transposed, one bitmask per
    unknown, assembled by blocks (``_f2_cocycle_columns``): |G| d long rows
    instead of |G|^2 d short ones, so ``_rank_f2`` keeps at most |G| d
    pivots.  A matrix and its transpose have equal rank over any field.

    The ranks come from ``_rank_f2`` and ``exact_linalg.fp_rank``, a
    dense reference that the engine never calls (its F_p route is the
    unit-pivot reduction): the solver is an independent check on the
    resolution-based engine (the ``torsor`` suite compares it with the
    periodic-resolution H^1), so it shares no elimination code with it.
    """
    n, d, p = group.order, group.dim, group.p
    width = n * d
    # the coboundaries of the basis vectors v: entry (i, r) of g_i v - v
    brows = [[(act[r][v] - (r == v)) % p for act in group.action for r in range(d)]
             for v in range(d)]
    if p == 2:
        dim_z1 = width - _rank_f2(_f2_cocycle_columns(group))
        dim_b1 = _rank_f2(sum(c << e for e, c in enumerate(row)) for row in brows)
    else:
        rows = []
        for i in range(n):
            act = group.action[i]
            for j in range(n):
                k = group.table[i][j]
                for r in range(d):
                    coeff = [0] * width
                    coeff[k * d + r] += 1
                    coeff[i * d + r] -= 1
                    for s in range(d):
                        coeff[j * d + s] -= act[r][s]
                    rows.append(coeff)
        dim_z1 = width - fp_rank(rows, p)
        dim_b1 = fp_rank(brows, p)
    return dim_z1 - dim_b1
