"""Frozen reference tables, transcribed verbatim from the published
low-degree computations that this engine is built to reproduce.

These values are comparison data, never inputs to any computation.  Two
entries disagree with the engine and with every independent recomputation
performed while building it (a generator-relation cocycle count and a
Mayer-Vietoris argument, besides the mapping-cone pipeline itself):

* the symmetric-power grid at (k, p) = (4, 1): transcribed Z + Z/6,
  recomputed Z + Z/12 (the 2-part is Z/4, not Z/2; the three routes agree
  and the Mayer-Vietoris route pins the 2-part without any extension
  ambiguity);
* the degree-9 complement row, which inherits the same cell through the
  direct sum over the page: transcribed Z + (Z/2)^4 + Z/3, recomputed
  Z + (Z/2)^3 + Z/4 + Z/3.

Both are kept verbatim: this module records the literals, and the strict
comparison suites are expected to flag exactly these two cells.
"""

from __future__ import annotations

from .exact_linalg import FgAbelianGroup


def _g(free_rank: int = 0, *orders: int) -> FgAbelianGroup:
    return FgAbelianGroup(free_rank, orders)


#: columns: p = 0, p = 1, even p >= 2, odd p >= 3
PUBLISHED_SL2Z_GRID = {
    0: (_g(1), _g(), _g(0, 4, 3), _g()),
    1: (_g(), _g(), _g(0, 2), _g()),
    2: (_g(), _g(1, 2), _g(), _g(0, 2, 2)),
    3: (_g(), _g(0, 2), _g(0, 2), _g(0, 2)),
    4: (_g(), _g(1, 2, 3), _g(0, 4), _g(0, 2, 2, 3)),
}

PUBLISHED_M11 = (_g(1), _g(), _g(0, 12), _g(), _g(0, 12), _g())

PUBLISHED_COMPLEMENT = (
    _g(), _g(), _g(), _g(),
    _g(0, 2),
    _g(1, 2),
    _g(0, 2),
    _g(0, 2, 2, 2),
    _g(0, 2, 2),
    _g(1, 2, 2, 2, 2, 3),
)

MAX_GRID_K = max(PUBLISHED_SL2Z_GRID)


def published_sl2z(k: int, p: int) -> FgAbelianGroup:
    """The transcribed value of H^p(SL2(Z), Sym^k), using 2-periodicity in p."""
    if k not in PUBLISHED_SL2Z_GRID:
        raise KeyError(f"reference grid stops at k = {MAX_GRID_K}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    row = PUBLISHED_SL2Z_GRID[k]
    if p <= 1:
        return row[p]
    return row[2] if p % 2 == 0 else row[3]


def published_m11(n: int) -> FgAbelianGroup:
    if not 0 <= n < len(PUBLISHED_M11):
        raise KeyError(f"reference row stops at n = {len(PUBLISHED_M11) - 1}")
    return PUBLISHED_M11[n]


def published_complement(n: int) -> FgAbelianGroup:
    if not 0 <= n < len(PUBLISHED_COMPLEMENT):
        raise KeyError(f"reference row stops at n = {len(PUBLISHED_COMPLEMENT) - 1}")
    return PUBLISHED_COMPLEMENT[n]
