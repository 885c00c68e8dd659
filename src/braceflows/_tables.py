"""Dense index tables: the one all-pairs builder and the exhaustive checks.

Elements are packed into indices 0..N-1 (mixed radix, see PGroup.encode);
a binary operation becomes an (N, N) int64 table of result indices.

Carriers of at most TABLE_THRESHOLD elements get their tables from
build_table, which evaluates a batched operation on (..., rank) coordinate
arrays in row blocks: a block of left arguments shaped (R, 1, rank) against
every right argument shaped (1, N, rank).  Batched operations come from the
algebra itself (PreLieRing.dot_many, FlowContext.circ_many,
Brace.circ_many); pointwise_many adapts a pointwise closure.

Coordinates are int64 only when coord_dtype proves that every intermediate
of the batched kernels fits; otherwise the same code runs on dtype=object
Python ints.  The checks below are exact: pure table gathers plus
coordinatewise modular integer arithmetic, evaluated over every tuple.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .groups import Element, PGroup

__all__ = [
    "TABLE_THRESHOLD",
    "IndexContext",
    "coord_dtype",
    "element_coords",
    "encode_many",
    "pointwise_many",
    "build_table",
    "check_identity",
    "check_associativity",
    "check_solvability",
    "check_left_brace_law",
    "check_prelie_symmetry",
    "check_additivity_steps",
]

# Largest carrier that gets a dense (N, N) table.
TABLE_THRESHOLD = 4096
# Pairs evaluated at once by build_table.
BLOCK_PAIRS = 1 << 20

Many = Callable[[np.ndarray, np.ndarray], np.ndarray]


def coord_dtype(modulus: int, rank: int):
    """int64 when rank**2 products of two residues below `modulus`, plus one
    more residue, stay below 2**63; Python ints (dtype=object) otherwise."""
    if rank * rank * (modulus - 1) ** 2 + modulus < 1 << 63:
        return np.int64
    return object


@lru_cache(maxsize=64)
def element_coords(group: PGroup) -> np.ndarray:
    """Every element of a table-sized carrier as one row of a read-only
    (N, rank) int64 array, row i being group.decode(i)."""
    moduli = np.array(group.moduli, dtype=np.int64)
    strides = np.array(group.strides, dtype=np.int64)
    coords = (np.arange(group.order, dtype=np.int64)[:, None] // strides) % moduli
    coords.flags.writeable = False
    return coords


def encode_many(group: PGroup, coords: np.ndarray) -> np.ndarray:
    """Encoded indices of canonical (..., rank) coordinate arrays."""
    return np.asarray(coords, dtype=np.int64) @ np.array(group.strides, dtype=np.int64)


class IndexContext:
    """Coordinate matrix and encode/decode helpers for one group."""

    def __init__(self, group: PGroup):
        self.group = group
        self.coords = element_coords(group)
        self.moduli = np.array(group.moduli, dtype=np.int64)
        self.strides = np.array(group.strides, dtype=np.int64)

    def encode(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self.strides

    def add_index(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.encode((self.coords[i] + self.coords[j]) % self.moduli)


def pointwise_many(op: Callable[[Element, Element], Element]) -> Many:
    """Batched form of a pointwise operation: op on every broadcast pair,
    one Python call each.  For closures with no batched evaluator."""
    def op_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape, dtype=object)
        for idx in np.ndindex(a.shape[:-1]):
            out[idx] = op(tuple(int(v) for v in a[idx]),
                          tuple(int(v) for v in b[idx]))
        return out
    return op_many


def build_table(group: PGroup, op_many: Many) -> np.ndarray:
    """Dense (N, N) table of encoded results of a batched binary operation.

    Rows go in blocks of at most BLOCK_PAIRS pairs; op_many receives the
    block's left arguments as (R, 1, rank) and all right arguments as
    (1, N, rank), and returns canonical (R, N, rank) coordinates.
    """
    n = group.order
    coords = element_coords(group)
    table = np.empty((n, n), dtype=np.int64)
    rows = max(1, BLOCK_PAIRS // n)
    right = coords[None, :, :]
    for start in range(0, n, rows):
        left = coords[start:start + rows, None, :]
        table[start:start + rows] = encode_many(group, op_many(left, right))
    return table


def _first_bad(mask: np.ndarray) -> tuple[int, int] | None:
    bad = np.argwhere(mask)
    if bad.size == 0:
        return None
    return int(bad[0][0]), int(bad[0][1])


def check_identity(table: np.ndarray) -> int | None:
    """Index 0 (the zero tuple) must be two-sided neutral."""
    n = table.shape[0]
    idx = np.arange(n)
    bad = np.nonzero(table[0] != idx)[0]
    if bad.size:
        return int(bad[0])
    bad = np.nonzero(table[:, 0] != idx)[0]
    if bad.size:
        return int(bad[0])
    return None


def check_associativity(table: np.ndarray) -> tuple[int, int, int] | None:
    """(a op b) op c == a op (b op c) over every triple; witness on failure."""
    n = table.shape[0]
    for c in range(n):
        col = table[:, c]
        left = col[table]            # (a op b) op c
        right = table[:, col]        # a op (b op c)
        w = _first_bad(left != right)
        if w is not None:
            return (w[0], w[1], c)
    return None


def check_solvability(table: np.ndarray) -> int | None:
    """Every row must reach 0 somewhere (right inverses exist)."""
    hit = (table == 0).any(axis=1)
    bad = np.nonzero(~hit)[0]
    return int(bad[0]) if bad.size else None


def check_left_brace_law(ctx: IndexContext, circ: np.ndarray) -> tuple[int, int, int] | None:
    """a circ (b + c) == a circ b - a + a circ c over every triple."""
    n = circ.shape[0]
    idx = np.arange(n)
    coords, moduli = ctx.coords, ctx.moduli
    for c in range(n):
        bpc = ctx.add_index(idx, np.full(n, c))
        left = circ[:, bpc]                       # a circ (b+c), shape (N, N)
        rhs = (coords[circ]                       # a circ b
               - coords[:, None, :]               # - a
               + coords[circ[:, c]][:, None, :]   # + a circ c
               ) % moduli
        right = ctx.encode(rhs)
        w = _first_bad(left != right)
        if w is not None:
            return (w[0], w[1], c)
    return None


def check_prelie_symmetry(ctx: IndexContext, dot: np.ndarray) -> tuple[int, int, int] | None:
    """(a.b).c - a.(b.c) must be symmetric in (a, b) for every c."""
    coords, moduli = ctx.coords, ctx.moduli
    n = dot.shape[0]
    for c in range(n):
        col = dot[:, c]
        assoc1 = coords[col[dot]]        # (a.b).c
        assoc2 = coords[dot[:, col]]     # a.(b.c)
        defect = (assoc1 - assoc2) % moduli
        w = _first_bad((defect != defect.swapaxes(0, 1)).any(axis=2))
        if w is not None:
            return (w[0], w[1], c)
    return None


def check_additivity_steps(ctx: IndexContext, table: np.ndarray) -> tuple[str, int, int] | None:
    """Both-argument additivity of a table via generator increments.

    Checks op(x + g, y) == op(x, y) + op(g, y) and symmetrically for every
    element pair and every group generator g.  By induction on coordinates
    this is a complete proof of biadditivity, in O(N^2 x rank) checks.
    """
    group = ctx.group
    n = table.shape[0]
    idx = np.arange(n)
    coords, moduli = ctx.coords, ctx.moduli
    for g in group.generators():
        gi = group.encode(g)
        shifted = ctx.add_index(idx, np.full(n, gi))
        # left argument: rows permuted by +g vs. coordinate sum of rows
        lhs = table[shifted, :]
        rhs = ctx.encode((coords[table] + coords[table[gi]][None, :, :]) % moduli)
        w = _first_bad(lhs != rhs)
        if w is not None:
            return ("left", w[0], w[1])
        # right argument
        lhs = table[:, shifted]
        rhs = ctx.encode((coords[table] + coords[table[:, gi]][:, None, :]) % moduli)
        w = _first_bad(lhs != rhs)
        if w is not None:
            return ("right", w[0], w[1])
    return None
