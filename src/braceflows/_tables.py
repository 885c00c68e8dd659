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
Python ints.

The check_* kernels decide an axiom over the whole carrier without visiting
every tuple.  Each checks the law where one argument is a generator (or on
generator triples), and an argument over generators proves it everywhere:
Light's test for associativity, generator increments for the additive
laws.  That costs O(N^2) table gathers per generator.  Only the pre-Lie
identity of a product that is not biadditive falls back to all N^3
triples.  Every check is exact (table gathers plus coordinatewise modular
integer arithmetic) and returns a witness that fails the law as stated.
exhaustive_for is the one rule for exhaustive versus sampled checks; sampled
ones evaluate their sample_coords draws as one batch.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InputError
from .groups import Element, PGroup

__all__ = [
    "TABLE_THRESHOLD",
    "IndexContext",
    "coord_dtype",
    "element_coords",
    "encode_many",
    "pointwise_many",
    "build_table",
    "exhaustive_for",
    "sample_coords",
    "first_true",
    "first_bad_pair",
    "check_identity",
    "check_associativity",
    "check_solvability",
    "check_left_brace_law",
    "check_prelie_symmetry",
    "check_additivity_steps",
]

# Largest carrier that gets a dense (N, N) table.
TABLE_THRESHOLD = 4096
# Carriers this small are always checked exhaustively.
ALWAYS_EXHAUSTIVE = 125
# Pairs evaluated at once by build_table and the check kernels.
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


def exhaustive_for(order: int, exhaustive: bool | None = None) -> bool:
    """The one rule for exhaustive versus sampled axiom checks: always
    exhaustive up to ALWAYS_EXHAUSTIVE elements, by default on every carrier
    that gets a dense table, and as requested otherwise."""
    if order <= ALWAYS_EXHAUSTIVE:
        return True
    if exhaustive is None:
        return order <= TABLE_THRESHOLD
    return exhaustive


def sample_coords(rng: random.Random, count: int, spaces: tuple, dtype) -> list[np.ndarray]:
    """count draws of one element of each space (PGroup or Subgroup), in the
    order of a pointwise random_element loop, as one (count, rank) array each."""
    if count < 1:
        raise InputError(f"sample count must be at least 1, got {count}")
    rows = [[x for s in spaces for x in s.random_element(rng)] for _ in range(count)]
    return np.split(np.array(rows, dtype=dtype), len(spaces), axis=1)


def first_true(mask: np.ndarray) -> int | None:
    """Index of the first True entry of a 1-D mask, or None."""
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


def first_bad_pair(left: PGroup, right, bad: Many, *, exhaustive: bool, samples: int,
                   seed: int, dtype) -> tuple[np.ndarray, np.ndarray] | None:
    """First pair (x, y) of coordinate rows where the batched mask bad(x, y) holds:
    over the group left times right (a no larger PGroup or Subgroup) in row-major
    order, or over `samples` draws of x then y from random.Random(seed)."""
    if exhaustive:
        xs = element_coords(left).astype(dtype, copy=False)
        ys = np.array(list(right.elements()), dtype=dtype)
        w = _first_bad(len(xs), lambda rows: bad(xs[rows, None], ys[None, :]))
    else:
        xs, ys = sample_coords(random.Random(seed), samples, (left, right), dtype)
        i = first_true(bad(xs, ys))
        w = None if i is None else (i, i)
    return None if w is None else (xs[w[0]], ys[w[1]])


def _first_bad(n: int, mask_rows: Callable[[slice], np.ndarray]) -> tuple[int, int] | None:
    """First (row, column), in row-major order, where mask_rows is True.

    mask_rows maps a slice of rows to their (R, n) boolean mask; it is called
    on blocks of at most BLOCK_PAIRS pairs, so no intermediate grows past that.
    """
    step = max(1, BLOCK_PAIRS // max(n, 1))
    for start in range(0, n, step):
        bad = np.argwhere(mask_rows(slice(start, start + step)))
        if bad.size:
            return start + int(bad[0][0]), int(bad[0][1])
    return None


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


def _greedy_generators(table: np.ndarray) -> list[int]:
    """Indices whose left-nested products g1 op g2 op ... op gk reach every
    index of the table.

    Greedy: the smallest index not yet reached becomes a generator, and the
    reached set is closed under right multiplication by every generator so
    far.  The closure starts from the generators themselves, so nothing is
    assumed about index 0.  For a group at most log2(N) + 1 generators are
    chosen, since each one at least doubles the subgroup reached.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        cols = np.array(gens, dtype=np.int64)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            new = np.zeros(n, dtype=bool)
            new[table[frontier[:, None], cols[None, :]]] = True
            new &= ~reached
            reached |= new
            frontier = np.flatnonzero(new)
    return gens


def check_associativity(table: np.ndarray) -> tuple[int, int, int] | None:
    """Light's associativity test: (x op g) op y == x op (g op y) for every
    x, y and every g of _greedy_generators(table).

    Complete (Clifford & Preston, Algebraic Theory of Semigroups I, 1.2):
    the set of g satisfying the identity for all x, y is closed under op,
    so it contains every product of generators, which is every index.
    O(N^2) per generator; the witness (x, g, y) fails associativity as stated.
    """
    n = table.shape[0]
    for g in _greedy_generators(table):
        w = _first_bad(n, lambda rows: table[table[rows, g]] != table[rows][:, table[g]])
        if w is not None:
            return (w[0], g, w[1])
    return None


def check_solvability(table: np.ndarray) -> int | None:
    """Every row must reach 0 somewhere (right inverses exist)."""
    hit = (table == 0).any(axis=1)
    bad = np.nonzero(~hit)[0]
    return int(bad[0]) if bad.size else None


def check_left_brace_law(ctx: IndexContext, circ: np.ndarray) -> tuple[int, int, int] | None:
    """a circ (b + c) == a circ b - a + a circ c for every a, b, c.

    The law says that every lambda_a(x) = a circ x - a is additive.  Checked
    as lambda_a(0) == 0 (a circ 0 == a, witness (a, 0, 0)) and then
    lambda_a(b + g) == lambda_a(b) + lambda_a(g) for every a, b and every
    group generator g, which proves it for every c by induction on the
    coordinates of c.  O(N^2 x rank) checks; the witness (a, b, c) fails the
    law as stated.
    """
    n = circ.shape[0]
    idx = np.arange(n, dtype=np.int64)
    bad = np.flatnonzero(circ[:, 0] != idx)
    if bad.size:
        return (int(bad[0]), 0, 0)
    coords, moduli = ctx.coords, ctx.moduli
    for gen in ctx.group.generators():
        g = ctx.group.encode(gen)
        shifted = ctx.add_index(idx, np.full(n, g, dtype=np.int64))

        def mask(rows: slice) -> np.ndarray:
            lhs = circ[rows][:, shifted]                     # a circ (b+g)
            rhs = (coords[circ[rows]]                        # a circ b
                   - coords[rows, None, :]                   # - a
                   + coords[circ[rows, g]][:, None, :]       # + a circ g
                   ) % moduli
            return lhs != ctx.encode(rhs)

        w = _first_bad(n, mask)
        if w is not None:
            return (w[0], w[1], g)
    return None


def check_prelie_symmetry(ctx: IndexContext, dot: np.ndarray) -> tuple[int, int, int] | None:
    """(a.b).c - a.(b.c) must be symmetric in (a, b) for every c.

    When check_additivity_steps proves the product biadditive, the
    associator is additive in each argument, so generator triples decide
    the identity.  Otherwise every triple is scanned, in O(N^3).
    """
    if check_additivity_steps(ctx, dot) is not None:
        return _prelie_symmetry_scan(ctx, dot)
    group = ctx.group
    gens = np.array([group.encode(g) for g in group.generators()], dtype=np.int64)
    a, b, c = np.ix_(gens, gens, gens)
    assoc = ctx.coords[dot[dot[a, b], c]] - ctx.coords[dot[a, dot[b, c]]]
    bad = np.argwhere(((assoc - assoc.swapaxes(0, 1)) % ctx.moduli).any(axis=-1))
    if bad.size:
        return tuple(int(gens[i]) for i in bad[0])
    return None


def _prelie_symmetry_scan(ctx: IndexContext, dot: np.ndarray) -> tuple[int, int, int] | None:
    """The pre-Lie identity on every triple, for products not proven biadditive."""
    coords, moduli = ctx.coords, ctx.moduli
    n = dot.shape[0]
    for c in range(n):
        col = dot[:, c]
        defect = (coords[col[dot]] - coords[dot[:, col]]) % moduli   # (a.b).c - a.(b.c)
        w = _first_bad(n, lambda rows: (defect[rows] != defect.swapaxes(0, 1)[rows]).any(axis=2))
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
    idx = np.arange(n, dtype=np.int64)
    coords, moduli = ctx.coords, ctx.moduli
    for gen in group.generators():
        g = group.encode(gen)
        shifted = ctx.add_index(idx, np.full(n, g, dtype=np.int64))
        # left argument: rows permuted by +g vs. coordinate sum of rows
        w = _first_bad(n, lambda rows: table[shifted[rows]] != ctx.encode(
            (coords[table[rows]] + coords[table[g]][None, :, :]) % moduli))
        if w is not None:
            return ("left", w[0], w[1])
        # right argument
        w = _first_bad(n, lambda rows: table[rows][:, shifted] != ctx.encode(
            (coords[table[rows]] + coords[table[rows, g]][:, None, :]) % moduli))
        if w is not None:
            return ("right", w[0], w[1])
    return None
