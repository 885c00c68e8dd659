"""Left-nilpotent pre-Lie rings on finite abelian p-groups.

A pre-Lie ring here is the carrier group with a biadditive product whose
associator defect is symmetric in the first two arguments:

    (a.b).c - a.(b.c) == (b.a).c - b.(a.c).

Rings enter either through structure constants on the cyclic generators
(biadditive by construction, torsion-compatibility enforced) or as a
closure/table on a small carrier (biadditivity then verified).  Left
nilpotency -- the chain L^1 = A, L^(i+1) = span(A . L^i) reaching 0 -- is
what the group-of-flows construction needs; it is checked cheaply through
generator products since the product is biadditive.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from . import _tables
from ._tables import TABLE_THRESHOLD
from .errors import InputError, StructureError
from .groups import (
    Element,
    PGroup,
    Span,
    Subgroup,
    additive_span,
    quotient,
)
from .reports import CheckReport

__all__ = [
    "PreLieRing",
    "verify_prelie",
    "ring_left_chain",
    "nilpotency_index",
    "scalar_twist",
    "factor_ring",
    "zero_ring",
]


class PreLieRing:
    """Biadditive product on a PGroup carrier.

    The product is given pointwise by a closure, and optionally by structure
    constants sc or by a dense (N, N) index table.  dot_many evaluates it on
    (..., rank) coordinate arrays: an einsum over sc, a gather from the
    table, or the closure pointwise.
    """

    def __init__(self, group: PGroup, dot_fn: Callable[[Element, Element], Element],
                 sc: dict[tuple[int, int], Element] | None,
                 table: np.ndarray | None = None):
        self.group = group
        self._dot_fn = dot_fn
        self.sc = sc  # generator products, when structure-constant backed
        self.table = table
        self.modulus = group.p ** group.max_exp  # every coordinate modulus divides it
        self.dtype = _tables.coord_dtype(self.modulus, group.rank)
        self._tensor = None

    @classmethod
    def from_structure_constants(cls, group: PGroup,
                                 sc: dict[tuple[int, int], Element]) -> "PreLieRing":
        """sc maps (j, k) (0-based coordinates) to the element g_j . g_k.
        Missing pairs default to zero.  Torsion compatibility -- the product
        of two generators must be killed by the smaller generator order --
        is enforced here; it is exactly what makes the biadditive extension
        well defined on the quotiented coordinates.
        """
        p = group.p
        r = group.rank
        full: dict[tuple[int, int], Element] = {}
        for j in range(r):
            for k in range(r):
                v = sc.get((j, k), group.zero)
                group.check(v)
                bound = p ** min(group.factors[j], group.factors[k])
                if group.smul(bound, v) != group.zero:
                    raise InputError(
                        f"structure constant ({j + 1},{k + 1}) -> {v} violates "
                        f"torsion: p^{min(group.factors[j], group.factors[k])} "
                        f"times it must vanish"
                    )
                full[(j, k)] = v
        moduli = group.moduli

        def dot(a: Element, b: Element) -> Element:
            acc = [0] * r
            for j in range(r):
                aj = a[j]
                if not aj:
                    continue
                for k in range(r):
                    bk = b[k]
                    if not bk:
                        continue
                    v = full[(j, k)]
                    w = aj * bk
                    for l in range(r):
                        acc[l] += w * v[l]
            return tuple(x % m for x, m in zip(acc, moduli))

        return cls(group, dot, full)

    @classmethod
    def from_callable(cls, group: PGroup,
                      dot: Callable[[Element, Element], Element]) -> "PreLieRing":
        return cls(group, dot, None)

    def dot(self, a: Element, b: Element) -> Element:
        return self._dot_fn(a, b)

    def dot_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product on broadcast (..., rank) arrays of canonical
        coordinates, returned in self.dtype."""
        g = self.group
        if self.sc is not None:
            r = g.rank
            if self._tensor is None:
                self._tensor = np.array(
                    [self.sc[(j, k)] for j in range(r) for k in range(r)],
                    dtype=self.dtype)
            a = np.asarray(a, dtype=self.dtype)
            b = np.asarray(b, dtype=self.dtype)
            # a_j b_k reduced mod self.modulus keeps each term below modulus**2
            outer = (a[..., :, None] * b[..., None, :]) % self.modulus
            out = outer.reshape(outer.shape[:-2] + (r * r,)) @ self._tensor
            return out % np.array(g.moduli, dtype=self.dtype)
        if self.table is None and g.order <= TABLE_THRESHOLD:
            self.index_table()
        if self.table is not None:
            coords = _tables.element_coords(g)
            out = coords[self.table[_tables.encode_many(g, a), _tables.encode_many(g, b)]]
            return out.astype(self.dtype)
        return _tables.pointwise_many(self.dot)(a, b).astype(self.dtype)

    @property
    def biadditive_by_construction(self) -> bool:
        return self.sc is not None

    def generator_products(self) -> dict[tuple[int, int], Element]:
        if self.sc is not None:
            return dict(self.sc)
        g = self.group
        gens = g.generators()
        out = {}
        idx = [j for j, e in enumerate(g.factors) if e > 0]
        for a, j in zip(gens, idx):
            for b, k in zip(gens, idx):
                out[(j, k)] = self.dot(a, b)
        return out

    def index_table(self) -> np.ndarray:
        """Dense encoded product table (small carriers only); built once."""
        if self.table is None:
            if self.group.order > TABLE_THRESHOLD:
                raise InputError(
                    f"carrier of order {self.group.order} exceeds the dense-table "
                    f"threshold {TABLE_THRESHOLD}"
                )
            op = (self.dot_many if self.sc is not None
                  else _tables.pointwise_many(self.dot))
            self.table = _tables.build_table(self.group, op)
        return self.table


def zero_ring(group: PGroup) -> PreLieRing:
    return PreLieRing.from_structure_constants(group, {})


# ---------------------------------------------------------------------------
# chains and verification


def ring_left_chain(ring: PreLieRing, *, assume_biadditive: bool = True,
                    max_steps: int | None = None) -> list[Span]:
    """L^1 = A, L^(i+1) = span(A . L^i).  For a biadditive product each level
    is spanned by generator products g_j . h with h over the previous level's
    essential generators, so the chain costs O(rank^2) products per level.
    """
    g = ring.group
    if max_steps is None:
        max_steps = g.n + 1
    chain = [additive_span(g, g.generators())]
    while not chain[-1].is_zero:
        if len(chain) > max_steps:
            raise StructureError(
                f"left chain did not reach 0 within {max_steps} steps; "
                f"ring is not left nilpotent"
            )
        prods = []
        left = g.generators() if assume_biadditive else list(g.elements())
        for a in left:
            for h in chain[-1].gens:
                prods.append(ring.dot(a, h))
        chain.append(additive_span(g, prods))
    return chain


def nilpotency_index(ring: PreLieRing) -> int:
    """Smallest s with L^s = 0 (so s-fold left-nested products vanish)."""
    return len(ring_left_chain(ring))


def verify_prelie(ring: PreLieRing, *, exhaustive: bool | None = None,
                  samples: int = 100_000, seed: int = 0,
                  require_nilpotent: bool = False) -> CheckReport:
    """Axiom report: torsion compatibility, biadditivity, the pre-Lie
    identity, and left nilpotency.

    Biadditivity on structure-constant rings holds by construction and is
    reported as such; closure-backed rings get the generator-increment check
    (complete by induction on coordinates) in exhaustive mode (see
    _tables.exhaustive_for), sampling otherwise.  The pre-Lie identity is
    checked on generator triples, which suffices once the product is
    biadditive.  Exhaustive mode also decides it on the dense table: by
    generator triples after the table passes the generator-increment check,
    on every triple otherwise.
    """
    g = ring.group
    exhaustive = _tables.exhaustive_for(g.order, exhaustive)
    report = CheckReport()
    p = g.p
    dot = ring.dot_many
    moduli = np.array(g.moduli, dtype=ring.dtype)

    ctx = table = None
    if exhaustive:
        ctx = _tables.IndexContext(g)
        table = ring.index_table()

    # torsion compatibility of generator products
    bad = None
    for (j, k), v in sorted(ring.generator_products().items()):
        bound = p ** min(g.factors[j], g.factors[k])
        if g.smul(bound, v) != g.zero:
            bad = f"generators ({j + 1},{k + 1}) product {v}"
            break
    report.add("torsion-compatible", bad is None, witness=bad)

    # biadditivity
    if ring.biadditive_by_construction:
        report.add("biadditive", True, info="by construction (structure constants)")
        biadditive_ok = True
    elif exhaustive:
        w = _tables.check_additivity_steps(ctx, table)
        report.add("biadditive", w is None,
                   witness=None if w is None else
                   f"{w[0]} argument at x={g.decode(w[1])} y={g.decode(w[2])}",
                   info="generator increments, all pairs")
        biadditive_ok = w is None
    else:
        a, b, c = _tables.sample_coords(random.Random(seed), samples, (g,) * 3, ring.dtype)
        left = (dot((a + b) % moduli, c) != (dot(a, c) + dot(b, c)) % moduli).any(axis=-1)
        right = (dot(a, (b + c) % moduli) != (dot(a, b) + dot(a, c)) % moduli).any(axis=-1)
        i = _tables.first_true(left | right)
        bad = None if i is None else (f"{'left' if left[i] else 'right'}: "
                                      + _triple(a[i], b[i], c[i]))
        report.add("biadditive", bad is None, witness=bad,
                   info=f"sampled n={samples} seed={seed}")
        biadditive_ok = bad is None

    # pre-Lie identity: the associator (a.b).c - a.(b.c) is symmetric in a, b
    def asymmetric(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        ab = dot(dot(a, b), c) - dot(a, dot(b, c))
        return ((ab - dot(dot(b, a), c) + dot(b, dot(a, c))) % moduli).any(axis=-1)

    gens = np.array(g.generators(), dtype=ring.dtype).reshape(-1, g.rank)
    w = np.argwhere(asymmetric(gens[:, None, None], gens[None, :, None], gens[None, None]))
    report.add("prelie-identity-generators", w.size == 0, info="all generator triples",
               witness=_triple(*gens[w[0]]) if w.size else None)

    if exhaustive:
        w = _tables.check_prelie_symmetry(ctx, table)
        report.add("prelie-identity", w is None,
                   witness=None if w is None else
                   f"a={g.decode(w[0])} b={g.decode(w[1])} c={g.decode(w[2])}",
                   info="exhaustive")
    else:
        n = min(samples, 20_000)
        a, b, c = _tables.sample_coords(random.Random(seed + 7), n, (g,) * 3, ring.dtype)
        i = _tables.first_true(asymmetric(a, b, c))
        report.add("prelie-identity", i is None,
                   witness=None if i is None else _triple(a[i], b[i], c[i]),
                   info=f"sampled n={n} seed={seed + 7}")

    # left nilpotency
    try:
        chain = ring_left_chain(ring, assume_biadditive=biadditive_ok)
        report.add("left-nilpotent", True,
                   info=f"index {len(chain)}, chain sizes "
                        f"{[s.size for s in chain]}")
    except StructureError as exc:
        report.add("left-nilpotent", False, witness=str(exc))
        if require_nilpotent:
            raise
    return report


def _triple(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> str:
    return f"a={tuple(a.tolist())} b={tuple(b.tolist())} c={tuple(c.tolist())}"


# ---------------------------------------------------------------------------
# constructions


def scalar_twist(ring: PreLieRing, s: int) -> PreLieRing:
    """The product (a, b) -> s * (a . b); biadditivity, the pre-Lie identity
    and left nilpotency all survive scalar twisting."""
    g = ring.group
    if ring.sc is not None:
        sc = {jk: g.smul(s, v) for jk, v in ring.sc.items()}
        return PreLieRing.from_structure_constants(g, sc)
    table = None
    if ring.table is not None:
        ctx = _tables.IndexContext(g)
        table = ctx.encode(ctx.coords[ring.table] * (s % ring.modulus) % ctx.moduli)
    return PreLieRing(g, lambda a, b: g.smul(s, ring.dot(a, b)), None, table)


def factor_ring(ring: PreLieRing, sub: Subgroup, *, check: bool = True) -> PreLieRing:
    """Quotient by a coordinate-aligned two-sided ideal.

    For a biadditive product the ideal condition reduces to generator pairs:
    g_j . s and s . g_j must stay in the subgroup for subgroup generators s.
    """
    g = ring.group
    if sub.group != g:
        raise InputError("subgroup does not live on the ring carrier")
    if check:
        for a in g.generators():
            for s in sub.generators():
                if ring.dot(a, s) not in sub or ring.dot(s, a) not in sub:
                    raise InputError(
                        f"subgroup is not a two-sided ideal: products of {a} "
                        f"and {s} escape"
                    )
    space = quotient(g, sub)
    qg = space.group
    if ring.sc is not None:
        sc = {jk: space.project(v) for jk, v in ring.sc.items()}
        return PreLieRing.from_structure_constants(qg, sc)

    def qdot(x: Element, y: Element) -> Element:
        return space.project(ring.dot(space.lift(x), space.lift(y)))

    return PreLieRing.from_callable(qg, qdot)
