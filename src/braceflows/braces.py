"""Left braces: one carrier, two group structures.

A left brace here is an abelian group (A, +) together with a second group
operation circ on the same carrier satisfying

    a circ (b + c) = a circ b - a + a circ c.

The defect star(a, b) = a circ b - a - b is additive in its right argument,
and lambda_a(b) = a circ b - b is an automorphism action of (A, circ) on
(A, +).  Small braces hold a dense circle table; large ones evaluate a
closure through a bounded memo cache.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable

import numpy as np

from . import _tables
from ._tables import TABLE_THRESHOLD
from .errors import InputError, StructureError
from .groups import (
    Element,
    PGroup,
    QuotientSpace,
    Span,
    Subgroup,
    additive_span,
    quotient,
)
from .reports import CheckReport

__all__ = [
    "Brace",
    "FactorBrace",
    "trivial_brace",
    "verify_brace",
    "left_chain",
    "factor_brace",
    "ideal_quotient",
    "quoted_identity_report",
]

MEMO_CAP = 1 << 20


class Brace:
    """A left brace on a PGroup carrier.

    The circle operation is stored as a dense table of encoded indices when
    the carrier has at most TABLE_THRESHOLD elements, otherwise as the given
    closure plus a bounded memo cache (safe under CPython's atomic dict ops).
    A batched form circ_many, when given, builds the table in one pass and
    serves circ_many above the threshold.  Construction does not verify the
    axioms; see verify_brace.
    """

    def __init__(self, group: PGroup, circ_fn: Callable[[Element, Element], Element] | None,
                 table: list[list[int]] | None,
                 circ_many: _tables.Many | None = None):
        self.group = group
        self._circ_fn = circ_fn
        self._table = table
        self._circ_many = circ_many
        self._array: np.ndarray | None = None
        self._memo: dict[tuple[Element, Element], Element] = {}
        self._inverses: dict[Element, Element] = {}
        self._right_inverses: np.ndarray | None = None
        self.dtype = _tables.coord_dtype(group.p ** group.max_exp, group.rank)
        self.flow_context = None  # set by flows_brace

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_callable(cls, group: PGroup, circ: Callable[[Element, Element], Element],
                      *, circ_many: _tables.Many | None = None,
                      materialize: bool | None = None) -> "Brace":
        if materialize is None:
            materialize = group.order <= TABLE_THRESHOLD
        brace = cls(group, circ, None, circ_many)
        if materialize:
            brace._set_array(_tables.build_table(
                group, circ_many or _tables.pointwise_many(circ)))
        return brace

    @classmethod
    def from_table(cls, group: PGroup, table: list[list[int]]) -> "Brace":
        n = group.order
        if len(table) != n or any(len(row) != n for row in table):
            raise InputError(f"circle table must be {n}x{n}")
        for row in table:
            for v in row:
                if not (0 <= v < n):
                    raise InputError(f"table entry {v} out of range 0..{n - 1}")
        return cls(group, None, [list(row) for row in table])

    def _set_array(self, array: np.ndarray) -> None:
        # pointwise circ indexes the list form: faster than numpy scalars
        array.flags.writeable = False
        self._array = array
        self._table = array.tolist()

    # -- operations -------------------------------------------------------------
    def circ(self, a: Element, b: Element) -> Element:
        if self._table is not None:
            g = self.group
            return g.decode(self._table[g.encode(a)][g.encode(b)])
        key = (a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val = self._circ_fn(a, b)
        if len(self._memo) >= MEMO_CAP:
            self._memo.clear()
        self._memo[key] = val
        return val

    def circ_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """circ on broadcast (..., rank) arrays of canonical coordinates."""
        g = self.group
        if self._table is not None:
            idx = self.index_table()[_tables.encode_many(g, a), _tables.encode_many(g, b)]
            return _tables.element_coords(g)[idx]
        if self._circ_many is not None:
            return self._circ_many(a, b)
        return _tables.pointwise_many(self.circ)(a, b)

    def star(self, a: Element, b: Element) -> Element:
        g = self.group
        return g.sub(self.circ(a, b), g.add(a, b))

    def star_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """star on broadcast (..., rank) arrays of canonical coordinates."""
        circ = self.circ_many(a, b)
        return (circ - a - b) % np.array(self.group.moduli, dtype=circ.dtype)

    def lambda_map(self, a: Element, b: Element) -> Element:
        return self.group.sub(self.circ(a, b), a)

    def circ_pow(self, a: Element, k: int) -> Element:
        """k-th circle power by square-and-multiply; k >= 0."""
        if k < 0:
            raise InputError(f"circle power exponent must be >= 0, got {k}")
        result = self.group.zero
        base = a
        while k:
            if k & 1:
                result = self.circ(result, base)
            k >>= 1
            if k:
                base = self.circ(base, base)
        return result

    def circ_order(self, a: Element) -> int:
        """Order of a in (A, circ); a power of p."""
        p = self.group.p
        t = 1
        x = a
        while x != self.group.zero:
            x = self.circ_pow(x, p)
            t *= p
            if t > self.group.order:
                raise StructureError(
                    f"circle order of {a} exceeds the group order; not a p-group law"
                )
        return t

    def circ_inverse(self, a: Element) -> Element:
        """Two-sided circle inverse, checked before it is returned.  A flows
        brace has it in closed form: for x = Omega(a) the inverse solves
        W(x) + e^(L_x) b = 0, so b = -e^(-L_x) W(x) = W(-x)."""
        inv = self._inverses.get(a)
        if inv is not None:
            return inv
        g = self.group
        ctx = self.flow_context
        if ctx is not None:
            inv = ctx.exp_map(g.neg(ctx.log_map(a)))
        elif self._table is not None:
            row = self._table[g.encode(a)]
            try:
                inv = g.decode(row.index(0))
            except ValueError:
                raise StructureError(f"{a} has no right circle inverse") from None
        else:
            inv = self.circ_pow(a, self.circ_order(a) - 1)
        if self.circ(a, inv) != g.zero or self.circ(inv, a) != g.zero:
            raise StructureError(f"inverse computation failed for {a}")
        self._inverses[a] = inv
        return inv

    def index_table(self) -> np.ndarray:
        """Dense encoded circle table as an int64 array (small carriers only)."""
        if self._array is None:
            if self._table is not None:
                self._array = np.array(self._table, dtype=np.int64)
                self._array.flags.writeable = False
            elif self.group.order > TABLE_THRESHOLD:
                raise InputError(
                    f"carrier of order {self.group.order} exceeds the dense-table "
                    f"threshold {TABLE_THRESHOLD}"
                )
            else:
                self._set_array(_tables.build_table(self.group, self.circ_many))
        return self._array


def trivial_brace(group: PGroup) -> Brace:
    """circ = +; the brace of the zero ring."""
    return Brace.from_callable(group, group.add)


class FactorBrace(Brace):
    """A brace on a quotient carrier, remembering where it came from."""

    def __init__(self, parent: Brace, space: QuotientSpace):
        qg = space.group

        def qcirc(x: Element, y: Element) -> Element:
            return space.project(parent.circ(space.lift(x), space.lift(y)))

        def qcirc_many(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            # canonical representatives are parent coordinates already
            out = parent.circ_many(x, y)
            return out % np.array(qg.moduli, dtype=out.dtype)

        super().__init__(qg, qcirc, None, qcirc_many)
        self.parent = parent
        self.space = space
        if qg.order <= TABLE_THRESHOLD:
            self._set_array(_tables.build_table(qg, qcirc_many))


# ---------------------------------------------------------------------------
# verification


def verify_brace(brace: Brace, *, exhaustive: bool | None = None,
                 samples: int = 100_000, seed: int = 0) -> CheckReport:
    """Axiom report: abelian +, neutral zero, associativity of circ, circle
    inverses, and the left brace law.

    Exhaustive mode (see _tables.exhaustive_for) decides every axiom on the
    whole carrier from the dense circle table: zero and inverses by one pass
    over the table, associativity by Light's test on a generating set of
    (A, circ), and the left brace law as additivity of each lambda_a, by
    generator increments.  Otherwise each axiom is checked on fixed-seed
    samples, evaluated as one batch through circ_many; the witness is the
    first failing sample in draw order.
    """
    g = brace.group
    exhaustive = _tables.exhaustive_for(g.order, exhaustive)
    report = CheckReport()
    mode = "exhaustive" if exhaustive else f"sampled n={samples} seed={seed}"

    if exhaustive:
        _verify_brace_exhaustive(brace, report, mode)
    else:
        _verify_brace_sampled(brace, report, samples, seed, mode)
    return report


def _verify_brace_exhaustive(brace: Brace, report: CheckReport, mode: str) -> None:
    g = brace.group
    ctx = _tables.IndexContext(g)
    table = brace.index_table()

    # (A, +) commutes coordinatewise by construction; assert on a full pass.
    a = ctx.coords
    b = a[(2 * np.arange(g.order) + 1) % g.order]
    i = _tables.first_true(((a + b) % ctx.moduli != (b + a) % ctx.moduli).any(axis=-1))
    report.add("abelian-add", i is None, info=mode, witness=None if i is None else
               f"a={g.decode(i)} b={g.decode((2 * i + 1) % g.order)}")

    w = _tables.check_identity(table)
    report.add("zero-neutral", w is None,
               witness=None if w is None else f"a={g.decode(w)}", info=mode)

    w = _tables.check_associativity(table)
    report.add("circ-associative", w is None,
               witness=None if w is None else
               f"a={g.decode(w[0])} b={g.decode(w[1])} c={g.decode(w[2])}", info=mode)

    w = _tables.check_solvability(table)
    report.add("circ-inverses", w is None,
               witness=None if w is None else f"a={g.decode(w)}", info=mode)

    w = _tables.check_left_brace_law(ctx, table)
    report.add("left-brace-law", w is None,
               witness=None if w is None else
               f"a={g.decode(w[0])} b={g.decode(w[1])} c={g.decode(w[2])}", info=mode)


def _verify_brace_sampled(brace: Brace, report: CheckReport, samples: int,
                          seed: int, mode: str) -> None:
    g, dtype = brace.group, brace.dtype
    moduli = np.array(g.moduli, dtype=dtype)
    circ = brace.circ_many

    def add(name: str, bad: np.ndarray, *args: np.ndarray) -> None:
        i = _tables.first_true(bad)
        report.add(name, i is None, info=mode, witness=None if i is None else " ".join(
            f"{v}={tuple(x[i].tolist())}" for v, x in zip("abc", args)))

    rng = random.Random(seed)
    a, b = _tables.sample_coords(rng, min(samples, 10_000), (g, g), dtype)
    add("abelian-add", ((a + b) % moduli != (b + a) % moduli).any(axis=-1), a, b)
    a, = _tables.sample_coords(rng, min(samples, 10_000), (g,), dtype)
    zero = np.zeros(g.rank, dtype=dtype)
    add("zero-neutral", ((circ(zero, a) != a) | (circ(a, zero) != a)).any(axis=-1), a)
    a, b, c = _tables.sample_coords(random.Random(seed + 1), samples, (g,) * 3, dtype)
    add("circ-associative", (circ(circ(a, b), c) != circ(a, circ(b, c))).any(axis=-1), a, b, c)
    a, = _tables.sample_coords(random.Random(seed + 2), min(samples, 2_000), (g,), dtype)
    add("circ-inverses", _circ_inverses(brace, a)[1], a)
    a, b, c = _tables.sample_coords(random.Random(seed + 3), samples, (g,) * 3, dtype)
    add("left-brace-law", (circ(a, (b + c) % moduli)
                           != (circ(a, b) - a + circ(a, c)) % moduli).any(axis=-1), a, b, c)


def _circ_inverses(brace: Brace, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brace.circ_inverse on a (..., rank) array, by the same three branches:
    the inverses, and the mask of entries that have no two-sided inverse."""
    g = brace.group
    ctx = brace.flow_context
    failed = False
    if ctx is not None:
        inv = ctx.exp_many(-ctx.log_many(a) % ctx.moduli)
    elif brace._table is not None:
        if brace._right_inverses is None:  # first zero of each row
            brace._right_inverses = np.argmax(brace.index_table() == 0, axis=1)
        inv = _tables.element_coords(g)[brace._right_inverses[_tables.encode_many(g, a)]]
    else:
        inv = np.zeros(a.shape, dtype=object)
        failed = np.zeros(a.shape[:-1], dtype=bool)
        for idx in np.ndindex(failed.shape):
            try:
                inv[idx] = brace.circ_inverse(tuple(a[idx].tolist()))
            except StructureError:
                failed[idx] = True
    failed = failed | brace.circ_many(a, inv).any(axis=-1)
    return inv, failed | brace.circ_many(inv, a).any(axis=-1)


# ---------------------------------------------------------------------------
# left chain and quotients


def left_chain(brace: Brace, *, max_steps: int | None = None) -> list[Span]:
    """Descending chain A = A^1 >= A^2 >= ... with A^(i+1) = span(a * A^i),
    computed via star's right-argument additivity: each level is spanned by
    {a * g} with a over the carrier and g over the previous level's essential
    generators.  Fails if the chain does not reach 0 within n+1 steps.
    """
    g = brace.group
    if max_steps is None:
        max_steps = g.n + 1
    chain = [additive_span(g, g.generators())]
    while not chain[-1].is_zero:
        if len(chain) > max_steps:
            raise StructureError(
                f"left chain did not reach 0 within {max_steps} steps; "
                f"not left nilpotent"
            )
        gens = []
        if g.order > 1 << 18:
            raise InputError(f"left chain on order {g.order} not supported")
        for a in g.elements():
            for h in chain[-1].gens:
                gens.append(brace.star(a, h))
        chain.append(additive_span(g, gens))
    return chain


def factor_brace(brace: Brace, sub: Subgroup, *, check: bool = True,
                 samples: int = 10_000, seed: int = 0) -> FactorBrace:
    """Quotient brace by a coordinate-aligned ideal.

    The ideal precondition (lambda-invariance and circle-normality of the
    subgroup) is checked on every pair (a, s) when _tables.exhaustive_for
    holds for the carrier, else on fixed-seed samples; either way as one
    batched evaluation, reporting the first failing pair.
    """
    g = brace.group
    if sub.group != g:
        raise InputError("subgroup does not live on the brace carrier")
    space = quotient(g, sub)
    if check:
        _check_ideal(brace, sub, samples=samples, seed=seed)
    return FactorBrace(brace, space)


def ideal_quotient(brace: Brace, i: int, kind: str = "ann", **kw) -> FactorBrace:
    """Convenience wrapper: quotient by ann(p**i) or by p**i * A."""
    if kind == "ann":
        sub = brace.group.annihilator(i)
    elif kind == "pk":
        sub = brace.group.power_image(i)
    else:
        raise InputError(f"unknown ideal kind {kind!r}; use 'ann' or 'pk'")
    return factor_brace(brace, sub, **kw)


def _check_ideal(brace: Brace, sub: Subgroup, *, samples: int, seed: int) -> None:
    g = brace.group
    moduli = np.array(g.moduli, dtype=brace.dtype)
    steps = np.array([g.p ** k for k in sub.pexps], dtype=brace.dtype)

    def bad(a: np.ndarray, s: np.ndarray) -> np.ndarray:
        a_s = brace.circ_many(a, s)
        inv, no_inverse = _circ_inverses(brace, a)
        escapes = ((a_s - a) % moduli % steps).any(axis=-1)          # lambda_a(s)
        escapes |= (brace.circ_many(a_s, inv) % steps).any(axis=-1)  # a s a^-1
        return s.any(axis=-1) & (escapes | no_inverse)

    pair = _tables.first_bad_pair(g, sub, bad, exhaustive=_tables.exhaustive_for(g.order),
                                  samples=samples, seed=seed, dtype=brace.dtype)
    if pair is None:
        return
    a, s = (tuple(x.tolist()) for x in pair)
    if brace.lambda_map(a, s) not in sub:
        raise InputError(f"subgroup is not lambda-invariant: lambda_{a}({s}) escapes")
    brace.circ_inverse(a)  # raises its own StructureError when a has no inverse
    raise InputError(f"subgroup is not circle-normal: {a} conjugates {s} out")


# ---------------------------------------------------------------------------
# classical star-product identities ("quoted identities" in the CLI)


def _engel_sum_rhs(brace: Brace, a: Element, b: Element, c: Element,
                   cutoff: int) -> Element:
    """a*c + b*c + sum_i (-1)^(i+1) ((d_i * d_i') * c - d_i * (d_i' * c))
    with d_0 = a, d_0' = b, d_{i+1} = d_i + d_i', d_{i+1}' = d_i * d_i'."""
    g = brace.group
    acc = g.add(brace.star(a, c), brace.star(b, c))
    d, dp = a, b
    for i in range(cutoff + 1):
        if dp == g.zero:
            break
        term = g.sub(brace.star(brace.star(d, dp), c),
                     brace.star(d, brace.star(dp, c)))
        acc = g.sub(acc, term) if i % 2 == 0 else g.add(acc, term)
        d, dp = g.add(d, dp), brace.star(d, dp)
    return acc


def _star_chain(brace: Brace, a: Element, first: Element, limit: int) -> list[Element]:
    """[first, a*first, a*(a*first), ...] up to limit entries, stopping
    before the first zero after `first`."""
    out = [first]
    for _ in range(limit - 1):
        nxt = brace.star(a, out[-1])
        if nxt == brace.group.zero:
            break
        out.append(nxt)
    return out


def _binomial_circ_pow(brace: Brace, chain: list[Element], k: int) -> Element:
    """sum_i C(k, i) * chain[i-1]; exact for every k >= 0 by the binomial
    expansion of circle powers in a left brace."""
    g = brace.group
    acc = g.zero
    for i, e in enumerate(chain, start=1):
        if i > k:
            break
        acc = g.add(acc, g.smul(math.comb(k, i), e))
    return acc


def _word_value_sets(brace: Brace, a: Element, c: Element,
                     max_letters: int) -> list:
    """Values of all bracketed star-words in a ending with a single final c,
    with at least two a's, up to max_letters total letters.

    pure[k]: value set of all-a words with k letters; ended[k]: value set of
    c-terminated words with k a's.  Every c-terminated word splits uniquely
    at the top as (pure a-word) * (c-terminated word).
    """
    star = brace.star
    pure: dict[int, set] = {1: {a}}
    for k in range(2, max_letters):
        vals = set()
        for i in range(1, k):
            for u in pure.get(i, ()):
                for v in pure.get(k - i, ()):
                    vals.add(star(u, v))
        pure[k] = vals
    ended: dict[int, set] = {0: {c}}
    for k in range(1, max_letters):
        vals = set()
        for i in range(1, k + 1):
            for u in pure.get(i, ()):
                for v in ended.get(k - i, ()):
                    vals.add(star(u, v))
        ended[k] = vals
    gens: set = set()
    for k in range(2, max_letters):
        gens |= ended[k]
    return sorted(gens)


def quoted_identity_report(brace: Brace, *, samples: int = 10_000,
                           seed: int = 0) -> CheckReport:
    """Five classical identities of the star product, checked numerically.

    (i)   additivity defect of star in its left argument expands into the
          alternating chain sum;
    (ii)  circle powers and their stars expand binomially along star chains;
    (iii) the circle subgroup generated by p**i-th circle powers equals p**i*A;
    (iv)  any (p-1)-fold left-nested star product of elements of p*A vanishes;
    (v)   (m a) * c - m (a * c) lies in the span of star words in a, c with
          at least two a's.
    """
    g = brace.group
    p = g.p
    report = CheckReport()
    rng = random.Random(seed)
    cutoff = 2 * (g.n + 1)

    # (i) additivity defect chain
    bad = None
    for _ in range(samples):
        a, b, c = (g.random_element(rng) for _ in range(3))
        if brace.star(g.add(a, b), c) != _engel_sum_rhs(brace, a, b, c, cutoff):
            bad = f"a={a} b={b} c={c}"
            break
    report.add("star-additivity-chain", bad is None, witness=bad,
               info=f"samples={samples}")

    # (ii) binomial expansions vs square-and-multiply
    bad = None
    rng2 = random.Random(seed + 1)
    exponents = [2, 3, p - 1, p, p + 1, p * p, p ** min(3, g.n)]
    for _ in range(samples):
        a, b = g.random_element(rng2), g.random_element(rng2)
        k = exponents[rng2.randrange(len(exponents))]
        chain = _star_chain(brace, a, a, g.n + 1)
        direct = brace.circ_pow(a, k)
        if direct != _binomial_circ_pow(brace, chain, k):
            bad = f"a={a} k={k} (power form)"
            break
        bchain = _star_chain(brace, a, brace.star(a, b), g.n + 1)
        expect = _binomial_circ_pow(brace, bchain, k)
        if brace.star(direct, b) != expect:
            bad = f"a={a} b={b} k={k} (star form)"
            break
    report.add("circ-power-binomial", bad is None, witness=bad,
               info=f"samples={samples}")

    # (iii) p**i-th circle powers generate p**i * A
    bad = None
    if g.order <= 1 << 18:
        chains = {}
        for a in g.elements():
            chains[a] = _star_chain(brace, a, a, g.n + 1)
        for i in range(1, g.max_exp + 1):
            target = g.power_image(i)
            power_set = set()
            for a, chain in chains.items():
                v = _binomial_circ_pow(brace, chain, p ** i)
                if v not in target:
                    bad = f"i={i} a={a} power={v} escapes p^{i}A"
                    break
                power_set.add(v)
            if bad:
                break
            if power_set != set(target.elements()):
                closure = _circ_closure(brace, power_set)
                if closure != set(target.elements()):
                    bad = f"i={i}: generated subgroup has {len(closure)} elements, p^{i}A has {target.size}"
                    break
    else:  # pragma: no cover - no fixture this large
        bad = "carrier too large"
    report.add("circ-powers-generate-image", bad is None, witness=bad,
               info="exhaustive")

    # (iv) (p-1)-fold left-nested star products over p*A vanish
    bad = None
    rng4 = random.Random(seed + 3)
    for _ in range(samples):
        xs = [g.smul(p, g.random_element(rng4)) for _ in range(p - 1)]
        acc = xs[-1]
        for x in reversed(xs[:-1]):
            acc = brace.star(x, acc)
        if acc != g.zero:
            bad = f"xs={xs} product={acc}"
            break
    report.add("pA-products-vanish", bad is None, witness=bad,
               info=f"samples={samples}")

    # (v) scalar defect of star lies in the two-a word span
    bad = None
    rng5 = random.Random(seed + 4)
    pair_count = max(1, samples // 4)
    for _ in range(pair_count):
        a, c = g.random_element(rng5), g.random_element(rng5)
        span = None
        for m in (2, 3, p, p + 2):
            diff = g.sub(brace.star(g.smul(m, a), c),
                         g.smul(m, brace.star(a, c)))
            if diff == g.zero:
                continue
            if span is None:
                span = additive_span(
                    g, _word_value_sets(brace, a, c, g.n + 2))
            if diff not in span:
                # widen the word length before declaring failure
                span = additive_span(
                    g, _word_value_sets(brace, a, c, 2 * g.n + 2))
                if diff not in span:
                    bad = f"a={a} c={c} m={m} defect={diff}"
                    break
        if bad:
            break
    report.add("scalar-star-defect-span", bad is None, witness=bad,
               info=f"samples={4 * pair_count}")
    return report


def _circ_closure(brace: Brace, seed_set: set) -> set:
    """Closure of a set under the circle product (it already contains the
    inverses' generators since the ambient group is a finite p-group)."""
    closed = set(seed_set)
    closed.add(brace.group.zero)
    frontier = list(closed)
    gens = sorted(seed_set)
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (brace.circ(x, s), brace.circ(s, x)):
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
    return closed
