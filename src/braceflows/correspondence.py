"""The two-way passage between braces and pre-Lie rings.

Forward (brace -> pre-Lie ring): on the quotient A/ann(p^2) define

    transported_star([a], [b]) = [ (p a) * b  divided by p ]
    prelie_product([x], [y])   = sum_{i=0}^{p-2} u^(p-1-i) *
                                 transported_star([u^i x], [y])

where u is the order-(p-1) Teichmueller unit.  The averaged product is a
left-nilpotent pre-Lie ring whenever the source is a left brace on a group
of order p^n with n < p - 1.

Backward (pre-Lie ring -> brace): the group of flows of the twisted ring
(twist_constant = an explicit 1/(p-1)).  The reconstruction theorem states
that running brace -> ring -> twisted flows lands back on the original
brace modulo ann(p^2) twice, equivalently modulo ann(p^4); the
reconstruction_report pipeline checks that end to end.

The recovery layer expresses both the class of a and the class of a * b as
integer combinations of iterated transported products of the canonical
section f (which satisfies p f(a) = a^(circ p)).  Coefficients come from
inverting truncated polynomial series in the shift operator; the series
algebra is exact and the resulting identities are verified elementwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._tables import (TABLE_THRESHOLD, IndexContext, build_table, element_coords, encode_many,
                      exhaustive_for, first_bad_pair, first_true, sample_coords)
from .braces import Brace, factor_brace, ideal_quotient
from .errors import InputError, StructureError
from .flows import flows_brace
from .groups import Element, PGroup, divide_by_p, quotient
from .padic import ScalarRing, teichmuller_unit, twist_constant
from .prelie import PreLieRing, scalar_twist, verify_prelie
from .reports import CheckReport

__all__ = [
    "DerivedPreLie",
    "derive",
    "verify_derived_ring",
    "circle_power_section",
    "ShiftSeries",
    "identity_recovery_coefficients",
    "star_recovery_coefficients",
    "verify_identity_recovery",
    "verify_star_recovery",
    "SectionPermutation",
    "section_permutation",
    "section_bijection_report",
    "verify_flows_roundtrip",
    "reconstruct_brace",
    "reconstruction_report",
]

# ---------------------------------------------------------------------------
# forward passage


class DerivedPreLie:
    """The averaged product on A/ann(p^2) derived from a left brace."""

    def __init__(self, source: Brace, space, unit: int):
        self.source = source
        self.space = space
        self.unit = unit
        self.qgroup = space.group
        p = source.group.p
        self.p = p
        mod = source.group.scalars.modulus
        self.unit_powers = [pow(unit, i, mod) for i in range(p)]
        self._odot_tab = None
        self._bullet_tab = None

    # -- products ---------------------------------------------------------------
    def transported_star(self, x: Element, y: Element) -> Element:
        """[(p a) * b] / p on canonical representatives; independent of the
        representative choice because ann(p^2) stars into ann(p) both ways."""
        if self._odot_tab is not None:
            qg = self.qgroup
            return qg.decode(int(self._odot_tab[qg.encode(x), qg.encode(y)]))
        return self._odot_direct(x, y)

    def _odot_direct(self, x: Element, y: Element) -> Element:
        g = self.source.group
        u = self.source.star(g.smul(self.p, self.space.lift(x)),
                             self.space.lift(y))
        return self.space.project(divide_by_p(g, u))

    def transported_star_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """transported_star on broadcast (..., rank) arrays of class representatives."""
        if self._odot_tab is not None:
            qg = self.qgroup
            return element_coords(qg)[self._odot_tab[encode_many(qg, x), encode_many(qg, y)]]
        return self._odot_many(x, y)

    def _odot_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[(p x) * y] / p projected to the quotient, for any source
        coordinates x, y; the first entry (in row-major order) not divisible
        by p raises divide_by_p's error."""
        g = self.source.group
        x = np.asarray(x, dtype=self.source.dtype)
        u = self.source.star_many(self.p * x % np.array(g.moduli, dtype=x.dtype), y)
        bad = (u % self.p != 0).any(axis=-1)
        if bad.any():
            divide_by_p(g, tuple(u[tuple(np.argwhere(bad)[0])].tolist()))
        return u // self.p % np.array(self.qgroup.moduli, dtype=x.dtype)

    def prelie_product(self, x: Element, y: Element) -> Element:
        if self._bullet_tab is not None:
            qg = self.qgroup
            return qg.decode(int(self._bullet_tab[qg.encode(x), qg.encode(y)]))
        qg = self.qgroup
        p = self.p
        acc = qg.zero
        for i in range(p - 1):
            w = self.transported_star(qg.smul(self.unit_powers[i], x), y)
            acc = qg.add(acc, qg.smul(self.unit_powers[p - 1 - i], w))
        return acc

    # -- dense tables -------------------------------------------------------------
    def build_tables(self) -> None:
        """Materialize transported_star and prelie_product as index tables;
        the transported star comes from one batched star(p a, b) pass."""
        if self._bullet_tab is not None:
            return
        qg = self.qgroup
        n = qg.order
        if n > TABLE_THRESHOLD:
            raise InputError(f"quotient of order {n} exceeds the table cap {TABLE_THRESHOLD}")
        odot = build_table(qg, self._odot_many)
        self._odot_tab = odot

        ctx = IndexContext(qg)
        coords, moduli = ctx.coords, ctx.moduli
        qmod = qg.scalars.modulus
        acc = np.zeros((n, n, qg.rank), dtype=np.int64)
        idx = np.arange(n)
        for i in range(self.p - 1):
            # x -> u^i x, then weight u^(p-1-i); units reduced mod the
            # quotient's exponent modulus keep the products small
            perm = ctx.encode((coords * (self.unit_powers[i] % qmod)) % moduli)
            acc += coords[odot[perm[idx], :]] * (self.unit_powers[self.p - 1 - i] % qmod)
            acc %= moduli
        self._bullet_tab = ctx.encode(acc % moduli)

    def ring(self) -> PreLieRing:
        """The derived product as a PreLieRing on the quotient group; it
        carries the dense product table when the quotient is table-sized."""
        if self.qgroup.order <= TABLE_THRESHOLD:
            self.build_tables()
        return PreLieRing(self.qgroup, self.prelie_product, None, self._bullet_tab)


def derive(brace: Brace) -> DerivedPreLie:
    """Forward passage: the averaged pre-Lie product on A/ann(p^2)."""
    g = brace.group
    space = quotient(g, g.annihilator(2))
    unit = teichmuller_unit(ScalarRing(g.p, max(g.max_exp, 1)))
    return DerivedPreLie(brace, space, unit)


def verify_derived_ring(derived: DerivedPreLie, *, exhaustive: bool | None = None,
                        samples: int = 100_000, seed: int = 0) -> CheckReport:
    """Theorem-level checks of the forward passage: representative
    independence of the transported product, then the full pre-Lie axiom
    report (biadditivity, pre-Lie identity, left nilpotency) of the
    averaged product on the quotient."""
    report = CheckReport()
    src = derived.source
    qg = derived.qgroup
    kernel = derived.space.kernel
    moduli = np.array(src.group.moduli, dtype=src.dtype)

    # representative independence, sampled over kernel perturbations
    n = min(samples, 2_000)
    drawn = sample_coords(random.Random(seed), n, (qg, qg, kernel, kernel), src.dtype)
    x, y, zx, zy = drawn
    perturbed = derived._odot_many((x + zx) % moduli, (y + zy) % moduli)
    i = first_true((perturbed != derived.transported_star_many(x, y)).any(axis=-1))
    bad = None if i is None else " ".join(
        f"{name}={tuple(v[i].tolist())}" for name, v in zip(("x", "y", "zx", "zy"), drawn))
    report.add("transported-star-well-defined", bad is None, witness=bad,
               info=f"sampled n={n} seed={seed}")

    ring = derived.ring()
    report.extend(verify_prelie(ring, exhaustive=exhaustive,
                                samples=samples, seed=seed))
    return report


# ---------------------------------------------------------------------------
# the canonical section f and its recovery coefficients


def _section_coefficients(p: int) -> list[int]:
    """c_i = C(p-1, i-1) / i = C(p, i) / p for i = 1..p-1; exact integers."""
    out = []
    for i in range(1, p):
        num = math.comb(p - 1, i - 1)
        if num % i:
            raise StructureError(f"C({p - 1},{i - 1}) not divisible by {i}")
        out.append(num // i)
    return out


def circle_power_section(brace: Brace, a: Element) -> Element:
    """f(a) = sum_i c_i e_i along the chain e_1 = a, e_{i+1} = a * e_i.
    Satisfies p f(a) = a^(circ p)."""
    g = brace.group
    p = g.p
    coeffs = _section_coefficients(p)
    acc = g.zero
    e = a
    for i in range(1, p):
        acc = g.add(acc, g.smul(coeffs[i - 1], e))
        e = brace.star(a, e)
        if e == g.zero:
            break
    return acc


def _section_many(brace: Brace, a: np.ndarray) -> np.ndarray:
    """circle_power_section on a (..., rank) array; an entry's chain stops
    at its first zero, as there."""
    g = brace.group
    moduli = np.array(g.moduli, dtype=brace.dtype)
    acc, e, live = 0, a, True
    for c in _section_coefficients(g.p):
        acc = (acc + c % g.scalars.modulus * e) % moduli
        e = brace.star_many(a, e) * live
        live = e.any(axis=-1, keepdims=True)
    return acc


@dataclass(frozen=True)
class ShiftSeries:
    """Truncated polynomial sum_{k=0}^{p-2} coeffs[k] L^k in a formal shift
    operator L, coefficients in Z/p**m.  Powers at or beyond p-1 are
    identically dropped: they annihilate every argument in scope."""

    ring: ScalarRing
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.ring.p - 1:
            raise InputError(
                f"shift series needs exactly p-1={self.ring.p - 1} coefficients"
            )

    def mul(self, other: "ShiftSeries") -> "ShiftSeries":
        ring = self.ring
        d = ring.p - 1
        out = [0] * d
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= d:
                    break
                out[i + j] = (out[i + j] + a * b) % ring.modulus
        return ShiftSeries(ring, tuple(out))

    def add(self, other: "ShiftSeries") -> "ShiftSeries":
        return ShiftSeries(self.ring, tuple(
            (a + b) % self.ring.modulus
            for a, b in zip(self.coeffs, other.coeffs)))

    def smul(self, k: int) -> "ShiftSeries":
        return ShiftSeries(self.ring, tuple(
            (k * a) % self.ring.modulus for a in self.coeffs))


def _chain_series(ring: ScalarRing) -> tuple[ShiftSeries, ShiftSeries]:
    """(F, T): the section series F = sum c_i L^(i-1) and its shifted form
    T = sum c_i L^i (the transported product of f(a) acts as T)."""
    p = ring.p
    c = _section_coefficients(p)
    f_coeffs = [c[i] % ring.modulus for i in range(p - 1)]
    t_coeffs = [0] * (p - 1)
    for i in range(1, p - 1):
        t_coeffs[i] = c[i - 1] % ring.modulus
    return (ShiftSeries(ring, tuple(f_coeffs)), ShiftSeries(ring, tuple(t_coeffs)))


def identity_recovery_coefficients(p: int, n: int) -> tuple[int, ...]:
    """alpha_1..alpha_{p-1} with sum_j alpha_j f_j(a) == a on classes mod
    ann(p^2), where f_1 = f(a) and f_{j+1} = transported_star(f(a), f_j).
    Solved by forward substitution against the unitriangular series
    T^(j-1) F; alpha_1 is always 1."""
    ring = ScalarRing(p, n)
    F, T = _chain_series(ring)
    basis = [F]
    for _ in range(2, p):
        basis.append(T.mul(basis[-1]))
    alphas = [0] * (p - 1)
    residual = [0] * (p - 1)
    for k in range(p - 1):
        want = 1 if k == 0 else 0
        assert basis[k].coeffs[k] == 1
        alphas[k] = (want - residual[k]) % ring.modulus
        if alphas[k]:
            for t in range(k, p - 1):
                residual[t] = (residual[t] + alphas[k] * basis[k].coeffs[t]) % ring.modulus
    target = tuple(1 if k == 0 else 0 for k in range(p - 1))
    assert _combine(ring, basis, alphas).coeffs == target
    assert alphas[0] == 1
    return tuple(alphas)


def star_recovery_coefficients(p: int, n: int) -> tuple[int, ...]:
    """gamma_1..gamma_{p-1} with sum_i gamma_i q_i == [a * b] where
    q_1 = transported_star(f(a), b) and q_{i+1} = transported_star(f(a), q_i).
    Solved against the series T^i with target L; gamma_1 is always 1 and
    gamma_{p-1} is free (T^(p-1) truncates to zero) and set to 0."""
    ring = ScalarRing(p, n)
    _, T = _chain_series(ring)
    basis = [T]
    for _ in range(2, p):
        basis.append(T.mul(basis[-1]))
    gammas = [0] * (p - 1)
    residual = [0] * (p - 1)
    for k in range(1, p - 1):
        want = 1 if k == 1 else 0
        assert basis[k - 1].coeffs[k] == 1
        gammas[k - 1] = (want - residual[k]) % ring.modulus
        if gammas[k - 1]:
            for t in range(k, p - 1):
                residual[t] = (residual[t] + gammas[k - 1] * basis[k - 1].coeffs[t]) % ring.modulus
    target = tuple(1 if k == 1 else 0 for k in range(p - 1))
    assert _combine(ring, basis, gammas).coeffs == target
    assert gammas[0] == 1
    return tuple(gammas)


def _combine(ring: ScalarRing, basis: list[ShiftSeries], weights: list[int]) -> ShiftSeries:
    acc = ShiftSeries(ring, (0,) * (ring.p - 1))
    for w, b in zip(weights, basis):
        if w:
            acc = acc.add(b.smul(w))
    return acc


def verify_identity_recovery(brace: Brace, derived: DerivedPreLie | None = None,
                             *, exhaustive: bool | None = None,
                             samples: int = 2_000, seed: int = 0) -> CheckReport:
    """Elementwise check of the identity recovery: the section postcondition
    p f(a) = a^(circ p), then sum_j alpha_j f_j(a) == [a] on the quotient."""
    d = derived if derived is not None else derive(brace)
    g = brace.group
    qg = d.qgroup
    p = g.p
    alphas = identity_recovery_coefficients(p, max(g.n, 1))
    report = CheckReport()
    exhaustive = exhaustive_for(qg.order, exhaustive)
    classes = (list(qg.elements()) if exhaustive else list(map(tuple, sample_coords(
        random.Random(seed), samples, (qg,), brace.dtype)[0].tolist())))

    bad_post = None
    bad_comb = None
    for x in classes:
        a = d.space.lift(x)
        fa = circle_power_section(brace, a)
        if bad_post is None and g.smul(p, fa) != brace.circ_pow(a, p):
            bad_post = f"a={a}"
        fa_cls = d.space.project(fa)
        term = fa_cls
        acc = qg.smul(alphas[0], term)
        for j in range(1, p - 1):
            term = d.transported_star(fa_cls, term)
            if alphas[j]:
                acc = qg.add(acc, qg.smul(alphas[j], term))
        if bad_comb is None and acc != x:
            bad_comb = f"class={x} got={acc}"
        if bad_post and bad_comb:
            break
    mode = "exhaustive" if exhaustive else f"sampled n={samples} seed={seed}"
    report.add("section-postcondition", bad_post is None, witness=bad_post, info=mode)
    report.add("identity-recovery", bad_comb is None, witness=bad_comb,
               info=f"{mode}, alpha_1={alphas[0]}")
    return report


def verify_star_recovery(brace: Brace, derived: DerivedPreLie | None = None,
                         *, exhaustive: bool | None = None,
                         samples: int = 2_000, seed: int = 0) -> CheckReport:
    """Elementwise check of sum_i gamma_i q_i(a, b) == [a * b]: on every
    pair of classes when _tables.exhaustive_for holds for the quotient, else
    on fixed-seed samples, as one batched evaluation."""
    d = derived if derived is not None else derive(brace)
    g = brace.group
    qg = d.qgroup
    gammas = star_recovery_coefficients(g.p, max(g.n, 1))
    weights = [c % qg.scalars.modulus for c in gammas]
    qmoduli = np.array(qg.moduli, dtype=brace.dtype)

    def sides(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fa = _section_many(brace, x) % qmoduli
        got, term = 0, y
        for w in weights:
            term = d.transported_star_many(fa, term)
            got = (got + w * term) % qmoduli
        return got, brace.star_many(x, y) % qmoduli

    return _pair_report("star-recovery", qg, sides, exhaustive, samples, seed, brace.dtype,
                        f", gamma_1={gammas[0]}")


def _pair_report(name: str, qg: PGroup, sides, exhaustive: bool | None, samples: int,
                 seed: int, dtype, info: str = "") -> CheckReport:
    """One check: the first pair of classes (see first_bad_pair; every pair
    when exhaustive_for holds) where the sides (got, want) of a law differ."""
    exhaustive = exhaustive_for(qg.order, exhaustive)
    pair = first_bad_pair(qg, qg, lambda x, y: np.not_equal(*sides(x, y)).any(axis=-1),
                          exhaustive=exhaustive, samples=samples, seed=seed, dtype=dtype)
    bad = None
    if pair is not None:
        x, y, got, want = (tuple(v.tolist()) for v in (*pair, *sides(*pair)))
        bad = f"x={x} y={y} got={got} want={want}"
    report = CheckReport()
    report.add(name, bad is None, witness=bad, info=(
        "exhaustive" if exhaustive else f"sampled n={samples} seed={seed}") + info)
    return report


# ---------------------------------------------------------------------------
# the section as a bijection of the quotient


@dataclass
class SectionPermutation:
    """The map [a] -> [f(a)] tabulated as a permutation of quotient classes."""

    derived: DerivedPreLie
    forward: dict[Element, Element]
    cycle_lengths: list[int]
    order: int

    def inverse_class(self, x: Element) -> Element:
        out = x
        for _ in range(self.order - 1):
            out = self.forward[out]
        return out

    def inverse_map(self) -> dict[Element, Element]:
        return {x: self.inverse_class(x) for x in self.forward}


def section_permutation(brace: Brace, derived: DerivedPreLie | None = None) -> SectionPermutation:
    d = derived if derived is not None else derive(brace)
    qg = d.qgroup
    forward = {}
    for x in qg.elements():
        forward[x] = d.space.project(circle_power_section(brace, d.space.lift(x)))
    if len(set(forward.values())) != len(forward):
        raise StructureError("the section is not injective on quotient classes")
    lengths = _cycle_lengths(forward)
    order = math.lcm(*lengths) if lengths else 1
    return SectionPermutation(d, forward, lengths, order)


def _cycle_lengths(perm: dict) -> list[int]:
    seen = set()
    out = []
    for start in perm:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        out.append(length)
    return out


def _divides_huge_factorial(length: int, base: int) -> bool:
    """Does length divide (base)! ?  Checked by Legendre valuations, never
    materializing the factorial."""
    rest = length
    q = 2
    while q * q <= rest:
        if rest % q == 0:
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            if _legendre_valuation(base, q) < e:
                return False
        q += 1 if q == 2 else 2
    if rest > 1:
        if _legendre_valuation(base, rest) < 1:
            return False
    return True


def _legendre_valuation(n: int, q: int) -> int:
    out = 0
    qk = q
    while qk <= n:
        out += n // qk
        qk *= q
    return out


def section_bijection_report(brace: Brace, derived: DerivedPreLie | None = None) -> CheckReport:
    """The section is a permutation of quotient classes; its inverse is a
    power of itself because every cycle length divides (p^p)!."""
    report = CheckReport()
    d = derived if derived is not None else derive(brace)
    try:
        perm = section_permutation(brace, d)
    except StructureError as exc:
        report.add("section-bijective", False, witness=str(exc))
        return report
    report.add("section-bijective", True,
               info=f"{len(perm.forward)} classes, order {perm.order}")

    p = brace.group.p
    bad = None
    for length in sorted(set(perm.cycle_lengths)):
        if not _divides_huge_factorial(length, p ** p):
            bad = f"cycle length {length} does not divide ({p}^{p})!"
            break
    report.add("cycle-lengths-divide-factorial", bad is None, witness=bad,
               info=f"lengths {sorted(set(perm.cycle_lengths))}")

    inverse = perm.inverse_map()
    bad = None
    for x, fx in perm.forward.items():
        if inverse[fx] != x or perm.forward[inverse[x]] != x:
            bad = f"x={x}"
            break
    report.add("section-round-trip", bad is None, witness=bad,
               info="both compositions are the identity")
    return report


# ---------------------------------------------------------------------------
# backward passage and the reconstruction theorem


def verify_flows_roundtrip(ring: PreLieRing, *, exhaustive: bool | None = None,
                           samples: int = 10_000, seed: int = 0) -> CheckReport:
    """For a left-nilpotent ring, derive the averaged product back from its
    group of flows: the result must be (p-1) times the original product on
    quotient classes.  Checked on every pair of classes when
    _tables.exhaustive_for holds for the quotient, else on fixed-seed
    samples, as one batched evaluation."""
    d = derive(flows_brace(ring, verify=False))
    qg = d.qgroup
    derived_ring = d.ring()
    qmoduli = np.array(qg.moduli, dtype=ring.dtype)

    def sides(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return derived_ring.dot_many(x, y), (qg.p - 1) * (ring.dot_many(x, y) % qmoduli) % qmoduli

    return _pair_report("flows-roundtrip-scaled-product", qg, sides, exhaustive, samples,
                        seed, ring.dtype)


def reconstruct_brace(derived: DerivedPreLie, *, verify: bool = True,
                      samples: int = 100_000, seed: int = 0) -> Brace:
    """Backward passage applied to a derived ring: group of flows of the
    twist-scaled averaged product, living on A/ann(p^2)."""
    ring = derived.ring()
    qg = derived.qgroup
    s = twist_constant(ScalarRing(qg.p, max(qg.max_exp, 1)))
    twisted = scalar_twist(ring, s)
    return flows_brace(twisted, verify=verify, samples=samples, seed=seed)


def _compare_braces(b1: Brace, b2: Brace, *, samples: int = 50_000,
                    seed: int = 0) -> str | None:
    if b1.group != b2.group:
        return f"carriers differ: {b1.group!r} vs {b2.group!r}"
    g = b1.group
    exhaustive = exhaustive_for(g.order)
    pair = first_bad_pair(
        g, g, lambda x, y: (b1.circ_many(x, y) != b2.circ_many(x, y)).any(axis=-1),
        exhaustive=exhaustive, samples=samples, seed=seed, dtype=b1.dtype)
    if pair is None:
        return None
    a, b = (tuple(v.tolist()) for v in pair)
    return f"a={a} b={b} {b1.circ(a, b)} vs {b2.circ(a, b)}" if exhaustive else f"a={a} b={b}"


def reconstruction_report(brace: Brace, *, samples: int = 10_000,
                          seed: int = 0, check_ring: bool = True) -> CheckReport:
    """End-to-end reconstruction check.

    1. derive the averaged ring on A/ann(p^2) (optionally re-verifying its
       axioms);
    2. quotient the source brace by ann(p^2), then by I = ann(p^2) of the
       quotient;
    3. reconstruct a brace from the twisted derived ring via flows and
       quotient it by the same I;
    4. the two quotient braces must agree elementwise, and must equal the
       source brace modulo ann(p^4) under the coordinatewise identity map.
    """
    report = CheckReport()
    g = brace.group

    d = derive(brace)
    if check_ring:
        ring_rep = verify_derived_ring(d, samples=samples, seed=seed)
        report.add("derived-ring-axioms", ring_rep.passed,
                   witness=None if ring_rep.passed else
                   "; ".join(r.line() for r in ring_rep.results if not r.passed))

    brace_mod2 = ideal_quotient(brace, 2, "ann", samples=samples, seed=seed)
    inner = brace_mod2.group.annihilator(2)
    brace2 = factor_brace(brace_mod2, inner, samples=samples, seed=seed)

    rebuilt = reconstruct_brace(d, verify=False)
    rebuilt_rep = None
    try:
        from .braces import verify_brace

        rebuilt_rep = verify_brace(rebuilt, samples=samples, seed=seed)
    except StructureError as exc:  # pragma: no cover - structural
        report.add("reconstructed-brace-axioms", False, witness=str(exc))
    if rebuilt_rep is not None:
        report.add("reconstructed-brace-axioms", rebuilt_rep.passed,
                   witness=None if rebuilt_rep.passed else
                   "; ".join(r.line() for r in rebuilt_rep.results if not r.passed))

    brace1 = factor_brace(rebuilt, inner, samples=samples, seed=seed)
    w = _compare_braces(brace1, brace2, samples=samples, seed=seed)
    report.add("reconstruction-matches-mod-inner-ideal", w is None, witness=w,
               info=f"quotient order {brace1.group.order}")

    target = ideal_quotient(brace, 4, "ann", samples=samples, seed=seed)
    expect_factors = tuple(max(max(e - 2, 0) - 2, 0) for e in g.factors)
    if tuple(target.group.factors) != expect_factors:  # pragma: no cover
        report.add("isomorphic-to-mod-ann-p4", False,
                   witness=f"exponent mismatch {target.group.factors} vs {expect_factors}")
    else:
        w = _compare_braces(brace2, target, samples=samples, seed=seed)
        report.add("isomorphic-to-mod-ann-p4", w is None, witness=w,
                   info=f"final quotient order {target.group.order}")
    return report
