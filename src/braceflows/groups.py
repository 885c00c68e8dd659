"""Finite abelian p-groups with coordinate-vector elements.

A group is a product of cyclic factors Z/p**e_j with non-increasing
exponents.  Elements are tuples of canonical residues (coordinate j in
[0, p**e_j)).  Every subgroup this package quotients by is
coordinate-aligned: coordinate j ranges over the multiples of a fixed
power of p.  That covers the two families the theory needs, the
p**i-torsion subgroups ann(p**i) and the images p**i * A, and makes
canonical coset representatives a coordinatewise reduction.

The group size constraint n = sum(e_j) < p - 1 is enforced at
construction; all downstream truncation arguments rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterable, Iterator

from .errors import InputError, StructureError
from .padic import ScalarRing, is_prime

__all__ = [
    "Element",
    "PGroup",
    "Subgroup",
    "QuotientSpace",
    "quotient",
    "divide_by_p",
    "Span",
    "additive_span",
]

Element = tuple[int, ...]

# Exhaustive element enumeration is used freely below this order.
ENUMERATION_CAP = 1 << 20


class PGroup:
    """Product of cyclic p-groups, elements as tuples of canonical residues."""

    __slots__ = ("p", "factors", "n", "moduli", "order", "max_exp", "_strides")

    def __init__(self, p: int, factors: Iterable[int], *, allow_zero: bool = False):
        factors = tuple(int(e) for e in factors)
        if not is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        if not factors:
            raise InputError("at least one cyclic factor is required")
        low = 0 if allow_zero else 1
        if any(e < low for e in factors):
            raise InputError(f"factor exponents must be >= {low}, got {factors}")
        if any(factors[i] < factors[i + 1] for i in range(len(factors) - 1)):
            raise InputError(f"factor exponents must be non-increasing, got {factors}")
        n = sum(factors)
        if n >= p - 1:
            raise InputError(
                f"group of order {p}**{n} violates the size constraint n < p-1 "
                f"(n={n}, p={p})"
            )
        self.p = p
        self.factors = factors
        self.n = n
        self.moduli = tuple(p ** e for e in factors)
        self.max_exp = max(factors)
        order = 1
        for m in self.moduli:
            order *= m
        self.order = order
        # mixed-radix strides for encode/decode, last coordinate fastest
        strides = [1] * len(factors)
        for i in range(len(factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.moduli[i + 1]
        self._strides = tuple(strides)

    # -- identity / comparison ------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PGroup)
            and self.p == other.p
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.p, self.factors))

    def __repr__(self) -> str:
        inner = " x ".join(f"Z/{self.p}^{e}" for e in self.factors)
        return f"PGroup({inner})"

    # -- element arithmetic ---------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix weights of encode, last coordinate fastest."""
        return self._strides

    @property
    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def check(self, a: Element) -> Element:
        if len(a) != len(self.moduli) or any(
            not (0 <= x < m) for x, m in zip(a, self.moduli)
        ):
            raise InputError(f"{a} is not a canonical element of {self!r}")
        return a

    def reduce(self, a: Iterable[int]) -> Element:
        return tuple(x % m for x, m in zip(a, self.moduli))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def smul(self, k: int, a: Element) -> Element:
        return tuple((k * x) % m for x, m in zip(a, self.moduli))

    def elements(self) -> Iterator[Element]:
        if self.order > ENUMERATION_CAP:
            raise InputError(
                f"refusing to enumerate {self.order} elements (cap {ENUMERATION_CAP})"
            )
        return _iproduct(*(range(m) for m in self.moduli))

    def encode(self, a: Element) -> int:
        return sum(x * s for x, s in zip(a, self._strides))

    def decode(self, i: int) -> Element:
        out = []
        for m, s in zip(self.moduli, self._strides):
            out.append((i // s) % m)
        return tuple(out)

    def generators(self) -> list[Element]:
        """Unit vectors of the nontrivial coordinates."""
        out = []
        for j, e in enumerate(self.factors):
            if e > 0:
                v = [0] * len(self.factors)
                v[j] = 1
                out.append(tuple(v))
        return out

    def random_element(self, rng) -> Element:
        return tuple(rng.randrange(m) for m in self.moduli)

    def additive_order(self, a: Element) -> int:
        """Order of a in (A, +): the largest coordinate order."""
        best = 0
        for x, e in zip(a, self.factors):
            if x == 0:
                continue
            v = 0
            while x % self.p == 0:
                x //= self.p
                v += 1
            best = max(best, e - v)
        return self.p ** best

    @property
    def scalars(self) -> ScalarRing:
        return ScalarRing(self.p, max(self.max_exp, 1))

    # -- distinguished subgroups ---------------------------------------------
    def annihilator(self, i: int) -> "Subgroup":
        """Elements killed by p**i; coordinate j holds multiples of p**max(e_j-i,0)."""
        if i < 0:
            raise InputError(f"annihilator index must be >= 0, got {i}")
        return Subgroup(self, tuple(max(e - i, 0) for e in self.factors))

    def power_image(self, i: int) -> "Subgroup":
        """The subgroup p**i * A; coordinate j holds multiples of p**min(i,e_j)."""
        if i < 0:
            raise InputError(f"power image index must be >= 0, got {i}")
        return Subgroup(self, tuple(min(i, e) for e in self.factors))


@dataclass(frozen=True)
class Subgroup:
    """Coordinate-aligned subgroup: coordinate j ranges over multiples of p**pexps[j]."""

    group: PGroup
    pexps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.pexps) != len(self.group.factors) or any(
            not (0 <= k <= e) for k, e in zip(self.pexps, self.group.factors)
        ):
            raise InputError(
                f"subgroup exponents {self.pexps} do not fit {self.group!r}"
            )

    @property
    def size(self) -> int:
        out = 1
        for k, e in zip(self.pexps, self.group.factors):
            out *= self.group.p ** (e - k)
        return out

    def __contains__(self, a: Element) -> bool:
        return all(x % (self.group.p ** k) == 0 for x, k in zip(a, self.pexps))

    def elements(self) -> Iterator[Element]:
        if self.size > ENUMERATION_CAP:
            raise InputError(f"refusing to enumerate {self.size} subgroup elements")
        p = self.group.p
        ranges = [
            range(0, m, p ** k) for m, k in zip(self.group.moduli, self.pexps)
        ]
        return _iproduct(*ranges)

    def generators(self) -> list[Element]:
        out = []
        for j, (k, e) in enumerate(zip(self.pexps, self.group.factors)):
            if k < e:
                v = [0] * len(self.pexps)
                v[j] = self.group.p ** k
                out.append(tuple(v))
        return out

    def random_element(self, rng) -> Element:
        p = self.group.p
        return tuple(
            (p ** k) * rng.randrange(m // (p ** k))
            for m, k in zip(self.group.moduli, self.pexps)
        )


@dataclass(frozen=True)
class QuotientSpace:
    """A/S for a coordinate-aligned S; canonical representative of a coset is
    the coordinatewise reduction modulo p**dexps[j]."""

    parent: PGroup
    dexps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dexps) != len(self.parent.factors) or any(
            not (0 <= d <= e) for d, e in zip(self.dexps, self.parent.factors)
        ):
            raise InputError(f"quotient exponents {self.dexps} do not fit {self.parent!r}")

    @property
    def group(self) -> PGroup:
        return PGroup(self.parent.p, self.dexps, allow_zero=True)

    @property
    def kernel(self) -> Subgroup:
        return Subgroup(self.parent, self.dexps)

    @property
    def size(self) -> int:
        out = 1
        for d in self.dexps:
            out *= self.parent.p ** d
        return out

    def project(self, a: Element) -> Element:
        p = self.parent.p
        return tuple(x % (p ** d) for x, d in zip(a, self.dexps))

    def lift(self, x: Element) -> Element:
        """Canonical representatives are already elements of the parent."""
        return self.parent.check(x)


def quotient(group: PGroup, s: Subgroup) -> QuotientSpace:
    """Quotient of a group by a coordinate-aligned subgroup."""
    if s.group != group:
        raise InputError("subgroup does not belong to the given group")
    return QuotientSpace(group, s.pexps)


def divide_by_p(group: PGroup, x: Element) -> Element:
    """The canonical section of multiplication by p: for x in p*A return the
    y with canonical coordinates y_j = x_j / p, so that p*y == x exactly."""
    if any(c % group.p != 0 for c in x):
        raise StructureError(f"{x} is not in p*A; cannot divide by p")
    return tuple(c // group.p for c in x)


@dataclass
class Span:
    """An additive subgroup held as an explicit element set plus the
    generators that were essential while building it."""

    group: PGroup
    elements: frozenset
    gens: tuple

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in self.elements

    @property
    def is_zero(self) -> bool:
        return len(self.elements) == 1


def additive_span(group: PGroup, vectors: Iterable[Element]) -> Span:
    """Additive closure of a vector set, by breadth-first extension.

    Generators already inside the running span are skipped, so the cost is
    O(final size x essential generators), not O(final size x inputs).
    """
    span: set = {group.zero}
    essential: list[Element] = []
    add = group.add
    for v in vectors:
        if v in span:
            continue
        essential.append(v)
        new = set(span)
        t = v
        while t not in span:
            new.update(add(s, t) for s in span)
            t = add(t, v)
        span = new
    return Span(group, frozenset(span), tuple(essential))
