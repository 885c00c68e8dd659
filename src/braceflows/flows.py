"""The group of flows of a left-nilpotent pre-Lie ring.

Writing L_a for left multiplication by a, the construction exponentiates:

    W(a)      = a + (1/2!) a.a + (1/3!) a.(a.a) + ...      (left-normed)
    star(a,b) = sum_{k>=1} (1/k!) L_{Omega(a)}^k (b)
    a circ b  = a + b + star(a, b)

where Omega is the inverse of W.  Every series is finite: a left-normed
product of k factors lies in the k-th left chain level, so terms vanish
once the chain reaches zero at level s, and s <= n+1 < p keeps every 1/k!
a unit.  Sums truncate by exact elementwise zero detection, with the chain
index as a hard structural cap.

Omega is computed by the fixed-point iteration x <- a - (W(x) - x).  On a
left-nilpotent ring the error drops one chain level per step, so it
stabilizes within the chain index; if it does not, StructureError.

Every series has a batched twin (exp_many, log_many, apply_exp_many,
circ_many) on (..., rank) coordinate arrays, running on the ring's
dot_many; flows_brace tabulates small carriers through it in one pass.
"""

from __future__ import annotations

import numpy as np

from .braces import Brace
from .errors import StructureError
from .groups import Element
from .padic import ScalarRing, inverse_factorial
from .prelie import PreLieRing, ring_left_chain

__all__ = ["FlowContext", "flows_brace"]

_TRUNCATION = ("{} series failed to truncate at the nilpotency index; "
               "input ring is inconsistent")


class FlowContext:
    """Evaluator for the exponential-type series of one pre-Lie ring.

    The constructor runs the left chain (raising StructureError when the
    ring is not left nilpotent) and records the nilpotency index s =
    smallest level with L^s = 0.  Nonzero series terms never reach factor
    count s, so 1/k! is only ever needed for k < s <= n+1 < p.
    """

    def __init__(self, ring: PreLieRing):
        self.ring = ring
        g = ring.group
        self.group = g
        chain = ring_left_chain(ring)
        self.index = len(chain)
        self.scalars = ScalarRing(g.p, max(g.max_exp, 1))
        self.inv_fact = [inverse_factorial(k, self.scalars)
                         for k in range(self.index)]
        self._omega_cache: dict[Element, Element] = {}
        self.dtype = ring.dtype
        self.moduli = np.array(g.moduli, dtype=self.dtype)

    # -- series ----------------------------------------------------------------
    def apply_exp(self, a: Element, b: Element) -> Element:
        """sum_{k>=1} (1/k!) L_a^k(b); the k-th term has k+1 factors."""
        g = self.group
        dot = self.ring.dot
        acc = g.zero
        term = b
        for k in range(1, self.index + 1):
            term = dot(a, term)
            if term == g.zero:
                break
            if k >= len(self.inv_fact):
                raise StructureError(_TRUNCATION.format("exponential"))
            acc = g.add(acc, g.smul(self.inv_fact[k], term))
        return acc

    def exp_map(self, a: Element) -> Element:
        """W(a) = a + sum_{k>=2} (1/k!) a^(.k) with left-normed powers."""
        g = self.group
        dot = self.ring.dot
        acc = a
        term = a
        for k in range(2, self.index + 2):
            term = dot(a, term)
            if term == g.zero:
                break
            if k >= len(self.inv_fact):
                raise StructureError(_TRUNCATION.format("flow"))
            acc = g.add(acc, g.smul(self.inv_fact[k], term))
        return acc

    def log_map(self, a: Element) -> Element:
        """Omega(a): the unique x with W(x) = a."""
        hit = self._omega_cache.get(a)
        if hit is not None:
            return hit
        g = self.group
        x = a
        for _ in range(self.index + 1):
            w = self.exp_map(x)
            if w == a:
                self._omega_cache[a] = x
                return x
            x = g.sub(a, g.sub(w, x))
        raise StructureError(self._no_inverse(a))

    def _no_inverse(self, a: Element) -> str:
        return (f"W could not be inverted at {a}: the fixed-point iteration "
                f"did not stabilize within {self.index + 1} steps")

    # -- batched series -------------------------------------------------------
    def _series(self, x: np.ndarray, term: np.ndarray, acc: np.ndarray,
                first: int, name: str) -> np.ndarray:
        """acc + sum_{k>=first} (1/k!) L_x^(k-first+1)(term).  As in the
        pointwise series, an entry stops at its first zero term; the batch
        stops when every entry has."""
        live = True
        for k in range(first, self.index + first):
            term = self.ring.dot_many(x, term) * live
            live = term.any(axis=-1, keepdims=True)
            if not live.any():
                break
            if k >= len(self.inv_fact):
                raise StructureError(_TRUNCATION.format(name))
            acc = (acc + self.inv_fact[k] * term) % self.moduli
        return acc

    def _coerce(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=self.dtype)

    def apply_exp_many(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """apply_exp on broadcast (..., rank) coordinate arrays."""
        x, b = self._coerce(x), self._coerce(b)
        zero = np.zeros(np.broadcast_shapes(x.shape, b.shape), dtype=self.dtype)
        return self._series(x, b, zero, 1, "exponential")

    def exp_many(self, x: np.ndarray) -> np.ndarray:
        """exp_map on a (..., rank) coordinate array."""
        x = self._coerce(x)
        return self._series(x, x, x, 2, "flow")

    def log_many(self, a: np.ndarray) -> np.ndarray:
        """log_map on a (..., rank) coordinate array; the same iteration,
        run until every entry is a fixed point."""
        a = self._coerce(a)
        x = a
        for _ in range(self.index + 1):
            w = self.exp_many(x)
            bad = (w != a).any(axis=-1)
            if not bad.any():
                return x
            x = (a - (w - x)) % self.moduli
        first = tuple(int(c) for c in a[tuple(np.argwhere(bad)[0])])
        raise StructureError(self._no_inverse(first))

    def circ_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a circ b on broadcast (..., rank) arrays.  Omega runs on a's own
        shape, so a (N, 1, rank) block against (1, M, rank) right arguments
        computes it once per left argument."""
        a, b = self._coerce(a), self._coerce(b)
        star = self.apply_exp_many(self.log_many(a), b)
        return (a + b + star) % self.moduli

    # -- the brace --------------------------------------------------------------
    def star(self, a: Element, b: Element) -> Element:
        return self.apply_exp(self.log_map(a), b)

    def circ(self, a: Element, b: Element) -> Element:
        g = self.group
        return g.add(g.add(a, b), self.star(a, b))


def flows_brace(ring: PreLieRing, *, verify: bool = True,
                samples: int = 100_000, seed: int = 0) -> Brace:
    """Brace of the group of flows.  Left nilpotency is always required
    (FlowContext raises on its absence); with verify=True the resulting
    brace's axioms are also checked and a failure raises StructureError.
    """
    ctx = FlowContext(ring)
    brace = Brace.from_callable(ring.group, ctx.circ, circ_many=ctx.circ_many)
    brace.flow_context = ctx
    if verify:
        from .braces import verify_brace

        report = verify_brace(brace, samples=samples, seed=seed)
        if not report.passed:
            raise StructureError(
                "group-of-flows output failed brace verification:\n" + str(report)
            )
    return brace
