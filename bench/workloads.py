"""Workload definitions and the seed -> input-document generator.

Every workload is a list of documents, each run through one or more CLI
invocations.  Inputs depend on the seed only through its variant
``v = seed % VARIANTS``:

* every base ring's structure constants are scaled by the unit ``c = v + 1``
  of Z/7.  A unit multiple of a left-nilpotent pre-Lie ring is again one,
  with the same nilpotency index, so every variant does the same amount of
  work;
* ``v`` is passed as ``--seed`` to the sampled checks.

Golden outputs are committed for every variant (see ``golden/``), so any
seed maps to a document set whose expected output is known.

The Cayley-body documents are tabulated here with numpy, independently of
the program: the benchmark must not depend on the code it measures to make
its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

P = 7
VARIANTS = P - 1

# (j, k) -> coordinates of g_j . g_k, 0-based generator indices.
Constants = dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class Ring:
    """A base ring before seed scaling."""

    name: str
    factors: tuple[int, ...]
    sc: Constants
    comment: str

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(P ** e for e in self.factors)

    def scaled(self, unit: int) -> Constants:
        return {jk: tuple((unit * x) % m for x, m in zip(v, self.moduli))
                for jk, v in self.sc.items()}


E1 = Ring("E1", (5,), {(0, 0): (7,)}, "a.b = 7c ab on Z/7^5")
E2 = Ring("E2", (5,), {(0, 0): (49,)}, "a.b = 49c ab on Z/7^5")
M1 = Ring("M1", (3, 2), {(1, 0): (7, 0)},
          "g2.g1 = 7c g1 on Z/7^3 x Z/7^2")
C1 = Ring("C1", (3,), {(0, 0): (7,)}, "a.b = 7c ab on Z/7^3")
C2 = Ring("C2", (2, 1), {(0, 0): (7, 0), (1, 0): (7, 0)},
          "g1.g1 = g2.g1 = 7c g1 on Z/7^2 x Z/7")


@dataclass(frozen=True)
class Doc:
    """One input document and the CLI invocations run on it.  "{file}" in a
    command stands for the document's path."""

    ring: Ring
    form: str  # "prelie", "flows" (brace in flows form) or "cayley"
    commands: tuple[tuple[str, ...], ...]

    @property
    def filename(self) -> str:
        ext = "prelie" if self.form == "prelie" else "brace"
        return f"{self.ring.name}.{ext}"


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    docs: tuple[Doc, ...]

    def argv(self, command: tuple[str, ...], path: str, variant: int) -> list[str]:
        return ([path if t == "{file}" else t for t in command]
                + ["--seed", str(variant), "--samples", str(self.samples)])


_FLOWS = ("flows", "{file}")
_CHECK_MAIN = ("check-main", "{file}")
_EXHAUSTIVE = ("verify-brace", "--exhaustive", "{file}")
_DERIVE = ("derive", "{file}")

WORKLOADS = {
    w.name: w for w in (
        Workload("flows-sampled", 500, (
            Doc(E1, "prelie", (_FLOWS,)),
            Doc(E2, "prelie", (_FLOWS,)),
            Doc(M1, "prelie", (_FLOWS,)),
        )),
        Workload("check-main", 500, (
            Doc(E1, "flows", (_CHECK_MAIN,)),
            Doc(M1, "flows", (_CHECK_MAIN,)),
        )),
        # derive on C2 would end in exit 2: its quotient A/ann(p^2) is
        # trivial and has no document form.  check-main runs the same
        # derivation and reports it without serializing the quotient ring.
        Workload("cayley-exhaustive", 500, (
            Doc(C1, "cayley", (_EXHAUSTIVE, _DERIVE)),
            Doc(C2, "cayley", (_EXHAUSTIVE, _CHECK_MAIN)),
        )),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def unit_of(variant: int) -> int:
    return variant + 1


# ---------------------------------------------------------------------------
# document text


def _header(kind: str, ring: Ring) -> list[str]:
    return [f"# {ring.name}: {ring.comment}", f"{kind} v1", f"p {P}",
            "factors " + " ".join(str(e) for e in ring.factors)]


def _sc_lines(sc: Constants) -> list[str]:
    out = []
    for (j, k), v in sorted(sc.items()):
        terms = " ".join(f"{c} {l + 1}" for l, c in enumerate(v) if c)
        if terms:
            out.append(f"sc {j + 1} {k + 1} -> {terms}")
    return out


def document_text(doc: Doc, variant: int) -> str:
    sc = doc.ring.scaled(unit_of(variant))
    if doc.form == "prelie":
        lines = _header("prelie", doc.ring) + _sc_lines(sc)
    elif doc.form == "flows":
        lines = _header("brace", doc.ring) + ["flows"] + _sc_lines(sc)
    else:
        lines = _header("brace", doc.ring) + _cayley_rows(doc.ring, sc)
    return "\n".join(lines) + "\n"


def write_documents(workload: Workload, variant: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in workload.docs:
        path = directory / doc.filename
        path.write_text(document_text(doc, variant), encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# group of flows, tabulated with numpy


def _coords(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All elements as an (N, rank) coordinate array in the mixed-radix
    order of the document format (last coordinate fastest), plus the moduli
    and the strides of that order."""
    moduli = np.array([P ** e for e in factors], dtype=np.int64)
    strides = np.ones(len(factors), dtype=np.int64)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * moduli[i + 1]
    n = int(np.prod(moduli))
    coords = (np.arange(n, dtype=np.int64)[:, None] // strides) % moduli
    return coords, moduli, strides


def flows_table(factors: tuple[int, ...], sc: Constants) -> np.ndarray:
    """Encoded circle table of the group of flows of an sc-defined ring:
    a o b = a + b + sum_{k>=1} (1/k!) L_x^k(b) with W(x) = a."""
    coords, moduli, strides = _coords(factors)
    rank = len(factors)
    tensor = np.zeros((rank, rank, rank), dtype=np.int64)
    for (j, k), v in sc.items():
        tensor[j, k] = v
    big = P ** max(factors)
    inv_fact = [pow(math.factorial(k), -1, big) for k in range(P)]
    steps = sum(factors) + 1  # left-normed products of n+1 factors vanish

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("...j,...k,jkl->...l", a, b, tensor) % moduli

    def exp_series(x: np.ndarray, b: np.ndarray, first: int) -> np.ndarray:
        acc = np.zeros(np.broadcast_shapes(x.shape, b.shape), dtype=np.int64)
        term = b
        for k in range(first, steps + first):
            term = dot(x, term)
            acc = (acc + inv_fact[k] * term) % moduli
        return acc

    def w_map(x: np.ndarray) -> np.ndarray:
        return (x + exp_series(x, x, 2)) % moduli

    omega = coords.copy()
    for _ in range(steps + 1):
        omega = (coords - w_map(omega) + omega) % moduli
    if not np.array_equal(w_map(omega), coords):
        raise ValueError("W did not invert; the ring is not left nilpotent")

    star = exp_series(omega[:, None, :], coords[None, :, :], 1)
    circ = (coords[:, None, :] + coords[None, :, :] + star) % moduli
    return circ @ strides


def _cayley_rows(ring: Ring, sc: Constants) -> list[str]:
    table = flows_table(ring.factors, sc)
    coords, _, _ = _coords(ring.factors)
    text = ["(" + ",".join(str(int(c)) for c in row) + ")" for row in coords]
    n = len(text)
    return [f"{text[i]} ∘ {text[j]} = {text[int(table[i, j])]}"
            for i in range(n) for j in range(n)]
