"""Plain-text input documents for braces and pre-Lie rings.

Grammar (line oriented; '#' starts a comment, blank lines are skipped):

    doc     := header body
    header  := ("brace" | "prelie") "v1" NL "p" INT NL "factors" INT+ NL
    body    := sc-line*                  (prelie)
             | "flows" NL sc-line*       (brace as the flows of a ring)
             | cayley-row+               (brace as an explicit table)
    sc-line := "sc" J K "->" (COEFF L)+ | "sc" J K "-> 0"
    row     := ELEM ("o" | U+2218) ELEM "=" ELEM
    ELEM    := "(" INT ("," INT)* ")"

Generator indices J, K, L are 1-based; missing (J, K) pairs are zero.
Element literals must be canonical (0 <= c_j < p^e_j); structure-constant
coefficients may be any integers and are reduced.  The header constraint
n = sum(e_j) < p - 1 is enforced at parse time, before any algebra runs.

Large braces are stored in flows form, never as huge Cayley tables;
serialize refuses a table body above the dense threshold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ._tables import TABLE_THRESHOLD
from .braces import Brace, verify_brace
from .errors import InputError, StructureError
from .flows import flows_brace
from .groups import Element, PGroup
from .padic import is_prime
from .prelie import PreLieRing, verify_prelie

__all__ = [
    "InputDocument",
    "parse",
    "parse_file",
    "build",
    "document_from",
    "serialize_document",
    "serialize",
]

_ELEM_RE = re.compile(r"\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)")
_ROW_RE = re.compile(
    r"^(\(.*?\))\s*(?:o|∘)\s*(\(.*?\))\s*=\s*(\(.*?\))$")


@dataclass
class InputDocument:
    """A parsed document: header plus exactly one body form."""

    kind: str
    p: int
    factors: tuple[int, ...]
    flows: bool = False
    sc: dict[tuple[int, int], Element] = field(default_factory=dict)
    cayley: list[tuple[Element, Element, Element]] = field(default_factory=list)

    def group(self) -> PGroup:
        return PGroup(self.p, self.factors)


def _fail(lineno: int, message: str) -> InputError:
    return InputError(f"line {lineno}: {message}")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_elem(token: str, moduli: tuple[int, ...], lineno: int) -> Element:
    m = _ELEM_RE.fullmatch(token.strip())
    if m is None:
        raise _fail(lineno, f"malformed element literal {token.strip()!r}")
    coords = tuple(int(t) for t in m.group(1).split(","))
    if len(coords) != len(moduli):
        raise _fail(lineno, f"element {token.strip()!r} has {len(coords)} "
                            f"coordinates, expected {len(moduli)}")
    for c, mod in zip(coords, moduli):
        if not 0 <= c < mod:
            raise _fail(lineno, f"coordinate {c} not canonical (modulus {mod})")
    return coords


def parse(text: str) -> InputDocument:
    """Parse a document; all errors carry the offending line number."""
    lines = list(_content_lines(text))
    if len(lines) < 3:
        raise InputError("document needs a kind line, a p line, and a factors line")

    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] not in ("brace", "prelie") or parts[1] != "v1":
        raise _fail(lineno, f"expected 'brace v1' or 'prelie v1', got {head!r}")
    kind = parts[0]

    lineno, pline = lines[1]
    parts = pline.split()
    if len(parts) != 2 or parts[0] != "p" or not parts[1].isdigit():
        raise _fail(lineno, f"expected 'p <prime>', got {pline!r}")
    p = int(parts[1])
    if not is_prime(p) or p < 5:
        raise _fail(lineno, f"p must be a prime >= 5, got {p}")

    lineno, fline = lines[2]
    parts = fline.split()
    if len(parts) < 2 or parts[0] != "factors" or not all(t.isdigit() for t in parts[1:]):
        raise _fail(lineno, f"expected 'factors e1 [e2 ...]', got {fline!r}")
    factors = tuple(int(t) for t in parts[1:])
    if any(e < 1 for e in factors):
        raise _fail(lineno, "every exponent must be >= 1")
    if any(a < b for a, b in zip(factors, factors[1:])):
        raise _fail(lineno, f"exponents must be non-increasing, got {factors}")
    n = sum(factors)
    if n >= p - 1:
        raise _fail(lineno, f"group of order {p}**{n} violates the size "
                            f"constraint n < p-1 (p={p})")

    doc = InputDocument(kind, p, factors)
    moduli = tuple(p ** e for e in factors)
    body = lines[3:]

    if body and body[0][1] == "flows":
        if kind != "brace":
            raise _fail(body[0][0], "'flows' is only valid in a brace document")
        doc.flows = True
        body = body[1:]

    saw_sc = saw_row = False
    for lineno, line in body:
        if line.startswith("sc"):
            if kind == "brace" and not doc.flows:
                raise _fail(lineno, "structure constants in a brace document "
                                    "require a preceding 'flows' line")
            saw_sc = True
            _parse_sc_line(doc, line, lineno, moduli)
        elif line.startswith("("):
            if kind != "brace" or doc.flows:
                raise _fail(lineno, "Cayley rows are only valid in a plain "
                                    "brace document")
            saw_row = True
            m = _ROW_RE.match(line)
            if m is None:
                raise _fail(lineno, f"malformed Cayley row {line!r}")
            a, b, c = (_parse_elem(tok, moduli, lineno) for tok in m.groups())
            doc.cayley.append((a, b, c))
        else:
            raise _fail(lineno, f"unrecognized line {line!r}")
    if saw_sc and saw_row:  # unreachable by the branch guards; belt and braces
        raise InputError("document mixes structure constants and Cayley rows")

    if kind == "brace" and not doc.flows:
        order = 1
        for mod in moduli:
            order *= mod
        if len(doc.cayley) != order * order:
            raise InputError(
                f"Cayley body has {len(doc.cayley)} rows, expected "
                f"{order * order} (one per ordered pair)"
            )
        seen = set()
        for a, b, _ in doc.cayley:
            if (a, b) in seen:
                raise InputError(f"duplicate Cayley row for {a} o {b}")
            seen.add((a, b))
    return doc


def _parse_sc_line(doc: InputDocument, line: str, lineno: int,
                   moduli: tuple[int, ...]) -> None:
    rank = len(moduli)
    head, arrow, tail = line.partition("->")
    if not arrow:
        raise _fail(lineno, f"structure-constant line needs '->': {line!r}")
    parts = head.split()
    if len(parts) != 3 or parts[0] != "sc":
        raise _fail(lineno, f"expected 'sc j k -> ...', got {line!r}")
    try:
        j, k = int(parts[1]), int(parts[2])
    except ValueError:
        raise _fail(lineno, f"generator indices must be integers: {line!r}") from None
    if not (1 <= j <= rank and 1 <= k <= rank):
        raise _fail(lineno, f"generator index out of range 1..{rank}: sc {j} {k}")
    if (j - 1, k - 1) in doc.sc:
        raise _fail(lineno, f"duplicate structure constant for sc {j} {k}")

    tokens = tail.split()
    if not tokens:
        raise _fail(lineno, "missing right-hand side after '->'")
    coords = [0] * rank
    if tokens != ["0"]:
        if len(tokens) % 2:
            raise _fail(lineno, "right-hand side must be 'coeff gen' pairs or '0'")
        for ct, lt in zip(tokens[::2], tokens[1::2]):
            try:
                coeff, gen = int(ct), int(lt)
            except ValueError:
                raise _fail(lineno, f"bad coefficient pair {ct!r} {lt!r}") from None
            if not 1 <= gen <= rank:
                raise _fail(lineno, f"generator index out of range 1..{rank}: {gen}")
            coords[gen - 1] += coeff
    doc.sc[(j - 1, k - 1)] = tuple(c % m for c, m in zip(coords, moduli))


def parse_file(path: str) -> InputDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# building and serializing


def build(doc: InputDocument, *, verify: bool = True,
          exhaustive: bool | None = None, samples: int = 100_000,
          seed: int = 0) -> Brace | PreLieRing:
    """Construct the object a document describes.

    With verify on, the relevant axiom report must be all-PASS; the first
    failing check is raised as a StructureError.  Structural preconditions
    (torsion compatibility, nilpotency for flows) raise regardless.
    """
    group = doc.group()
    if doc.kind == "prelie":
        ring = PreLieRing.from_structure_constants(group, doc.sc)
        if verify:
            _require_pass(verify_prelie(ring, exhaustive=exhaustive,
                                        samples=samples, seed=seed))
        return ring
    if doc.flows:
        ring = PreLieRing.from_structure_constants(group, doc.sc)
        return flows_brace(ring, verify=verify, samples=samples, seed=seed)

    enc = group.encode
    size = group.order
    table: list[list[int]] = [[-1] * size for _ in range(size)]
    for a, b, c in doc.cayley:
        table[enc(a)][enc(b)] = enc(c)
    brace = Brace.from_table(group, table)
    if verify:
        _require_pass(verify_brace(brace, exhaustive=exhaustive,
                                   samples=samples, seed=seed))
    return brace


def _require_pass(report) -> None:
    for r in report.results:
        if not r.passed:
            raise StructureError(f"verification failed: {r.line()}")


def _live_coords(g: PGroup) -> list[int]:
    """Coordinates with a nonzero exponent.  Quotient carriers may hold
    exponent-zero coordinates internally; documents never show them."""
    live = [j for j, e in enumerate(g.factors) if e > 0]
    if not live:
        raise InputError("a trivial carrier has no document form")
    return live


def document_from(obj: Brace | PreLieRing) -> InputDocument:
    """Canonical document for a ring, a table brace, or a flows-built brace."""
    if isinstance(obj, PreLieRing):
        g = obj.group
        live = _live_coords(g)
        pos = {j: t for t, j in enumerate(live)}
        doc = InputDocument("prelie", g.p, tuple(g.factors[j] for j in live))
        zero = g.zero
        doc.sc = {(pos[j], pos[k]): tuple(v[t] for t in live)
                  for (j, k), v in sorted(obj.generator_products().items())
                  if v != zero}
        return doc
    if isinstance(obj, Brace):
        g = obj.group
        ctx = getattr(obj, "flow_context", None)
        if ctx is not None:
            inner = document_from(ctx.ring)
            return InputDocument("brace", inner.p, inner.factors,
                                 flows=True, sc=inner.sc)
        if g.order > TABLE_THRESHOLD:
            raise InputError(
                f"brace on {g.order} elements has no flows form and is too "
                f"large for a Cayley body (threshold {TABLE_THRESHOLD})"
            )
        live = _live_coords(g)
        doc = InputDocument("brace", g.p, tuple(g.factors[j] for j in live))
        elems = [g.decode(i) for i in range(g.order)]
        doc.cayley = [tuple(tuple(x[t] for t in live) for x in (a, b, obj.circ(a, b)))
                      for a in elems for b in elems]
        return doc
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def serialize_document(doc: InputDocument) -> str:
    out = [f"{doc.kind} v1", f"p {doc.p}",
           "factors " + " ".join(str(e) for e in doc.factors)]
    if doc.flows:
        out.append("flows")
    if doc.kind == "prelie" or doc.flows:
        for (j, k), v in sorted(doc.sc.items()):
            terms = " ".join(f"{c} {l + 1}" for l, c in enumerate(v) if c)
            if terms:
                out.append(f"sc {j + 1} {k + 1} -> {terms}")
    else:
        for a, b, c in doc.cayley:
            out.append(f"{_elem_text(a)} ∘ {_elem_text(b)} = {_elem_text(c)}")
    return "\n".join(out) + "\n"


def _elem_text(a: Element) -> str:
    return "(" + ",".join(str(c) for c in a) + ")"


def serialize(obj: Brace | PreLieRing) -> str:
    return serialize_document(document_from(obj))
