"""The acceptance suite: eight end-to-end criteria over the example fixtures.

Every check is exact (modular arithmetic has no tolerance).  Each criterion
contributes one aggregate line named after its content plus detail lines
prefixed with the criterion name; `run_acceptance` is the CLI selftest body
and the test suite runs the same functions one criterion per test.
"""

from __future__ import annotations

import io
import os
import tempfile
from dataclasses import dataclass

from ._tables import TABLE_THRESHOLD
from .braces import Brace, quoted_identity_report, verify_brace
from .correspondence import (
    DerivedPreLie,
    derive,
    identity_recovery_coefficients,
    reconstruction_report,
    section_bijection_report,
    star_recovery_coefficients,
    verify_derived_ring,
    verify_flows_roundtrip,
    verify_identity_recovery,
    verify_star_recovery,
)
from .fixtures import Fixture, example_suite
from .flows import flows_brace
from .padic import ScalarRing, inverse_factorial, primitive_root, teichmuller_unit, twist_constant
from .prelie import PreLieRing
from .reports import CheckReport

__all__ = [
    "PreparedFixture",
    "prepare_fixture",
    "prepare_suite",
    "criterion_derived_ring",
    "criterion_flows_roundtrip",
    "criterion_recovery_identities",
    "criterion_section_bijection",
    "criterion_reconstruction",
    "criterion_star_identities",
    "criterion_arithmetic",
    "criterion_robustness",
    "run_acceptance",
]


@dataclass
class PreparedFixture:
    name: str
    fixture: Fixture
    ring: PreLieRing | None
    brace: Brace
    derived: DerivedPreLie


def prepare_fixture(fixture: Fixture) -> PreparedFixture:
    obj = fixture.build(verify=False)
    if isinstance(obj, PreLieRing):
        ring = obj
        brace = flows_brace(obj, verify=False)
    else:
        ring = None
        brace = obj
    derived = derive(brace)
    if derived.qgroup.order <= TABLE_THRESHOLD:
        derived.build_tables()
    return PreparedFixture(fixture.name, fixture, ring, brace, derived)


def prepare_suite(names: tuple[str, ...] | None = None) -> list[PreparedFixture]:
    out = []
    for fx in example_suite():
        if names is None or fx.name in names:
            out.append(prepare_fixture(fx))
    return out


# ---------------------------------------------------------------------------
# criteria


def criterion_derived_ring(prepared: list[PreparedFixture], *,
                           samples: int = 100_000, seed: int = 0) -> CheckReport:
    """Each fixture's averaged quotient product is a biadditive, pre-Lie,
    left-nilpotent ring; exhaustive on table-sized quotients (see
    _tables.exhaustive_for)."""
    report = CheckReport()
    for pf in prepared:
        sub = verify_derived_ring(pf.derived, samples=samples, seed=seed)
        report.extend(sub, prefix=f"{pf.name}.")
    return report


def criterion_flows_roundtrip(prepared: list[PreparedFixture], *,
                              samples: int = 100_000, seed: int = 0) -> CheckReport:
    """For ring fixtures, deriving back from the flows gives exactly
    (p-1) times the original product on quotient classes."""
    report = CheckReport()
    for pf in prepared:
        if pf.ring is None:
            continue
        sub = verify_flows_roundtrip(pf.ring, samples=samples, seed=seed)
        report.extend(sub, prefix=f"{pf.name}.")
    return report


def criterion_recovery_identities(prepared: list[PreparedFixture], *,
                                  seed: int = 0) -> CheckReport:
    """Recovery coefficients have leading value 1 and reproduce both the
    identity map and the star product, exhaustively on the largest
    nontrivial quotient fixture."""
    report = CheckReport()
    targets = [pf for pf in prepared if pf.name == "E1"] or [
        pf for pf in prepared if pf.derived.qgroup.order > 1]
    for pf in targets[:1]:
        p, n = pf.brace.group.p, pf.brace.group.n
        alphas = identity_recovery_coefficients(p, n)
        gammas = star_recovery_coefficients(p, n)
        report.add(f"{pf.name}.alpha-leading-one", alphas[0] == 1,
                   info=f"alpha={alphas}")
        report.add(f"{pf.name}.gamma-leading-one", gammas[0] == 1,
                   info=f"gamma={gammas}")
        report.extend(verify_identity_recovery(pf.brace, pf.derived,
                                               exhaustive=True, seed=seed),
                      prefix=f"{pf.name}.")
        report.extend(verify_star_recovery(pf.brace, pf.derived,
                                           exhaustive=True, seed=seed),
                      prefix=f"{pf.name}.")
    return report


def criterion_section_bijection(prepared: list[PreparedFixture], *,
                                seed: int = 0) -> CheckReport:
    """The canonical section permutes quotient classes, its cycle lengths
    divide (p^p)!, and the induced inverse round-trips every class."""
    report = CheckReport()
    for pf in prepared:
        sub = section_bijection_report(pf.brace, pf.derived)
        report.extend(sub, prefix=f"{pf.name}.")
    return report


def criterion_reconstruction(prepared: list[PreparedFixture], *,
                             samples: int = 10_000, seed: int = 0) -> CheckReport:
    """End-to-end pipeline: reconstructed brace equals the doubly reduced
    source, which equals the source modulo ann(p^4)."""
    report = CheckReport()
    for pf in prepared:
        sub = reconstruction_report(pf.brace, samples=samples, seed=seed)
        report.extend(sub, prefix=f"{pf.name}.")
    return report


def criterion_star_identities(prepared: list[PreparedFixture], *,
                              samples: int = 10_000, seed: int = 0) -> CheckReport:
    """The classical star-product identities hold on every fixture brace
    with at least the requested number of sampled tuples."""
    report = CheckReport()
    for pf in prepared:
        sub = quoted_identity_report(pf.brace, samples=samples, seed=seed)
        report.extend(sub, prefix=f"{pf.name}.")
    return report


def criterion_arithmetic() -> CheckReport:
    """Multiplicative-lift congruences, the twist constant inverse, and
    factorial inverses at every precision used by the fixtures."""
    report = CheckReport()
    for p, m in ((5, 2), (5, 3), (7, 3), (7, 5)):
        ring = ScalarRing(p, m)
        xi = teichmuller_unit(ring)
        mod = ring.modulus
        ok = (pow(xi, p - 1, mod) == 1
              and pow(xi, p, mod) == xi
              and xi % p == primitive_root(p) % p
              and xi % p != 0)
        report.add(f"unit-lift-p{p}-m{m}", ok, info=f"value {xi}",
                   witness=None if ok else f"xi={xi}")
        s = twist_constant(ring)
        ok = (p - 1) * s % mod == 1
        report.add(f"twist-inverse-p{p}-m{m}", ok, info=f"value {s}",
                   witness=None if ok else f"s={s}")
    for p, m in ((5, 3), (7, 5)):
        ring = ScalarRing(p, m)
        bad = None
        fact = 1
        for k in range(p):
            if k:
                fact = fact * k % ring.modulus
            if inverse_factorial(k, ring) * fact % ring.modulus != 1:
                bad = f"k={k}"
                break
        report.add(f"factorial-inverses-p{p}-m{m}", bad is None, witness=bad)
    return report


def criterion_robustness() -> CheckReport:
    """Malformed and out-of-domain inputs fail loudly with the documented
    exit codes: 1 for a detected axiom failure, 2 for rejected input."""
    from .cli import run_command
    from .formats import document_from, serialize_document

    report = CheckReport()
    with tempfile.TemporaryDirectory() as tmp:
        from .groups import PGroup

        g = PGroup(5, (2,))
        good = Brace.from_callable(
            g, lambda a, b: g.add(g.add(a, b), (5 * a[0] * b[0] % 25,)))
        doc = document_from(good)
        rows = serialize_document(doc).splitlines()
        broken = rows[-1].rsplit("= ", 1)
        target = int(broken[1].strip("()"))
        rows[-1] = f"{broken[0]}= ({(target + 1) % 25})"
        corrupt_path = os.path.join(tmp, "corrupt.brace")
        with open(corrupt_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        buf = io.StringIO()
        code = run_command(["verify-brace", corrupt_path], out=buf)
        text = buf.getvalue()
        ok = code == 1 and "FAIL" in text and "witness" in text
        report.add("corrupted-table-detected", ok,
                   witness=None if ok else f"exit {code}: {text[:200]}")

        bad_ring_path = os.path.join(tmp, "bad.prelie")
        with open(bad_ring_path, "w", encoding="utf-8") as fh:
            fh.write("prelie v1\np 5\nfactors 2\nsc 1 1 -> 1 1\n")
        buf = io.StringIO()
        code = run_command(["flows", bad_ring_path, "--no-verify"], out=buf)
        ok = code == 2 and "nilpotent" in buf.getvalue()
        report.add("non-nilpotent-ring-rejected-by-flows", ok,
                   witness=None if ok else f"exit {code}: {buf.getvalue()[:200]}")

        big_path = os.path.join(tmp, "big.prelie")
        with open(big_path, "w", encoding="utf-8") as fh:
            fh.write("prelie v1\np 5\nfactors 4\n")
        buf = io.StringIO()
        code = run_command(["verify-prelie", big_path], out=buf)
        ok = code == 2 and "n < p-1" in buf.getvalue()
        report.add("oversized-group-rejected-at-parse", ok,
                   witness=None if ok else f"exit {code}: {buf.getvalue()[:200]}")
    return report


# ---------------------------------------------------------------------------


def run_acceptance(*, quick: bool = False, seed: int = 0) -> CheckReport:
    names = ("T0", "A1", "M1") if quick else None
    samples = 2_000 if quick else 100_000
    id_samples = 2_000 if quick else 10_000
    prepared = prepare_suite(names)

    report = CheckReport()
    stages = [
        ("derived-ring-axioms",
         lambda: criterion_derived_ring(prepared, samples=samples, seed=seed)),
        ("flows-roundtrip-scaling",
         lambda: criterion_flows_roundtrip(prepared, samples=samples, seed=seed)),
        ("recovery-identities",
         lambda: criterion_recovery_identities(prepared, seed=seed)),
        ("section-bijection",
         lambda: criterion_section_bijection(prepared, seed=seed)),
        ("reconstruction-pipeline",
         lambda: criterion_reconstruction(prepared, samples=id_samples, seed=seed)),
        ("star-product-identities",
         lambda: criterion_star_identities(prepared, samples=id_samples, seed=seed)),
        ("arithmetic-units", criterion_arithmetic),
        ("robustness", criterion_robustness),
    ]
    for name, fn in stages:
        sub = fn()
        report.extend(sub, prefix=f"{name}.")
        report.add(name, sub.passed)
    return report
