"""Command-line surface.

Subcommands:

    verify-brace FILE        axiom report for a brace document
    verify-prelie FILE       axiom report for a pre-Lie document
    flows FILE [-o OUT]      brace of flows of a left-nilpotent ring
    derive FILE [-o OUT]     averaged pre-Lie ring of a brace (on A/ann(p^2))
    reconstruct FILE [-o OUT]  flows of the twisted derived ring
    check-main FILE          end-to-end reconstruction pipeline
    coeffs alpha|gamma -p P -n N   recovery coefficients
    quoted-identities FILE   classical star-product identity checks
    selftest [--quick]       the full acceptance suite

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed or
out-of-domain input.  Reports go to standard output, one line per check;
-s FILE additionally writes machine-readable "name=PASS|FAIL" lines.
"""

from __future__ import annotations

import argparse
import sys

from .braces import quoted_identity_report, verify_brace
from .correspondence import (
    derive,
    identity_recovery_coefficients,
    reconstruct_brace,
    reconstruction_report,
    star_recovery_coefficients,
    verify_derived_ring,
)
from .errors import InputError, StructureError
from .flows import flows_brace
from .formats import build, parse_file, serialize
from .prelie import verify_prelie
from .reports import CheckReport

__all__ = ["main", "run_command"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braceflows",
        description="Verified passage between left braces and left-nilpotent "
                    "pre-Lie rings on finite abelian p-groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-s", "--summary", metavar="FILE",
                        help="write name=PASS|FAIL lines to FILE")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--samples", type=int, default=10_000,
                        help="sample count for non-exhaustive checks")
    common.add_argument("--no-verify", action="store_true",
                        help="skip axiom verification of parsed inputs")
    common.add_argument("--exhaustive", action="store_true",
                        help="force exhaustive checks regardless of size")

    sub = parser.add_subparsers(dest="command", required=True)

    def file_cmd(name: str, help_text: str, output: bool = False):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("file", help="input document")
        if output:
            sp.add_argument("-o", "--output", metavar="FILE",
                            help="write the result document to FILE "
                                 "(default: standard output)")
        return sp

    file_cmd("verify-brace", "check the brace axioms of a document")
    file_cmd("verify-prelie", "check the pre-Lie ring axioms of a document")
    file_cmd("flows", "build the brace of flows of a ring document", output=True)
    file_cmd("derive", "build the averaged ring of a brace document", output=True)
    file_cmd("reconstruct", "rebuild a brace from its derived ring", output=True)
    file_cmd("check-main", "run the full reconstruction pipeline")
    file_cmd("quoted-identities", "check the classical star-product identities")

    sp = sub.add_parser("coeffs", parents=[common],
                        help="print recovery coefficients")
    sp.add_argument("which", choices=("alpha", "gamma"))
    sp.add_argument("-p", type=int, required=True, metavar="P",
                    help="prime p >= 5")
    sp.add_argument("-n", type=int, required=True, metavar="N",
                    help="coefficient precision: values are given mod p**N")

    sp = sub.add_parser("selftest", parents=[common],
                        help="run the acceptance suite")
    sp.add_argument("--quick", action="store_true",
                    help="small fixtures only, reduced sampling")
    return parser


def run_command(argv: list[str] | None = None, out=None) -> int:
    """Execute one CLI invocation; report lines go to `out` (default stdout)."""
    stream = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.samples < 1:
            parser.error(f"argument --samples: must be at least 1, got {args.samples}")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report, documents = _dispatch(args)
    except InputError as exc:
        print(f"ERROR input: {exc}", file=stream)
        return 2
    except StructureError as exc:
        print(f"ERROR structure: {exc}", file=stream)
        return 2
    except OSError as exc:
        print(f"ERROR input: {exc}", file=stream)
        return 2

    for path, text in documents:
        if path is None:
            stream.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"WROTE {path}", file=stream)
    for line in report.lines():
        print(line, file=stream)
    if args.summary:
        report.write_summary(args.summary)
    return 0 if report.passed else 1


def main() -> int:
    return run_command()


# ---------------------------------------------------------------------------
# subcommand bodies


def _dispatch(args) -> tuple[CheckReport, list[tuple[str | None, str]]]:
    handler = {
        "verify-brace": _cmd_verify_brace,
        "verify-prelie": _cmd_verify_prelie,
        "flows": _cmd_flows,
        "derive": _cmd_derive,
        "reconstruct": _cmd_reconstruct,
        "check-main": _cmd_check_main,
        "quoted-identities": _cmd_quoted,
        "coeffs": _cmd_coeffs,
        "selftest": _cmd_selftest,
    }[args.command]
    return handler(args)


def _exhaustive(args) -> bool | None:
    return True if args.exhaustive else None


def _load(args, kind: str):
    doc = parse_file(args.file)
    if doc.kind != kind:
        raise InputError(
            f"{args.command} expects a {kind} document, got {doc.kind!r}"
        )
    return doc


def _outputs(args, obj) -> list[tuple[str | None, str]]:
    return [(getattr(args, "output", None), serialize(obj))]


def _cmd_verify_brace(args):
    doc = _load(args, "brace")
    brace = build(doc, verify=False)
    report = verify_brace(brace, exhaustive=_exhaustive(args),
                          samples=args.samples, seed=args.seed)
    return report, []


def _cmd_verify_prelie(args):
    doc = _load(args, "prelie")
    ring = build(doc, verify=False)
    report = verify_prelie(ring, exhaustive=_exhaustive(args),
                           samples=args.samples, seed=args.seed)
    return report, []


def _cmd_flows(args):
    doc = _load(args, "prelie")
    ring = build(doc, verify=not args.no_verify, exhaustive=_exhaustive(args),
                 samples=args.samples, seed=args.seed)
    brace = flows_brace(ring, verify=False)
    report = CheckReport()
    report.add("flows-construction", True,
               info=f"carrier order {ring.group.order}, "
                    f"nilpotency index {brace.flow_context.index}")
    if not args.no_verify:
        report.extend(verify_brace(brace, exhaustive=_exhaustive(args),
                                   samples=args.samples, seed=args.seed))
    return report, _outputs(args, brace)


def _cmd_derive(args):
    doc = _load(args, "brace")
    brace = build(doc, verify=not args.no_verify, exhaustive=_exhaustive(args),
                  samples=args.samples, seed=args.seed)
    d = derive(brace)
    report = CheckReport()
    if args.no_verify:
        report.add("derived-ring-construction", True,
                   info=f"quotient order {d.qgroup.order}")
    else:
        report.extend(verify_derived_ring(d, exhaustive=_exhaustive(args),
                                          samples=args.samples, seed=args.seed))
    return report, _outputs(args, d.ring())


def _cmd_reconstruct(args):
    doc = _load(args, "brace")
    brace = build(doc, verify=not args.no_verify, exhaustive=_exhaustive(args),
                  samples=args.samples, seed=args.seed)
    d = derive(brace)
    rebuilt = reconstruct_brace(d, verify=not args.no_verify,
                                samples=args.samples, seed=args.seed)
    report = CheckReport()
    report.add("reconstruction", True,
               info=f"flows carrier order {rebuilt.group.order}")
    return report, _outputs(args, rebuilt)


def _cmd_check_main(args):
    doc = _load(args, "brace")
    brace = build(doc, verify=not args.no_verify, exhaustive=_exhaustive(args),
                  samples=args.samples, seed=args.seed)
    report = reconstruction_report(brace, samples=args.samples, seed=args.seed)
    report.add("theorem-main", report.passed)
    return report, []


def _cmd_quoted(args):
    doc = _load(args, "brace")
    brace = build(doc, verify=not args.no_verify, exhaustive=_exhaustive(args),
                  samples=args.samples, seed=args.seed)
    report = quoted_identity_report(brace, samples=args.samples, seed=args.seed)
    return report, []


def _cmd_coeffs(args):
    fn = (identity_recovery_coefficients if args.which == "alpha"
          else star_recovery_coefficients)
    coeffs = fn(args.p, args.n)
    text = "".join(f"{args.which}_{i} = {c}\n"
                   for i, c in enumerate(coeffs, 1))
    report = CheckReport()
    report.add(f"{args.which}-leading-coefficient-is-1", coeffs[0] == 1,
               info=f"p={args.p} precision p**{args.n}")
    return report, [(None, text)]


def _cmd_selftest(args):
    from .acceptance import run_acceptance

    report = run_acceptance(quick=args.quick, seed=args.seed)
    return report, []
