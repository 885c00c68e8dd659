"""Golden correctness gate.

A document passes when every CLI invocation on it returns the committed
exit code and writes byte-identical text (CHECK lines and any output
document) to its stream.  Goldens live in ``golden/<workload>.json`` and
hold one entry per seed variant.
"""

from __future__ import annotations

import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import Doc, Workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation returned.  The document path is replaced by
    "{file}" so outcomes do not depend on where the documents were written."""

    argv: tuple[str, ...]
    exit: int | str
    output: str

    def to_json(self) -> dict:
        return {"argv": list(self.argv), "exit": self.exit, "output": self.output}

    @classmethod
    def from_json(cls, d: dict) -> "Outcome":
        return cls(tuple(d["argv"]), d["exit"], d["output"])


def run_document(run_command, workload: Workload, doc: Doc, path: Path,
                 variant: int) -> list[Outcome]:
    """Run every invocation of one document through the CLI entry point.
    An exception escaping the CLI is recorded as an outcome, so it is
    counted as a failed document instead of ending the benchmark."""
    out = []
    for command in doc.commands:
        argv = workload.argv(command, str(path), variant)
        buf = io.StringIO()
        try:
            code: int | str = run_command(argv, out=buf)
        except Exception:  # boundary: a crash is a failed document
            code = "exception"
            buf.write(traceback.format_exc())
        shown = tuple("{file}" if a == str(path) else a for a in argv)
        out.append(Outcome(shown, code, buf.getvalue()))
    return out


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def load_golden(workload: Workload) -> dict[int, dict[str, list[Outcome]]]:
    data = json.loads(golden_path(workload).read_text(encoding="utf-8"))
    return {int(v): {name: [Outcome.from_json(o) for o in outs]
                     for name, outs in docs.items()}
            for v, docs in data["variants"].items()}


def save_golden(workload: Workload,
                variants: dict[int, dict[str, list[Outcome]]]) -> None:
    data = {"workload": workload.name,
            "variants": {str(v): {name: [o.to_json() for o in outs]
                                  for name, outs in docs.items()}
                         for v, docs in sorted(variants.items())}}
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(
        json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def differs(expected: list[Outcome], actual: list[Outcome]) -> str | None:
    """None when the outcomes match golden exactly, else a short reason."""
    if len(expected) != len(actual):
        return f"{len(actual)} invocations, golden has {len(expected)}"
    for want, got in zip(expected, actual):
        if want.argv != got.argv:
            return f"argv {list(got.argv)} != golden {list(want.argv)}"
        if want.exit != got.exit:
            return f"{got.argv[0]}: exit {got.exit} != golden {want.exit}"
        if want.output != got.output:
            got_lines = got.output.splitlines()
            want_lines = want.output.splitlines()
            for i, (g, w) in enumerate(zip(got_lines, want_lines)):
                if g != w:
                    return f"{got.argv[0]}: line {i + 1} {g!r} != golden {w!r}"
            return (f"{got.argv[0]}: {len(got_lines)} lines != golden "
                    f"{len(want_lines)}")
    return None
