"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from the
checkout's ``src/``; without it the run exits 1 and prints no result.

--trace 0 (timed run): run passes over the documents through
``braceflows.cli.run_command`` until they have taken S seconds in all, and
at least two, with set-ups of the documents (parse + build without
verification, see measure_setup) before, between and after them, at least
seven in all.  wall_s is the median pass, setup_s the median set-up,
peak_rss_mb the process's peak resident set, and match_ratio the share of
documents whose outputs match golden.

--trace 1 (traced run): one untraced pass, then one pass with the tracer
installed, so per-layer counts repeat exactly at a fixed seed.  S is not
used.  Spans are written to .bench_work/trace-<workload>-seed<N>.json.

Every pass is checked against the committed golden outputs.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

from gate import differs, load_golden, run_document
from tracer import Tracer
from workloads import WORKLOADS, unit_of, variant_of, write_documents

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 2
MIN_SETUPS = 7
SLOT_SETUPS = 2
SETUP_SLOT_S = 0.4
SETUP_SHARE = 0.1


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_1m_at_start": os.getloadavg()[0]}


def import_program():
    """Import braceflows from this checkout, never from elsewhere."""
    if not (SRC / "braceflows" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'braceflows'} not found; run from a "
                         "source checkout")
    sys.path.insert(0, str(SRC))
    import braceflows.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "braceflows":
        raise SystemExit(f"error: imported braceflows from {cli.__file__}")
    import braceflows._tables  # noqa: F401  (imported lazily by the program)

    return cli


class Runner:
    """Runs passes over a workload's documents and keeps the gate's tally."""

    def __init__(self, workload, variant: int, paths: list[Path], golden) -> None:
        self.workload = workload
        self.variant = variant
        self.paths = paths
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, run_command) -> float:
        docs = self.workload.docs
        start = time.perf_counter()
        outcomes = [run_document(run_command, self.workload, doc, path, self.variant)
                    for doc, path in zip(docs, self.paths)]
        seconds = time.perf_counter() - start
        for doc, outs in zip(docs, outcomes):
            self.attempted += 1
            why = differs(self.golden[doc.ring.name], outs)
            if why is not None:
                self.failures.append(f"{doc.ring.name}: {why}")
        return seconds


def measure_setup(paths: list[Path], budget_s: float, count: int) -> list[float]:
    """Times of building, unverified, the braces the workload's checks run
    on: parse + build, and for a ring document also its group of flows.
    Repeats for `budget_s` seconds and at least `count` times."""
    from braceflows.flows import flows_brace
    from braceflows.formats import build, parse_file
    from braceflows.prelie import PreLieRing

    def setup(path: Path):
        obj = build(parse_file(str(path)), verify=False)
        return flows_brace(obj, verify=False) if isinstance(obj, PreLieRing) else obj

    times: list[float] = []
    start = time.perf_counter()
    while len(times) < count or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        built = [setup(p) for p in paths]
        times.append(time.perf_counter() - t0)
        del built
    return times


def timed_run(cli, runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    setup: list[float] = []
    passes: list[float] = []
    slot_s = SETUP_SLOT_S
    while True:
        # Set-ups are spread between the passes and take at least a tenth
        # of their time, so that setup_s samples the machine over the same
        # window as wall_s.  The last slot tops them up to MIN_SETUPS.
        last = len(passes) >= MIN_PASSES and sum(passes) >= seconds
        count = max(SLOT_SETUPS, MIN_SETUPS - len(setup)) if last else SLOT_SETUPS
        setup += measure_setup(runner.paths, slot_s, count)
        if last:
            break
        passes.append(runner.run(cli.run_command))
        slot_s = max(SETUP_SLOT_S, SETUP_SHARE * passes[-1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = runner.attempted
    match = (attempted - len(runner.failures)) / attempted
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "match_ratio": (match, "ratio"),
    }
    notes = [
        f"passes {len(passes)}: " + " ".join(f"{t:.3f}" for t in passes),
        f"set-ups {len(setup)}: min {min(setup):.6f} max {max(setup):.6f}",
        f"failed_ratio {1 - match:.6g} ({len(runner.failures)} of {attempted} "
        "documents differ from golden)",
    ]
    return metrics, notes


def traced_run(cli, runner: Runner, trace_path: Path) -> tuple[dict, list[str]]:
    plain = runner.run(cli.run_command)
    tracer = Tracer()
    tracer.install()
    traced = runner.run(cli.run_command)  # the wrapped entry point
    tracer.write(trace_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    notes = [f"untraced pass {plain:.3f} s, traced pass {traced:.3f} s",
             f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    facts = machine_facts()
    cli = import_program()
    workload = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    golden = load_golden(workload)[variant]

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        paths = write_documents(workload, variant, Path(tmp))
        runner = Runner(workload, variant, paths, golden)
        if args.trace:
            trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.json"
            metrics, notes = traced_run(cli, runner, trace_path)
        else:
            metrics, notes = timed_run(cli, runner, args.seconds)

    print(f"workload {workload.name} seed {args.seed} variant {variant} "
          f"unit {unit_of(variant)} samples {workload.samples} "
          f"documents {', '.join(d.filename for d in workload.docs)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for line in notes + [f"FAILED {f}" for f in runner.failures]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
