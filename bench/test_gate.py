"""Negative controls for the benchmark's golden gate, and a cross-check of
its input generator.

    python3 -m pytest -q bench/test_gate.py
"""

from __future__ import annotations

import dataclasses
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import load_golden  # noqa: E402
from run import Runner, import_program  # noqa: E402
from workloads import C1, C2, WORKLOADS, flows_table, write_documents  # noqa: E402

cli = import_program()


def _single(workload_name: str, ring_name: str):
    workload = WORKLOADS[workload_name]
    doc = next(d for d in workload.docs if d.ring.name == ring_name)
    return dataclasses.replace(workload, docs=(doc,))


def _failed_ratio(workload, paths, golden) -> float:
    runner = Runner(workload, 0, paths, golden)
    runner.run(cli.run_command)
    return len(runner.failures) / runner.attempted


def test_flipped_golden_line_counts_as_failed(tmp_path):
    workload = _single("flows-sampled", "M1")
    paths = write_documents(workload, 0, tmp_path)
    golden = load_golden(workload)[0]
    assert _failed_ratio(workload, paths, golden) == 0

    [outcome] = golden["M1"]
    flipped = outcome.output.replace(" PASS", " FAIL", 1)
    assert flipped != outcome.output
    bad = {"M1": [dataclasses.replace(outcome, output=flipped)]}
    assert _failed_ratio(workload, paths, bad) == 1


def test_corrupted_cayley_entry_counts_as_failed(tmp_path):
    workload = _single("cayley-exhaustive", "C1")
    [path] = write_documents(workload, 0, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = "(1) ∘ (1) = "
    i = next(k for k, line in enumerate(lines) if line.startswith(row))
    value = int(lines[i][len(row) + 1:-1])
    lines[i] = f"{row}({(value + 1) % 343})"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    exhaustive = ["verify-brace", "--exhaustive", str(path)]
    assert cli.run_command(exhaustive, out=io.StringIO()) == 1
    assert _failed_ratio(workload, [path], load_golden(workload)[0]) == 1


@pytest.mark.parametrize("ring", [C1, C2], ids=lambda r: r.name)
def test_generator_matches_program_flows(ring):
    from braceflows.flows import flows_brace
    from braceflows.groups import PGroup
    from braceflows.prelie import PreLieRing

    for unit in (1, 4):
        sc = ring.scaled(unit)
        program = PreLieRing.from_structure_constants(PGroup(7, ring.factors), sc)
        expected = flows_brace(program, verify=False).index_table()
        assert np.array_equal(flows_table(ring.factors, sc), expected)
