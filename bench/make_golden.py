"""Regenerate the committed golden outputs.

    python3 bench/make_golden.py

Runs every document of every seed variant once and writes
golden/<workload>.json.  Goldens record what the program printed when they
were made; regenerate them only in a change that states why the program's
output changed, and review the diff.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import WORK, import_program
from gate import run_document, save_golden
from workloads import VARIANTS, WORKLOADS, write_documents


def main() -> int:
    cli = import_program()
    bad = 0
    WORK.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        variants = {}
        for v in range(VARIANTS):
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                paths = write_documents(workload, v, Path(tmp))
                variants[v] = {
                    doc.ring.name: run_document(cli.run_command, workload, doc, path, v)
                    for doc, path in zip(workload.docs, paths)}
            for doc_name, outs in variants[v].items():
                for o in outs:
                    status = "ok" if o.exit == 0 else "NONZERO EXIT"
                    bad += o.exit != 0
                    print(f"{name} v{v} {doc_name} {' '.join(o.argv)}: "
                          f"exit {o.exit} {status}", flush=True)
        save_golden(workload, variants)
    # Workloads must not contain failing operations.
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
