"""Steadiness evidence: repeat workloads and report each metric's spread.

    python3 bench/steady.py [--out FILE]

Runs ``bench/run.py`` for every workload of BENCHMARK.json at seeds 1-10
and its run_seconds, each run in a fresh process, then prints, per
end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median next
to the bound in BENCHMARK.json.  A spread under a third of the bound is
marked "steady".  It also makes two traced runs at seed 1 and checks that
every count and reuse ratio repeats exactly.  --out writes all values, with
machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, machine_facts

RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 180
SEEDS = range(1, 11)
TRACES = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed the golden gate:\n"
                           f"{proc.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def repeats_exactly(name: str, unit: str) -> bool:
    return unit in ("count", "B") or name.endswith("reuse_ratio")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine_facts(), "run_seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
                + f" failed_ratio={r['failed'] / r['attempted']:.6g}", flush=True)
        entry = {"end_to_end": {}, "per_layer": {}}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            bound = bounds.get(name)
            steady = bound is not None and s["spread"] < bound / 3
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bound} {'steady' if steady else 'NOT STEADY'}")
        traces = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACES)]
        for name in traces[0]["metrics"]:
            values = [t["metrics"][name]["value"] for t in traces]
            unit = traces[0]["metrics"][name]["unit"]
            row = {"unit": unit, "values": values}
            if repeats_exactly(name, unit):
                row["repeat_identical"] = len(set(values)) == 1
                ok &= row["repeat_identical"]
            entry["per_layer"][name] = row
            flag = "" if row.get("repeat_identical", True) else "  DIFFERS"
            print(f"  {name:40s} {' '.join(f'{v:.6g}' for v in values)} {unit}{flag}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
