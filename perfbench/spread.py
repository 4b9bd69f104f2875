"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds see it.

    python3 perfbench/spread.py --first-seed 1

Runs `run.py --trace 0` on every workload of BENCHMARK.json with ten
consecutive seeds, one process at a time.  For each metric it prints the
median and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread
should stay below a third of the metric's bound.  The raw per-seed results
go to perfbench/results/spread-<first seed>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    results = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "run_seconds": bench["run_seconds"],
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            start = time.monotonic()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "exit_code": proc.returncode,
                         "wall_s": time.monotonic() - start,
                         **{k: result[k] for k in ("correct", "attempted", "failed")},
                         "metrics": values})
            print(workload, seed, f"{runs[-1]['wall_s']:.0f} s", result["attempted"],
                  {k: round(v, 4) for k, v in values.items()}, flush=True)
        spreads = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spreads[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            flag = "ok" if spreads[name]["spread"] < bound / 3 else "above a third of the bound"
            print(f"  {workload} {name:<16} median {median:10.4f}  "
                  f"spread {spreads[name]['spread']:.4f}  bound {bound}  {flag}", flush=True)
        results["workloads"][workload] = {"runs": runs, "spreads": spreads}
    path = os.path.join(HERE, "results", f"spread-{args.first_seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
