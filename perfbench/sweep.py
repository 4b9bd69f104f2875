"""Scaling sweep: one CLI request per point, under a wall-time cap.

    python3 perfbench/sweep.py

Report only, no gate.  Each point is a fresh process that generates one
instance (seed 0) and runs one traced `threatfix` request on it, so a point
records its end-to-end time together with the per-layer self times and
counters of `tracing.layer_metrics`.  A point that passes the cap is killed and
recorded as over the cap; each point also runs under an address-space limit,
so a point that would exhaust memory records an error instead.  The curves
follow the axes of the baseline table in ROADMAP.md: element count (with
chords), rule-count multiplier and the LCM of the cost denominators.
Results go to perfbench/results/sweep.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from math import lcm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results", "sweep.json")
CAP_S = 60.0                      # wall-time cap per point
MEMORY_LIMIT = 1536 * 2 ** 20

from generator import Spec, make_instance  # noqa: E402

CHORDS = {8: 2, 10: 4, 12: 5, 14: 6, 16: 7, 18: 8, 24: 10}


def curves() -> dict[str, list[tuple[Spec, list[str]]]]:
    exact = ["repair", "--mode", "exact"]
    return {
        # two.tl on growing chain-plus-chord graphs, check and exact repair
        "elements": [(Spec(n, CHORDS[n], ("two",)), cmd)
                     for n in sorted(CHORDS) for cmd in (["check"], exact)],
        # two.tl repeated x1..x4 in one file, sequential check
        "rules": [(Spec(n, CHORDS[n], ("two",), multiplier=k), ["check"])
                  for n in (14, 18) for k in (1, 2, 3, 4)],
        # exact repair with cost denominators of growing LCM
        "denominators": [(Spec(10, 4, ("two",), denominators=dens), exact)
                         for dens in ((1,), (2, 3), (3, 4), (7, 11), (3, 4, 5),
                                      (89, 97))],
        # rule kinds on one graph: item-only, positive path, negated path
        "mix": [(Spec(12, 5, mix, item_rules=8), cmd)
                for mix in (("items",), ("path",), ("negpath",))
                for cmd in (["check"], exact)],
    }


def run_point(spec: Spec, command: list[str], work: str) -> dict:
    """Child side: generate into `work`, run one traced request, return its numbers."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import contextlib
    import io

    import tracing
    from threatfix import cli, enumerate_paths, parse_model

    inst = make_instance(0, spec)
    argv = list(command) + inst.write(work)
    tracer = tracing.Tracer()
    sink = io.StringIO()
    start = time.perf_counter()
    with tracing.traced(tracer), contextlib.redirect_stdout(sink):
        code = cli.main(argv + ["--format", "json"])
    wall = time.perf_counter() - start
    m = parse_model(inst.model_json())
    return {"exit_code": code, "wall_s": wall,
            "connectors": len(m.connectors), "paths": len(enumerate_paths(m)),
            "rules": len(inst.rules),
            "layers": tracing.layer_metrics(tracer.spans)}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def sweep_point(spec: Spec, command: list[str]) -> dict:
    point = {"n": spec.n, "chords": spec.chords, "mix": list(spec.mix),
             "multiplier": spec.multiplier, "command": " ".join(command),
             "cost_lcm": lcm(*spec.denominators) if spec.denominators else None}
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    # the parent owns the input directory: a point killed at the cap
    # cannot clean up after itself
    work = tempfile.mkdtemp(prefix="sweep-", dir=out)
    request = json.dumps({"spec": asdict(spec), "command": command, "work": work})
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--point", request],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CAP_S, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return {**point, "status": "over_cap", "wall_s": None, "cap_s": CAP_S}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return {**point, "status": "error", "error": tail,
                "elapsed_s": time.perf_counter() - start}
    return {**point, "status": "ok", **json.loads(proc.stdout.strip().splitlines()[-1])}


def row(p: dict) -> str:
    head = (f"{p['command']:<20} {'+'.join(p['mix']):<8} n={p['n']:<3} "
            f"chords={p['chords']:<3} x{p['multiplier']} lcm={p['cost_lcm'] or '-':<5}")
    if p["status"] == "over_cap":
        return f"{head} over the {p['cap_s']:g} s cap"
    if p["status"] == "error":
        return f"{head} error: {p['error']}"
    layers = p["layers"]
    return (f"{head} {p['wall_s']:8.2f} s  exit {p['exit_code']}  "
            f"paths={p['paths']} clauses={layers['encoder.clauses_out']} "
            f"vars={layers['sat.vars_in']} solves={layers['sat.solve_calls']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        request = json.loads(args.point)
        spec = request["spec"]
        spec["mix"] = tuple(spec["mix"])
        if spec["denominators"]:
            spec["denominators"] = tuple(spec["denominators"])
        print(json.dumps(run_point(Spec(**spec), request["command"], request["work"])))
        return 0
    results = {"cap_s": CAP_S, "python": platform.python_version(),
               "machine": platform.machine(), "cpus": os.cpu_count(), "curves": {}}
    for name, points in curves().items():
        print(f"== {name}", flush=True)
        results["curves"][name] = []
        for spec, command in points:
            p = sweep_point(spec, command)
            results["curves"][name].append(p)
            print(row(p), flush=True)
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(RESULTS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
