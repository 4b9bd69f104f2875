"""threatfix benchmark: seeded closed-loop CLI workloads.

    python3 perfbench/run.py --workload check-paths --seed 1 --seconds 32 --trace 0

One client sends one request at a time; a request is one in-process call to
`threatfix.cli.main([...])` on freshly generated model, rule and cost files,
and no input repeats within a run.  Every report is checked against the
generator's expected answers.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
See README.md in this directory for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from generator import Spec, make_instance  # noqa: E402
import checks  # noqa: E402

MIN_REQUESTS = 100         # p90 then has at least ten samples above it
HARD_CAP_S = 150.0         # stop even below MIN_REQUESTS, to end within 180 s
SETUP_REPEATS = 41
FIRST_CHUNK = 8            # instances one set-up generates and writes
REFERENCE_S = 0.005        # nominal time of reference_task(), see normalised()

PATH_MIX = ("two", "path")
REPAIR_MIX = ("two", "items", "noattr")
LCM12 = (1, 2, 3, 4, 6, 12)


@dataclass(frozen=True)
class Workload:
    modes: tuple[tuple[str, ...], ...]   # CLI argv prefixes sent per instance
    spec: Spec                           # generator knobs of every instance
    traced_requests: int                 # fixed, so traced counts repeat exactly


WORKLOADS = {
    # Positive path rules: slot encoding, CDCL over slot variables, witness
    # extraction; four rules share one Grounder.  No MaxSAT.
    "check-paths": Workload((("check",),), Spec(7, 2, PATH_MIX), 120),
    # Sixteen item-only rules: grounding nested item quantifiers dominates;
    # the solver only propagates pinned cells.  No paths, no MaxSAT.
    "check-wide": Workload(
        (("check",),), Spec(8, 3, ("items",), item_rules=16, channel=True), 64),
    # Weighted MaxSAT with rational costs (LCM 12), both repair pipelines,
    # negative-polarity grounding; one rule has no attribute predicate.
    "repair-costs": Workload(
        (("repair",), ("repair", "--mode", "heuristic")),
        Spec(5, 2, REPAIR_MIX, item_rules=1, denominators=LCM12), 240),
}
# Sizes: instances this small keep a request near 0.05-0.2 s, so a 32 s run
# holds 150-950 requests and its medians and p90 repeat across seeds within
# a third of their bounds; larger graphs belong to sweep.py.


def import_threatfix():
    """Import the package from this checkout's `src`, never from elsewhere."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    try:
        import threatfix
        from threatfix import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import threatfix from {SRC}: {exc}")
    if not os.path.abspath(threatfix.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: threatfix was imported from {threatfix.__file__}, not {SRC}")
    return cli


def reference_task() -> int:
    """Fixed pure-Python work resembling the grounder and the solver loops."""
    table: dict = {}
    clauses = []
    for i in range(2500):
        key = ("e%d" % (i % 50), i % 7)
        v = table.get(key)
        if v is None:
            v = table[key] = len(table) + 1
        clauses.append(sorted({v, -(i % 13) - 1, (i * 31) % 17 + 1}, key=abs))
    seen = set()
    for clause in clauses:
        for lit in clause:
            seen.add(abs(lit))
    return len(seen)


def reference_time() -> float:
    """Fastest of two timings of reference_task(), in s."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - start)
    return best


def normalised(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` rescaled to a machine on which reference_task() takes REFERENCE_S.

    The machines this runs on change speed by tens of percent within minutes
    (shared hosts).  Timing the reference task before and after each
    measured interval and dividing by it removes most of that drift; a
    change to threatfix does not touch the reference task.
    """
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


class Inputs:
    """Writes instance files into a private directory of the checkout."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(OUT, f"work-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)

    def make(self, index: int):
        inst = make_instance(instance_seed(self.seed, index), self.workload.spec)
        return inst, inst.write(self.dir, f"{index}-") + ["--format", "json"]

    def drop(self, argv) -> None:
        for flag, path in zip(argv, argv[1:]):
            if flag in ("--model", "--rules", "--costs"):
                os.remove(path)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


@dataclass(slots=True)
class Outcome:
    """One checked request.  The report itself is not kept, only its hash,
    so that memory does not grow with the report bytes of a run."""
    latency: float             # s, as measured
    code: int
    report: bytes              # sha256 of the exit code and the report
    problems: list
    norm: float = 0.0          # latency after normalised()


def report_hash(code: int, out: str) -> bytes:
    return hashlib.sha256(f"{code}\n{out}".encode()).digest()


def call(cli, argv) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:   # a traceback is a failed request, not a crash
            code = -1
            err.write(repr(exc))
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def answer(cli, workload: Workload, inst, argv) -> list[Outcome]:
    """All requests for one instance, checked."""
    outcomes, outs = [], []
    for mode in workload.modes:
        latency, code, out, err = call(cli, list(mode) + argv)
        if mode[0] == "check":
            problems = checks.check_check(inst, code, out)
        else:
            problems = checks.check_repair(inst, mode[-1] if len(mode) > 1 else "partial",
                                           code, out)
        if err:
            problems.append(f"stderr: {err.strip()[:200]}")
        outcomes.append(Outcome(latency, code, report_hash(code, out), problems))
        outs.append(out)
    if len(outcomes) == 2 and not any(o.problems for o in outcomes):
        outcomes[1].problems += checks.check_pair(*outs)
    return outcomes


def serve(cli, inputs: Inputs, index: int) -> list[Outcome]:
    inst, argv = inputs.make(index)
    outcomes = answer(cli, inputs.workload, inst, argv)
    inputs.drop(argv)
    return outcomes


def run_loop(cli, inputs: Inputs, seconds: float) -> list[Outcome]:
    """Closed loop until `seconds` of request time and MIN_REQUESTS requests."""
    outcomes: list[Outcome] = []
    busy = 0.0
    started = time.monotonic()
    index = 0
    ref = reference_time()
    while busy < seconds or len(outcomes) < MIN_REQUESTS:
        if time.monotonic() - started > HARD_CAP_S:
            break
        served = serve(cli, inputs, index)
        ref, ref_before = reference_time(), ref
        for o in served:
            o.norm = normalised(o.latency, ref_before, ref)
        busy += sum(o.latency for o in served)
        outcomes += served
        index += 1
    return outcomes


def digest(outcomes) -> str:
    return hashlib.sha256(b"".join(o.report for o in outcomes)).hexdigest()[:16]


def report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.problems]
    for o in failed[:5]:
        print("FAILED:", "; ".join(o.problems), file=sys.stderr)
    return len(failed)


def setup_once(workload: Workload, seed: int) -> float:
    """One set-up: a fresh import of threatfix's modules, then writing the
    first FIRST_CHUNK instances.  The standard library stays loaded.

    It runs in a forked child, so modules that a re-import leaves behind
    do not pile up in this process and show in peak_rss_mb."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            for name in [m for m in sys.modules if m.split(".")[0] == "threatfix"]:
                del sys.modules[name]
            start = time.perf_counter()
            import_threatfix()
            inputs = Inputs(workload, seed)
            for index in range(FIRST_CHUNK):
                inputs.make(index)
            elapsed = time.perf_counter() - start
            inputs.close()
            os.write(write_fd, repr(elapsed).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        sys.exit("error: a set-up failed")
    return float(data)


def measure_setup(workload: Workload, seed: int) -> float:
    """Median of SETUP_REPEATS normalised set-ups, in s."""
    times = []
    ref = reference_time()
    for _ in range(SETUP_REPEATS):
        elapsed = setup_once(workload, seed)
        ref, ref_before = reference_time(), ref
        times.append(normalised(elapsed, ref_before, ref))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(latencies_s: list[float]) -> dict:
    ms = [x * 1000 for x in latencies_s]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {
        "requests_per_s": metric(len(ms) / (sum(ms) / 1000), "1/s"),
        "latency_ms.p50": metric(statistics.median(ms), "ms"),
        "latency_ms.p90": metric(deciles[8], "ms"),
    }


def end_to_end(args) -> dict:
    workload = WORKLOADS[args.workload]
    setup = measure_setup(workload, args.seed)
    cli = import_threatfix()   # the modules the last set-up imported
    inputs = Inputs(workload, args.seed)
    try:
        outcomes = run_loop(cli, inputs, args.seconds)
    finally:
        inputs.close()
    failed = report_failures(outcomes)
    metrics = {
        **latency_metrics([o.norm for o in outcomes]),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
    }
    raw = latency_metrics([o.latency for o in outcomes])
    n = len(outcomes)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{n} requests; times normalised to a {REFERENCE_S * 1000:g} ms "
          f"reference task (raw in brackets)")
    for name, m in metrics.items():
        note = f"  [{raw[name]['value']:.4f}]" if name in raw else ""
        if name.startswith("latency"):
            note += f"  (n={n})"
        if name == "setup_s":
            note = f"  (median of {SETUP_REPEATS})"
        print(f"  {name:<16} {m['value']:12.4f} {m['unit']}{note}")
    print(f"  {'failed_frac':<16} {failed / n:12.4f} frac  ({failed}/{n})")
    # how many requests a run holds depends on the machine's speed; every
    # run holds MIN_REQUESTS, so the digest of those repeats across runs
    head = outcomes[:MIN_REQUESTS]
    print(f"  report digest of the first {len(head)} requests: {digest(head)}")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def traced_run(args) -> dict:
    import tracing
    cli = import_threatfix()
    workload = WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)
    tracer = tracing.Tracer()
    traced_out: list[Outcome] = []
    plain_out: list[Outcome] = []
    scale: dict[int, float] = {}   # request id -> normalised() factor
    try:
        index = 0
        ref = reference_time()
        while len(traced_out) < workload.traced_requests:
            # each instance is answered once traced and once not, in
            # alternating order, so the overhead compares equal work
            inst, argv = inputs.make(index)
            tracer.request = index
            for with_trace in ((True, False) if index % 2 == 0 else (False, True)):
                if with_trace:
                    with tracing.traced(tracer):
                        traced_out += answer(cli, workload, inst, argv)
                else:
                    plain_out += answer(cli, workload, inst, argv)
            inputs.drop(argv)
            ref, ref_before = reference_time(), ref
            scale[index] = normalised(1.0, ref_before, ref)
            index += 1
    finally:
        inputs.close()
    for t, p in zip(traced_out, plain_out):
        if t.report != p.report:
            t.problems.append("traced and untraced reports differ")
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_file)

    layers = tracing.layer_metrics(tracer.spans, scale)
    traced_rps = len(traced_out) / sum(o.latency for o in traced_out)
    plain_rps = len(plain_out) / sum(o.latency for o in plain_out)
    layers["trace.requests"] = len(traced_out)
    layers["trace.total_s"] = sum(s.duration * scale[s.request]
                                  for s in tracer.spans if s.name == "cli.main")
    layers["trace.requests_per_s"] = traced_rps
    layers["trace.untraced_requests_per_s"] = plain_rps
    layers["trace.overhead_frac"] = 1 - traced_rps / plain_rps
    units = {"per_s": "1/s", "_s": "s", "_frac": "frac"}
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = metric(value, unit)
    outcomes = traced_out + plain_out
    failed = report_failures(outcomes)
    print(f"workload {args.workload}, seed {args.seed}: traced run, "
          f"{len(traced_out)} requests, each also answered untraced; times "
          f"normalised to a {REFERENCE_S * 1000:g} ms reference task, except "
          f"the trace.*requests_per_s pair, which is raw")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:14.6g} {m['unit']}")
    print(f"  report digest of the traced requests: {digest(traced_out)}")
    print(f"  spans written to {os.path.relpath(spans_file, ROOT)}")
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_threatfix()   # fails before any output outside a full checkout
    result = traced_run(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
