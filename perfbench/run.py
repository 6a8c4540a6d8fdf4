"""KSpot end-to-end benchmark: the command that runs one workload.

Runs one named workload on the 400-sensor grid through the public
``repro.api`` facade, in a single single-threaded process, and prints
every metric by name, with its unit. The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off);
with ``--trace 1`` they are the per-layer ones, from a separate traced
run set beside an untraced run of the same length.

Usage, from the repository root::

    python3 perfbench/run.py --workload e11-mix --seed 11 --seconds 20 --trace 0

Each workload measures a fixed number of steps; ``--seconds`` only
bounds the measured loop, at four times its value. One operation is one
session answer. Every answer is checked against a ground-truth oracle
outside the timed region; a wrong answer or a step that raises counts as
one failed operation. The simulated cost must be identical for every run
of a seed and between the traced and untraced runs; otherwise the
benchmark exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11
#: Work in one calibration sample (about 0.25 ms on the reference host).
CALIBRATION_DICT_UPDATES = 1_000
CALIBRATION_ARRAY_OPS = 20
_CALIBRATION_COLUMN = numpy.arange(400, dtype=float)
#: Seconds the calibration loop takes, right after program work, on
#: the idle reference host (the 2-CPU Intel Xeon VM the baselines in
#: NOTES.md were taken on). Times are reported in calibrated seconds:
#: host seconds scaled by this over the calibration loop's time when
#: they were measured.
CALIBRATION_REFERENCE_S = 0.00025
#: Calibration samples discarded at start-up.
CALIBRATION_WARMUP = 20
#: Host seconds of back-to-back steps between two calibrations.
CHUNK_S = 0.25
#: A measured loop still running after this many times ``--seconds``
#: stops there (the step counts last about ``--seconds`` at baseline).
TIME_LIMIT_FACTOR = 4


def _import_program():
    """Put this checkout's ``src`` first on the path and check that the
    program really comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro was imported from {origin}, "
                         f"not from {SRC}")


def rss_kb() -> int:
    """Current resident set size in KB (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGESIZE") // 1024


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_sample() -> float:
    """Host seconds a fixed loop of benchmark-owned work takes right now.

    The host is shared: for seconds to minutes at a time other tenants
    slow every CPU-bound loop by up to ~50 %. Measured steps run back to
    back in chunks of about ``CHUNK_S`` seconds; each chunk is divided
    by the calibration loop timed just before and just after it, which
    cancels most of that slowdown. The loop runs right after program
    work, with caches the program has filled, so it feels contention for
    the shared cache and memory as the program does. It mixes
    pure-Python dict updates with small numpy array operations, the two
    kinds of work the program's steps are made of. The collector is off
    while it runs, so the program's heap does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(CALIBRATION_DICT_UPDATES):
            key = i & 1023
            table[key] = table.get(key, 0.0) + i * 0.5
        column = _CALIBRATION_COLUMN
        for _ in range(CALIBRATION_ARRAY_OPS):
            (column * 0.5 + 1.0).max()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def calibrated(host_seconds: float, before: float, after: float) -> float:
    """Host seconds scaled to the reference host's speed."""
    return host_seconds * CALIBRATION_REFERENCE_S * 2.0 / (before + after)


class Loop:
    """What one measured stretch of closed-loop stepping produced.
    Durations and wall time are calibrated seconds."""

    def __init__(self):
        #: Calibrated seconds of each ``EpochDriver.step`` call.
        self.durations: list[float] = []
        #: Calibrated seconds of the whole loop, client work included
        #: and calibration excluded.
        self.wall = 0.0
        self.host_wall = 0.0
        #: True when the time limit stopped the loop short.
        self.cut = False
        self.errors: list[str] = []

    @property
    def steps(self) -> int:
        return len(self.durations)


def drive(run, steps: int, limit_s: float | None = None,
          tracer=None) -> Loop:
    """Run ``steps`` measured steps, or as many as fit in ``limit_s``
    host seconds. Steps run back to back in chunks of about ``CHUNK_S``
    host seconds, and each chunk is scaled by the calibrations taken
    around it."""
    loop = Loop()
    clock = time.perf_counter
    gc.collect()
    before = calibration_sample()
    started = clock()
    while loop.steps < steps and not loop.errors:
        if limit_s is not None and clock() - started >= limit_s:
            loop.cut = True
            break
        chunk: list[float] = []
        chunk_started = clock()
        while (loop.steps + len(chunk) < steps
               and clock() - chunk_started < CHUNK_S):
            if tracer is not None:
                tracer.step = loop.steps + len(chunk)
            epoch = run.network.epoch
            begin = clock()
            try:
                outcomes = run.driver.step()
            except Exception:  # a failed operation; the deployment is suspect
                loop.errors.append(traceback.format_exc())
                break
            chunk.append(clock() - begin)
            run.record(epoch, outcomes)
        chunk_ended = clock()
        after = calibration_sample()
        loop.durations.extend(calibrated(d, before, after) for d in chunk)
        loop.wall += calibrated(chunk_ended - chunk_started, before, after)
        before = after
    loop.host_wall = clock() - started
    if tracer is not None:
        tracer.step = -1
    return loop


def timed_setup(workload, seed: int, side: int):
    """Build the deployment, submit every client's query and warm up;
    returns (run, calibrated seconds that took)."""
    from workloads import Run

    before = calibration_sample()
    started = time.perf_counter()
    run = Run(workload, seed, side)
    run.warm_up()
    seconds = time.perf_counter() - started
    return run, calibrated(seconds, before, calibration_sample())


def setup_seconds(workload, seed: int, side: int) -> float:
    """Calibrated seconds of one more set-up (its deployment dropped)."""
    _, seconds = timed_setup(workload, seed, side)
    gc.collect()
    return seconds


class Pass:
    """One deployment, set up, stepped and checked; the deployment
    itself is not kept, so it is freed when the pass ends."""

    def __init__(self, args, workload, seed: int, steps: int,
                 limit_s: float | None = None, tracer=None):
        from oracle import check_answers

        self.seed = seed
        run, self.setup_s = timed_setup(workload, seed, args.side)
        self.inputs = run.inputs_digest()
        first = run.cost_snapshot()
        rss_before = rss_kb()
        lookups_before = tracer.channel_lookups if tracer else 0
        self.loop = drive(run, steps, limit_s, tracer)
        self.peak_rss_mb = peak_rss_mb()
        rss_after = rss_kb()
        #: Simulated cost from deployment to the end of the loop; it
        #: must be identical on every run of a seed and step count.
        self.cost = run.cost_snapshot()
        #: Program counters over the measured loop alone.
        self.delta = {
            "by_kind": {kind: count - first["by_kind"].get(kind, 0)
                        for kind, count in self.cost["by_kind"].items()},
            **{key: self.cost[key] - first[key]
               for key in ("samples", "retransmissions", "drops")},
            "rss_kb": rss_after - rss_before,
            "channel_lookups": (tracer.channel_lookups if tracer else 0)
            - lookups_before,
        }
        self.retained_results = run.retained_results()
        self.failures = self.loop.errors + check_answers(run)
        self.attempted = len(run.answers) + len(self.loop.errors)
        del run
        gc.collect()


def source_digest() -> str:
    """Hash of the program and benchmark sources: determinism records
    are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def guard_determinism(args, measured: Pass) -> None:
    """Compare a pass's simulated cost with the one stored for the same
    code, workload, seed and run length, storing it when new; raise on a
    mismatch."""
    cost = measured.cost
    key = {"source": source_digest(), "workload": args.workload,
           "seed": measured.seed, "side": args.side,
           "epochs": cost["epochs"]}
    path = args.state_dir / "determinism.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    name = hashlib.sha256(json.dumps(key, sort_keys=True).encode()
                          ).hexdigest()
    stored = records.get(name)
    if stored is None:
        records[name] = cost
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(records, sort_keys=True))
        os.replace(tmp, path)
        return
    require_same(stored, cost, "an earlier run of the same code and seed")


def require_same(expected: dict, got: dict, what: str) -> None:
    changed = sorted(k for k in set(expected) | set(got)
                     if expected.get(k) != got.get(k))
    if changed:
        raise Nondeterminism(
            f"simulated cost differs from {what}: " + "; ".join(
                f"{k}: {expected.get(k)!r} != {got.get(k)!r}"
                for k in changed))


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def cost_metrics(costs: list[dict]) -> dict:
    def total(key: str) -> float:
        return sum(float(cost[key]) for cost in costs)

    epochs = total("epochs")
    return {
        "messages_per_epoch": (total("messages") / epochs, "msg/epoch"),
        "payload_bytes_per_epoch": (total("payload_bytes") / epochs,
                                    "B/epoch"),
        "radio_mj_per_epoch": (total("radio_joules") * 1e3 / epochs,
                               "mJ/epoch"),
        "samples_per_epoch": (total("samples") / epochs, "samples/epoch"),
    }


def end_to_end(args, workload) -> tuple[dict, list[Pass]]:
    """The untraced run: one measured pass per deployment seed, then
    more set-ups."""
    seeds = workload.seeds(args.seed)
    passes = [Pass(args, workload, seed, args.steps,
                   limit_s=TIME_LIMIT_FACTOR * args.seconds / len(seeds))
              for seed in seeds]
    setups = [p.setup_s for p in passes] + [
        setup_seconds(workload, seeds[i % len(seeds)], args.side)
        for i in range(SETUPS - len(passes))]
    ordered = sorted(d for p in passes for d in p.loop.durations)
    if not ordered:
        return {}, passes
    for measured in passes:
        guard_determinism(args, measured)
    wall = sum(p.loop.wall for p in passes)
    metrics = {
        "epochs_per_s": (len(ordered) / wall, "1/s"),
        "step_ms_p50": (statistics.median(ordered) * 1e3, "ms"),
        "step_ms_p95": (percentile(ordered, 0.95) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
        **cost_metrics([p.cost for p in passes]),
    }
    print(f"inputs {'-'.join(p.inputs for p in passes)}  "
          f"steps {len(ordered)}  calibrated wall {wall:.3f} s  host wall "
          f"{sum(p.loop.host_wall for p in passes):.3f} s  "
          f"setups {[round(s, 4) for s in setups]}")
    return metrics, passes


def traced(args, workload) -> tuple[dict, list[Pass]]:
    """Three passes on fresh deployments of the first deployment seed,
    each a third of the run's measured steps: untraced (from a clean
    heap, for RSS growth), traced, and untraced again (the overhead
    reference, on a heap as warm as the traced pass's)."""
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    seeds = workload.seeds(args.seed)
    seed = seeds[0]
    first = Pass(args, workload, seed, max(1, args.steps * len(seeds) // 3),
                 limit_s=TIME_LIMIT_FACTOR * args.seconds / 3)
    steps = first.loop.steps
    if not steps:
        return {}, [first]
    tracer = Tracer()
    tracer.install()
    try:
        spanned = Pass(args, workload, seed, steps, tracer=tracer)
    finally:
        tracer.uninstall()
    reference = Pass(args, workload, seed, steps)
    passes = [first, spanned, reference]
    require_same(first.cost, spanned.cost, "the untraced run")
    require_same(first.cost, reference.cost, "the untraced run")
    guard_determinism(args, spanned)
    values = layer_metrics(tracer, steps, {
        **spanned.delta,
        "retained_results": spanned.retained_results,
        "rss_growth_kb": first.delta["rss_kb"] / steps,
        "overhead_pct": (spanned.loop.wall / reference.loop.wall - 1.0) * 100.0,
    })
    report = args.state_dir / f"trace-{workload.name}-s{args.seed}.json"
    report.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "steps": steps,
        "metrics": values,
        "span_fields": ["name", "tag", "start", "end", "parent", "step"],
        "spans": tracer.spans,
    }))
    print(f"inputs {spanned.inputs}  steps {steps}  spans {len(tracer.spans)}  "
          f"report {report}")
    units = dict(LAYER_METRICS)
    return ({name: (values[name], units[name]) for name, _ in LAYER_METRICS},
            passes)


class Nondeterminism(Exception):
    """Simulated cost differed between runs that must agree."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="about how long the measured steps take; the "
                             "loop stops at four times this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--side", type=int, default=None,
                        help="grid side (default 20, N = 400)")
    parser.add_argument("--steps", type=int, default=None,
                        help="measured steps per deployment (default: the "
                             "workload's)")
    parser.add_argument("--state-dir", type=Path,
                        default=ROOT / ".bench_build" / "perfbench",
                        help="where determinism records and traces go")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import SIDE, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.side is None:
        args.side = SIDE
    if args.steps is None:
        args.steps = workload.steps
    args.state_dir.mkdir(parents=True, exist_ok=True)
    for _ in range(CALIBRATION_WARMUP):  # first samples run cold
        calibration_sample()
    measure = traced if args.trace else end_to_end
    try:
        metrics, passes = measure(args, workload)
    except Nondeterminism as exc:
        print(f"perfbench: NONDETERMINISTIC: {exc}", file=sys.stderr)
        return 1
    for p in passes:
        if p.loop.cut:
            print(f"perfbench: the time limit stopped a loop after "
                  f"{p.loop.steps} steps", file=sys.stderr)
    failures = [problem for p in passes for problem in p.failures]
    attempted = sum(p.attempted for p in passes)
    for problem in failures[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not metrics:
        print("perfbench: no measured step completed; no metrics",
              file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>10}  {name:<42} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
