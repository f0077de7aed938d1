"""skorodist benchmark: one workload in one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload near --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` beside this directory, never from an
installed copy.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics and the spans are written to ``perfbench/out/``.

    python3 perfbench/run.py --record-reference

recomputes ``reference.json``, the outputs of every op at the default seed
that later runs are compared against.  See README.md for the workloads and
for which layer metric should move which end-to-end metric.

Every timing is scaled to a reference host speed: a fixed calibration loop
runs next to each op and each set-up, and a time is multiplied by
``REFERENCE_CAL_S`` over the calibration time measured beside it.  On a
shared host whose speed drifts over minutes this keeps the timings of runs
made far apart comparable; the unscaled figures are printed on a comment
line before the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import EXACT_COUNTS, Tracer, untraced_api
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SPAN_DIR = HERE / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 11
MIN_OPS = 20  # op_tail_ms needs ten ops beyond it
COUNT_OPS = {"near": 4, "far": 4, "transfer": 3}  # ops behind the exact counts

# Time of one calibration() at the reference host speed: about its median
# beside the ops on a shared 2-vCPU 2.0 GHz Xeon host with CPython 3.11.
REFERENCE_CAL_S = 4.0e-3
SPEED_WINDOW = 4  # calibration samples behind each op's speed estimate


class _Coordinate:
    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __call__(self, u, v):
        return abs(u[self.k] - v[self.k])


class _Max:
    def __init__(self, parts):
        self.parts = parts

    def __call__(self, u, v):
        return max(part(u, v) for part in self.parts)


def calibration():
    """Fixed pure-Python work shaped like a solve: a table of abs
    differences scanned with min and max, a table of composite-metric calls
    on 2-tuples, and a DP table filled with None checks.  It touches nothing
    of skorodist."""
    xs = [((i * 7919) % 1000) / 1000.0 for i in range(120)]
    ys = [((i * 104729) % 1000) / 1000.0 for i in range(120)]
    best = 0.0
    for a in xs:
        best = max(best, min([abs(a - b) for b in ys]))
    d = _Max([_Coordinate(0), _Coordinate(1)])
    us, vs = list(zip(xs, ys))[:32], list(zip(ys, xs))[:32]
    best = max(best, max(min([d(u, v) for v in vs]) for u in us))
    n = 50
    table = [[None] * n for _ in range(n)]
    table[0][0] = 0.0
    for i in range(n):
        for j in range(n):
            t = None
            if i and table[i - 1][j] is not None and abs(xs[i] - ys[j]) <= 0.9:
                t = table[i - 1][j]
            if j and table[i][j - 1] is not None and (t is None or ys[j] < t):
                t = min(max(table[i][j - 1], xs[i] - 0.1, 0.0), 1.0)
            table[i][j] = 0.0 if t is None else t
    return max(best, table[-1][-1])


def calibrate(runs=1):
    """Median seconds of ``runs`` calibration loops, with the collector off
    so that the program's heap does not slow the loop."""
    times = []
    gc.disable()
    try:
        for _ in range(runs):
            t0 = perf_counter()
            calibration()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def scaled(times, cals):
    """Op times at reference speed.  ``cals[k]`` is measured before op k and
    ``cals[k + 1]`` after it; op k is scaled by the median of the
    ``SPEED_WINDOW`` samples nearest to it, half before and half after."""
    half = SPEED_WINDOW // 2
    out = []
    for k, t in enumerate(times):
        window = cals[max(0, k + 1 - half):k + 1 + half]
        out.append(t * REFERENCE_CAL_S / statistics.median(window))
    return out


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, or a foreign package)."""


def import_library():
    """Import skorodist afresh from SRC; returns the package."""
    for name in [m for m in sys.modules if m.split(".")[0] == "skorodist"]:
        del sys.modules[name]
    lib = importlib.import_module("skorodist")
    importlib.import_module("skorodist.sampling")
    if Path(lib.__file__).resolve().parent != SRC / "skorodist":
        raise SetupError(f"imported skorodist from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload, seed):
    """Import plus input generation, repeated; returns (lib, ops, median s
    at reference speed, median s unscaled).

    The bytecode cache is used and written whatever the environment says, as
    for an installed package, so the first repetition compiles and the median
    one loads the cache.  Garbage left by the previous repetition is
    collected before each one, and the host speed calibrated.
    """
    if not (SRC / "skorodist" / "__init__.py").is_file():
        raise SetupError(f"no skorodist source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        cal = calibrate(3)
        t0 = perf_counter()
        lib = import_library()
        ops = workload.setup(lib, seed)
        raw.append(perf_counter() - t0)
        times.append(raw[-1] * REFERENCE_CAL_S / cal)
    return lib, ops, statistics.median(times), statistics.median(raw)


class Bench:
    """Runs ops of one workload and keeps the failure tally."""

    def __init__(self, lib, workload, ops, refs):
        self.lib, self.workload, self.ops, self.refs = lib, workload, ops, refs
        self.attempted = 0
        self.failures = []

    def run_op(self, api, index, tracer=None, op_id=None):
        """Run and gate one op; returns its wall time in seconds.  Only the
        op call itself is timed: the gate runs afterwards."""
        op = self.ops[index]
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.workload.run(api, op)
            else:
                with tracer.op(op_id, self.workload.op_span):
                    result = self.workload.run(api, op)
        except Exception:  # a raising op is a failed op; keep measuring
            elapsed = perf_counter() - t0
            self.failures.append((index, traceback.format_exc()))
            return elapsed
        elapsed = perf_counter() - t0
        ref = self.refs[index] if self.refs is not None else None
        try:
            reason = self.workload.check(
                self.lib, api, op, result, ref, tracer is not None
            )
        except Exception:
            reason = traceback.format_exc()
        if reason is not None:
            self.failures.append((index, reason))
        if tracer is not None:
            tracer.counts[op_id]["topology.accepted"] += self.workload.accepted(result)
        return elapsed

    def measure(self, api, seconds, min_ops, tracer=None):
        """Cycle through the ops until ``seconds`` of op time and ``min_ops``
        ops, calibrating after each; the k-th op has trace id k.  Returns
        (op times at reference speed, unscaled op times)."""
        times = []
        cals = [calibrate()]
        busy = 0.0
        while busy < seconds or len(times) < min_ops:
            k = len(times)
            dt = self.run_op(api, k % len(self.ops), tracer, k)
            times.append(dt)
            cals.append(calibrate())
            busy += dt
        return scaled(times, cals), times


def load_reference(name, seed, n_ops):
    if seed != DEFAULT_SEED:
        return None
    refs = json.loads(REFERENCE.read_text())["workloads"][name]
    if len(refs) != n_ops:
        raise SetupError(f"reference has {len(refs)} values for {n_ops} ops")
    return refs


def tail(times):
    """Highest percentile with ten ops beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(bench, setup, seconds):
    setup_s, raw_setup_s = setup
    api = untraced_api(bench.lib)
    bench.run_op(api, 0)  # warm-up, gated but not timed
    times, raw = bench.measure(api, seconds, MIN_OPS)
    tail_s, pct = tail(times)
    print(f"# {len(times)} timed ops; op_tail_ms is the p{pct:.2f} "
          f"(10 of {len(times)} ops beyond it)")
    print(f"# unscaled: setup_s {raw_setup_s:.4f}, ops_per_s "
          f"{len(raw) / sum(raw):.4f}, op_p50_ms {1e3 * statistics.median(raw):.2f}, "
          f"op_tail_ms {1e3 * tail(raw)[0]:.2f}; host at "
          f"{sum(raw) / sum(times):.3f} x reference time")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": (1.0 - len(bench.failures) / bench.attempted, "fraction"),
    }
    return metrics, []


def per_layer(bench, name, seed, seconds):
    """Half the time untraced, half traced; then rerun the first op and
    require every exact count to repeat."""
    plain = untraced_api(bench.lib)
    bench.run_op(plain, 0)
    untraced, _ = bench.measure(plain, seconds / 2, MIN_OPS)
    tracer = Tracer()
    with tracer.installed(bench.lib) as api:
        traced, _ = bench.measure(api, seconds / 2, COUNT_OPS[name], tracer)
        n = len(traced)
        bench.run_op(api, 0, tracer, n)
    problems = []
    first = {}
    for op_id in range(n + 1):
        index = op_id % len(bench.ops) if op_id < n else 0
        counts = tuple(tracer.counts[op_id][key] for key in EXACT_COUNTS)
        if first.setdefault(index, counts) != counts:
            problems.append(f"op {index} counts {counts} differ from {first[index]}")
    metrics = tracer.summary(range(n), COUNT_OPS[name])
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    path = SPAN_DIR / f"{name}-seed{seed}-spans.json"
    tracer.write(path)
    print(f"# {n} traced ops, {len(tracer.spans)} spans written to {path}")
    return metrics, problems


def record_reference():
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        lib, ops, _, _ = set_up(workload, DEFAULT_SEED)
        api = untraced_api(lib)
        values = []
        for index, op in enumerate(ops):
            result = workload.run(api, op)
            reason = workload.check(lib, api, op, result, None, False)
            if reason is not None:
                raise RuntimeError(f"{name} op {index}: {reason}")
            values.append(workload.reference_of(result))
        out["workloads"][name] = values
        print(f"{name}: {len(values)} reference values", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        lib, ops, *setup = set_up(workload, args.seed)
        refs = load_reference(args.workload, args.seed, len(ops))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench = Bench(lib, workload, ops, refs)
    if args.trace:
        metrics, problems = per_layer(bench, args.workload, args.seed, args.seconds)
    else:
        metrics, problems = end_to_end(bench, setup, args.seconds)
    for index, reason in bench.failures[:5]:
        print(f"op {index} failed: {reason}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures and not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
