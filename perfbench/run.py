"""gorensum benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload verify_gf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from the `src/` directory next to
`perfbench/`.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Scratch files go to
`.perfbench_out/` at the repository root.

One caller runs one op at a time (closed loop, no extra threads).  A run is
a fixed whole number of workload cycles (see workloads.py), about --seconds
long on the reference machine.
With --trace 1 the run does one cycle untraced and then the same cycle
traced, and reports the per-layer metrics of the traced pass.
"""

import argparse
import bisect
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BASELINE = os.path.join(HERE, "baseline.json")

DEFAULT_SEED = 1
SETUP_SAMPLES = 9

WORKLOAD_NAMES = ("verify_gf", "doubling_family", "cli_qq")


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def require_program():
    if not os.path.isfile(os.path.join(SRC, "gorensum", "__init__.py")):
        raise HarnessError(f"no gorensum package under {SRC}")


def import_program():
    """Import gorensum from this checkout's src/ and the benchmark modules."""
    require_program()
    sys.path.insert(0, SRC)
    import gorensum

    if os.path.dirname(os.path.dirname(os.path.abspath(gorensum.__file__))) != SRC:
        raise HarnessError(f"gorensum was imported from {gorensum.__file__}")
    import workloads

    return workloads


# --- set-up -----------------------------------------------------------------


def probe_setup(workload, seed):
    """Child mode: import gorensum, make the first cycle's inputs, report."""
    start = time.perf_counter()
    workloads = import_program()
    import_s = time.perf_counter() - start
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workloads.WORKLOADS[workload](seed, workdir).make_cycle(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))


def measure_setup(workload, seed):
    """setup_s samples: fresh interpreters that each import gorensum and make
    the first cycle's inputs, timed from spawn to exit; with each one's
    import time."""
    walls, imports = [], []
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, imports


# --- the op loop ------------------------------------------------------------


class Pass:
    """Latencies and answers of one sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.weights = []
        self.shapes = []
        self.answers = []
        self.failed = 0
        self.child_rss_kb = 0

    @property
    def attempted(self):
        return len(self.latencies) + self.failed


def run_ops(workload, specs, in_process, result):
    for spec in specs:
        try:
            op = workload.run_op(spec, in_process)
        except Exception as err:  # an op failure is a measurement, not a crash
            result.failed += 1
            result.answers.append(None)
            log(f"op failed: {spec!r}: {type(err).__name__}: {err}")
            continue
        result.latencies.append(op.latency_s)
        result.weights.append(op.weight)
        result.shapes.append(op.shape)
        result.answers.append(op.answer)
        if op.child_rss_kb is not None:
            result.child_rss_kb = max(result.child_rss_kb, op.child_rss_kb)


def answer_digest(answers):
    text = json.dumps(answers, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(name, seed, digest):
    """True unless this is the default seed and the digest differs from the
    pinned one."""
    if seed != DEFAULT_SEED:
        return True
    with open(BASELINE) as fh:
        pinned = json.load(fh)["answer_digest"][name]
    if digest != pinned:
        log(f"answer digest {digest} differs from the pinned {pinned}")
        return False
    return True


TAIL_BEYOND = 10


def weighted_rank(cumulative, share):
    """Nearest rank: the index of the first item whose cumulative weight
    reaches `share` of the total."""
    return bisect.bisect_left(cumulative, share * cumulative[-1])


def trimmed_mean(values):
    """Mean without the smallest and the largest value, once there are three."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 3 else values)


def latency_profile(latencies, weights, shapes):
    """Median latency, and the tail: the latency at the highest whole
    percentile that leaves at least TAIL_BEYOND ops beyond it (all but one
    op when a run has fewer), with that percentile and the number of ops
    beyond it.  Quantiles are nearest-rank over the weights.

    The median is taken over the classes, each at the typical latency of its
    ops and weighing what its ops weigh together.  An op's cost is set by its
    class, and the machine's speed drifts over seconds, so the typical
    latency of a class is the mean over its ops, spread over the run, without
    its fastest and its slowest.  The tail is taken over the ops themselves,
    as it is made of the few slowest."""
    pairs = sorted(zip(latencies, weights))
    cumulative = list(itertools.accumulate(w for _, w in pairs))
    # the tail op may be no higher than `last`, so that enough ops lie beyond
    last = len(pairs) - 1 - min(TAIL_BEYOND, len(pairs) - 1)
    percentile = min(99, math.floor(Fraction(100 * cumulative[last])
                                    / cumulative[-1]))
    at = weighted_rank(cumulative, Fraction(percentile, 100))

    classes = {}
    for latency, weight, shape in zip(latencies, weights, shapes):
        classes.setdefault(shape, []).append((latency, weight))
    typical = sorted(
        (trimmed_mean([s for s, _ in ops]), sum(w for _, w in ops))
        for ops in classes.values()
    )
    median = typical[weighted_rank(
        list(itertools.accumulate(w for _, w in typical)), Fraction(1, 2))][0]
    return median, pairs[at][0], percentile, len(pairs) - 1 - at


def run_timed(name, workload, seconds, seed, setup_walls):
    result = Pass()
    run_ops(workload, workload.make_cycle(0), False, result)
    digest = answer_digest(result.answers)
    cycles = max(1, round(seconds / workload.cycle_s))
    for index in range(1, cycles):
        run_ops(workload, workload.make_cycle(index), False, result)
    if not result.latencies:
        raise HarnessError("every op failed")
    p50_s, tail_s, percentile, beyond = latency_profile(
        result.latencies, result.weights, result.shapes)
    weighted_s = sum(w * s for w, s in zip(result.weights, result.latencies))
    if workload.process_per_op:
        peak_kb = result.child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": float(sum(result.weights)) / weighted_s,
        "op_p50_s": p50_s,
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": len(result.latencies) / result.attempted,
    }
    units = metric_units("end_to_end")
    for key, value in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    print(f"{name} op_tail_s is p{percentile} with {beyond} of "
          f"{len(result.latencies)} ops beyond it")
    print(f"{name} fail_ratio {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted}); {cycles} cycle(s)")
    print(f"{name} answer_digest {digest} (first cycle, seed {seed})")
    correct = result.failed == 0 and check_digest(name, seed, digest)
    return correct, result.attempted, result.failed, metrics, units


def run_traced(name, workload, seed, setup_imports):
    import tracing

    specs = workload.make_cycle(0)
    plain, traced = Pass(), Pass()
    plain_s = traced_s = 0.0
    tracer = tracing.Tracer()
    for index, spec in enumerate(specs):
        # each op runs untraced and traced; which goes first alternates, so
        # that neither pass gets all the warm caches
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = index
                with tracer:
                    start = time.perf_counter()
                    run_ops(workload, [spec], True, traced)
                    traced_s += time.perf_counter() - start
            else:
                start = time.perf_counter()
                run_ops(workload, [spec], True, plain)
                plain_s += time.perf_counter() - start
    metrics = tracing.layer_metrics(tracer, traced_s)
    metrics["trace_overhead_ratio"] = traced_s / plain_s
    metrics["cli.import_s"] = statistics.median(setup_imports)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    consistent = plain.answers == traced.answers
    if workload.process_per_op:
        # what a fresh process adds to each op: interpreter, import, exit
        procs = Pass()
        run_ops(workload, specs, False, procs)
        attempted += procs.attempted
        failed += procs.failed
        extra = [p - q for p, q in zip(procs.latencies, plain.latencies)]
        metrics["cli.process_s"] = statistics.median(extra) if extra else 0.0
        consistent = consistent and procs.answers == plain.answers
    else:
        metrics["cli.process_s"] = 0.0

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    counters_path = os.path.join(OUT, f"counters-{name}-seed{seed}.json")
    with open(counters_path, "w") as fh:
        json.dump(tracing.deterministic_counters(tracer), fh, indent=1)
    print(f"{name} traced {len(tracer.spans)} spans in {traced_s:.3f} s "
          f"(untraced {plain_s:.3f} s); spans in {spans_path}")
    for key in sorted(metrics):
        print(f"{name} {key} {metrics[key]:.6g}")

    digest = answer_digest(plain.answers)
    if not consistent:
        log("the passes over one cycle gave different answers")
    correct = failed == 0 and consistent and check_digest(name, seed, digest)
    return correct, attempted, failed, metrics, metric_units("per_layer")


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics declared in
    BENCHMARK.json; the result line reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- entry points -----------------------------------------------------------


def run_one(args):
    require_program()
    os.makedirs(OUT, exist_ok=True)
    setup_walls, setup_imports = measure_setup(args.workload, args.seed)
    workloads = import_program()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            outcome = run_traced(args.workload, workload, args.seed,
                                 setup_imports)
        else:
            outcome = run_timed(args.workload, workload, args.seconds,
                                args.seed, setup_walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics, units = outcome
    missing = set(units) - set(metrics)
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def run_all(args):
    """Each workload in its own fresh process; prints their summaries."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise HarnessError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed)
        elif args.workload == "all":
            run_all(args)
        else:
            run_one(args)
    except HarnessError as err:
        log(f"error: {err}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
