"""Run degenpop benchmark workloads and print their metrics.

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Each workload runs in its own process as a single-caller closed loop: the
next operation starts only after the previous one has returned and been
checked.  BLAS/OpenMP thread pools are capped at the number of usable
cores before numpy loads.  The first pass warms caches and is checked but
not timed; later passes run until ``--seconds`` have elapsed.  Each
end-to-end time is divided by the processor speed probed during its pass
(see :func:`probe`), so machine-wide slowdowns mostly cancel.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics instead.  The program under test is imported
from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
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
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("design_sweep", "dense_trajectory", "integrator_scans")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 10 * TAIL_BEYOND  # fewer, and that percentile is below p90
PROBE_REF_MS = 0.5  # the probe's time in quiet spells on the 2-vCPU VM the benchmark was built on
PROBE_INTERVAL_S = 0.02
PROBE_MATRIX = ((0.3, 1.0, 0.5), (1.0, -0.2, 1.0), (0.5, 1.0, 0.1))


def thread_caps() -> dict[str, str]:
    cores = str(len(os.sched_getaffinity(0)))
    return {k: cores for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than a hundred
    samples that percentile would lie below p90, which is no tail, and the
    maximum is returned instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def probe() -> float:
    """Processor speed now, as the time of a fixed piece of work over its
    reference time; 1.0 in a quiet spell on the machine the benchmark was
    built on, above 1 when the processor runs slower.

    The work is a pure-Python loop and small numpy eigendecompositions,
    like the program's mix, and touches no degenpop code, so no change to
    the program moves it.
    """
    import numpy as np  # here, so that run_one caps the thread pools first

    matrix = np.array(PROBE_MATRIX)
    start = time.perf_counter_ns()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(20):
        np.linalg.eigh(matrix)
    return (time.perf_counter_ns() - start) / 1e6 / PROBE_REF_MS


def setup_sample(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports ``degenpop.cli`` and
    exits, divided by the processor speed probed just before and after."""
    before = probe()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import degenpop.cli"], env=env, check=True)
    elapsed = time.perf_counter() - start
    return elapsed / statistics.fmean((before, probe()))


def run_pass(workload, tally: Counter) -> tuple[float, list[float], float]:
    """One pass over the workload's operations; returns (pass ms, op ms,
    processor speed).

    Only the operations are timed; each is prepared before its timer
    starts and checked after it stops.  Between operations, at least every
    ``PROBE_INTERVAL_S``, and after the last, the processor speed is
    probed; the pass's speed is the mean of its probes.
    """
    latencies, speeds = [], []
    next_probe = 0.0
    for op in workload.ops:
        if time.perf_counter() >= next_probe:
            speeds.append(probe())
            next_probe = time.perf_counter() + PROBE_INTERVAL_S
        workload.prepare(op)
        start = time.perf_counter_ns()
        try:
            result = workload.run(op)
        except Exception as exc:  # the check decides whether this was expected
            result = exc
        latencies.append((time.perf_counter_ns() - start) / 1e6)
        tally[workload.check(op, result)] += 1
    speeds.append(probe())
    return sum(latencies), latencies, statistics.fmean(speeds)


def measure(workload, seconds: float, tracer=None, between=None) -> dict:
    """Warm-up pass, then passes until ``seconds`` have elapsed.

    With a tracer, untraced and traced passes alternate (in swapped order
    every other pair), and the tracer is installed only for traced passes.
    ``between``, if given, is called after each untraced timed pass.
    """
    tally: Counter = Counter()
    run_pass(workload, tally)
    plain, traced, layers, ops, speeds = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while not plain or not (tracer is None or traced) or time.perf_counter() < deadline:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_trace in (order if tracer is not None else (False,)):
            if not with_trace:
                pass_ms, lat, speed = run_pass(workload, tally)
                plain.append(pass_ms)
                ops.append(lat)
                speeds.append(speed)
                if between is not None:
                    between()
                continue
            tracer.reset()
            tracer.install()
            try:
                pass_ms, _, _ = run_pass(workload, tally)
            finally:
                tracer.restore()
            values, top_ms = tracer.layer_totals()
            values["trace.unattributed_ms"] = pass_ms - top_ms
            traced.append(pass_ms)
            layers.append(values)
        pair += 1
    return {"tally": tally, "plain": plain, "traced": traced, "layers": layers, "ops": ops,
            "speeds": speeds}


def end_to_end(m: dict, setup_s: float) -> tuple[dict, str]:
    """End-to-end metrics of the untraced passes.

    Every time is divided by the processor speed probed during its pass,
    so it reads as the time on the reference processor: other tenants of
    the shared host slow it by up to 1.5x, in spells from under a second
    to many minutes, and this cancels most of that.  ``op_tail_ms`` is
    the median over passes of each pass's tail.
    """
    attempted = sum(m["tally"].values())
    passes = [[x / speed for x in lat] for lat, speed in zip(m["ops"], m["speeds"])]
    tails = [tail(lat) for lat in passes]
    _, pct, beyond = tails[0]
    note = (f"times are divided by the probed processor speed (median "
            f"{statistics.median(m['speeds']):.3g}); op_tail_ms is the median over "
            f"{len(passes)} passes of p{pct:.4g} of {len(passes[0])} ops, {beyond} beyond it")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(math.fsum(lat) for lat in passes) / 1e3, "s"),
        "op_p50_ms": (statistics.median(x for lat in passes for x in lat), "ms"),
        "op_tail_ms": (statistics.median(t[0] for t in tails), "ms"),
        "pass_share": (m["tally"]["pass"] / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, note


def per_layer(m: dict) -> dict:
    from tracing import LAYER_METRICS, MAXIMA, TRACE_METRICS

    passes = m["layers"]
    metrics = {}
    for key, (unit, _) in LAYER_METRICS.items():
        values = [p[key] for p in passes]
        metrics[key] = (max(values) if key in MAXIMA else statistics.fmean(values), unit)
    overhead = statistics.median(m["traced"]) / statistics.median(m["plain"]) - 1.0
    metrics["trace.overhead_share"] = (overhead, TRACE_METRICS["trace.overhead_share"])
    metrics["trace.unattributed_ms"] = (
        statistics.fmean(p["trace.unattributed_ms"] for p in passes),
        TRACE_METRICS["trace.unattributed_ms"])
    return metrics


def pin_malloc_threshold() -> None:
    """Fix glibc's mmap threshold at its 128 KiB default.

    Left dynamic, the threshold rises after the first large free, and later
    large blocks stay in the heap after they are freed; whether a freed
    20 MB CSV string is still resident under the next peak then depends on
    allocation order, and ``peak_rss_mb`` jumps between two values.
    """
    import ctypes
    try:
        ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):  # not glibc: keep the allocator's default
        pass


def run_one(args) -> int:
    pin_malloc_threshold()
    caps = thread_caps()
    os.environ.update(caps)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS

    workload = WORKLOADS[args.workload]()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    tracer = Tracer() if args.trace else None
    # setup_s samples are spread over the run, one after each untraced pass,
    # so they see the processor in the same state as the passes do
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = []
    sample = None if args.trace else lambda: setup.append(setup_sample(env))
    try:
        workload.setup(args.seed, workdir)
        if sample is not None:
            setup_sample(env)  # warms the file cache; discarded
        m = measure(workload, args.seconds, tracer, sample)
        while sample is not None and len(setup) < SETUP_SAMPLES:
            sample()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    tally = m["tally"]
    attempted = sum(tally.values())
    passes = len(m["plain"]) + len(m["traced"]) + 1
    print(f"workload {workload.name}, seed {args.seed}, {len(workload.ops)} ops per pass, "
          f"{passes} passes (1 warm-up), closed loop with one caller")
    print("threads " + " ".join(f"{k}={v}" for k, v in caps.items()))
    known = {k: tally[k] // passes for k in KNOWN_DEFECTS if tally[k]}
    if known:
        print("known defects per pass: " + ", ".join(f"{k} {v}" for k, v in known.items()))
    if args.trace:
        metrics = per_layer(m)
    else:
        metrics, note = end_to_end(m, statistics.median(setup))
        note += f"; setup_s is the median of {len(setup)} imports"
        print(note)
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally["fail"] == 0,
        "attempted": attempted,
        "failed": tally["fail"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    keys = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"\n{'metric':30s}" + "".join(f"{n:>20s}" for n in WORKLOAD_NAMES))
    for key in keys:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][key]["unit"]
        print(f"{key + ' [' + unit + ']':30s}"
              + "".join(f"{results[n]['metrics'][key]['value']:>20.6g}" for n in WORKLOAD_NAMES))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "degenpop" / "__init__.py").is_file():
        print(f"error: degenpop sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
