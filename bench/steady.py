"""Steadiness mode: repeat the benchmark and compare run-to-run spread with the bounds.

    python3 bench/steady.py --workload all --runs 10
    python3 bench/steady.py --workload integrator_scans --runs 5

Runs ``bench/run.py`` ``runs`` times in each of two sets per workload, each
run in a fresh process with its own seed (set k uses seeds k*runs+1 ..
k*runs+runs) and ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (Q3 - Q1) / median against the
metric's bound from ``BENCHMARK.json``, and how far the second set's median
moved from the first in the worse direction.  A spread or a shift above the
bound fails; a spread above a third of the bound is flagged as unsteady.
Exit code 1 on failure.

``--record PATH`` also runs one traced run per workload and writes the
figures, machine facts and known defects to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SETS = 2


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1] if not line.startswith("  ")]
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed}: {result['failed']} failed ops")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_shift(first: float, second: float, better: str) -> float:
    """Relative move of ``second`` from ``first`` in the worse direction."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    sets = {name: [[] for _ in range(SETS)] for name in names}
    for s in range(SETS):
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for name in names:
                sets[name][s].append(run_once(name, seed, seconds, 0))
                print(f"set {s + 1} run {i + 1}/{args.runs} {name} seed {seed} done",
                      file=sys.stderr, flush=True)

    ok = True
    report = {}
    for name in names:
        print(f"\n{name}  ({args.runs} runs per set, {seconds:g} s each)")
        print(f"  {'metric':13s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>7s}  verdict")
        report[name] = {}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][key]["value"] for r in runs])
                     for runs in sets[name]]
            report[name][key] = {"unit": metric["unit"], "bound": bound, "sets": stats}
            for k, st in enumerate(stats):
                verdict = "steady"
                if st["spread"] > bound:
                    verdict, ok = "FAIL spread > bound", False
                elif st["spread"] > bound / 3:
                    verdict = "unsteady (spread > bound/3)"
                print(f"  {key:13s} {k + 1:>3d} {st['median']:12.6g} {st['q1']:12.6g} "
                      f"{st['q3']:12.6g} {st['spread']:8.4f} {bound:7.4g}  {verdict}")
            shift = worse_shift(stats[0]["median"], stats[1]["median"], metric["better"])
            report[name][key]["worse_shift"] = shift
            verdict = "ok" if shift <= bound else "FAIL shift > bound"
            ok = ok and shift <= bound
            print(f"  {key:13s} set 2 vs 1: {shift:+.4f} worse (bound {bound:g})  {verdict}")

    if args.record is not None:
        import numpy
        import scipy
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        from run import thread_caps
        from workloads import KNOWN_DEFECTS
        traced = {name: run_once(name, 1, seconds, 1) for name in names}
        doc = {
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "thread_caps": thread_caps(),
                "platform": platform.platform(),
            },
            "run_seconds": seconds,
            "runs_per_set": args.runs,
            "known_defects": KNOWN_DEFECTS,
            "end_to_end": report,
            "run_log_seed1": {n: sets[n][0][0]["log"] for n in names},
            "per_layer_seed1": {n: {k: v["value"] for k, v in r["metrics"].items()}
                                for n, r in traced.items()},
        }
        args.record.write_text(json.dumps(doc, indent=1) + "\n")
    print("\nsteadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
