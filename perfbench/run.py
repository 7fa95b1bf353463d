"""Fixed-work benchmark of the k3cycles exact cycle engine.

    python3 perfbench/run.py --workload twistor --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36   # all four, then traced runs
    python3 perfbench/run.py --smoke                                # two inputs per workload

Each workload runs in fresh single-threaded interpreters started one after
another (worker.py).  With --trace 0 the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run instead.
See README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import per_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("twistor", "reflect", "domain", "chamber")
SETUP_PROBES = 2  # set-up-only interpreters before and after the timed one; setup_s is the median of all five
DEADLINE_S = 175  # every single-workload run ends within this


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode, deadline):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_single(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        r = _worker(workload, seed, seconds, "trace", deadline)
        overhead = r["untraced_ops_per_s"] / r["traced_ops_per_s"] - 1
        print(
            f"# {workload}: traced {r['traced_ops_per_s']:.4g} ops/s against untraced "
            f"{r['untraced_ops_per_s']:.4g} in the same process (tracing overhead {overhead:+.1%}), "
            f"{r['spans']} spans"
        )
        if r["missing"]:
            print(f"# {workload}: missing (no longer in k3cycles): {', '.join(r['missing'])}")
        units = {name: unit for name, unit, _ in per_layer_names()}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in sorted(r["per_layer"].items())}
    else:
        # Set-up samples before and after the timed run, so that their median
        # spans the run rather than one phase of the host's speed.
        probes = [_worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES)]
        r = _worker(workload, seed, seconds, "timed", deadline)
        probes.append(r)
        probes += [_worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES)]
        setups = [p["setup_s"] for p in probes]

        def listing(values, fmt):
            return ", ".join(format(x, fmt) for x in values)

        print(f"# {workload}: {len(r['round_rates'])} rounds of {r['round_ops']} operations; raw ops/s per round "
              f"[{listing(r['round_rates'], '.3f')}]; host factor per round [{listing(r['host_factors'], '.3f')}]")
        print(f"# {workload}: scaled ms per operation, median over the rounds [{listing(r['per_op_ms'], '.1f')}]")
        print(f"# {workload}: raw (not metrics): ops/s over the timed phase {r['raw_ops_per_s']:.4g}, "
              f"op_p50_ms {r['raw_op_p50_ms']:.4g}, set-up s [{listing([p['setup_raw_s'] for p in probes], '.3f')}] "
              f"at host factors [{listing([p['setup_host_factor'] for p in probes], '.3f')}]")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": r["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": r["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
    for p in r["problems"]:
        print(f"# {workload}: FAILED {p}")
    return {"correct": r["wrong"] == 0, "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def run_all(seed, seconds):
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            res = run_single(workload, seed, seconds, trace)
            results[f"{workload}/trace{trace}"] = res
            print(json.dumps({"workload": workload, "trace": trace, **res}), flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"all-seed{seed}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()), "metrics": {}}))
    return 0 if ok else 1


def run_smoke(seed):
    ok = True
    for workload in WORKLOAD_NAMES:
        start = time.monotonic()
        r = _worker(workload, seed, 1, "smoke", start + DEADLINE_S)
        good = r["failed"] == 0
        ok = ok and good
        print(f"smoke {workload}: {r['attempted']} operations, {r['failed']} failed, {time.monotonic() - start:.1f} s")
        for p in r["problems"]:
            print(f"  {p}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="each workload on its first two inputs, one round")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return run_smoke(args.seed)
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_single(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
