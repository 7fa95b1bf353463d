"""One workload in one fresh interpreter; run.py starts it.

Set-up is timed from the first statement after the calibration below to
"ready": importing k3cycles, building the standard lattices, generating and
decoding the workload's inputs, and one warm-up operation.  The timed phase then replays
whole rounds of the same item list; each operation's wall time covers only the
call into the program, and its output is checked afterwards.  A fixed
pure-Python calibration loop is timed before every operation and around set-up;
the times are scaled by it to the reference host's fast phase, so that the
host's speed phases cancel (README.md, "Host noise").  Raw figures are
reported beside the scaled ones.

Prints one JSON object as the last line of standard output.
"""

import time


def calibration_loop_ms():
    """A fixed pure-Python integer loop: no library code and no objects the
    garbage collector tracks, so nothing the program does changes its work."""
    start = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return (time.perf_counter() - start) * 1e3


_CALIBRATION_BEFORE = [calibration_loop_ms() for _ in range(7)]  # brackets set-up with the one after it
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)


def _import_library():
    import k3cycles
    import k3cycles.jsonio  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.abspath(k3cycles.__file__))) != SRC:
        raise ImportError(f"k3cycles was imported from {k3cycles.__file__}, not from this checkout's src/")
    return k3cycles


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


# The calibration loop's time on the reference host in its fast phase.  Timings
# are reported as they would read with the loop at this speed (README.md).
CALIBRATION_MS = 6.5


# How much more the program slows than the calibration loop when the host
# slows: program time goes as the loop's host factor to this power.  Measured
# 1.05 in the host's steady slow phase and 1.4-1.48 in its fast-changing slow
# phase (README.md, "Host noise"); 1.3 keeps both within about 8%.
HOST_ELASTICITY = 1.3


def host_factor(samples):
    """How much slower than the reference host the calibration loop ran."""
    return statistics.median(samples) / CALIBRATION_MS


def host_scale(factor):
    """What a time taken at this host factor is divided by."""
    return factor**HOST_ELASTICITY


class Runner:
    def __init__(self, k, workload, items, ctx, expected):
        self.k, self.w, self.items, self.ctx, self.expected = k, workload, items, ctx, expected
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def round(self, around_op=contextlib.nullcontext):
        """Run every item once; returns the per-operation wall times (s) and
        the calibration loop's times (ms), one before each operation and one
        after the last."""
        times = []
        calibration = []
        for i, item in enumerate(self.items):
            calibration.append(calibration_loop_ms())
            self.attempted += 1
            start = time.perf_counter()
            try:
                with around_op():
                    result = self.w.run(self.k, self.ctx, item, self.ctx["args"][i])
            except Exception as exc:  # an operation that raises counts as failed
                times.append(time.perf_counter() - start)
                self.failed += 1
                self._note(i, f"{type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            errors = self.w.check(item, self.expected[i], result)
            if errors:
                self.failed += 1
                self.wrong += 1
                self._note(i, "; ".join(errors))
        calibration.append(calibration_loop_ms())
        return times, calibration

    def _note(self, i, message):
        if len(self.problems) < 10:
            self.problems.append(f"item {i}: {message}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace", "smoke"), required=True)
    args = ap.parse_args()

    k = _import_library()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    items = w.make_items(random.Random(f"{args.workload}:{args.seed}"))
    if args.mode == "smoke":
        items = items[:2]
    ctx = w.prepare(k, items)
    w.run(k, ctx, items[0], ctx["args"][0])  # warm-up
    setup_raw_s = time.perf_counter() - _T0
    factor = host_factor(_CALIBRATION_BEFORE + [calibration_loop_ms() for _ in range(7)])
    out = {"setup_s": setup_raw_s / host_scale(factor), "setup_raw_s": setup_raw_s, "setup_host_factor": factor}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    cache = {}
    expected = [w.expect(cache, item) for item in items]
    runner = Runner(k, w, items, ctx, expected)
    n = len(items)
    if args.mode == "trace":
        from tracing import FractionCounter, Tracer

        plain, _ = runner.round()
        tracer = Tracer(k)
        tracer.install()
        try:
            traced, _ = runner.round()
        finally:
            tracer.uninstall()
        counter = FractionCounter()
        runner.round(around_op=lambda: counter)
        per_layer = tracer.metrics(n)
        per_layer["fractions.calls"] = counter.calls / n
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        out.update(
            per_layer=per_layer,
            missing=tracer.missing,
            untraced_ops_per_s=n / sum(plain),
            traced_ops_per_s=n / sum(traced),
            spans=len(tracer.spans),
        )
    else:
        phase = time.perf_counter()
        rounds = []
        while True:
            start = time.perf_counter()
            rounds.append(runner.round())
            if len(rounds) == 1:
                # Peak RSS over set-up and one round: later rounds repeat the same
                # work, and reading it here keeps it independent of the round count.
                out["peak_rss_mb"] = _peak_rss_mb()
            took = time.perf_counter() - start
            # Whole rounds only, and no round that would end after --seconds.
            if args.mode == "smoke" or time.perf_counter() - phase + took > args.seconds:
                break
        # The host's speed phases last from seconds to over an hour, long enough
        # to cover whole runs.  Each round's times are divided by host_scale of
        # that round's host factor (its calibration median over CALIBRATION_MS),
        # and each operation's time is then its median over the rounds.  The
        # raw figures are reported beside them.
        factors = [host_factor(cal) for _, cal in rounds]
        raw = [times for times, _ in rounds]
        scaled = [[t / host_scale(f) for t in times] for times, f in zip(raw, factors)]
        per_op = [statistics.median(col) for col in zip(*scaled)]
        raw_per_op = [statistics.median(col) for col in zip(*raw)]
        out.update(
            ops_per_s=n / sum(per_op),
            op_p50_ms=statistics.median(per_op) * 1e3,
            per_op_ms=[x * 1e3 for x in per_op],
            raw_ops_per_s=n * len(raw) / sum(map(sum, raw)),
            raw_op_p50_ms=statistics.median(raw_per_op) * 1e3,
            round_rates=[n / sum(r) for r in raw],
            host_factors=factors,
            round_ops=n,
        )
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        wrong=runner.wrong,
        problems=runner.problems,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
