"""Run one benchmark workload of mubar and print its metrics as JSON.

    python3 bench/run.py --workload family_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
src/ of that checkout.  Set-up (import, inputs, one warm-up round) is
timed from the start of this script.  Then whole rounds of the same
operations run, one after another in this one process, until their
total time reaches --seconds.  Every output, warm-up included, is
checked against the reference computations.  With --trace 1 the
per-layer spans of tracing.py are installed for the timed rounds and
the per-layer metrics, per round, replace the end-to-end ones; the
end-to-end figures of that traced run go to stderr.  The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("family_sweep", "brieskorn_census", "kirby_replay")


def tail_index(per_round):
    """Index, in one sorted round, of the sample op_tail_ms reads.

    That is the highest percentile with at least ten samples beyond it,
    100 * (per_round - 10) / per_round.
    """
    if per_round < 40:
        raise ValueError("a round needs at least 40 operations, has %d" % per_round)
    return per_round - 11


def tail_percentile(per_round):
    return 100.0 * (per_round - 10) / per_round


def lower_quartile(samples):
    """The sample a quarter of the way up, counting from the fastest."""
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 4]


def end_to_end(setup_s, rounds):
    """The end-to-end metrics from the set-up time and per-round latencies.

    Timings are read off a typical round, in which every operation takes
    the lower quartile of its latencies over the run's rounds.  Other
    tenants of the host slow it down by a quarter to a half for
    stretches of 5 to 20 seconds, at times for most of a run; the lower
    quartile per operation keeps those stretches out of the figures,
    where totals or medians over the run carry them in.
    """
    typical = sorted(lower_quartile(slot) for slot in zip(*rounds))
    per_round = len(typical)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": per_round / sum(typical), "unit": "ops/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * typical[tail_index(per_round)], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def run_round(ops):
    """Run every operation once; returns outputs, latencies, failures, wall time."""
    clock = time.perf_counter
    outputs, latencies, failed = [], [], 0
    start = clock()
    for key, thunk in ops:
        t0 = clock()
        try:
            out = thunk()
        except Exception:
            failed += 1
            out = None
            print("operation %r failed:" % (key,), file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        latencies.append(clock() - t0)
        outputs.append((key, out))
    return outputs, latencies, failed, clock() - start


def check_round(workload, outputs):
    problems = []
    for key, out in outputs:
        if out is not None:
            problems += ["%r: %s" % (key, p) for p in workload.check(key, out)]
    return problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import mubar from src/ of this checkout, and nothing else."""
    src = ROOT / "src"
    if not (src / "mubar" / "__init__.py").is_file():
        raise SystemExit("error: %s holds no mubar sources" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import mubar

    if Path(mubar.__file__).resolve().parent != (src / "mubar").resolve():
        raise SystemExit("error: imported mubar from %s, not %s" % (mubar.__file__, src))


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import tracing
    import workloads

    workdir = HERE / "_work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops()
        warm, _, warm_failed, _ = run_round(ops)
        setup_s = time.perf_counter() - T0
        problems = check_round(workload, warm)

        tracer = tracing.Tracer().install() if args.trace else None
        failed = 0
        rounds, busy_s = [], 0.0
        try:
            while not rounds or busy_s < args.seconds:
                outputs, lat, n_failed, wall = run_round(ops)
                failed += n_failed
                rounds.append(lat)
                busy_s += wall
                problems += check_round(workload, outputs)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its inputs there
            pass

    e2e = end_to_end(setup_s, rounds)
    metrics = e2e
    if tracer:
        metrics = tracer.per_round(len(rounds))
        if not failed:
            for name, want in workload.expected_trace(outputs).items():
                got = metrics[name]["value"]
                if got != want:
                    problems.append("traced %s is %r per round, expected %r" % (name, got, want))
        print("traced end-to-end: %s" % json.dumps(e2e), file=sys.stderr)
    for p in problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)
    print(
        "%s seed=%d: %d rounds of %d ops, %.2f s busy, op_tail_ms at p%.2f, "
        "warm-up failures %d, %d problems"
        % (args.workload, args.seed, len(rounds), workload.per_round, busy_s,
           tail_percentile(workload.per_round), warm_failed, len(problems)),
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
