"""Benchmark of the hitchin package: one command, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Runs whole rounds of the workload's fixed operation list until S seconds
of rounds have passed, checks every result after the timed region, and
prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median of fresh
  interpreter set-ups: imports plus input generation), ``run_s`` (median
  round wall time) and ``peak_rss_mb``;
* ``--trace 1``: the same untraced rounds, then one round with every layer
  wrapped, and the per-layer metrics of that round plus the tracing
  overhead (traced round minus the median untraced one).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9

NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, NPROC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock and exit")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def import_program():
    """Import hitchin from this checkout's src/, never from elsewhere."""
    if not (SRC / "hitchin" / "__init__.py").is_file():
        raise SystemExit("bench: no program source at %s" % (SRC / "hitchin"))
    sys.path.insert(0, str(SRC))
    import hitchin
    if SRC.resolve() not in Path(hitchin.__file__).resolve().parents:
        raise SystemExit("bench: hitchin imported from %s, not %s" % (hitchin.__file__, SRC))


def measure_setup(args):
    """Median time from starting a fresh interpreter until the workload's
    inputs are built, over SETUP_SAMPLES processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run_round(ops, tracer=None):
    """Run every operation once; returns (wall seconds, results)."""
    results = []
    gc.collect()
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_operation()
            span = tracer.open("op." + op.name)
        try:
            results.append(op.run())
        except Exception as exc:  # an operation that dies is a failed operation
            results.append(exc)
        finally:
            if tracer is not None:
                tracer.close(span)
    return time.perf_counter() - t0, results


def check_round(ops, results, tally):
    for op, res in zip(ops, results):
        tally["attempted"] += 1
        if isinstance(res, Exception):
            failed, problems = True, ["%s raised %s: %s" % (op.name, type(res).__name__, res)]
        else:
            failed, problems = op.check(res)
        if op.name in tally["probe_problems"]:
            failed = True
            problems = problems + tally["probe_problems"][op.name]
        tally["failed"] += failed
        tally["problems"].extend(problems)


def layer_metrics(tracer, traced_s, untraced_s):
    """Per-layer metrics of the traced round; times are self times."""
    from tracer import SELF_TIME_METRICS
    self_s = tracer.self_times()
    c = tracer.counts
    out = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = (self_s.get(span, 0.0), "s")
    for metric in ("theta.theta_calls", "theta.logderiv_calls", "theta.kernel_calls",
                   "theta.pole_retries", "theta_expr.evals",
                   "elliptic_quantum.compose_calls", "elliptic_quantum.terms_evaluated",
                   "elliptic_classical.rmatrix_calls", "elliptic_classical.bracket_calls",
                   "elliptic_classical.hamiltonian_calls", "rational_classical.lax_calls",
                   "rational_classical.flow_field_calls", "rational_quantum.haar_samples",
                   "rational_quantum.current_calls", "lie.site_operator_calls"):
        out[metric] = (c[metric], "count")
    out["theta_expr.nodes"] = (c["theta_expr.eval.nodes"], "count")
    out["theta.repeat_share"] = (c["theta.leaf_repeats"] / max(c["theta.leaf_calls"], 1),
                                 "ratio")
    haar_s = tracer.inclusive_time("rational_quantum.haar")
    out["rational_quantum.samples_per_s"] = (
        c["rational_quantum.haar_samples"] / haar_s if haar_s > 0 else 0.0, "1/s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def run(args):
    import numpy as np
    import workloads

    setup_s = measure_setup(args)
    OUT.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUT / "reports", small=args.small)
    tally = {"attempted": 0, "failed": 0, "problems": [], "probe_problems": {}}

    # each operation's theta leaf against the oracle, once, before any
    # round is checked; outside every timed region
    rng = np.random.default_rng([args.seed, 11])
    for op in ops:
        if op.probe:
            problems, worst = workloads.probe_theta(op, rng)
            print("oracle: %s, largest relative error %.2e" % (op.name, worst))
            if problems:
                tally["probe_problems"][op.name] = problems

    rounds = []
    while True:
        wall, results = run_round(ops)
        rounds.append(wall)
        check_round(ops, results, tally)
        if sum(rounds) >= args.seconds:
            break
    run_s = statistics.median(rounds)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, results = run_round(ops, tracer)
        finally:
            tracer.uninstall()
        check_round(ops, results, tally)
        tracer.save(OUT / ("trace-%s.npz" % args.workload))
        metrics = layer_metrics(tracer, traced_s, run_s)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}

    for problem in tally["problems"]:
        print("problem: %s" % problem)
    result = {
        "correct": not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    text = json.dumps(result)
    (OUT / ("result-%s-trace%d.json" % (args.workload, args.trace))).write_text(text + "\n")
    print("rounds: %d, round seconds: %s" % (len(rounds), ", ".join("%.3f" % r for r in rounds)))
    print(text)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main(BENCH, ROOT)
    import_program()
    if args.setup_only:
        import workloads
        workloads.build(args.workload, args.seed, OUT / "reports", small=args.small)
        print(repr(time.monotonic()))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
