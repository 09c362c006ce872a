"""Fast self-test of the benchmark itself (``run.py --selftest``).

Runs every workload on reduced inputs, untraced and traced, and asserts:

* each run is correct and prints every metric of BENCHMARK.json with its
  unit, end-to-end metrics under --trace 0 and per-layer ones under
  --trace 1, and every end-to-end metric is > 0;
* each layer wrapper is hit on the workload meant to exercise it;
* the bypass predictions hold: no theta.* calls on ``rational``, no
  theta_expr.* calls outside ``elliptic-quantum``, and no
  rational_quantum.* calls on the elliptic workloads;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys

# per workload: per-layer metrics that must be > 0 and ones that must be 0
HIT = {
    "elliptic-classical": [
        "theta.theta_calls", "theta.logderiv_calls", "theta.kernel_calls",
        "elliptic_classical.rmatrix_calls", "elliptic_classical.bracket_calls",
        "elliptic_classical.hamiltonian_calls", "elliptic_classical.trace_s",
        "cli.runner_s", "cli.report_s"],
    "elliptic-quantum": [
        "theta.theta_calls", "theta.logderiv_calls", "theta.kernel_calls",
        "theta.repeat_share", "theta_expr.evals", "theta_expr.nodes", "theta_expr.eval_s",
        "theta_expr.euler_s", "elliptic_quantum.build_s", "elliptic_quantum.compose_calls",
        "elliptic_quantum.terms_evaluated", "elliptic_quantum.evaluate_s",
        "elliptic_quantum.commutativity_s", "elliptic_quantum.symbol_s",
        "elliptic_quantum.invariance_s", "lie.site_operator_calls",
        "cli.runner_s", "cli.report_s"],
    "rational": [
        "rational_classical.lax_calls", "rational_classical.coeffs_s",
        "rational_classical.kk_bracket_s", "rational_classical.flow_s",
        "rational_classical.flow_field_calls", "rational_quantum.haar_samples",
        "rational_quantum.haar_s", "rational_quantum.samples_per_s",
        "rational_quantum.current_calls", "rational_quantum.exact_s",
        "lie.site_operator_calls", "lie.site_operator_s", "cli.runner_s", "cli.report_s"],
}
BYPASSED = {
    "elliptic-classical": ["theta_expr.", "rational_quantum.", "elliptic_quantum."],
    "elliptic-quantum": ["rational_quantum.", "rational_classical."],
    "rational": ["theta.", "theta_expr.", "elliptic_classical.", "elliptic_quantum."],
}


def _result(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError("%s exited %d\n%s" % (" ".join(cmd), done.returncode,
                                                   done.stderr[-2000:]))
    return json.loads(lines[-1])


def main(bench, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, message):
        if not cond:
            failures.append(message)

    for workload in HIT:
        for trace in (0, 1):
            cmd = [sys.executable, str(bench / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"]
            res = _result(cmd, root)
            where = "%s --trace %d" % (workload, trace)
            expect(res["correct"] is True, "%s: not correct" % where)
            expect(isinstance(res["attempted"], int) and res["attempted"] >= 1,
                   "%s: attempted %r" % (where, res["attempted"]))
            metrics = res["metrics"]
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            expect(set(metrics) == {m["name"] for m in listed},
                   "%s: metric names differ from BENCHMARK.json: %s" % (
                       where, sorted(set(metrics) ^ {m["name"] for m in listed})))
            for m in listed:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"],
                       "%s: %s unit %r" % (where, m["name"], got.get("unit")))
                if not trace:
                    expect(got.get("value", 0) > 0, "%s: %s not > 0" % (where, m["name"]))
            if trace:
                for name in HIT[workload]:
                    expect(metrics[name]["value"] > 0, "%s: %s not hit" % (where, name))
                for prefix in BYPASSED[workload]:
                    for name, got in metrics.items():
                        if name.startswith(prefix):
                            expect(got["value"] == 0,
                                   "%s: %s = %r, predicted 0" % (where, name, got["value"]))
            print("ok: %s" % where, flush=True)

    # without the program's source the benchmark must refuse to run
    bare = bench / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("out"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = list(spec["command"]) + ["--workload", "rational", "--seed", "0",
                                   "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "bare directory: exit %d, stdout %r" % (done.returncode, done.stdout[-200:]))
    shutil.rmtree(bare)

    for message in failures:
        print("FAIL: %s" % message)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0
