"""The benchmark's three workloads: inputs, operations and their checks.

Each workload is a fixed list of operations (one round).  ``build`` makes
the inputs from the workload seed; the operations call only the program's
public functions, and every check runs after the timed region.

An operation *fails* when the program reports failure (a CLI residual over
its gate, a non-zero exit) or when an independent check disagrees with it.
A check *problem* makes the run incorrect: any failure other than the two
known ones, which fail only at their named CLI gates (``EC_KEPT``,
``RC_KEPT``).
"""

import csv
import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import hitchin.cli as cli

# elliptic-classical runs these CLI seeds, consecutive from 0.  Seed 2
# fails hamiltonian_brackets: elliptic_classical._gradients differentiates
# on a fixed 8-node Cauchy ring, too coarse for that point.
EC_SEEDS = (0, 1, 2)
EC_KEPT = {2: {"hamiltonian_brackets"}}
# rational-classical at its default seed 0 fails flow_conservation: RK4 at
# dt = 1e-2 cannot meet the 1e-8 drift gate.
RC_KEPT = {"flow_conservation"}

THETA_RTOL = 1e-10     # ThetaContext against the 30-digit oracle
PROBE_WINDOW = 2000    # theta-leaf calls at the start of an operation ...
PROBE_SAMPLES = 24     # ... of which this many are compared with the oracle
SMALL_PROBE_WINDOW = 200
SE_FACTOR = 4.0        # Monte Carlo checks: allowed deviation in standard errors
REPLICATES = 4         # independent Haar streams behind each standard error


class Op:
    """One operation: ``run`` is timed, ``check(result)`` is not.

    check returns (failed, problems): whether the operation failed, and
    what it got wrong beyond a known failure.  ``probe`` > 0 compares the
    theta leaf with the oracle on a sample of that many first calls.
    """

    def __init__(self, name, run, check, probe=0):
        self.name = name
        self.run = run
        self.check = check
        self.probe = probe


# -- CLI operations ---------------------------------------------------------

def _parse_number(text):
    return complex(text).real if "j" in text else float(text)


def cli_op(opname, argv, outdir, kept_rows=frozenset(), probe=0):
    """In-process ``hitchin`` run; its residual gates are the check."""
    outdir = Path(outdir)
    command = argv[0]
    full = list(argv) + ["--out", str(outdir)]

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(full)
        return code

    def check(code):
        problems = []
        path = outdir / ("%s.csv" % command)
        if code not in (0, 1) or not path.is_file():
            return True, ["%s: exit code %r without a report" % (opname, code)]
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return True, ["%s: empty report" % opname]
        over = set()
        for row in rows:
            residual = _parse_number(row["residual"])
            tol = _parse_number(row["tolerance"])
            status = "pass" if residual < tol else "FAIL"
            if row["status"] != status:
                problems.append("%s: %s status %s for residual %r tol %r"
                                % (opname, row["check"], row["status"], residual, tol))
            if status == "FAIL":
                over.add(row["check"])
        if code != (1 if over else 0):
            problems.append("%s: exit code %d with failing rows %s"
                            % (opname, code, sorted(over)))
        if over and over != set(kept_rows):
            problems.append("%s: failing rows %s, expected %s"
                            % (opname, sorted(over), sorted(kept_rows)))
        return bool(over) or code != 0, problems

    return Op(opname, run, check, probe=probe)


# -- theta oracle probe -----------------------------------------------------

class _ProbeDone(Exception):
    pass


def probe_theta(op, rng):
    """Rerun ``op`` outside the timed region, record the values ThetaContext
    returns at a seeded sample of its first ``op.probe`` theta-leaf calls,
    stop it, and compare those values with the mpmath oracle.  Returns
    (problems, largest relative error)."""
    import oracle
    from hitchin.theta import ThetaContext

    picks = set(rng.choice(op.probe, PROBE_SAMPLES, replace=False).tolist())
    last = max(picks)
    records = []
    seen = [0]
    orig_theta = ThetaContext.__dict__["theta"]
    orig_logd = ThetaContext.__dict__["_logderiv_terms"]

    def note(kind, ctx, z, k, value):
        if seen[0] in picks:
            records.append((kind, ctx, complex(z), k, value))
        seen[0] += 1
        if seen[0] > last:
            raise _ProbeDone

    def theta(ctx, z):
        value = orig_theta(ctx, z)
        note("theta", ctx, z, 0, value)
        return value

    def logderiv(ctx, z, k):
        value = orig_logd(ctx, z, k)
        note("logderiv", ctx, z, k, value)
        return value

    ThetaContext.theta = theta
    ThetaContext._logderiv_terms = logderiv
    try:
        op.run()
    except _ProbeDone:
        pass
    finally:
        ThetaContext.theta = orig_theta
        ThetaContext._logderiv_terms = orig_logd

    problems = []
    worst = 0.0
    if len(records) < PROBE_SAMPLES:
        problems.append("%s: only %d theta-leaf calls sampled" % (op.name, len(records)))
    for kind, ctx, z, k, value in records:
        q = ctx.q
        if kind == "theta":
            pairs = [("theta", value, oracle.theta(q, z))]
        else:
            pairs = [("D^%d u" % k, value, oracle.logderiv(q, z, k))]
            if k == 0:
                pairs.append(("wp", ctx.wp(z), oracle.wp(q, z)))
        for label, got, ref in pairs:
            err = oracle.relative_error(got, ref)
            worst = max(worst, err)
            if not err <= THETA_RTOL:
                problems.append("%s: %s(%r) = %r, oracle %r (rel. error %.2e)"
                                % (op.name, label, z, got, ref, err))
    return problems, worst


# -- rational operations ----------------------------------------------------

def _flip(n, nsites, i, j):
    """Operator swapping tensor factors i and j (0-based) of (C^n)^(x)N."""
    dim = n ** nsites
    idx = np.arange(dim).reshape((n,) * nsites)
    perm = np.swapaxes(idx, i, j).ravel()
    return np.eye(dim)[perm]


def _split_casimirs(n, nsites):
    """Omega_ij = sum_a e_a^(i) e_a^(j) over an orthonormal basis of sl_n,
    from the flip: P_ij - 1/n for i != j and (n - 1/n) for i == j."""
    ident = np.eye(n ** nsites)
    return {(i, j): (_flip(n, nsites, i, j) - ident / n) if i != j
            else (n - 1.0 / n) * ident
            for i in range(nsites) for j in range(nsites)}


def _standard_error(replicates):
    """Frobenius standard error of the mean of independent replicates."""
    mean = sum(replicates) / len(replicates)
    dev = sum(np.linalg.norm(r - mean) ** 2 for r in replicates)
    return mean, float(np.sqrt(dev / (len(replicates) * (len(replicates) - 1))))


def _random_sites(rng, count, radius=1.5, gap=0.6):
    sites = []
    while len(sites) < count:
        z = complex(*rng.uniform(-radius, radius, 2))
        if all(abs(z - s) > gap for s in sites):
            sites.append(z)
    return sites


def rational_ops(seed, outdir, small):
    from hitchin import rational_quantum as rq
    from hitchin.lie import TensorRepSpace

    rng = np.random.default_rng([seed, 7])
    n, nsites = 3, 3
    system = rq.GaudinSystem(TensorRepSpace.defining(n, nsites), _random_sites(rng, nsites))
    H = rq.eigen_h(n)
    zeta = complex(*rng.uniform(2.5, 3.5, 2))
    m3 = 50 if small else 250
    m2 = 100 if small else 500
    omegas = _split_casimirs(n, nsites)
    zs = system.sites

    def run_l3():
        return [rq.higher_gaudin(system, H, 3, rq.HaarSampler(n, seed=[seed, 3, b]),
                                 nsamples=m3)
                for b in range(REPLICATES)]

    def check_l3(pencils):
        problems = []
        hams, _ = rq.gaudin_residues(system)
        for i, h in enumerate(hams):
            ref = sum(2.0 * omegas[i, j] / (zs[i] - zs[j])
                      for j in range(nsites) if j != i)
            if not np.allclose(h, ref, rtol=1e-12, atol=1e-12):
                problems.append("gaudin_residues H_%d differs from 2 sum Omega_ij/(z_i-z_j)"
                                % i)
        norm2 = se2 = 0.0
        for a in pencils[0].coeffs:
            mean, se = _standard_error([p.coeffs[a] for p in pencils])
            norm2 += np.linalg.norm(mean) ** 2
            se2 += se ** 2
            comms = [np.concatenate([c @ h - h @ c for h in hams])
                     for c in (p.coeffs[a] for p in pencils)]
            cmean, cse = _standard_error(comms)
            if not np.linalg.norm(cmean) <= SE_FACTOR * cse:
                problems.append("l=3 coefficient %s: |[P, H_2]| = %.3g > %g x SE %.3g"
                                % (a, np.linalg.norm(cmean), SE_FACTOR, cse))
        if not np.sqrt(norm2) >= 5.0 * np.sqrt(se2):
            problems.append("l=3 pencil norm %.3g is within 5 SE (%.3g) of zero"
                            % (np.sqrt(norm2), np.sqrt(se2)))
        return bool(problems), problems

    def run_l2():
        return [rq.haar_average_power(system, H, 2, [zeta],
                                      rq.HaarSampler(n, seed=[seed, 2, b]), m2)[0][0]
                for b in range(REPLICATES)]

    def check_l2(averages):
        import oracle
        casimir = sum(omegas[i, j] / ((zeta - zs[i]) * (zeta - zs[j]))
                      for i in range(nsites) for j in range(nsites))
        closed = oracle.second_moment_factor(H) * casimir
        mean, se = _standard_error(averages)
        dev = np.linalg.norm(mean - closed)
        problems = []
        if not dev <= SE_FACTOR * se:
            problems.append("l=2 average deviates from the second moment by %.3g > %g x SE %.3g"
                            % (dev, SE_FACTOR, se))
        if not se <= 0.25 * np.linalg.norm(closed):
            problems.append("l=2 standard error %.3g too large to test the second moment" % se)
        return bool(problems), problems

    weights = [1, 1, 1] if small else [1, 1, 2, 1]
    fsites = []
    while len(fsites) < len(weights):
        f = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 10)))
        if f not in fsites:
            fsites.append(f)

    def run_exact():
        return rq.gaudin_residues_exact(weights, fsites)

    def check_exact(hams):
        problems = []
        zero = Fraction(0)
        if all(v == zero for h in hams for v in h.ravel()):
            problems.append("exact residues are all zero")
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                c = hams[i] @ hams[j] - hams[j] @ hams[i]
                if any(v != zero for v in c.ravel()):
                    problems.append("exact [H_%d, H_%d] != 0" % (i, j))
        total = sum(hams[1:], hams[0])
        if any(v != zero for v in total.ravel()):
            problems.append("exact sum rule sum_i H_i != 0")
        return bool(problems), problems

    rc_args = ["rational-classical", "--seed", "0"]
    if small:
        rc_args += ["--trials", "1", "--nsites", "2"]
    return [
        Op("higher_gaudin_l3", run_l3, check_l3),
        Op("haar_l2_second_moment", run_l2, check_l2),
        Op("gaudin_residues_exact", run_exact, check_exact),
        cli_op("rational_classical_seed0", rc_args, Path(outdir) / "rational-classical",
               kept_rows=frozenset() if small else RC_KEPT),
    ]


# -- workloads ---------------------------------------------------------------

def elliptic_classical_ops(seed, outdir, small):
    if small:
        return [cli_op("ec_small", ["elliptic-classical", "--seed", "0", "--nsites", "1",
                                    "--points", "4"], Path(outdir) / "small",
                       probe=SMALL_PROBE_WINDOW)]
    return [cli_op("ec_seed%d" % s, ["elliptic-classical", "--seed", str(s)],
                   Path(outdir) / ("seed%d" % s),
                   kept_rows=frozenset(EC_KEPT.get(s, ())), probe=PROBE_WINDOW)
            for s in EC_SEEDS]


def elliptic_quantum_ops(seed, outdir, small):
    from hitchin.lie import TensorRepSpace

    weights = [1, 1]
    args = ["elliptic-quantum", "--weights", "1,1", "--k", "2", "--seed", str(seed)]
    if small:
        args += ["--twists", "1"]
    op = cli_op("eq_seed%d" % seed, args, Path(outdir) / "eq",
                probe=SMALL_PROBE_WINDOW if small else PROBE_WINDOW)
    cli_check = op.check

    # weight-zero states: basis vectors of the tensor product whose h
    # weights sum to zero; the commutativity gate is vacuous without them
    weight_sum = np.zeros(1, dtype=int)
    for w in weights:
        weight_sum = np.add.outer(weight_sum, w - 2 * np.arange(w + 1)).ravel()
    expected = int(np.sum(weight_sum == 0))

    def check(code):
        failed, problems = cli_check(code)
        dim = int(round(np.trace(TensorRepSpace(weights).weight_zero_projector())))
        if expected == 0 or dim != expected:
            problems.append("weight-zero subspace has dimension %d, expected %d > 0"
                            % (dim, expected))
        return failed or bool(problems), problems

    op.check = check
    return [op]


BUILDERS = {
    "elliptic-classical": elliptic_classical_ops,
    "elliptic-quantum": elliptic_quantum_ops,
    "rational": rational_ops,
}


def build(name, seed, outdir, small=False):
    """The workload's operations, with all inputs made from ``seed``."""
    return BUILDERS[name](seed, Path(outdir) / name, small)
