"""Command-line experiment runner.

Each subcommand runs one family of checks, writes a CSV residual table
plus a JSON metadata file, and exits 0 exactly when every residual is
below its tolerance or "n/a" (nothing to test); bad input exits 2 and a
pole-guard violation 3.  Configuration is a flat KEY=VALUE text file with
command-line overrides; all runs are deterministic given the seed, and
the CSV bodies are byte-identical across repeated runs.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .numerics import check_distinct
from .theta import PoleError, ThetaContext, TruncationError, redraw


class ConfigError(Exception):
    pass


def _parse_weights(text):
    """Comma-separated sl2 highest weights, each a nonnegative integer."""
    items = str(text).split(",")
    if not all(w.strip().isdigit() for w in items):
        raise ValueError("weights must be nonnegative integers, got %r"
                         % text)
    return [int(w) for w in items]


def _parse_sites(text):
    """Comma-separated finite complex marked points, pairwise distinct;
    an empty entry is malformed."""
    sites = [complex(s.replace(" ", "")) for s in str(text).split(",")]
    if not np.all(np.isfinite(sites)):
        raise ValueError("sites must be finite, got %r" % text)
    check_distinct(sites)
    return sites


def _parse_tol(text):
    """A tolerance: a finite float >= 0 (0 marks an exact check)."""
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and >= 0, got %r" % text)
    return tol


# per-subcommand config schema: key -> (parser, default)
SCHEMAS = {
    "theta-check": {
        "q": (complex, 0.3),
        "points": (int, 100),
        "tol": (_parse_tol, 1e-10),
    },
    "rational-classical": {
        "n": (int, 2),
        "nsites": (int, 3),
        "trials": (int, 3),
        "tol": (_parse_tol, 1e-8),
        "tol_oracle": (_parse_tol, 1e-6),
        "tol_flow": (_parse_tol, 1e-8),
    },
    "rational-quantum": {
        "weights": (_parse_weights, [1, 1, 1]),
        "sites": (_parse_sites, None),
        "n": (int, 3),
        "p_max": (int, 20),
        "tol": (_parse_tol, 1e-12),
    },
    "elliptic-classical": {
        "q": (complex, 0.3),
        "n": (int, 2),
        "nsites": (int, 2),
        "points": (int, 50),
        "tol": (_parse_tol, 1e-9),
        "tol_bracket": (_parse_tol, 1e-8),
    },
    "elliptic-quantum": {
        "q": (complex, 0.3),
        "k": (int, 0),
        "weights": (_parse_weights, [1, 1]),
        "twists": (int, 10),
        "tol": (_parse_tol, 1e-8),
        "tol_symbol": (_parse_tol, 1e-9),
        "tol_invariance": (_parse_tol, 1e-10),
    },
}
# keys every subcommand takes, with their parsers and defaults
COMMON = {"seed": (int, 0), "out": (str, ".")}
# smallest accepted value of each count, below which a check tests
# nothing or cannot run (s_polynomials needs p_max >= 3)
MINIMA = {"seed": 0, "points": 1, "trials": 1, "twists": 1, "nsites": 1,
          ("rational-classical", "n"): 2, ("elliptic-classical", "n"): 1,
          ("rational-quantum", "p_max"): 3}


def load_config(path):
    """Flat KEY=VALUE file; '#' starts a comment; unknown keys are
    rejected by run()."""
    items = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected KEY=VALUE, got %r"
                              % (lineno, raw))
        key, val = line.split("=", 1)
        key = key.strip()
        if key in items:
            raise ConfigError("duplicate key %r" % key)
        items[key] = val.strip()
    return items


def resolve_config(name, raw, overrides):
    """Merge file values and CLI overrides against the subcommand
    schema; reject unknown keys.  Both are parsed here, so a bad value
    from either source is a ConfigError."""
    schema = {**SCHEMAS[name], **COMMON}
    given = dict(raw)
    given.update((k, v) for k, v in overrides.items() if v is not None)
    cfg = {}
    for key, txt in given.items():
        if key not in schema:
            raise ConfigError("unknown key %r for %s (known: %s)"
                              % (key, name, ", ".join(sorted(schema))))
        parse, _ = schema[key]
        try:
            cfg[key] = parse(txt)
        except (ValueError, TypeError) as exc:
            raise ConfigError("bad value for %r: %s" % (key, exc))
    for key, (parse, default) in schema.items():
        cfg.setdefault(key, default)
    for key, val in cfg.items():
        low = MINIMA.get((name, key), MINIMA.get(key))
        if low is not None and val < low:
            raise ConfigError("%r must be at least %d, got %d"
                              % (key, low, val))
    if "q" in cfg:
        try:
            ThetaContext(cfg["q"])
        except ValueError as exc:
            raise ConfigError("bad value for 'q': %s" % exc)
        if cfg["q"].imag == 0.0:
            cfg["q"] = cfg["q"].real
    return cfg


def _status(residual, tol):
    """"n/a" for a check that had nothing to test, else pass/FAIL.  A
    tolerance of 0 marks an exact check, which passes only at zero."""
    if residual is None:
        return "n/a"
    return "pass" if residual < tol or residual == tol == 0 else "FAIL"


def _fmt(value):
    """Format a number for CSV: integers as themselves, floats as
    shortest round-trip text, complex numbers as a "re+imj" string."""
    if isinstance(value, int):
        return str(value)
    value = complex(value)
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0.0 else "-"
    return "%r%s%rj" % (value.real, sign, abs(value.imag))


def _rng(seed, task):
    """Per-task stream derived from (seed, task index)."""
    return np.random.default_rng([seed, task])


def _unit_annulus(rng, lo=0.8, hi=1.3):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * rng.uniform(lo, hi)


# -- subcommands -------------------------------------------------------------

def run_theta_check(cfg):
    from . import theta as th
    ctx = ThetaContext(cfg["q"])
    rng = _rng(cfg["seed"], 0)
    one_arg = [
        ("functional_equation", th.functional_equation_residual),
        ("inversion", th.inversion_residual),
        ("logderiv_shift", th.shift_residual),
        ("reflection", th.reflection_residual),
        ("wp_even", th.wp_even_residual),
    ]

    def sample():
        pts = [_unit_annulus(rng) for _ in range(4)]
        res = {name: fn(ctx, pts[0]) for name, fn in one_arg}
        res["kernel_pair"] = th.wp_pair_residual(ctx, pts[0], pts[1])
        res["addition"] = th.addition_residual(ctx, *pts)
        res["mixed_derivative"] = th.mixed_derivative_residual(ctx, *pts[:3])
        res["cross_square"] = th.cross_square_residual(ctx, pts[0], pts[1])
        return res

    worst = {}
    for _ in range(cfg["points"]):
        for name, val in redraw(sample).items():
            worst[name] = max(worst.get(name, 0.0), val)
    rows = [("theta_at_one", "q=%s" % _fmt(ctx.q),
             th.theta_one_residual(ctx), cfg["tol"])]
    for name in worst:
        rows.append((name, "points=%d" % cfg["points"], worst[name],
                     cfg["tol"]))
    return rows, ctx


def run_rational_classical(cfg):
    from . import rational_classical as rc
    rng = _rng(cfg["seed"], 1)
    n, N = cfg["n"], cfg["nsites"]
    brackets = []
    oracle = []
    for _ in range(cfg["trials"]):
        pt = rc.random_nilpotent_point(n, N, rng)
        coeffs = rc.HitchinCoefficients(pt, list(range(2, n + 1)))
        obs = [rc.HitchinObservable(pt, d, a, coeffs)
               for d, a in coeffs.keys()]
        scale = max(1.0, max(abs(v) for v in coeffs.values.values()))
        brackets += [abs(rc.kk_bracket(f, g, pt)) / scale
                     for i, f in enumerate(obs) for g in obs[i + 1:]]
        if len(obs) > 1:
            # a bound method has no gradients: Cauchy rings differentiate it
            f, g = obs[0], obs[-1]
            oracle.append(abs(rc.kk_bracket(f, g, pt)
                              - rc.kk_bracket(f.value, g.value, pt)))
    pt = rc.random_nilpotent_point(2, N, rng)
    coeffs = rc.HitchinCoefficients(pt, [2])
    scale = max(1.0, max(abs(v) for v in coeffs.values.values()))
    # one site has only Casimirs among its coefficients: no flow moves
    flow_worst = 0.0 if N > 1 else None
    for d, a in coeffs.keys() if N > 1 else []:
        try:
            _, drift = rc.integrate_flow(pt, (d, a), T=1.0, dt=1e-2)
        except OverflowError:
            # the trajectory escaped: nothing was conserved
            flow_worst = math.inf
            break
        flow_worst = max(flow_worst, drift / scale)
    return [
        ("involutivity", "n=%d,N=%d" % (n, N), max(brackets, default=None),
         cfg["tol"]),
        ("gradient_fd_oracle", "n=%d,N=%d" % (n, N),
         max(oracle, default=None), cfg["tol_oracle"]),
        ("flow_conservation", "d=2,N=%d" % N, flow_worst, cfg["tol_flow"]),
    ], None


def run_rational_quantum(cfg):
    from fractions import Fraction
    from . import rational_quantum as rq
    from .lie import TensorRepSpace
    weights = cfg["weights"]
    sites = cfg["sites"]
    if sites is None:
        sites = [complex(2 * i + 1) for i in range(len(weights))]
    if len(weights) < 2 or len(sites) != len(weights):
        raise ConfigError("rational-quantum needs two or more weights and one "
                          "site per weight, got %d and %d"
                          % (len(weights), len(sites)))
    system = rq.GaudinSystem(TensorRepSpace(weights), sites)
    hams, _ = rq.gaudin_residues(system)
    scale = max(1.0, max(np.abs(h).max() for h in hams))
    comm = max(rq.commutator_norm(hams[i], hams[j]) / scale
               for i in range(len(hams)) for j in range(i + 1, len(hams)))
    total = np.abs(sum(hams)).max() / scale
    # exact rationals need real sites; a decimal site is read as the
    # decimal its shortest repr shows, not as its binary float
    exact_comm = None
    if all(s.imag == 0 for s in sites):
        exact = rq.gaudin_residues_exact(
            weights, [Fraction(repr(s.real)) for s in sites])
        # kept as a Fraction: a float could round a nonzero residue to 0
        exact_comm = Fraction(max(
            (abs(v) for i in range(len(exact))
             for j in range(i + 1, len(exact))
             for v in (exact[i] @ exact[j] - exact[j] @ exact[i]).ravel()),
            default=0))
    s = rq.s_polynomials(cfg["n"], cfg["p_max"])
    n = cfg["n"]
    s_res = Fraction(abs(s[1] - Fraction(n, 2))
                     + abs(s[2] - Fraction(-2 * n, 3))
                     + (abs(s[3] - Fraction(n * (n + 6), 8))
                        if cfg["p_max"] >= 4 else 0))
    wtxt = ",".join(str(w) for w in weights)
    return [
        ("gaudin_commutators", "weights=%s" % wtxt, comm, cfg["tol"]),
        ("gaudin_sum_rule", "weights=%s" % wtxt, total, cfg["tol"]),
        ("gaudin_commutators_exact", "weights=%s" % wtxt, exact_comm, 0),
        ("s_polynomial_values", "n=%d,p_max=%d" % (n, cfg["p_max"]),
         s_res, 0),
    ], None


def run_elliptic_classical(cfg):
    from . import elliptic_classical as ec
    ctx = ThetaContext(cfg["q"])
    rng = _rng(cfg["seed"], 2)
    n, N = cfg["n"], cfg["nsites"]

    def sample(pt):
        z = _unit_annulus(rng)
        w = _unit_annulus(rng)
        if abs(z / w - 1.0) < 0.05:
            w *= 1.2
        rmat = ec.verify_dynamical_rmatrix(pt, z, w)
        hams = ec.hamiltonians_elliptic(pt)
        return rmat, ec.trace_expansion(pt, z, hams) / max(abs(hams.h0), 1.0)

    rmat_worst = trace_worst = 0.0
    for done in range(cfg["points"]):
        # the point keeps its own draws; a rejection redraws z and w only
        pt = ec.random_elliptic_point(n, N, cfg["q"], rng,
                                      moment=(done % 2 == 1))
        rmat, trace = redraw(lambda: sample(pt))
        rmat_worst = max(rmat_worst, rmat)
        trace_worst = max(trace_worst, trace)
    bracket_worst = 0.0
    pairs = np.triu_indices(N + 1, 1)
    for trial in range(3):
        pt = ec.random_elliptic_point(n, N, cfg["q"], rng, moment=True)
        hams = ec.hamiltonians_elliptic(pt)
        hscale = max(abs(hams.h0), max(abs(h) for h in hams.h), 1.0)
        fam = ec.hamiltonian_family
        brackets = ec.poisson_bracket(fam, fam, pt)
        bracket_worst = max(bracket_worst,
                            np.abs(brackets[pairs]).max() / hscale)
    label = "n=%d,N=%d" % (n, N)
    return [
        ("dynamical_rmatrix", label, rmat_worst, cfg["tol"]),
        ("trace_expansion", label, trace_worst, cfg["tol"]),
        ("hamiltonian_brackets", label, bracket_worst, cfg["tol_bracket"]),
    ], ctx


def run_elliptic_quantum(cfg):
    from . import elliptic_quantum as eq
    ctx = ThetaContext(cfg["q"])
    rng = _rng(cfg["seed"], 3)
    weights = cfg["weights"]
    N = len(weights)
    sites = np.array([np.exp(2j * np.pi * (i + 0.17) / max(N, 1))
                      * (1.0 + 0.25 * i) for i in range(N)])
    params = eq.QuantumEllipticParams(ctx, cfg["k"], weights, sites)
    ts = [_unit_annulus(rng, 0.85, 1.2) for _ in range(cfg["twists"])]
    comm = eq.check_reduced_commutativity(params, ts, [-2, -1, 0, 1, 2])
    sym = eq.symbol_residual(params, rng, samples=20)
    z = _unit_annulus(rng)
    t = _unit_annulus(rng, 0.85, 1.2)
    s2 = eq.check_s2_invariance(params, z, t)
    lat = eq.check_lattice_invariance(params, z, t)
    label = "weights=%s,k=%d" % (",".join(str(w) for w in weights), cfg["k"])
    return [
        ("reduced_commutativity", label, comm, cfg["tol"]),
        ("symbol_consistency", label, sym, cfg["tol_symbol"]),
        ("twist_swap_invariance", label, s2, cfg["tol_invariance"]),
        ("lattice_invariance", label, lat, cfg["tol_invariance"]),
    ], ctx


RUNNERS = {
    "theta-check": run_theta_check,
    "rational-classical": run_rational_classical,
    "rational-quantum": run_rational_quantum,
    "elliptic-classical": run_elliptic_classical,
    "elliptic-quantum": run_elliptic_quantum,
}


# -- reporting ---------------------------------------------------------------

def write_report(name, cfg, rows, ctx, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / ("%s.csv" % name)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "params", "residual", "tolerance",
                         "status"])
        for check, label, residual, tol in rows:
            writer.writerow([check, label,
                             "n/a" if residual is None else _fmt(residual),
                             _fmt(tol), _status(residual, tol)])
    meta = {
        "experiment": name,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "seed": cfg["seed"],
        "tolerances": {k: v for k, v in cfg.items()
                       if k.startswith("tol")},
        "config": {k: (_fmt(v) if isinstance(v, complex) else v)
                   for k, v in cfg.items()
                   if k not in ("out", "sites") or v is None},
    }
    if ctx is not None:
        meta["q"] = _fmt(ctx.q)
        meta["wp_const"] = _fmt(ctx.wp_const())
    with open(outdir / ("%s.json" % name), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hitchin",
        description="Residual checks for rational and elliptic "
                    "Gaudin/Hitchin integrable systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="KEY=VALUE file")
        for key in list(COMMON) + list(schema):
            p.add_argument("--%s" % key.replace("_", "-"), dest=key,
                           default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    name = args.command
    try:
        raw = load_config(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        cfg = resolve_config(name, raw, overrides)
        rows, ctx = RUNNERS[name](cfg)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except TruncationError as exc:
        print("q-series truncation during %s: %s" % (name, exc),
              file=sys.stderr)
        return 2
    except PoleError as exc:
        print("pole guard violation during %s: %s" % (name, exc),
              file=sys.stderr)
        return 3
    csv_path = write_report(name, cfg, rows, ctx, cfg["out"])
    failures = [r for r in rows if _status(r[2], r[3]) == "FAIL"]
    for check, label, residual, tol in rows:
        shown = "n/a" if residual is None else "%.3e" % residual
        print("%-28s %-24s %12s  (tol %.1e)  %s"
              % (check, label, shown, tol, _status(residual, tol)))
    print("report: %s" % csv_path)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
