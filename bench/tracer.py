"""Layer spans and counters recorded from outside the program.

The tracer wraps public functions of the ``hitchin`` modules by replacing
the module or class attribute with a timing wrapper, so nothing under
``src/`` knows it is being measured.  Spans are kept in memory as flat
arrays (name, start, end, parent) and written out once, when the run
ends.  A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""

import time
from array import array
from collections import Counter

import numpy as np

# (layer module, owner path, attribute, span name or None, counter or None,
#  outermost-only).  A span name opens a span per call; a counter counts
# calls.  Outermost-only wrappers open a span only when no call of the
# same function is already on the stack (recursive tree walks).
WRAPS = [
    ("theta", "ThetaContext", "theta", "theta.theta", "theta.theta_calls", False),
    ("theta", "ThetaContext", "_logderiv_terms", "theta.logderiv",
     "theta.logderiv_calls", False),
    ("theta", "ThetaContext", "kernel", "theta.kernel", "theta.kernel_calls", False),
    ("theta_expr", "ThetaExpr", "__call__", "theta_expr.eval", "theta_expr.evals", True),
    ("theta_expr", "ThetaExpr", "euler", "theta_expr.euler", None, True),
    ("elliptic_quantum", "", "quantum_hamiltonians", "elliptic_quantum.build", None, False),
    ("elliptic_quantum", "", "ordering_counterterm", "elliptic_quantum.build", None, False),
    ("elliptic_quantum", "", "lax_quantum", "elliptic_quantum.build", None, False),
    ("elliptic_quantum", "EulerDiffOp", "__matmul__", "elliptic_quantum.compose",
     "elliptic_quantum.compose_calls", False),
    ("elliptic_quantum", "CoeffSum", "evaluate", "elliptic_quantum.evaluate", None, False),
    ("elliptic_quantum", "", "check_reduced_commutativity",
     "elliptic_quantum.commutativity", None, False),
    ("elliptic_quantum", "", "symbol_residual", "elliptic_quantum.symbol", None, False),
    ("elliptic_quantum", "", "check_s2_invariance", "elliptic_quantum.invariance",
     None, False),
    ("elliptic_quantum", "", "check_lattice_invariance",
     "elliptic_quantum.invariance", None, False),
    ("elliptic_classical", "", "verify_dynamical_rmatrix", "elliptic_classical.rmatrix",
     "elliptic_classical.rmatrix_calls", False),
    ("elliptic_classical", "", "poisson_bracket", "elliptic_classical.bracket",
     "elliptic_classical.bracket_calls", False),
    ("elliptic_classical", "", "hamiltonians_elliptic", "elliptic_classical.hamiltonian",
     "elliptic_classical.hamiltonian_calls", False),
    ("elliptic_classical", "", "trace_expansion", "elliptic_classical.trace", None, False),
    ("rational_classical", "", "lax_rational", None, "rational_classical.lax_calls", False),
    ("rational_classical", "HitchinCoefficients", "__init__", "rational_classical.coeffs",
     None, False),
    ("rational_classical", "", "kk_bracket", "rational_classical.kk_bracket", None, False),
    ("rational_classical", "", "integrate_flow", "rational_classical.flow", None, False),
    ("rational_classical", "", "flow_field", None, "rational_classical.flow_field_calls",
     False),
    ("rational_quantum", "HaarSampler", "sample", None, "rational_quantum.haar_samples",
     False),
    ("rational_quantum", "", "haar_average_power", "rational_quantum.haar", None, False),
    ("rational_quantum", "GaudinSystem", "current", None, "rational_quantum.current_calls",
     False),
    ("rational_quantum", "", "gaudin_residues_exact", "rational_quantum.exact", None, False),
    ("lie", "TensorRepSpace", "site_operator", "lie.site_operator",
     "lie.site_operator_calls", False),
    ("cli", "", "write_report", "cli.report", None, False),
]

# span name -> per-layer metric reporting its self time
SELF_TIME_METRICS = {
    "theta.theta": "theta.theta_s",
    "theta.logderiv": "theta.logderiv_s",
    "theta.kernel": "theta.kernel_s",
    "theta_expr.eval": "theta_expr.eval_s",
    "theta_expr.euler": "theta_expr.euler_s",
    "elliptic_quantum.build": "elliptic_quantum.build_s",
    "elliptic_quantum.compose": "elliptic_quantum.compose_s",
    "elliptic_quantum.evaluate": "elliptic_quantum.evaluate_s",
    "elliptic_quantum.commutativity": "elliptic_quantum.commutativity_s",
    "elliptic_quantum.symbol": "elliptic_quantum.symbol_s",
    "elliptic_quantum.invariance": "elliptic_quantum.invariance_s",
    "elliptic_classical.rmatrix": "elliptic_classical.rmatrix_s",
    "elliptic_classical.bracket": "elliptic_classical.bracket_s",
    "elliptic_classical.hamiltonian": "elliptic_classical.hamiltonian_s",
    "elliptic_classical.trace": "elliptic_classical.trace_s",
    "rational_classical.coeffs": "rational_classical.coeffs_s",
    "rational_classical.kk_bracket": "rational_classical.kk_bracket_s",
    "rational_classical.flow": "rational_classical.flow_s",
    "rational_quantum.haar": "rational_quantum.haar_s",
    "rational_quantum.exact": "rational_quantum.exact_s",
    "lie.site_operator": "lie.site_operator_s",
    "cli.runner": "cli.runner_s",
    "cli.report": "cli.report_s",
}


class Tracer:
    """In-memory span recorder with call counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self._seen = set()
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_operation(self):
        """Repeats of theta-leaf calls are counted within one operation."""
        self._seen.clear()

    def leaf_call(self, fname, q, z, k=0):
        """Count a theta-leaf call and whether it repeats an earlier one."""
        key = (fname, k, complex(z), q)
        self.counts["theta.leaf_calls"] += 1
        if key in self._seen:
            self.counts["theta.leaf_repeats"] += 1
        else:
            self._seen.add(key)

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every function in WRAPS plus the CLI runners and the pole
        guard.  ``uninstall`` restores the originals."""
        import hitchin.cli as cli
        from hitchin import elliptic_quantum, theta as theta_mod
        from importlib import import_module

        for module, owner_name, attr, span, counter, outer in WRAPS:
            mod = import_module("hitchin." + module)
            owner = getattr(mod, owner_name) if owner_name else mod
            self._patch(owner, attr, self._wrapper(owner.__dict__[attr], span,
                                                   counter, outer))
        runners = dict(cli.RUNNERS)
        self._patched.append((cli.RUNNERS, None, runners))
        for name, fn in runners.items():
            cli.RUNNERS[name] = self._wrapper(fn, "cli.runner", None, False)
        self._install_theta_counters(theta_mod)
        self._install_term_counter(elliptic_quantum.CoeffSum)

    def _install_theta_counters(self, theta_mod):
        ctx_cls = theta_mod.ThetaContext
        pole_error = theta_mod.PoleError
        tracer = self
        theta_w = ctx_cls.__dict__["theta"]
        logd_w = ctx_cls.__dict__["_logderiv_terms"]
        check = ctx_cls.__dict__["check_regular"]

        def theta(ctx, z):
            tracer.leaf_call("theta", ctx.q, z)
            try:
                return theta_w(ctx, z)
            except pole_error:
                tracer.counts["theta.pole_retries"] += 1
                raise

        def logderiv(ctx, z, k):
            tracer.leaf_call("logderiv", ctx.q, z, k)
            return logd_w(ctx, z, k)

        def check_regular(ctx, z):
            try:
                return check(ctx, z)
            except pole_error:
                tracer.counts["theta.pole_retries"] += 1
                raise

        self._patch(ctx_cls, "theta", theta)
        self._patch(ctx_cls, "_logderiv_terms", logderiv)
        self._patch(ctx_cls, "check_regular", check_regular)

    def _install_term_counter(self, coeff_sum_cls):
        evaluate = coeff_sum_cls.__dict__["evaluate"]
        counts = self.counts

        def counted(cs, ctx, t):
            counts["elliptic_quantum.terms_evaluated"] += len(cs.terms)
            return evaluate(cs, ctx, t)

        self._patch(coeff_sum_cls, "evaluate", counted)

    def _wrapper(self, fn, span, counter, outer):
        tracer = self
        counts = self.counts
        depth = [0]

        if span is None:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            if outer:
                counts[span + ".nodes"] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
            if counter is not None:
                counts[counter] += 1
            depth[0] += 1
            idx = tracer.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                depth[0] -= 1
        return spanned

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            if attr is None:
                owner.clear()
                owner.update(orig)
            else:
                setattr(owner, attr, orig)
        self._patched = []

    # -- results ------------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_id, parent, dur

    def self_times(self):
        """Total self time per span name."""
        name_id, parent, dur = self.arrays()
        if len(dur) == 0:
            return {}
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per_name = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def inclusive_time(self, name):
        """Total duration of the spans of one (non-recursive) name."""
        name_id, _, dur = self.arrays()
        if name not in self._ids:
            return 0.0
        return float(dur[name_id == self._ids[name]].sum())

    def save(self, path):
        name_id, parent, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
