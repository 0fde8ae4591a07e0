"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps qcheat's public functions from the outside: every module
attribute in ``qcheat.*`` that *is* one of the target functions is replaced
by a timing wrapper, so calls through by-name imports (``mc`` imports
``heat_kernel_point``, ``kernel`` imports ``adaptive_gk``, ``qc_expansion``
imports ``frame_inversion``, ``identity_relations`` and ``LinearReducer``)
are caught as well.  ``LinearReducer`` is a class shared by every binding, so
its methods are wrapped on the class.  Nothing inside ``src/`` changes.

A span is (name, start, end, parent index, pass id, attributes).  Spans stay
in memory and are written out once, when the run ends.  Metrics derived from
them live in ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

# module -> public functions timed as spans named "<layer>.<function>"
FUNCTIONS = {
    "qcheat.cli": ("main",),
    "qcheat.kernel": (
        "batch_evaluate",
        "heat_kernel_point",
        "kernel_marginal_moments",
        "normalization_integral",
        "radial_expectation",
    ),
    "qcheat.quadrature": ("adaptive_gk",),
    "qcheat.invariants": (
        "compute_c0",
        "c0_zeta_series",
        "compute_Cn",
        "Cn_zeta_series",
        "bw_sphere_c1_integral",
    ),
    "qcheat.mc": ("simulate_paths", "moment_report", "check_moment_vanishing"),
    "qcheat.qc_expansion": (
        "reduce_c1",
        "expansion_coefficients",
        "divergence_coefficient",
        "build_P2",
    ),
    "qcheat.graded": ("frame_inversion",),
    "qcheat.tensors": ("identity_relations",),
}
# (module, class) -> methods timed as spans; the span names follow the metric names
METHODS = {("qcheat.tensors", "LinearReducer"): {"__init__": "tensors.LinearReducer", "reduce": "tensors.reduce"}}

LAYERS = ("cli", "kernel", "quadrature", "invariants", "mc", "qc_expansion", "graded", "tensors")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
UNITS = {
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "cli.kernel.self_s": "s",
    "cli.reduce_c1.self_s": "s",
    "kernel.batch_evaluate.busy_s": "s",
    "kernel.row_ms.p50": "ms",
    "kernel.row_ms.p99": "ms",
    "kernel.evals_per_row.p50": "count",
    "kernel.evals_per_row.p99": "count",
    "kernel.deriv_call_us.p50": "us",
    "kernel.deriv_call_us.p99": "us",
    "kernel.deriv_evals.p50": "count",
    "kernel.radial_expectation.busy_s": "s",
    "kernel.no_rel_acc_rows": "count",
    "kernel.negative_rows": "count",
    "quadrature.adaptive_gk.calls": "count",
    "quadrature.adaptive_gk.busy_s": "s",
    "quadrature.adaptive_gk.panels": "count",
    "quadrature.share_of_kernel": "ratio",
    "invariants.busy_s": "s",
    "mc.simulate_paths.busy_s": "s",
    "mc.ns_per_path_step": "ns",
    "mc.rng_share": "ratio",
    "mc.moment_check.us_per_sample": "us",
    "mc.moment_check.kernel_share": "ratio",
    "qc_expansion.reduce_c1.busy_s.n1": "s",
    "qc_expansion.reduce_c1.busy_s.n2": "s",
    "qc_expansion.expansion_coefficients.busy_s.n2": "s",
    "qc_expansion.terms_generated.n2": "count",
    "qc_expansion.parity_survival.n2": "ratio",
    "graded.frame_inversion.busy_s": "s",
    "tensors.reduce.calls": "count",
    "tensors.reduce.busy_s": "s",
    "tensors.identity_relations.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_pass": "count",
}


def _cli_attrs(args, kwargs, out):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    n = argv[argv.index("--n") + 1] if "--n" in argv else None
    return {"cmd": argv[0] if argv else None, "n": n}


# span name -> fn(args, kwargs, result) giving the attributes kept on the span
_ATTRS = {
    "cli.main": _cli_attrs,
    "kernel.heat_kernel_point": lambda a, k, out: {"evals": out.n_evals},
    "quadrature.adaptive_gk": lambda a, k, out: {"evals": out[2]},
    "mc.simulate_paths": lambda a, k, out: {"path_steps": a[0].n_paths * a[0].n_steps},
    "mc.check_moment_vanishing": lambda a, k, out: {"samples": out.n_samples},
    "qc_expansion.reduce_c1": lambda a, k, out: {
        "n": a[0].n,
        "classified": out.classified_terms,
        "killed": out.parity_killed_terms,
    },
    "qc_expansion.expansion_coefficients": lambda a, k, out: {"n": a[0].n},
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass_id, attrs]
        self._stack = []
        self._restore = []
        self.pass_id = None

    def _wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.pass_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, out)
            return out

        return traced

    def install(self):
        for modname in FUNCTIONS:
            importlib.import_module(modname)
        loaded = [m for k, m in sorted(sys.modules.items()) if k == "qcheat" or k.startswith("qcheat.")]
        for modname, names in FUNCTIONS.items():
            owner = sys.modules[modname]
            layer = modname.split(".")[1]
            for fname in names:
                orig = getattr(owner, fname)
                wrapper = self._wrap("%s.%s" % (layer, fname), orig)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        for (modname, clsname), methods in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for meth, span_name in methods.items():
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span_name, orig))
                self._restore.append((cls, meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, pass_id, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": pass_id}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def _pct(values, q):
    """Nearest-rank percentile; 0 for an idle layer."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(spans, n_passes):
    """Per-layer metrics of the traced passes, each per pass where it is a total.

    A metric whose layer did no work on the workload reads 0.
    """
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += dur[i]

    def attr(idx, key):
        """Attribute values of the spans that returned (a raising call has none)."""
        return [spans[i][5][key] for i in idx if spans[i][5]]

    def parent_name(i):
        p = spans[i][3]
        return None if p is None else spans[p][0]

    def select(name, parent=None):
        return [i for i, s in enumerate(spans) if s[0] == name and (parent is None or parent_name(i) == parent)]

    def busy(name):
        return sum(dur[i] for i in select(name)) / n_passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    layer_of = [s[0].split(".")[0] for s in spans]
    for layer in LAYERS:
        out["%s.self_s" % layer] = (
            sum(dur[i] - child_time[i] for i in range(len(spans)) if layer_of[i] == layer) / n_passes
        )

    def cli_self(cmd):
        idx = [i for i in select("cli.main") if (spans[i][5] or {}).get("cmd") == cmd]
        return sum(dur[i] - child_time[i] for i in idx) / n_passes

    out["cli.kernel.self_s"] = cli_self("kernel")
    out["cli.reduce_c1.self_s"] = cli_self("reduce-c1")

    rows = select("kernel.heat_kernel_point", parent="kernel.batch_evaluate")
    out["kernel.batch_evaluate.busy_s"] = busy("kernel.batch_evaluate")
    out["kernel.row_ms.p50"] = _pct([dur[i] * 1e3 for i in rows], 0.5)
    out["kernel.row_ms.p99"] = _pct([dur[i] * 1e3 for i in rows], 0.99)
    out["kernel.evals_per_row.p50"] = _pct(attr(rows, "evals"), 0.5)
    out["kernel.evals_per_row.p99"] = _pct(attr(rows, "evals"), 0.99)
    derivs = select("kernel.heat_kernel_point", parent="mc.check_moment_vanishing")
    out["kernel.deriv_call_us.p50"] = _pct([dur[i] * 1e6 for i in derivs], 0.5)
    out["kernel.deriv_call_us.p99"] = _pct([dur[i] * 1e6 for i in derivs], 0.99)
    out["kernel.deriv_evals.p50"] = _pct(attr(derivs, "evals"), 0.5)
    out["kernel.radial_expectation.busy_s"] = busy("kernel.radial_expectation")

    gk = select("quadrature.adaptive_gk")
    out["quadrature.adaptive_gk.calls"] = len(gk) / n_passes
    out["quadrature.adaptive_gk.busy_s"] = busy("quadrature.adaptive_gk")
    out["quadrature.adaptive_gk.panels"] = sum(attr(gk, "evals")) / 15 / n_passes
    in_kernel = sum(dur[i] for i in select("quadrature.adaptive_gk", parent="kernel.heat_kernel_point"))
    out["quadrature.share_of_kernel"] = ratio(in_kernel, sum(dur[i] for i in select("kernel.heat_kernel_point")))

    out["invariants.busy_s"] = (
        sum(dur[i] for i in range(len(spans)) if layer_of[i] == "invariants" and not (parent_name(i) or "").startswith("invariants."))
        / n_passes
    )

    sims = select("mc.simulate_paths")
    out["mc.simulate_paths.busy_s"] = busy("mc.simulate_paths")
    out["mc.ns_per_path_step"] = ratio(sum(dur[i] for i in sims) * 1e9, sum(attr(sims, "path_steps")))
    checks = select("mc.check_moment_vanishing")
    check_time = sum(dur[i] for i in checks)
    out["mc.moment_check.us_per_sample"] = ratio(check_time * 1e6, sum(attr(checks, "samples")))
    out["mc.moment_check.kernel_share"] = ratio(sum(dur[i] for i in derivs), check_time)

    reductions = [i for i in select("qc_expansion.reduce_c1") if spans[i][5]]
    for n in (1, 2):
        idx = [i for i in reductions if spans[i][5]["n"] == n]
        out["qc_expansion.reduce_c1.busy_s.n%d" % n] = sum(dur[i] for i in idx) / n_passes
    n2 = [i for i in reductions if spans[i][5]["n"] == 2]
    generated = spans[n2[0]][5]["classified"] + spans[n2[0]][5]["killed"] if n2 else 0
    out["qc_expansion.terms_generated.n2"] = generated
    out["qc_expansion.parity_survival.n2"] = ratio(spans[n2[0]][5]["classified"], generated) if n2 else 0.0
    coeff2 = [i for i in select("qc_expansion.expansion_coefficients") if spans[i][5] and spans[i][5]["n"] == 2]
    out["qc_expansion.expansion_coefficients.busy_s.n2"] = sum(dur[i] for i in coeff2) / n_passes

    out["graded.frame_inversion.busy_s"] = busy("graded.frame_inversion")
    out["tensors.reduce.calls"] = len(select("tensors.reduce")) / n_passes
    out["tensors.reduce.busy_s"] = busy("tensors.reduce")
    out["tensors.identity_relations.busy_s"] = busy("tensors.identity_relations")
    out["trace.spans_per_pass"] = len(spans) / n_passes
    return out
