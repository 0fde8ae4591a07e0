"""One workload process of the benchmark (started by run.py, never by hand).

The process imports qcheat and builds its specs (set-up), then repeats the
workload's pass of program calls until the time budget is used, keeping each
pass's outputs and sampling the host's speed while the pass runs.  After the
last timed pass it computes the reference values and checks every pass.
With tracing on, passes alternate untraced and traced, so the
traced-minus-untraced time is the tracing overhead.  The result goes to a
JSON file named on the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics

# README golden line of `qcheat reduce-c1 --n 1`
GOLDEN_C1_N1 = (
    "c1 = ((-2/3)*M[x.dx] + (1/3)*M[xx.dxdx;pp] + (-1/3)*M[xx.dxdx;cross] + (4)*M[xxxx.dzdz]) * kappa"
)


def _cli(argv):
    """Run the CLI in-process, its stdout and stderr discarded; returns the exit code."""
    import qcheat.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return qcheat.cli.main(argv)


class KernelTable:
    """CLI `kernel` on seeded row files for n = 1, 2, plus CLI `c0` and `cn` for n = 1..3."""

    def __init__(self, inputs, wrong_reference):
        import qcheat.cli  # noqa: F401  (set-up: the CLI and the layers it calls)
        import qcheat.invariants  # noqa: F401
        import qcheat.kernel  # noqa: F401
        from qcheat.group import make_quaternionic_spec

        self.layout = json.loads((inputs / "layout.json").read_text())
        self.inputs = inputs
        self.specs = {n: make_quaternionic_spec(n) for n in (1, 2, 3)}  # set-up, as a library caller would
        self.wrong_reference = wrong_reference
        self.counters = {}

    def run_pass(self, out):
        calls = []
        for n in (1, 2):
            name = "kernel-n%d.csv" % n
            calls.append((["kernel", "--n", str(n), "--input", str(self.inputs / self.layout[str(n)]["file"]), "--out", str(out / name)], name))
        for n in (1, 2, 3):
            for cmd in ("c0", "cn"):
                name = "%s-n%d.json" % (cmd, n)
                calls.append(([cmd, "--n", str(n), "--out", str(out / name)], name))
        codes = {}
        kernel_s = 0.0
        start = time.perf_counter()
        for argv, name in calls:
            t = time.perf_counter()
            codes[name] = _cli(argv)
            if argv[0] == "kernel":
                kernel_s += time.perf_counter() - t
        wall = time.perf_counter() - start
        rows = sum(self.layout[str(n)]["rows"] for n in (1, 2))
        files = {name: (out / name).read_bytes() for _, name in calls}
        return {"wall": wall, "ops": rows, "ops_s": kernel_s, "codes": codes, "files": files}

    def references(self):
        from qcheat.invariants import c0_zeta_series

        scale = 1.001 if self.wrong_reference else 1.0
        return {n: c0_zeta_series(n) * scale for n in (1, 2)}

    def check(self, res, first, refs):
        gates = []
        no_rel_acc = negative = 0
        for n in (1, 2):
            lay = self.layout[str(n)]
            name = "kernel-n%d.csv" % n
            table = {}
            for line in res["files"][name].decode().splitlines()[2:]:
                row, value, err, error = line.split(",", 3)
                table[int(row) - 1] = (float(value), float(err)) if value and not error else None
            for i in range(lay["rows"]):
                gates.append(("n%d row %d returns a value" % (n, i + 1), table.get(i) is not None))
            vals = {i: v for i, v in table.items() if v is not None}
            no_rel_acc += sum(1 for v, e in vals.values() if abs(v) <= e)
            negative += sum(1 for v, e in vals.values() if v < 0)
            for i, t in lay["diag"]:
                if i in vals:
                    v, e = vals[i]
                    ref = refs[n] * t ** -(2 * n + 3)
                    gates.append(("n%d diagonal row %d = c0 t^-(2n+3)" % (n, i + 1), abs(v - ref) <= e))
            for i, j in lay["pairs"]:
                if i in vals and j in vals:
                    ok = abs(vals[i][0] - vals[j][0]) <= vals[i][1] + vals[j][1]
                    gates.append(("n%d rows %d, %d: p(g) = p(g^-1)" % (n, i + 1, j + 1), ok))
        for n in (1, 2, 3):
            for cmd in ("c0", "cn"):
                name = "%s-n%d.json" % (cmd, n)
                ok = res["codes"][name] == 0
                if ok:
                    doc = json.loads(res["files"][name])
                    ok = abs(doc["oracle_diff"]) <= doc["err"]
                gates.append(("%s --n %d: oracle diff within err" % (cmd, n), ok))
        if first is not res:
            for name, data in res["files"].items():
                gates.append(("%s byte-identical to the first pass" % name, data == first["files"][name]))
        self.counters = {"kernel.no_rel_acc_rows": no_rel_acc, "kernel.negative_rows": negative}
        return gates


class Diffusion:
    """simulate_paths + moment_report, kernel_marginal_moments, check_moment_vanishing (n = 1, t = 1)."""

    def __init__(self, inputs, wrong_reference):
        import qcheat.kernel  # noqa: F401
        import qcheat.mc
        from qcheat.group import make_quaternionic_spec

        cfg = json.loads((inputs / "diffusion.json").read_text())
        self.cfg = cfg
        self.spec = make_quaternionic_spec(cfg["n"])
        self.paths_cfg = qcheat.mc.SimConfig(
            spec=self.spec, t=cfg["t"], n_paths=cfg["paths"], n_steps=cfg["steps"], seed=cfg["paths_seed"]
        )
        self.check_cfg = qcheat.mc.SimConfig(
            spec=self.spec, t=cfg["t"], n_paths=cfg["check_paths"], n_steps=cfg["check_steps"], seed=cfg["check_seed"]
        )
        self.wrong_reference = wrong_reference
        self.counters = {}

    def run_pass(self, out):
        import qcheat.kernel
        import qcheat.mc

        start = time.perf_counter()
        samples = qcheat.mc.simulate_paths(self.paths_cfg)
        report = qcheat.mc.moment_report(samples)
        moments = qcheat.kernel.kernel_marginal_moments(self.spec, self.cfg["t"])
        t = time.perf_counter()
        checks = [
            qcheat.mc.check_moment_vanishing(self.check_cfg, rule, indices=tuple(idx), n_samples=ns)
            for rule, idx, ns in self.cfg["checks"]
        ]
        end = time.perf_counter()
        n_samples = sum(ns for _, _, ns in self.cfg["checks"])
        return {
            "wall": end - start,
            "ops": n_samples,
            "ops_s": end - t,
            "report": {name: (est, se) for name, est, se in report},
            "moments": moments,
            "checks": checks,
        }

    def references(self):
        scale = 1.1 if self.wrong_reference else 1.0
        return {"Ex2": 2.0 * self.cfg["t"] * scale}

    def check(self, res, first, refs):
        gates = []
        mass, _ = res["moments"]["mass"]
        gates.append(("mass within 1e-6 of 1", abs(mass - 1.0) < 1e-6))
        qz, qz_err = res["moments"]["Ezz_diag"]
        for a in range(1, 4 * self.cfg["n"] + 1):
            est, se = res["report"]["E[x_%d^2]" % a]
            gates.append(("E[x_%d^2] = 2t within 3 sigma" % a, abs(est - refs["Ex2"]) < 3.0 * se))
        for i in (1, 2, 3):
            est, se = res["report"]["E[z_%d^2]" % i]
            gates.append(("E[z_%d^2] = quadrature within 3(sigma + err)" % i, abs(est - qz) < 3.0 * (se + qz_err)))
        for rep in res["checks"]:
            if rep.vanishing_expected:
                ok = abs(rep.estimate) < 3.0 * rep.stderr
            else:
                ok = abs(rep.estimate) > 5.0 * rep.stderr
            gates.append(("%s vanishing=%s" % (rep.label, rep.vanishing_expected), ok))
        return gates

    def rng_seconds(self):
        """Time to draw the keyed Philox normals of simulate_paths alone (a computed calibration)."""
        cfg = self.paths_cfg
        start = time.perf_counter()
        for p in range(cfg.n_paths):
            key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, p], dtype=np.uint64)
            np.random.Generator(np.random.Philox(key=key)).standard_normal((cfg.n_steps, self.spec.m))
        return time.perf_counter() - start


_C1_LINE = re.compile(r"c1 = \((.+)\) \* kappa")
_C1_TERM = re.compile(r"\((-?\d+(?:/\d+)?)\)\*(M\[[^\]]+\])")


class ReduceC1:
    """CLI `reduce-c1 --n 1` and `--n 2`, route check on (the CLI default)."""

    def __init__(self, inputs, wrong_reference):
        import qcheat.cli  # noqa: F401
        import qcheat.qc_expansion
        from qcheat.group import make_quaternionic_spec

        self.ns = json.loads((inputs / "reduce-c1.json").read_text())["n"]
        self.specs = {n: make_quaternionic_spec(n) for n in self.ns}  # set-up, as a library caller would
        self.labels = set(qcheat.qc_expansion.MOMENT_LABELS)
        self.wrong_reference = wrong_reference
        self.counters = {}

    def run_pass(self, out):
        codes, lines = {}, {}
        start = time.perf_counter()
        for n in self.ns:
            codes[n] = _cli(["reduce-c1", "--n", str(n), "--out", str(out / ("c1-n%d.txt" % n))])
        wall = time.perf_counter() - start
        for n in self.ns:
            lines[n] = (out / ("c1-n%d.txt" % n)).read_text().strip()
        return {"wall": wall, "ops": len(self.ns), "ops_s": wall, "codes": codes, "lines": lines}

    def references(self):
        return {"golden_n1": GOLDEN_C1_N1.replace("(4)", "(3)") if self.wrong_reference else GOLDEN_C1_N1}

    def _linear_in_kappa(self, line):
        m = _C1_LINE.fullmatch(line)
        if not m:
            return False
        parts = m.group(1).split(" + ")
        terms = [_C1_TERM.fullmatch(p) for p in parts]
        return all(terms) and all(t.group(2) in self.labels for t in terms)

    def check(self, res, first, refs):
        gates = [("reduce-c1 --n %d exit 0" % n, res["codes"][n] == 0) for n in self.ns]
        gates.append(("n=1 line equals the README golden line", res["lines"][1] == refs["golden_n1"]))
        for n in self.ns:
            if n > 1:
                gates.append(("n=%d line linear in kappa over MOMENT_LABELS" % n, self._linear_in_kappa(res["lines"][n])))
                if first is not res:
                    gates.append(("n=%d line stable across passes" % n, res["lines"][n] == first["lines"][n]))
        self.counters = {
            "c1_line_sha256.n%d" % n: hashlib.sha256(res["lines"][n].encode()).hexdigest() for n in self.ns
        }
        return gates


WORKLOADS = {"kernel-table": KernelTable, "diffusion": Diffusion, "reduce-c1": ReduceC1}


SAMPLE_EVERY_S = 0.05  # host-speed sampling period during a pass
PROBE_REF_S = 1e-3  # seconds one speed probe takes on the reference host


def _speed_probe():
    """A fixed sliver of the interpreter work qcheat does: Fractions, a dict, small numpy arrays."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(1, i % 89 + 1)
    counts = {}
    for i in range(1500):
        counts[i & 255] = counts.get(i & 255, 0) + i
    x = np.linspace(0.0, 1.0, 15)
    for _ in range(20):
        float(np.dot(np.exp(-x), x))


class SpeedSampler:
    """Samples the host's speed while a pass runs.

    A shared host switches between a fast and a slow state (about 15 vs 25 ms
    for the same loop) every fraction of a second, so a pass's time depends
    on how long the host spent slow.  Every SAMPLE_EVERY_S a SIGALRM handler
    times one speed probe (about 2 % of the pass).  ``scale`` turns the
    pass's times into times on the reference host, where the probe takes
    PROBE_REF_S.
    """

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _speed_probe()
        self.samples.append(time.perf_counter() - start)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # a pass shorter than the period still gets one sample

    def scale(self):
        return PROBE_REF_S / statistics.fmean(self.samples)


def _passes(workload, out, seconds, tracer):
    """Timed passes, each under a SpeedSampler, until the budget is used.

    With a tracer, the first pass is an untraced warm-up and the later ones
    alternate traced and untraced, so there is at least one of each to compare.
    """
    passes = []  # (traced, result)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        try:
            with SpeedSampler() as speed:
                res = workload.run_pass(out)
        finally:
            if traced:
                tracer.uninstall()
        res["scale"] = speed.scale()
        passes.append((traced, res))
        if tracer is not None and len(passes) < 3:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True, type=Path)
    p.add_argument("--src", required=True, type=Path)
    p.add_argument("--t0", required=True, type=float, help="time.monotonic() when the process was started")
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--wrong-reference", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.inputs, args.wrong_reference)
    setup_s = time.monotonic() - args.t0
    import qcheat

    if not Path(qcheat.__file__).resolve().is_relative_to(args.src.resolve()):
        print("qcheat was imported from %s, not from %s" % (qcheat.__file__, args.src), file=sys.stderr)
        return 2
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    out = args.inputs / "out"
    out.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    passes = _passes(workload, out, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = workload.references()
    first = passes[0][1]
    attempted, failures = 0, []
    for k, (_, res) in enumerate(passes):
        for name, ok in workload.check(res, first, refs):
            attempted += 1
            if not ok:
                failures.append("pass %d: %s" % (k + 1, name))

    untraced = [r for t, r in passes if not t]
    metrics = {
        "wall_ref_s": statistics.median(r["wall"] * r["scale"] for r in untraced),
        "ops_per_ref_s": statistics.median(r["ops"] / (r["ops_s"] * r["scale"]) for r in untraced),
        "wall_s": statistics.median(r["wall"] for r in untraced),
        "ops_per_s": statistics.median(r["ops"] / r["ops_s"] for r in untraced),
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        traced = [r for t, r in passes if t]
        layers = layer_metrics(tracer.spans, len(traced))
        warm = [r for t, r in passes[2:] if not t]
        layers["trace.overhead_s"] = statistics.median(r["wall"] * r["scale"] for r in traced) - statistics.median(
            r["wall"] * r["scale"] for r in warm
        )
        layers["kernel.no_rel_acc_rows"] = workload.counters.get("kernel.no_rel_acc_rows", 0)
        layers["kernel.negative_rows"] = workload.counters.get("kernel.negative_rows", 0)
        sim_s = layers["mc.simulate_paths.busy_s"]
        layers["mc.rng_share"] = workload.rng_seconds() / sim_s if sim_s else 0.0
        metrics.update(layers)
        if args.spans is not None:
            tracer.write(args.spans)

    args.result.write_text(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": attempted,
                "failed": len(failures),
                "failures": failures,
                "metrics": metrics,
                "counters": workload.counters,
                "passes": [{"traced": t, "wall_s": r["wall"], "scale": r["scale"]} for t, r in passes],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
