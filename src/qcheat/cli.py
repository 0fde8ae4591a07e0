"""Command-line front end: reproducible invariant computations.

Data goes to stdout (or --out), logs to stderr.  Every output embeds the
fully-resolved run configuration, so deterministic subcommands reproduce
their output byte for byte when rerun with the embedded settings.  JSON for
reports, CSV for bulk numeric tables.  Exit codes: 0 ok, 2 usage or input
error (bad arguments such as --n 0 or an out-of-range mc --indices, input
files that do not parse or lack required keys, a frame file whose b has the
wrong count or shape or a non-numeric entry or whose c is not an
(m+k) x (m+k) x m array of numbers, a non-finite eigenvalue, a spectrum too
short for the time grid), 3 numeric failure, 4 invariant
violation (a failed reduction or route check, a non-antisymmetric frame).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .quadrature import ToleranceError
from .tensors import ReductionError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


class InputFormatError(ValueError):
    """Malformed input file (reported with line numbers, exit code 2)."""


def _run_config(args, subcommand):
    cfg = {"subcommand": subcommand, "version": __version__}
    for key in ("n", "tol", "t", "seed", "paths", "steps", "samples", "rule"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_payload(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_c0(args):
    from .invariants import c0_zeta_series, compute_c0

    v, err = compute_c0(args.n, rel_tol=args.tol, abs_tol=args.tol * 1e-3)
    oracle = c0_zeta_series(args.n)
    payload = {
        "config": _run_config(args, "c0"),
        "c0": v,
        "err": err,
        "zeta_oracle": oracle,
        "oracle_diff": v - oracle,
    }
    _emit(_json_payload(payload), args.out)
    print("c0(%d) = %.12g +/- %.3g (oracle diff %.3g)" % (args.n, v, err, v - oracle), file=sys.stderr)
    return EXIT_OK


def _cmd_cn(args):
    from .invariants import Cn_zeta_series, bw_sphere_c1_integral, compute_Cn, sphere_kappa

    v, err = compute_Cn(args.n, rel_tol=args.tol, abs_tol=args.tol * 1e-3)
    oracle = Cn_zeta_series(args.n)
    bw, bw_err = bw_sphere_c1_integral(args.n)
    payload = {
        "config": _run_config(args, "cn"),
        "Cn": v,
        "err": err,
        "zeta_oracle": oracle,
        "oracle_diff": v - oracle,
        "sphere_c1": bw,
        "sphere_kappa": sphere_kappa(args.n),
        "sphere_check_diff": v * sphere_kappa(args.n) - bw,
    }
    _emit(_json_payload(payload), args.out)
    return EXIT_OK


def _read_csv_rows(path):
    rows = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append(([float(v) for v in line.replace(",", " ").split()], ln))
            except ValueError as exc:
                raise InputFormatError("line %d: %s" % (ln, exc)) from exc
    return rows


def _cmd_kernel(args):
    from .group import make_quaternionic_spec
    from .kernel import QuadratureConfig, batch_evaluate

    spec = make_quaternionic_spec(args.n)
    rows = _read_csv_rows(args.input)
    cfg = QuadratureConfig(rel_tol=args.tol, abs_tol=args.tol * 1e-3)
    results = batch_evaluate(spec, [r for r, _ in rows], cfg)
    buf = io.StringIO()
    buf.write("# config: %s\n" % json.dumps(_run_config(args, "kernel"), sort_keys=True))
    buf.write("row,value,err,error\n")
    any_failed = False
    for i, res in enumerate(results):
        if res["ok"]:
            buf.write("%d,%.17g,%.3g,\n" % (i + 1, res["value"], res["err"]))
        else:
            any_failed = True
            buf.write('%d,,,"%s"\n' % (i + 1, res["error"].replace('"', "'")))
    _emit(buf.getvalue(), args.out)
    if any_failed:
        print("kernel: some rows failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_reduce_c1(args):
    from .group import make_quaternionic_spec
    from .qc_expansion import reduce_c1

    spec = make_quaternionic_spec(args.n)
    red = reduce_c1(spec)
    for line in red.log:
        print(line, file=sys.stderr)
    _emit(red.final_line() + "\n", args.out)
    return EXIT_OK


def _frame_numbers(value, shape):
    """value as nested tuples of numbers of the given 3-level shape, or None.

    Strings such as "1/2" become exact Fractions.
    """
    import numpy as np

    try:
        if np.shape(value) == shape:
            lift = lambda v: Fraction(v) if isinstance(v, str) else v
            out = tuple(tuple(tuple(lift(v) for v in row) for row in block) for block in value)
            if all(type(v) in (int, float, Fraction) for block in out for row in block for v in row):
                return out
    except (ValueError, ZeroDivisionError):  # ragged nesting, or a string that is no number
        pass
    return None


def _frame_b(doc):
    """The frame file's b as k matrices of m x m numbers."""
    m, k = doc["m"], doc["k"]
    b = _frame_numbers(doc["b"], (k, m, m)) if type(m) is int and type(k) is int else None
    if b is None:
        raise InputFormatError("b must hold k = %s matrices of m x m numbers, m = %s" % (k, m))
    return b


def _frame_c(doc, m, k):
    """The frame file's optional c as an (m+k) x (m+k) x m array of numbers, or None."""
    if "c" not in doc:
        return None
    c = _frame_numbers(doc["c"], (m + k, m + k, m))
    if c is None:
        raise InputFormatError("c must be an (m+k) x (m+k) x m array of numbers, m = %d, k = %d" % (m, k))
    return c


def _cmd_popp(args):
    from .popp import AdaptedFrameData, divergence_terms, popp_B_matrix, popp_density

    try:
        with open(args.input) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(str(exc)) from exc

    if not isinstance(doc, dict):
        raise InputFormatError("frame file must hold a JSON object")
    missing = [key for key in ("m", "k", "b") if key not in doc]
    if missing:
        raise InputFormatError("frame file lacks key(s): %s" % ", ".join(missing))

    data = AdaptedFrameData(m=doc["m"], k=doc["k"], b=_frame_b(doc), c=_frame_c(doc, doc["m"], doc["k"]))
    payload = {
        "config": _run_config(args, "popp"),
        "B": [[float(v) for v in row] for row in popp_B_matrix(data)],
        "density": popp_density(data),
    }
    if data.c is not None:
        payload["divergence"] = [float(v) for v in divergence_terms(data)]
    _emit(_json_payload(payload), args.out)
    return EXIT_OK


def _cmd_mc(args):
    from .group import make_quaternionic_spec
    from .mc import SimConfig, check_moment_vanishing, moment_report, rule_pattern, simulate_paths

    spec = make_quaternionic_spec(args.n)
    cfg = SimConfig(spec=spec, t=args.t, n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    buf = io.StringIO()
    buf.write("# config: %s\n" % json.dumps(_run_config(args, "mc"), sort_keys=True))
    buf.write("quantity,estimate,stderr,n_paths,n_steps,seed\n")
    if args.rule is None:
        samples = simulate_paths(cfg)
        for name, est, se in moment_report(samples):
            buf.write("%s,%.12g,%.4g,%d,%d,%d\n" % (name, est, se, args.paths, args.steps, args.seed))
    else:
        try:
            indices = tuple(int(v) for v in args.indices.split(",")) if args.indices else None
            rule_pattern(spec, args.rule, indices)
        except ValueError as exc:
            raise InputFormatError("--indices: %s" % exc) from exc
        rep = check_moment_vanishing(cfg, args.rule, indices=indices, n_samples=args.samples)
        buf.write(
            "%s,%.12g,%.4g,%d,%d,%d\n"
            % (rep.label, rep.estimate, rep.stderr, args.paths, args.steps, args.seed)
        )
        verdict = "pass" if rep.passed else "fail"
        buf.write(
            "# vanishing_expected=%s verdict=%s n_samples=%d\n"
            % (rep.vanishing_expected, verdict, rep.n_samples)
        )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_spectrum(args):
    from .invariants import SpectrumFile, spectral_extract

    try:
        with open(args.input) as fh:
            sp = SpectrumFile.parse(fh.read(), label=args.input)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    try:
        t_grid = [float(v) for v in args.t.split(",")]
        result = spectral_extract(sp, t_grid, n=args.n)
    except ValueError as exc:  # bad grid, or a spectrum too short for it
        raise InputFormatError(str(exc)) from exc
    result["config"] = _run_config(args, "spectrum")
    _emit(_json_payload(result), args.out)
    return EXIT_OK


def _positive(kind):
    """argparse type: a number of the given kind that must be > 0."""

    def parse(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError("must be positive, got %s" % text)
        return value

    parse.__name__ = kind.__name__  # argparse names the kind in its messages
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="qcheat", description=__doc__)
    p.add_argument("--version", action="version", version="qcheat %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_required=True):
        if n_required:
            sp.add_argument("--n", type=_positive(int), required=True, help="quaternionic level (>= 1)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("c0", help="first heat invariant")
    common(sp)
    sp.add_argument("--tol", type=_positive(float), default=1e-10)
    sp.set_defaults(fn=_cmd_c0)

    sp = sub.add_parser("cn", help="universal constant Cn and sphere check")
    common(sp)
    sp.add_argument("--tol", type=_positive(float), default=1e-10)
    sp.set_defaults(fn=_cmd_cn)

    sp = sub.add_parser("kernel", help="batch heat-kernel evaluation from CSV")
    common(sp)
    sp.add_argument("--input", required=True, help="CSV rows: t x1..x4n z1 z2 z3")
    sp.add_argument("--tol", type=_positive(float), default=1e-8)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("reduce-c1", help="structural reduction of the second invariant")
    common(sp)
    sp.set_defaults(fn=_cmd_reduce_c1)

    sp = sub.add_parser("popp", help="Popp density from a frame file (JSON)")
    common(sp, n_required=False)
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=_cmd_popp)

    sp = sub.add_parser("mc", help="diffusion simulation / moment checks")
    common(sp)
    sp.add_argument("--t", type=_positive(float), default=1.0)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--paths", type=_positive(int), default=10000)
    sp.add_argument("--steps", type=_positive(int), default=300)
    sp.add_argument("--rule", type=int, default=None, choices=(1, 2, 3, 4))
    sp.add_argument("--indices", default=None, help="comma-separated rule indices")
    sp.add_argument("--samples", type=_positive(int), default=2000)
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("spectrum", help="fit (Q, A, B) from an eigenvalue file")
    sp.add_argument("--n", type=_positive(int), default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--input", required=True)
    sp.add_argument("--t", required=True, help="comma-separated time grid")
    sp.set_defaults(fn=_cmd_spectrum)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputFormatError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ToleranceError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        if exc.value is not None:
            print("best estimate: %.12g +/- %.3g" % (exc.value, exc.err), file=sys.stderr)
        return EXIT_NUMERIC
    except ReductionError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
