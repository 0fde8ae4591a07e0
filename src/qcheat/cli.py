"""Command-line front end: reproducible invariant computations.

Data goes to stdout (or --out), logs to stderr.  Every output embeds the
fully-resolved run configuration, so deterministic subcommands reproduce
their output byte for byte when rerun with the embedded settings.  JSON for
reports, CSV for bulk numeric tables.  Exit codes: 0 ok, 2 usage or input
error (bad arguments, paths that cannot be opened, and any other ValueError
that is not an InvariantError), 3 numeric failure (a missed tolerance, a
kernel row out of floating-point range, a value that overflows or
underflows), 4 invariant violation (an InvariantError: a failed reduction
or route check, a non-antisymmetric frame, a singular Popp B).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

from . import __version__
from .quadrature import ToleranceError
from .tensors import InvariantError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


def _run_config(args, subcommand):
    cfg = {"subcommand": subcommand, "version": __version__}
    for key in ("n", "tol", "t", "seed", "paths", "steps", "samples", "rule", "indices"):
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

    v, err = compute_c0(args.n, tol=args.tol)
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
    from .invariants import Cn_zeta_series, compute_Cn, sphere_kappa

    v, err = compute_Cn(args.n, tol=args.tol)
    oracle = Cn_zeta_series(args.n)
    kappa = sphere_kappa(args.n)
    payload = {
        "config": _run_config(args, "cn"),
        "Cn": v,
        "err": err,
        "zeta_oracle": oracle,
        "oracle_diff": v - oracle,
        "sphere_c1": v * kappa,
        "sphere_c1_err": err * kappa,
        "sphere_kappa": kappa,
    }
    _emit(_json_payload(payload), args.out)
    return EXIT_OK


def _read_csv_rows(path):
    """The rows of numbers of a kernel input file, one array of doubles per line.

    Numbers are separated by whitespace or commas, '#' starts a comment to
    the end of its line, and lines left blank are skipped.  ValueError,
    naming the line, for a token float() rejects.  A row holds its values
    as 8-byte doubles, not as float objects.
    """
    from array import array

    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            if "#" in line:
                line = line[: line.index("#")]
            if "," in line:
                line = line.replace(",", " ")
            fields = line.split()
            if fields:
                try:
                    rows.append(array("d", map(float, fields)))
                except ValueError as exc:
                    raise ValueError("line %d: %s" % (ln, exc)) from exc
    return rows


def _cmd_kernel(args):
    from .group import make_quaternionic_spec
    from .kernel import batch_evaluate

    spec = make_quaternionic_spec(args.n)
    results = batch_evaluate(spec, _read_csv_rows(args.input), tol=args.tol)
    lines = ["# config: %s\nrow,value,err,error\n" % json.dumps(_run_config(args, "kernel"), sort_keys=True)]
    lines += [
        "%d,%.17g,%.3g,\n" % (i, res["value"], res["err"])
        if res["ok"]
        else '%d,,,"%s"\n' % (i, res["error"].replace('"', "'"))
        for i, res in enumerate(results, 1)
    ]
    _emit("".join(lines), args.out)
    failed = {res["kind"] for res in results if not res["ok"]}
    if failed:
        print("kernel: some rows failed", file=sys.stderr)
        return EXIT_USAGE if "input" in failed else EXIT_NUMERIC
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


def _cmd_popp(args):
    from .popp import AdaptedFrameData, divergence_terms, popp_B_matrix, popp_density

    with open(args.input) as fh:
        data = AdaptedFrameData.parse(fh.read())
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
    from .mc import SimConfig, _check_sample_count, check_moment_vanishing
    from .mc import moment_report, rule_pattern, simulate_paths

    spec = make_quaternionic_spec(args.n)
    config = _run_config(args, "mc")
    if args.rule is None:
        if args.indices is not None:
            raise ValueError("--indices needs --rule")
        del config["samples"]  # the moment table does not read --samples
        n_paths = args.paths
    else:
        # a rule run simulates one path per sample, each to its own time
        del config["t"], config["paths"]
        try:
            indices = tuple(int(v) for v in args.indices.split(",")) if args.indices else None
            rule_pattern(spec, args.rule, indices)
        except ValueError as exc:
            raise ValueError("--indices: %s" % exc) from exc
        n_paths = args.samples
    if args.rule is not None:  # the check's own message on the sample count comes first
        _check_sample_count(args.samples, args.steps)
    cfg = SimConfig(spec=spec, t=args.t, n_paths=n_paths, n_steps=args.steps, seed=args.seed)
    buf = io.StringIO()
    buf.write("# config: %s\n" % json.dumps(config, sort_keys=True))
    buf.write("quantity,estimate,stderr,n_paths,n_steps,seed\n")
    if args.rule is None:
        for name, est, se in moment_report(simulate_paths(cfg)):
            buf.write("%s,%.12g,%.4g,%d,%d,%d\n" % (name, est, se, n_paths, args.steps, args.seed))
    else:
        rep = check_moment_vanishing(cfg, args.rule, indices=indices, n_samples=args.samples)
        buf.write(
            "%s,%.12g,%.4g,%d,%d,%d\n"
            % (rep.label, rep.estimate, rep.stderr, n_paths, args.steps, args.seed)
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

    with open(args.input) as fh:
        sp = SpectrumFile.parse(fh.read())
    result = spectral_extract(sp, [float(v) for v in args.t.split(",")], n=args.n)
    result["config"] = _run_config(args, "spectrum")
    _emit(_json_payload(result), args.out)
    return EXIT_OK


def _positive(kind):
    """argparse type: a number of the given kind that must be > 0 and finite."""

    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:  # false for nan and inf too
            raise argparse.ArgumentTypeError("must be positive and finite, got %s" % text)
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

    sp = sub.add_parser("cn", help="universal constant Cn and the sphere's c1")
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
    sp.add_argument(
        "--steps",
        type=_positive(int),
        default=300,
        help="sets K = ceil(sqrt(steps)), the Fourier modes of each path's Levy area",
    )
    sp.add_argument("--rule", type=int, default=None, choices=(1, 2, 3, 4))
    sp.add_argument("--indices", default=None, help="comma-separated rule indices")
    sp.add_argument("--samples", type=_positive(int), default=2000)
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("spectrum", help="heat-trace fit at Q = 4n+6: Popp volume and kappa")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--t", required=True, help="comma-separated time grid")
    sp.set_defaults(fn=_cmd_spectrum)

    return p


@functools.cache
def _parser():
    """build_parser() once per process: each build leaves objects in reference cycles."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT
    except OverflowError as exc:  # (4 pi)^(2n+3) or ^(2n+2) at a large level n; an mc moment that over- or underflows
        print("numeric failure: out of floating-point range: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except ToleranceError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        if exc.value is not None:
            print("best estimate: %.12g +/- %.3g" % (exc.value, exc.err), file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # OSError: an input or --out path that cannot be opened
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
