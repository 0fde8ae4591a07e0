"""CLI surfaces: subcommands, exit codes, embedded configs, reproducibility."""

import argparse
import gc
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import pytest

import qcheat
from qcheat.cli import main

NAN, INF = float("nan"), float("inf")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_c0_subcommand(capsys):
    code, out, err = run_cli(capsys, ["c0", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["c0"] == pytest.approx(1.0 / 120.0, abs=1e-10)
    assert abs(doc["oracle_diff"]) < 1e-11
    assert doc["config"]["subcommand"] == "c0" and doc["config"]["n"] == 1


def test_c0_usage_error_on_bad_level():
    with pytest.raises(SystemExit) as exc:
        main(["c0", "--n", "0"])  # usage error: n must be >= 1
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cn", "--n", "-1"],
        ["c0", "--n", "1", "--tol", "0"],
        ["mc", "--n", "1", "--seed", "1", "--t", "0"],
        ["mc", "--n", "1", "--seed", "1", "--paths", "0"],
        ["mc", "--n", "1", "--seed", "1", "--steps", "-3"],
        ["mc", "--n", "1", "--seed", "1", "--rule", "3", "--samples", "0"],
        ["spectrum", "--n", "0", "--input", "eigs.txt", "--t", "1"],
        ["c0", "--n", "1", "--format", "json"],  # no such flag
        ["mc", "--n", "1", "--seed", "1", "--t", "nan", "--paths", "10", "--steps", "10"],
        ["mc", "--n", "1", "--seed", "1", "--t", "inf", "--paths", "10", "--steps", "10"],
        ["c0", "--n", "1", "--tol", "nan"],
        ["spectrum", "--input", "eigs.txt", "--t", "1"],  # no --n: Q = 4n+6 is unknown
        ["spectrum", "--n", "1", "--input", "{spectrum}", "--t", "nan,0.4,0.5,0.6"],
        ["spectrum", "--n", "1", "--input", "{spectrum}", "--t", "inf,0.4,0.5,0.6"],
        ["spectrum", "--n", "1", "--input", "{spectrum}", "--t", "0.4,0.5,0.6,0.6,0.6"],
        ["mc", "--n", "1", "--seed", "1", "--indices", "1,2,1", "--paths", "10", "--steps", "10"],
    ],
)
def test_bad_arguments_exit_2(argv, tmp_path, capfd):
    # argparse exits 2 itself; input errors found later return 2 from main
    spectrum = tmp_path / "spec.txt"
    spectrum.write_text("".join("%g %d\n" % (0.5 * k, 1 + k * k) for k in range(120)))  # long enough for t >= 0.4
    try:
        code = main([a.format(spectrum=spectrum) for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capfd.readouterr()
    assert out == "" and "DLASCL" not in err  # a bad grid never reaches LAPACK


def test_parser_built_once_per_process(capsys):
    # a fresh parser per call would leave its reference cycles to the collector
    def live_parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    main(["c0", "--n", "1"])
    gc.disable()
    try:
        before = live_parsers()
        for _ in range(20):
            assert main(["c0", "--n", "1"]) == 0
        assert live_parsers() == before
    finally:
        gc.enable()


def test_c0_tight_tolerance(capsys):
    code, out, _ = run_cli(capsys, ["c0", "--n", "2", "--tol", "1e-10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["err"] <= 1e-10


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cn_subcommand_sphere_check(capsys):
    code, out, _ = run_cli(capsys, ["cn", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sphere_kappa"] == 48.0
    # c1/c0 of the sphere S^7 is 8 - 15/pi^2, and c0(1) = 1/120
    assert abs(doc["sphere_c1"] - (8 - 15 / math.pi**2) / 120) <= doc["sphere_c1_err"]


def test_reduce_c1_final_line(capsys):
    code, out, err = run_cli(capsys, ["reduce-c1", "--n", "1"])
    assert code == 0
    final = out.strip().splitlines()[-1]
    assert final.startswith("c1 = ")
    assert final.count("kappa") == 1
    assert "T[" not in final and "R[" not in final
    assert "[moments]" in err  # derivation log goes to stderr


def test_kernel_batch_and_row_errors(tmp_path, capsys):
    inp = tmp_path / "rows.csv"
    inp.write_text("1.0 0 0 0 0 0 0 0\n-1.0 0 0 0 0 0 0 0\n")
    out_file = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, ["kernel", "--n", "1", "--input", str(inp), "--out", str(out_file)])
    assert code == 2  # one row fails its check (t <= 0)
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "row,value,err,error"
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(1.0 / 120.0, abs=1e-8)
    assert "positive" in lines[3]


def test_kernel_out_of_range_row_exits_3(tmp_path, capsys):
    inp = tmp_path / "rows.csv"
    inp.write_text("1e-300 0 0 0 0 0 0 0\n1.0 0 0 0 0 0 0 0\n")
    code, out, _ = run_cli(capsys, ["kernel", "--n", "1", "--input", str(inp)])
    assert code == 3
    lines = out.splitlines()
    assert "out of floating-point range" in lines[2]
    assert float(lines[3].split(",")[1]) == pytest.approx(1.0 / 120.0, abs=1e-8)


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--n", "1", "--input", "{missing}"],
        ["kernel", "--n", "1", "--input", "{dir}"],
        ["spectrum", "--n", "1", "--input", "{missing}", "--t", "1"],
        ["c0", "--n", "1", "--out", "{missing}/x"],
    ],
)
def test_unopenable_paths_exit_2(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path)}
    code, out, err = run_cli(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["c0", "--n", "139"],
        ["cn", "--n", "200"],
        ["cn", "--n", "140"],
        ["c0", "--n", "136"],
        ["c0", "--n", "138"],
        ["cn", "--n", "135"],
        ["cn", "--n", "139"],
    ],
)
def test_overflow_at_large_level_exits_3(capsys, argv):
    # (4 pi)^(2n+3) in c0 and (4 pi)^(2n+2) in cn pass the largest double; a
    # few levels below, the error bound is below the smallest normal double.
    # The reason names the power, or the quantity, and n
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: out of floating-point range: ") and len(err.splitlines()) == 1
    n = int(argv[2])
    power = 2 * n + (3 if argv[0] == "c0" else 2)
    if n >= (139 if argv[0] == "c0" else 140):
        assert "(4 pi)^%d at n = %d" % (power, n) in err and "(34," not in err
    else:
        assert "%s at n = %d is out of floating-point range" % ({"c0": "c0", "cn": "Cn"}[argv[0]], n) in err


@pytest.mark.parametrize("t", ["1e308", "1e200"])
def test_mc_overflow_exits_3(capsys, t):
    # 1e308 overflows the simulated paths, 1e200 the squares of the moment table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["mc", "--n", "1", "--seed", "1", "--t", t, "--paths", "10", "--steps", "10"])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: out of floating-point range: ") and len(err.splitlines()) == 1


def test_mc_underflow_exits_3(capsys):
    # at t = 1e-300 the squares of x and z and the deviations behind the
    # standard errors fall below the double range: a loud failure, not zeros
    argv = ["mc", "--n", "1", "--seed", "1", "--t", "1e-300", "--paths", "10", "--steps", "10"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: out of floating-point range: ") and "overflow" not in err
    assert "left the floating-point range" in err and len(err.splitlines()) == 1


def test_kernel_parse_error_exit_2(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("1.0 0 nope 0\n")
    code, _, err = run_cli(capsys, ["kernel", "--n", "1", "--input", str(inp)])
    assert code == 2
    assert "line 1" in err


def test_popp_subcommand(tmp_path, capsys):
    doc = {"m": 2, "k": 1, "b": [[["0/1", "1/1"], ["-1/1", "0/1"]]]}
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 0
    payload = json.loads(out)
    assert payload["B"] == [[2.0]]
    assert payload["density"] == pytest.approx(2.0**-0.5)


def test_popp_invariant_violation(tmp_path, capsys):
    doc = {"m": 2, "k": 1, "b": [[[0, 1], [1, 0]]]}
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 4
    assert "antisymmetric" in err


def test_popp_names_the_bad_matrix_one_based(tmp_path, capsys):
    doc = {"m": 2, "k": 2, "b": [[[0, 1], [-1, 0]], [[0, 1], [1, 0]]]}
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 4 and out == ""
    assert err == "invariant violation: b^2 is not antisymmetric at (1, 2)\n"


@pytest.mark.parametrize(
    "argv",
    [["kernel", "--n", "1"], ["popp"], ["spectrum", "--n", "1", "--t", "0.1,0.2,0.3,0.4"]],
)
def test_non_utf8_input_exits_2(tmp_path, capsys, argv):
    inp = tmp_path / "binary.txt"
    inp.write_bytes(b"1 0 \xff 0\n")
    code, out, err = run_cli(capsys, argv + ["--input", str(inp)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")


def test_invariant_errors_share_one_type():
    from qcheat.qc_expansion import RouteMismatchError, UnclassifiedMomentError
    from qcheat.tensors import InvariantError, ReductionError

    assert issubclass(InvariantError, ValueError)
    for cls in (ReductionError, RouteMismatchError, UnclassifiedMomentError):
        assert issubclass(cls, InvariantError)


def test_popp_missing_keys_exit_2(tmp_path, capsys):
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps({"m": 2}))
    code, out, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 2
    assert out == ""
    assert "k, b" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"m": 2, "k": 1, "b": []},  # no matrix for k = 1
        {"m": 2, "k": 1, "b": [[[0, 1]]]},  # 1 x 2, not 2 x 2
        {"m": 2, "k": 1, "b": [[0, 1]]},  # rows are not lists
        {"m": 2, "k": 1, "b": [[["0", "abc"], ["-1", "0"]]]},
        {"m": 2, "k": 1, "b": [[[0, None], [-1, 0]]]},
        {"m": "2", "k": 1, "b": [[[0, 1], [-1, 0]]]},
        {"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": [1]},  # c not nested
        {"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": [[[1]]]},  # c not 3 x 3 x 2
        {"m": 2, "k": 1, "b": [[[0, NAN], [-1, 0]]]},  # json writes the NaN token
        {"m": 2, "k": 1, "b": [[[0, INF], [-INF, 0]]]},  # Infinity and -Infinity
        {"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": [[[NAN, 0]] * 3] + [[[0, 0]] * 3] * 2},
        {"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": [[[0, -INF]] * 3] * 3},
        {"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": [[[0]] * 3] * 3},  # innermost length 1, not m = 2
    ],
)
def test_popp_malformed_frame_exits_2(tmp_path, capsys, doc):
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 2, "k": 1, "b": [[[0, 1e400], [-1e400, 0]]]}',  # 1e400 parses to inf
        '{"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": [[[1e400, 0], [0, 0], [0, 0]]%s]}'
        % (", [[0, 0], [0, 0], [0, 0]]" * 2),
    ],
    ids=["b", "c"],
)
def test_popp_literal_past_double_range_exits_2(tmp_path, capsys, text):
    inp = tmp_path / "frame.json"
    inp.write_text(text)
    code, out, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 2
    assert out == ""
    assert err == "input error: %s holds inf, which is not a finite number\n" % ("c" if '"c"' in text else "b")


@pytest.mark.parametrize(
    "floats, exact, code",
    [
        # B = 2e-14: a float pivot tiny in absolute terms is no singularity
        ([[[0, 1e-7], [-1e-7, 0]]], [[["0", "1/10000000"], ["-1/10000000", "0"]]], 0),
        # two equal matrices: the second direction is the deficient one, as floats and exactly
        ([[[0.0, 1.0], [-1.0, 0.0]]] * 2, [[[0, 1], [-1, 0]]] * 2, 4),
    ],
)
def test_popp_float_and_exact_frames_agree(tmp_path, capsys, floats, exact, code):
    runs = []
    for b in (floats, exact):
        inp = tmp_path / "frame.json"
        inp.write_text(json.dumps({"m": 2, "k": len(b), "b": b}))
        runs.append(run_cli(capsys, ["popp", "--input", str(inp)]))
    (code_f, out_f, err_f), (code_e, out_e, err_e) = runs
    assert code_f == code_e == code and err_f == err_e
    if code == 0:
        assert json.loads(out_f)["density"] == pytest.approx(json.loads(out_e)["density"], rel=1e-15)
        assert json.loads(out_f)["density"] == pytest.approx(2e-14**-0.5, rel=1e-15)
    else:
        assert err_f == "invariant violation: B is singular: vertical direction 2 is deficient (bracket-generation fails)\n"


@pytest.mark.parametrize("entry", [1e200, "1e200", 1e308])
def test_popp_overflowing_frame_exits_3(tmp_path, capsys, entry):
    minus = "-" + entry if isinstance(entry, str) else -entry
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps({"m": 2, "k": 1, "b": [[[0, entry], [minus, 0]]]}))
    code, out, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: out of floating-point range: ") and len(err.splitlines()) == 1


def test_spectrum_value_error_names_its_line(tmp_path, capsys):
    inp = tmp_path / "bad.txt"
    inp.write_text("0 1\n1 x\n")
    code, out, err = run_cli(capsys, ["spectrum", "--n", "1", "--input", str(inp), "--t", "0.1,0.2,0.3,0.4"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: line 2: ")


def run_cli_capped(argv, timeout=5.0):
    """qcheat argv in a child process with 1 GiB of address space and a timeout.

    An input that makes the program allocate without bound then fails this
    run (MemoryError, exit 1) instead of the whole test session.  The limit
    is set in the child only.  Returns (exit code, stdout, stderr).
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(qcheat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["OPENBLAS_NUM_THREADS"] = "1"  # per-thread buffers would count against the limit
    proc = subprocess.run(
        [sys.executable, "-m", "qcheat.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=limit,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "row, error",
    [
        ("1e-10 0 0 0 0 0.1 0 0", "needs more than 400000 evaluations"),  # |z| / t = 1e9: 1.4e9 panels
        ("1e-50 0 0 0 0 1e150 0 0", "needs more than 400000 evaluations"),  # |z| / t = 1e200: past int64
        ("1 0 0 0 0 1e200 0 0", "out of floating-point range"),  # |z|^2 overflows
        ("1 1e200 0 0 0 0 0 0", "out of floating-point range"),  # |x|^2 overflows
        ("1e-300 1e10 0 0 0 0 0 0", "out of floating-point range"),  # |x|^2 / 4t overflows
        ("1e-300 0 0 0 0 1e10 0 0", "out of floating-point range"),  # |z| / 4t overflows
    ],
    ids=["z/t=1e9", "z/t=1e200", "z^2-overflow", "x^2-overflow", "x^2/4t-overflow", "z/4t-overflow"],
)
def test_kernel_far_row_past_budget_exits_3(tmp_path, row, error):
    inp = tmp_path / "rows.csv"
    inp.write_text(row + "\n1 0 0 0 0 0 0 0\n")
    code, out, err = run_cli_capped(["kernel", "--n", "1", "--input", str(inp)])
    assert code == 3
    assert err == "kernel: some rows failed\n"  # no RuntimeWarning, no traceback
    lines = out.splitlines()
    assert lines[2].startswith("1,,,") and error in lines[2]
    assert float(lines[3].split(",")[1]) == pytest.approx(1.0 / 120.0, abs=1e-8)


@pytest.mark.parametrize("indices", ["9,9,9", "1,2", "1,x,1"])
def test_mc_bad_indices_exit_2(capsys, indices):
    argv = ["mc", "--n", "1", "--seed", "1", "--rule", "1", "--indices", indices]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --indices")


def test_mc_over_budget_exits_2(capsys):
    code, out, err = run_cli(capsys, ["mc", "--n", "1", "--seed", "1", "--paths", "1000000", "--steps", "300"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: simulation budget exceeded")


@pytest.mark.parametrize("extra", [["--samples", "1"], ["--samples", "1000000", "--steps", "300"]])
def test_mc_rule_sample_count_exits_2(capsys, extra):
    # one sample has no standard error; a million samples of 300 steps is over the path-step budget
    code, out, err = run_cli(capsys, ["mc", "--n", "1", "--seed", "1", "--rule", "3"] + extra)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: need 2..")


def test_mc_moment_table_one_path_exits_2(capsys):
    # one path leaves no standard error
    code, out, err = run_cli(capsys, ["mc", "--n", "1", "--seed", "1", "--paths", "1", "--steps", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: need at least 2 paths")


def _config_line(out):
    first = out.splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: ") :])


def test_mc_config_line_has_samples_only_with_rule(capsys):
    base = ["mc", "--n", "1", "--seed", "3", "--paths", "20", "--steps", "10"]
    # the moment table does not read --samples, so its config line leaves it out
    _, table, _ = run_cli(capsys, base + ["--samples", "7"])
    config = _config_line(table)
    assert "samples" not in config and "rule" not in config
    assert (config["seed"], config["paths"], config["steps"]) == (3, 20, 10)
    # a rule run simulates one path per sample to its own time, so it leaves
    # out --t and --paths, and its n_paths column counts the samples
    _, checked, _ = run_cli(capsys, base + ["--rule", "3", "--samples", "7"])
    config = _config_line(checked)
    assert (config["rule"], config["samples"]) == (3, 7)
    assert "t" not in config and "paths" not in config
    assert checked.splitlines()[2].split(",")[3:] == ["7", "10", "3"]


def test_mc_rule_ignores_paths_budget(capsys):
    # --paths does not bound a rule run; only --samples times --steps does
    argv = ["mc", "--n", "1", "--seed", "1", "--rule", "3", "--samples", "8"]
    code, out, _ = run_cli(capsys, argv + ["--paths", "1000000", "--steps", "300"])
    assert code == 0
    assert out.splitlines()[2].split(",")[3:] == ["8", "300", "1"]


def test_mc_rule_negative_seed(capsys):
    argv = ["mc", "--n", "1", "--paths", "20", "--steps", "20", "--rule", "3", "--samples", "8"]
    code, out, _ = run_cli(capsys, argv + ["--seed", "-1"])
    assert code == 0
    assert "vanishing_expected=True" in out


def test_mc_moments_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["mc", "--n", "1", "--seed", "3", "--paths", "500", "--steps", "50"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "quantity,estimate,stderr,n_paths,n_steps,seed"
    assert any(line.startswith("E[x_1^2],") for line in lines)
    # deterministic rerun: byte-identical
    code2, out2, _ = run_cli(
        capsys, ["mc", "--n", "1", "--seed", "3", "--paths", "500", "--steps", "50"]
    )
    assert out2 == out


def test_mc_rule_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "mc",
            "--n",
            "1",
            "--seed",
            "42",
            "--paths",
            "100",
            "--steps",
            "80",
            "--rule",
            "3",
            "--samples",
            "60",
        ],
    )
    assert code == 0
    assert "rule3" in out
    assert "vanishing_expected=True" in out


def test_spectrum_subcommand(tmp_path, capsys):
    ev = [(0.5 * k, 1 + k * k) for k in range(120)]
    inp = tmp_path / "spec.txt"
    inp.write_text("\n".join("%g %d" % pair for pair in ev) + "\n")
    code, out, _ = run_cli(
        capsys, ["spectrum", "--n", "1", "--input", str(inp), "--t", "0.4,0.5,0.6,0.8,1.0,1.2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert {"A", "A_err", "B", "B_err", "degree"} <= set(doc)
    assert set(doc["derived"]) == {"popp_volume", "popp_volume_err", "kappa", "kappa_err"}
    assert doc["config"]["subcommand"] == "spectrum" and doc["config"]["n"] == 1


def test_spectrum_parse_error(tmp_path, capsys):
    inp = tmp_path / "bad.txt"
    inp.write_text("1.0 2 3\n")
    code, _, err = run_cli(capsys, ["spectrum", "--n", "1", "--input", str(inp), "--t", "0.5,1.0"])
    assert code == 2
    assert "line 1" in err


def test_spectrum_nan_eigenvalue_exits_2(tmp_path, capsys):
    inp = tmp_path / "nan.txt"
    inp.write_text("0 1\nnan 1\n")
    code, out, err = run_cli(capsys, ["spectrum", "--n", "1", "--input", str(inp), "--t", "0.1,0.2,0.3"])
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_spectrum_too_short_exits_2(tmp_path, capsys):
    inp = tmp_path / "short.txt"
    inp.write_text("0 1\n1 3\n2 5\n")
    code, out, err = run_cli(capsys, ["spectrum", "--n", "1", "--input", str(inp), "--t", "0.1,0.2,0.3,0.4"])
    assert code == 2
    assert out == ""
    assert "too short" in err


def test_popp_accepts_exact_c(tmp_path, capsys):
    c = [[[0, 0] for _ in range(3)] for _ in range(3)]
    c[0][0] = ["1/2", 0]
    c[1][1] = [0.25, 1]
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps({"m": 2, "k": 1, "b": [[[0, 1], [-1, 0]]], "c": c}))
    code, out, _ = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 0
    assert json.loads(out)["divergence"] == [0.75, 1.0]
