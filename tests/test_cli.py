"""CLI surfaces: subcommands, exit codes, embedded configs, reproducibility."""

import json

import pytest

from qcheat.cli import main


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
    ],
)
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
    assert abs(doc["sphere_check_diff"]) < 1e-12
    assert doc["sphere_kappa"] == 48.0


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
    assert code == 3  # one row fails (t <= 0)
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "row,value,err,error"
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(1.0 / 120.0, abs=1e-8)
    assert "positive" in lines[3]


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
    ],
)
def test_popp_malformed_frame_exits_2(tmp_path, capsys, doc):
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["popp", "--input", str(inp)])
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("indices", ["9,9,9", "1,2", "1,x,1"])
def test_mc_bad_indices_exit_2(capsys, indices):
    argv = ["mc", "--n", "1", "--seed", "1", "--rule", "1", "--indices", indices]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --indices")


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
        capsys, ["spectrum", "--input", str(inp), "--t", "0.4,0.5,0.6,0.8,1.0,1.2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert "Q" in doc and "A" in doc and "B" in doc
    assert doc["config"]["subcommand"] == "spectrum"


def test_spectrum_parse_error(tmp_path, capsys):
    inp = tmp_path / "bad.txt"
    inp.write_text("1.0 2 3\n")
    code, _, err = run_cli(capsys, ["spectrum", "--input", str(inp), "--t", "0.5,1.0"])
    assert code == 2
    assert "line 1" in err


def test_spectrum_nan_eigenvalue_exits_2(tmp_path, capsys):
    inp = tmp_path / "nan.txt"
    inp.write_text("0 1\nnan 1\n")
    code, out, err = run_cli(capsys, ["spectrum", "--input", str(inp), "--t", "0.1,0.2,0.3"])
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_spectrum_too_short_exits_2(tmp_path, capsys):
    inp = tmp_path / "short.txt"
    inp.write_text("0 1\n1 3\n2 5\n")
    code, out, err = run_cli(capsys, ["spectrum", "--input", str(inp), "--t", "0.1,0.2,0.3"])
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
