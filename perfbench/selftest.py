"""Self-test of the benchmark harness at the smallest run length.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a run with tracing off
prints exactly the end-to-end metrics and a traced run exactly the per-layer
metrics, each with its unit, and that both pass their correctness gates; that
a deliberately wrong reference (--wrong-reference) makes the gate fail; and
that in a directory holding only BENCHMARK.json and the benchmark's own files
the benchmark exits non-zero without printing a result.  Exits 1 on any
failure.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    cmd += ["--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            code, res, err = run(w, trace)
            label = "%s --trace %d" % (w, trace)
            expect(code == 0 and res is not None and set(res) == RESULT_KEYS, "%s prints a result" % label)
            if res is None:
                print(err[-2000:], file=sys.stderr)
                continue
            got = {name: m.get("unit") for name, m in res["metrics"].items()}
            expect(got == expected[trace], "%s emits every metric with its unit" % label)
            numbers = all(isinstance(m.get("value"), (int, float)) for m in res["metrics"].values())
            expect(numbers, "%s metric values are numbers" % label)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, "%s passes its gates" % label)
        code, res, _ = run(w, 0, "--wrong-reference")
        expect(code == 0 and res is not None and res["failed"] > 0 and not res["correct"], "%s gate fails on a wrong reference" % w)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, res, _ = run(bench["workloads"][0]["name"], 0, cwd=bare)
        expect(code != 0 and res is None, "without the program's sources the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
