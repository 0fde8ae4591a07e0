"""qcheat benchmark: one workload per invocation, checked, metrics as JSON.

    python3 perfbench/run.py --workload kernel-table --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The script makes the workload's
inputs from --seed, starts fresh worker processes on the checkout's src/
(set-up samples, then one process that measures for --seconds), checks every
output, and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  Workloads, metrics and their meaning: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from tracing import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernel-table", "diffusion", "reduce-c1")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured per untraced run
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# kernel-table: rows per n; one in twenty is a far row; t shared across rows
KERNEL_ROWS = 1500
FAR_EVERY = 20
T_VALUES = (0.25, 0.5, 1.0, 2.0)
INVERSION_PAIRS = (10, 2)  # (bulk, far) rows that get an inverse row appended

# diffusion: Monte Carlo seeds are the acceptance suite's (criteria 9 and 11)
DIFFUSION = {
    "n": 1,
    "t": 1.0,
    "paths": 10_000,
    "steps": 400,
    "paths_seed": 777003,
    "check_paths": 1000,
    "check_steps": 250,
    "check_seed": 555001,
    "checks": [
        [1, [1, 2, 1], 1000],
        [2, [1, 2, 3, 4], 1000],
        [3, [1], 1000],
        [4, [1, 2, 3, 4, 1, 2], 1000],
        [4, [1, 1, 2, 2, 1, 1], 1000],
    ],
}


def kernel_rows(seed, n):
    """Seeded rows (t, x_1..x_4n, z_1..z_3) for CLI `kernel` plus the indices the gate needs.

    Rows are drawn at the kernel's own scale, x ~ N(0, 2t) and z ~ N(0, 32 n t^2),
    over a few shared t values; one in FAR_EVERY rows is a far row with |z|/t
    in 50..300.  Stratified draws (each t equally often, one far row per
    stratum of |z|/t) keep the total work nearly the same from seed to seed:
    a far row costs about ten typical rows.
    """
    rng = np.random.default_rng([seed, n])
    m = 4 * n
    n_far = KERNEL_ROWS // FAR_EVERY
    far_ratio = 50.0 + 250.0 * (np.arange(n_far) + rng.random(n_far)) / n_far
    rng.shuffle(far_ratio)
    rows = []
    for i in range(KERNEL_ROWS):
        t = T_VALUES[i % len(T_VALUES)]
        x = rng.normal(0.0, math.sqrt(2.0 * t), m)
        if i < n_far:
            u = rng.normal(size=3)
            z = u / np.linalg.norm(u) * t * far_ratio[i]
        else:
            z = rng.normal(0.0, math.sqrt(32.0 * n) * t, 3)
        rows.append([t, *x, *z])
    diag = list(range(len(rows), len(rows) + len(T_VALUES)))
    rows += [[t] + [0.0] * (m + 3) for t in T_VALUES]
    pair_bulk, pair_far = INVERSION_PAIRS
    pairs = []
    for i in [*range(n_far, n_far + pair_bulk), *range(pair_far)]:
        pairs.append((i, len(rows)))
        rows.append([rows[i][0]] + [-v for v in rows[i][1:]])
    order = rng.permutation(len(rows))
    where = {int(old): new for new, old in enumerate(order)}
    layout = {
        "rows": len(rows),
        "diag": [[where[i], rows[i][0]] for i in diag],
        "pairs": [[where[i], where[j]] for i, j in pairs],
    }
    text = "".join(" ".join(repr(float(v)) for v in rows[i]) + "\n" for i in order)
    return text, layout


def make_inputs(workload, seed, work):
    if workload == "kernel-table":
        layout = {}
        for n in (1, 2):
            text, lay = kernel_rows(seed, n)
            lay["file"] = "rows-n%d.csv" % n
            (work / lay["file"]).write_text(text)
            layout[str(n)] = lay
        (work / "layout.json").write_text(json.dumps(layout))
    elif workload == "diffusion":
        (work / "diffusion.json").write_text(json.dumps(DIFFUSION))
    else:
        (work / "reduce-c1.json").write_text(json.dumps({"n": [1, 2]}))


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD of a git checkout read from .git (no subprocess); None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        QCHEAT_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_worker(args, work, deadline, extra):
    """Start one worker process, wait for it, return its result document."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--inputs", str(work),
        "--src", str(ROOT / "src"),
        "--result", str(result),
        "--t0", repr(t0),
        *extra,
    ]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(result.read_text())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--wrong-reference", action="store_true", help="self-test only: perturb a reference so the gate must fail"
    )
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "qcheat" / "__init__.py").is_file():
        print("no qcheat sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_work"
    work = out_dir / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    work.mkdir(parents=True)
    try:
        make_inputs(args.workload, args.seed, work)
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, work, deadline, ["--setup-only"])["setup_s"])
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(out_dir / ("last-%s-spans.jsonl" % args.workload))]
        res = run_worker(args, work, deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(res["setup_s"])
    layer = res["metrics"]
    if args.trace == 0:
        metrics = {
            "wall_ref_s": (layer["wall_ref_s"], "s"),
            "ops_per_ref_s": (layer["ops_per_ref_s"], "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (layer["peak_rss_mb"], "MB"),
        }
    else:
        metrics = {name: (layer[name], unit) for name, unit in UNITS.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s_samples": setups,
        "passes": res["passes"],
        "counters": res["counters"],
        "failures": res["failures"],
        "metrics": res["metrics"],
    }
    (out_dir / ("last-%s-trace%d.json" % (args.workload, args.trace))).write_text(json.dumps(record, indent=1))
    for line in res["failures"]:
        print("FAILED %s" % line, file=sys.stderr)
    print("record: %s" % json.dumps({k: record[k] for k in ("environment", "counters", "metrics")}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
