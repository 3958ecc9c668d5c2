"""menf benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a menf checkout; menf is imported from ./src, so
nothing needs installing. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, from processes with no wrapper
installed: setup_s is the median over five fresh processes (four set-up
probes and the measuring process), run_s the median round time, and
peak_rss_mb the measuring process's peak resident memory at the end of its
first round, before any check runs. --trace 1 runs the measuring process
with timing wrappers and reports the per-layer metrics instead (see
tracing.py); its trace.run_s beside run_s is the tracing overhead.

Every child is a fresh single-threaded Python process (BLAS pinned to one
thread) that writes only under .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The keys of workloads.WORKLOADS; that module imports menf, which this process must not.
WORKLOADS = ("chua-reproduce", "scenario-roundtrip", "ring-scale", "tune-sweep")
SETUP_PROBES = 4
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 170


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "menf" / "__init__.py").is_file():
        print("perfbench: run from the root of a menf checkout (src/menf not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = root / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setups = [] if args.trace else [
            run_worker(common + ["--setup-only"], env, PROBE_TIMEOUT)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        record = run_worker(common + ["--seconds", str(args.seconds)]
                            + (["--trace"] if args.trace else []), env, WORKER_TIMEOUT)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: {args.workload} seed {args.seed}: rounds of "
          f"{', '.join(f'{s:.3f}' for s in record['round_s'])} s", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in record["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [record["setup_s"]]), "unit": "s"},
            "run_s": {"value": record["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
