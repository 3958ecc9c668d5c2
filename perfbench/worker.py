"""One fresh benchmark process: set up one workload, run rounds, check them.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--seconds S] [--trace] [--setup-only]

Started by run.py from the root of a checkout, with src/ on PYTHONPATH and
BLAS limited to one thread. The last line of stdout is one JSON object.

setup_s runs from the first line of this file to the end of the workload's
set-up, so it covers importing menf (numpy, scipy, yaml) and building the
inputs. Rounds follow until --seconds have passed, at least one; run_s is
the median wall time of a round's body. Each round's outputs are checked
after its timing stops. peak_rss_mb is read once, right after the first
round's body and before any check runs, so the checks' own arrays never set
it; every round repeats the same work, so it is menf's peak plus set-up.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import workloads  # imports menf: timed as part of set-up

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    state = workload.setup(args.seed, workdir)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    durations, output_bytes, ops = [], [], []
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        out = workdir / f"round{len(durations)}"
        if tracer:
            tracer.round = len(durations)
        t0 = time.perf_counter()
        result = workload.body(state, out)
        durations.append(time.perf_counter() - t0)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        output_bytes.append(_tree_bytes(out) if out.exists() else 0)
        ops += workload.check(state, result, out)
        del result
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() >= deadline:
            break

    problems = [p for op in ops for p in op.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "round_s": durations,
        "setup_s": setup_s,
        "run_s": statistics.median(durations),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        record["layers"] = tracer.layer_metrics(durations, output_bytes)
        tracer.write(workdir.parent / "traces" / f"{args.workload}-seed{args.seed}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
