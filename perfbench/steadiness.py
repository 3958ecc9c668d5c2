"""Steadiness of the end-to-end metrics, within one session and between two.

Record a session (each workload in turn, one run per seed):

    python3 perfbench/steadiness.py record --runs 10 --out .perfbench_runs/session_a.json

Summarise one session, or compare two recorded in separate sessions:

    python3 perfbench/steadiness.py report .perfbench_runs/session_a.json [session_b.json]

For each workload and end-to-end metric the report gives the median, the
quartiles (statistics.quantiles, n=4), the spread (interquartile range over
the median) against a third of the metric's bound in BENCHMARK.json, and,
with two sessions, the relative gap between their medians, in either
direction, against the bound. The spread of setup_s is reported but not
gated. It also checks that the failed share of operations is the same in
every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def record(runs: int, first_seed: int, out: Path) -> None:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    out.parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        for seed in range(first_seed, first_seed + runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {values} failed {result['failed']}/{result['attempted']}",
                  flush=True)
            out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def report(paths: list[Path]) -> int:
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sessions = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    ok = True
    print("| workload | metric | session | median | q1 | q3 | spread | bound | gap |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name in sessions[0]:
        runs = [r for session in sessions for r in session[name]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            print(f"{name}: failed shares {sorted(shares)}, "
                  f"all correct: {all(r['correct'] for r in runs)}")
            ok = False
        first: dict[str, float] = {}
        for label, session in zip("AB", sessions):
            for metric, bound in bounds.items():
                med, q1, q3 = summary([r["metrics"][metric]["value"] for r in session[name]])
                spread = (q3 - q1) / med
                # setup_s is gated on its medians only: each of its values is
                # already the median of five process starts, and its bound
                # limits how far set-up may grow, not how much start-up jitters.
                if metric != "setup_s":
                    ok &= spread <= bound / 3
                gap = ""
                if metric in first:
                    rel = (med - first[metric]) / first[metric]
                    gap = f"{rel:+.4f}"
                    ok &= abs(rel) <= bound
                else:
                    first[metric] = med
                print(f"| {name} | {metric} | {label} | {med:.4f} | {q1:.4f} | {q3:.4f} "
                      f"| {spread:.4f} | {bound} | {gap} |")
    print("steady: every spread within a third of its bound, every gap within its bound"
          if ok else "NOT steady")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--out", type=Path, required=True)
    rep = sub.add_parser("report")
    rep.add_argument("sessions", type=Path, nargs="+")
    args = parser.parse_args()
    if args.cmd == "record":
        record(args.runs, args.first_seed, args.out)
        return 0
    return report(args.sessions)


if __name__ == "__main__":
    sys.exit(main())
