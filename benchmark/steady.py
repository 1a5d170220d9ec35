#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times and summarizes each metric.

    python3 benchmark/steady.py --workload online-hot-churn --runs 10

runs `benchmark/run.py` once per seed (seeds SEED0, SEED0+1, ...) and prints
each metric's median, first and third quartile (statistics.quantiles with
n=4) and the quartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json. A spread above a third of the bound is flagged.

    python3 benchmark/steady.py --workload offline-products --runs 10 \
        --checkout ../parent --checkout .

runs two checkouts in alternating order (A B, then B A, ...) with the same
seeds and also prints the relative difference of their medians, which is
how a change is compared with its parent. Each checkout runs its own copy
of benchmark/run.py from its root. --trace 1 summarizes the per-layer
metrics instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(cmd)} in "
                 f"{checkout}")
    return json.loads(lines[-1])


def summarize(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return statistics.median(values), q1, q3, spread


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--checkout", action="append", type=Path,
                    help="checkout root to run (repeat for an A/B); "
                         "default: this repository")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = spec[kind]
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]

    results = {str(c): [] for c in checkouts}
    for i in range(args.runs):
        order = checkouts if i % 2 == 0 else list(reversed(checkouts))
        for c in order:
            r = run_once(c, args.workload, args.seed0 + i, seconds, args.trace)
            results[str(c)].append(r)
            failed_share = r["failed"] / r["attempted"]
            values = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.5g}"
                              for m in metrics)
            print(f"run {i + 1}/{args.runs} seed {args.seed0 + i} {c.name}: "
                  f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed share={failed_share:.6f} {values}", file=sys.stderr)

    medians = {}
    for c in checkouts:
        rows = results[str(c)]
        print(f"\n{args.workload} — {c} — {len(rows)} runs of {seconds} s "
              f"(trace={args.trace})")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            med, q1, q3, spread = summarize(values) if len(values) > 1 else (
                values[0], values[0], values[0], 0.0)
            medians.setdefault(m["name"], []).append(med)
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{m['name']:34} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
    if len(checkouts) == 2:
        print(f"\nmedian change, {checkouts[1].name} vs {checkouts[0].name}:")
        for m in metrics:
            a, b = medians[m["name"]]
            change = (b - a) / a if a else float("nan")
            print(f"  {m['name']:34} {change:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
