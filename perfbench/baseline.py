"""Regenerate the per-layer baseline figures from traced runs.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

Runs the traced benchmark (``run.py --trace 1``) on rank-sweep, kn-cli and
sandpile, one process each, and prints:

* the effectiveness cache's hit ratio on rank-sweep;
* the kernels' share of rank-sweep's traced time, and the parking
  self-check's share of its parking time;
* graph building plus is_complete() against the closed-form rank on kn-cli;
* the parking self-check's share of parking time on sandpile.

Traced times include the wrappers' own cost; ``trace.overhead`` says how
much that is.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    m = traced("rank-sweep", args.seed, args.seconds)
    kernels = m["kernels.stabilize_s"] + m["kernels.burning_s"] + m["kernels.parking_reduce_s"]
    print(f"rank-sweep: rank.eff_hit_ratio {m['rank.eff_hit_ratio']:.2%} "
          f"({m['rank.eff_misses']:.0f} misses in {m['rank.class_key_calls']:.0f} class-key "
          f"probes per pass); kernels {kernels:.3f} s of {m['trace.wall_s']:.3f} s "
          f"traced per pass = {kernels / m['trace.wall_s']:.1%} "
          f"(trace.overhead {m['trace.overhead']:.2f}); parking self-check "
          f"{m['dynamics.is_parking_s'] / m['dynamics.parking_representative_s']:.0%} "
          f"of parking time")

    m = traced("kn-cli", args.seed, args.seconds)
    graphs = m["graphs.build_s"] + m["graphs.is_complete_s"]
    print(f"kn-cli: graphs.build_s + graphs.is_complete_s = {graphs:.3f} s vs "
          f"complete.rank_formula_s = {m['complete.rank_formula_s']:.4f} s per pass "
          f"({graphs / m['complete.rank_formula_s']:.0f}x) over "
          f"{m['cli.commands']:.0f} commands")

    m = traced("sandpile", args.seed, args.seconds)
    print(f"sandpile: dynamics.is_parking_s {m['dynamics.is_parking_s']:.4f} s of "
          f"dynamics.parking_representative_s {m['dynamics.parking_representative_s']:.3f} s "
          f"per pass = {m['dynamics.is_parking_s'] / m['dynamics.parking_representative_s']:.1%}")


if __name__ == "__main__":
    main()
