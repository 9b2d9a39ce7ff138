#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 glbench/spread.py --workloads paper32 build1024 --seeds 1 2 3 4 5

Runs glbench/run.py once per (workload, seed) with --trace 0 and the
benchmark's run_seconds, one run at a time, and prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median. A spread above a third of the metric's bound is marked; setup_s
is exempt from the spread rule but shown. Every run must be correct
with no failed operation; the script exits 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for wl in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(root / "glbench" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=root)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct") or result.get("failed"):
                print(f"{wl} seed {seed}: FAILED (exit {out.returncode})\n{out.stderr[-2000:]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else "  <-- above bound/3"
            print(f"  {wl:12s} {m['name']:12s} median {med:.6g} {m['unit']:6s} "
                  f"spread {spread:.4f} (bound {m['bound']}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
