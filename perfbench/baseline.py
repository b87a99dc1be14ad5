"""Regenerate the committed baseline: every workload over ten seeds, untraced,
then one traced run per workload.

    python3 perfbench/baseline.py                 # writes perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 11-15 --out .bench_out/check.json

For each end-to-end metric it records the median over the seeds and the
spread, the distance between the first and third quartile over the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound. The
untimed details of each run (phase times, throughput, the tail, collapse
facts, failures) are summarised the same way, and so is ``arm_s`` divided by
the run's machine probe, which shows how much of the spread is the machine
drifting. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line), wall


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = seeds_from(args.seeds)
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        metrics, details, facts, walls, failed, attempted = {}, {}, {}, [], 0, 0
        per_probe = []  # arm_s over the run's machine probe: drift taken out
        for seed in seeds:
            detail, result, wall = run_once(name, seed, bench["run_seconds"], 0)
            out.setdefault("environment", {k: v for k, v in detail["environment"].items() if k != "seed"})
            for k, v in result["metrics"].items():
                metrics.setdefault(k, []).append(v["value"])
            for k, v in detail["all"].items():
                details.setdefault(k, []).append(v)
            for k, v in detail["facts"].items():
                facts.setdefault(k, []).append(v)
            walls.append(wall)
            per_probe.append(result["metrics"]["arm_s"]["value"] / statistics.mean(detail["probe_s"]))
            failed += result["failed"]
            attempted += result["attempted"]
            print(f"{name} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced_detail, traced, traced_wall = run_once(name, seeds[0], bench["run_seconds"], 1)
        out["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "run_wall_s": spread(walls),
            "end_to_end": {
                k: {**spread(v), "bound": bounds[k]} for k, v in metrics.items()
            },
            "details": {k: spread(v) for k, v in details.items()},
            "facts": {k: spread(v) for k, v in facts.items()},
            "arm_s_per_probe": spread(per_probe),
            "traced": {
                "seed": seeds[0],
                "run_wall_s": traced_wall,
                "correct": traced["correct"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        for k, v in out["workloads"][name]["end_to_end"].items():
            print(f"  {k}: median {v['median']:.5g}, spread {v['spread']:.3f} (bound {v['bound']})")
        print(f"  arm_s per probe: spread {out['workloads'][name]['arm_s_per_probe']['spread']:.3f}")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
