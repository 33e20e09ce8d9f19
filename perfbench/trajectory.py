"""Run the benchmark over several seeds and append the result to trajectory.json.

Usage, from the root of a dcil checkout:

    python3 perfbench/trajectory.py --label seed

Per workload in BENCHMARK.json: one ``--trace 0`` run per seed (seeds 0..9)
and one ``--trace 1`` run on seed 0.  Records the median and quartiles of
every end-to-end metric, its spread (interquartile distance over median)
against a third of the metric's bound, the records digests, the per-layer
metrics and the environment.  The accuracy reference digest does not depend
on the seed, so it is compared with the previous point's: a change means the
two commits' numerics differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
SEEDS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {res.returncode}: {res.stderr[-500:]}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env, lines


def digest_lines(lines) -> list[str]:
    return [ln for ln in lines if ln.startswith(("records_sha256", "optimizer steps"))]


def reference_digest(lines) -> str:
    return next(ln.split()[1] for ln in lines if ln.startswith("reference_sha256"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    doc = {"points": []}
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as fh:
            doc = json.load(fh)
    previous = doc["points"][-1]["workloads"] if doc["points"] else {}
    point = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(SEEDS):
            result, env, lines = bench(wl, seed, seconds, 0)
            runs.append({"seed": seed, **result, "digest": digest_lines(lines),
                         "reference_sha256": reference_digest(lines),
                         "timing": [ln for ln in lines if ln.startswith(("repeats", "wall_s as"))]})
            print(f"{wl} seed {seed}: correct {result['correct']}", flush=True)
        point["env"] = env
        e2e = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            e2e[m["name"]] = {
                "unit": m["unit"], "values": vals, "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "spread": spread, "bound": m["bound"],
                "spread_below_third_of_bound": spread < m["bound"] / 3,
            }
            print(f"  {m['name']}: median {med:.6g} {m['unit']}, spread {spread:.4f} "
                  f"(bound {m['bound']})", flush=True)
        traced, _, lines = bench(wl, 0, seconds, 1)
        refs = sorted({r["reference_sha256"] for r in runs})
        before = previous.get(wl, {}).get("reference_sha256")
        print(f"  reference_sha256 {' '.join(refs)}: one per commit {len(refs) == 1}, "
              f"same as the previous point {refs == [before]}", flush=True)
        point["workloads"][wl] = {
            "reference_sha256": refs[0] if len(refs) == 1 else refs,
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "end_to_end": e2e,
            "records_sha256": {r["seed"]: r["digest"] for r in runs},
            "timing": {r["seed"]: r["timing"] for r in runs},
            "traced_seed0": {
                "digest": digest_lines(lines),
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    doc["points"].append(point)
    with open(TRAJECTORY, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
