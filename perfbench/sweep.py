"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads phase-converge,cert-neumann \\
        --seeds 1-10 --trace 0 [--seconds 25] [--out perfbench/baseline/x.json] \\
        [--against perfbench/baseline/y.json]

Runs are interleaved, workloads inner and seeds outer (A1, B1, A2, B2, ...),
so that a slow stretch of the host falls on every workload alike.  For every
workload and metric it prints the median of the runs and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  With ``--against`` it also prints
how far each median moved from that earlier sweep's, as a share of the
earlier median, in the metric's worse direction.  With ``--out`` it writes
every run's result, the summary and the environment record of the first run
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    for line in lines:
        for tag in ("notes", "env"):
            if line.startswith("# %s " % tag):
                result[tag] = json.loads(line[len(tag) + 3:])
    return result


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "bound": bounds.get(name)}
    return out


def flag(s: dict) -> str:
    if s["bound"] is None:
        return ""
    return "ok" if s["spread"] < s["bound"] / 3 else (
        "WIDE" if s["spread"] >= s["bound"] else "over 1/3")


def shift(now: dict, before: dict, better: str) -> float:
    """How much worse ``now``'s median is than ``before``'s, as a share."""
    d = (now["median"] - before["median"]) / before["median"]
    return d if better == "lower" else -d


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = args.workloads.split(",")
    runs = {w: [] for w in names}
    for seed in parse_seeds(args.seeds):
        for workload in names:
            res = one_run(workload, seed, seconds, args.trace)
            res["seed"] = seed
            runs[workload].append(res)
            print("%s seed=%d %.1fs correct=%s attempted=%d failed=%d %s"
                  % (workload, seed, res["elapsed_s"], res["correct"],
                     res["attempted"], res["failed"],
                     " ".join("%s=%.4g" % (k, v["value"])
                              for k, v in list(res["metrics"].items())[:4])),
                  flush=True)
    before = {}
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)["workloads"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {},
              "env": runs[names[0]][0].get("env")}
    for workload in names:
        summary = summarise(runs[workload], bounds)
        print(workload)
        for name, s in summary.items():
            moved = ""
            if name in before.get(workload, {}).get("summary", {}) and name in better:
                moved = "moved %+.4f" % shift(s, before[workload]["summary"][name],
                                              better[name])
            print("  %-34s median %12.6g %-6s spread %.4f bound %s %s %s"
                  % (name, s["median"], s["unit"], s["spread"], s["bound"], flag(s),
                     moved), flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs[workload]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
