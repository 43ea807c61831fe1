#!/usr/bin/env python3
"""Steadiness check: runs each workload on several seeds and reports,
per metric, the median and the interquartile range as a share of the
median (the spread the benchmark's bounds are judged against).

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--trace 0]
        [--workloads explain_offline,serve_rw]

Run from the repository root. Reads bounds from BENCHMARK.json. Each
run's line also shows the share of the machine's CPU time the
hypervisor stole during it (`steal` in /proc/stat; 0 where not
reported), to tell host contention from a change in the program.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

p = argparse.ArgumentParser()
p.add_argument("--runs", type=int, default=10)
p.add_argument("--first-seed", type=int, default=1)
p.add_argument("--trace", default="0")
p.add_argument("--workloads", default="")
a = p.parse_args()


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs so far."""
    fields = [int(x) for x in open("/proc/stat").readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
for w in workloads:
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", a.trace]
        began, ticks = time.monotonic(), cpu_ticks()
        out = subprocess.run(cmd, capture_output=True, text=True)
        took, after = time.monotonic() - began, cpu_ticks()
        steal = 100.0 * (after[0] - ticks[0]) / max(after[1] - ticks[1], 1)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(last)
        if not result["correct"]:
            print(f"{w} seed {seed}: incorrect", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{w} seed {seed} ({took:.0f} s, steal {steal:.1f} %): " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"== {w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE"))
        print(f"   {name:<26} median {med:12.4f}  q1 {q[0]:12.4f}  q3 {q[2]:12.4f}  iqr/median {spread:7.4f}  bound {bound}  {flag}", flush=True)
