#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets.

    python3 bench/perf/compare.py collect OUT.json [--runs 5] [--seed 1]
                                          [--workload W ...]
    python3 bench/perf/compare.py BASE.json NEW.json

`collect` runs `bench/perf/run.sh` RUNS times per workload with tracing off,
plus one traced run per workload for the exact per-layer counts, and writes
one perennial-perf-set/v1 document: per workload and metric, every value
with its median and quartiles, and the host facts of the runs.

The comparison reads the bounds and directions of the end-to-end metrics
from BENCHMARK.json and prints one row per (workload, end-to-end metric):

  improved    the median is better by more than the metric's bound
  regressed   the median is worse by more than the bound
  unresolved  a set's spread (quartile distance over median) is wider than
              the bound, so the bound cannot be checked -- unless every NEW
              run beats every BASE run
  unchanged   otherwise

Sets collected at different times also differ by how busy the host was,
so a gain is claimed only beyond the bound; a smaller gain needs runs of
the two commits alternated on one host.

Per-layer counts the benchmark marks exact must be identical in both sets.
Exit status: 0 if nothing regressed or changed, 1 otherwise, 2 if the two
sets come from different hosts or settings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HOST_KEYS = ("host_cores", "ocaml", "seed", "seconds")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_perf(workload, seed, trace, out):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--json", out]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    with open(out) as f:
        doc = json.load(f)
    os.remove(out)
    return doc


def summarize(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def collect(args):
    bench = load_benchmark()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    tmp = os.path.abspath(args.out) + ".run.json"
    doc = {"schema": "perennial-perf-set/v1", "runs": args.runs, "workloads": {}}
    for name in names:
        runs = [run_perf(name, args.seed, 0, tmp) for _ in range(args.runs)]
        traced = run_perf(name, args.seed, 1, tmp)
        first = runs[0]
        doc.update({"host": first["host"], "host_cores": first["host"]["recommended_domain_count"],
                    "ocaml": first["host"]["ocaml"], "seed": first["seed"],
                    "seconds": first["seconds"]})
        w = {"passes": [r["workloads"][0]["passes"] for r in runs],
             "failed": sum(r["workloads"][0]["failed"] for r in runs + [traced]),
             "metrics": {}}
        for key, m in first["workloads"][0]["metrics"].items():
            w["metrics"][key] = dict(unit=m["unit"], exact=m["exact"],
                                     **summarize([r["workloads"][0]["metrics"][key]["value"] for r in runs]))
        for key, m in traced["workloads"][0]["metrics"].items():
            w["metrics"][key] = dict(unit=m["unit"], exact=m["exact"], **summarize([m["value"]]))
        doc["workloads"][name] = w
        print(f"{name}: {args.runs} runs + 1 traced, failed {w['failed']}", flush=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def verdict(spec, b, n):
    bound = spec["bound"]
    sign = 1 if spec["better"] == "lower" else -1
    worse = sign * (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    if all(sign * (y - x) < 0 for x in b["values"] for y in n["values"]):
        return ("improved" if -worse > bound else "unchanged"), worse
    if max(spread(b), spread(n)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "unchanged", worse


def compare(base_path, new_path):
    bench = load_benchmark()
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    mismatch = [k for k in HOST_KEYS if base.get(k) != new.get(k)]
    if mismatch:
        for k in mismatch:
            print(f"host or settings differ: {k} {base.get(k)!r} vs {new.get(k)!r}")
        return 2
    bad = 0
    print(f"{'workload':<14} {'metric':<14} {'base':>12} {'new':>12} {'worse':>8} {'spread':>7}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            print(f"{name:<14} missing from a set")
            bad += 1
            continue
        bm, nm = base["workloads"][name]["metrics"], new["workloads"][name]["metrics"]
        for spec in bench["end_to_end"]:
            b, n = bm[spec["name"]], nm[spec["name"]]
            v, worse = verdict(spec, b, n)
            bad += v == "regressed"
            print(f"{name:<14} {spec['name']:<14} {b['median']:>12.6g} {n['median']:>12.6g} "
                  f"{worse:>+8.1%} {max(spread(b), spread(n)):>7.1%}  {v}")
        for key, b in sorted(bm.items()):
            if b["exact"] and key in nm and nm[key]["values"] != b["values"]:
                print(f"{name:<14} {key} changed: {b['values']} -> {nm[key]['values']}")
                bad += 1
        if base["workloads"][name].get("failed") or new["workloads"][name].get("failed"):
            print(f"{name:<14} has failed checks")
            bad += 1
    return 1 if bad else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        p = argparse.ArgumentParser(prog="compare.py collect")
        p.add_argument("out")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workload", action="append")
        return collect(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="compare.py")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args()
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
