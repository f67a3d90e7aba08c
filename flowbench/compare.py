#!/usr/bin/env python3
"""Run, summarise and compare result sets of the flow benchmark.

A result set is a JSON-lines file; each line is one benchmark run:
{"workload": ..., "seed": ..., "trace": 0|1, "result": <the run's last line>}.

  python3 flowbench/compare.py sweep --out base.jsonl --seeds 1-10
      Runs the command of BENCHMARK.json once per workload x seed (from the
      repository root) and appends each run's result line to the file.
  python3 flowbench/compare.py spread base.jsonl
      Per workload x metric: sample count, median, quartiles and the spread
      (q3 - q1) / median against the metric's bound.  Exits 1 when a spread
      other than setup_s exceeds its bound.
  python3 flowbench/compare.py compare base.jsonl change.jsonl
      Per workload x metric: each side's median and quartiles and a verdict.
      Runs are paired by workload and seed.  "improved" needs the change to
      win at least 9 of 10 pairs (ties count for neither side) and the medians
      to lie further apart than the base's interquartile range; "worse" is the
      same rule the other way round, or an end-to-end metric whose median got
      worse by more than its bound; anything else is "unresolved".  Exits 1
      when any verdict is "worse".

Quartiles are statistics.quantiles(values, n=4), the definition the
benchmark's steadiness bounds are checked with.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, layer=False)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, layer=True, bound=None)
    return spec, metrics


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(args):
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seed_range(args.seeds):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)


def load(path):
    runs = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault(run["workload"], []).append(run)
    return runs


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs if metric in r["result"]["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def spread(args):
    _, spec = load_spec()
    bad = False
    print(f"{'workload':<10} {'metric':<26} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  note")
    for workload, runs in load(args.file).items():
        names = sorted({m for r in runs for m in r["result"]["metrics"]})
        for name in names:
            xs = values(runs, name)
            med = statistics.median(xs)
            q1, q3 = quartiles(xs)
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = spec.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                if share > bound:
                    note = "OVER BOUND" + (" (not gated)" if name == "setup_s" else "")
                    bad = bad or name != "setup_s"
                elif share > bound / 3:
                    note = "above bound/3"
            print(f"{workload:<10} {name:<26} {len(xs):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{share:>8.4f} {bound if bound is not None else '-':>6}  {note}")
        incorrect = sum(not r["result"]["correct"] for r in runs)
        if incorrect:
            print(f"{workload}: {incorrect} run(s) reported correct=false")
            bad = True
    sys.exit(1 if bad else 0)


def verdict(base, change, pairs, better, bound):
    """improved / worse / unresolved for one metric; see the module docs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    apart = abs(c_med - b_med) > (q3 - q1)
    if pairs and wins >= 0.9 * len(pairs) and apart and sign * (c_med - b_med) > 0:
        return "improved"
    if pairs and losses >= 0.9 * len(pairs) and apart and sign * (c_med - b_med) < 0:
        return "worse"
    if bound is not None and b_med and sign * (c_med - b_med) / abs(b_med) < -bound:
        return "worse"
    return "unresolved"


def compare(args):
    _, spec = load_spec()
    base, change = load(args.base), load(args.change)
    worse = False
    print(f"{'workload':<10} {'metric':<26} {'base median [q1, q3]':>40} "
          f"{'change median [q1, q3]':>40} {'pairs':>5}  verdict")
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        names = sorted({m for r in b_runs for m in r["result"]["metrics"]}
                       & {m for r in c_runs for m in r["result"]["metrics"]})
        for name in names:
            bs, cs = values(b_runs, name), values(c_runs, name)
            by_seed = {(r["seed"], r["trace"]): r["result"]["metrics"][name]["value"] for r in b_runs}
            pairs = [(by_seed[(r["seed"], r["trace"])], r["result"]["metrics"][name]["value"])
                     for r in c_runs if (r["seed"], r["trace"]) in by_seed]
            meta = spec.get(name, {"better": "lower", "bound": None})
            v = verdict(bs, cs, pairs, meta["better"], meta["bound"])
            worse = worse or v == "worse"
            bq, cq = quartiles(bs), quartiles(cs)
            side = lambda m, q: f"{m:.6g} [{q[0]:.6g}, {q[1]:.6g}]"
            print(f"{workload:<10} {name:<26} {side(statistics.median(bs), bq):>40} "
                  f"{side(statistics.median(cs), cq):>40} {len(pairs):>5}  {v}")
    sys.exit(1 if worse else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--out", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--workloads")
    s.add_argument("--seconds", type=int)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.set_defaults(run=sweep)
    s = sub.add_parser("spread")
    s.add_argument("file")
    s.set_defaults(run=spread)
    s = sub.add_parser("compare")
    s.add_argument("base")
    s.add_argument("change")
    s.set_defaults(run=compare)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
