#!/usr/bin/env python3
"""Compare two commits with the end-to-end benchmark, one row per
(workload, metric).

Run alternating pairs (both checkouts must hold the same e2ebench/ directory,
so the benchmark code is identical on both sides):

    python3 e2ebench/compare.py run --parent ../parent --change . \\
        --pairs 10 --out pairs.jsonl

Judge them:

    python3 e2ebench/compare.py judge pairs.jsonl

Rules, per (workload, metric), over n >= 10 pairs run on the same seed:
  gain         the change is better in at least 9/10 of the pairs (ties count
               for neither) and the medians differ by more than the parent's
               interquartile range;
  unresolved   the parent's or the change's spread (IQR / median) exceeds the
               metric's bound, unless every change run reads better than every
               parent run;
  regression   the change's median is worse than the parent's by more than
               the bound;
  within bound otherwise.
Per-layer metrics (--trace 1 runs) have no bound; their rows show medians
and wins only.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Applies the rules in the module docstring to paired runs."""
    n = len(parent)
    if n < 10:
        return f"too few pairs ({n} < 10)"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= math.ceil(0.9 * n) and abs(cm - pm) > p3 - p1 and sign * (cm - pm) > 0:
        return "gain"
    if bound is None:
        return "-"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) < 0 and abs(cm - pm) > bound * abs(pm):
        return "regression"
    return "within bound"


def judge(lines, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {}  # (workload, trace, pair) -> {side: metrics}
    for rec in lines:
        key = (rec["workload"], rec["trace"], rec["pair"])
        runs.setdefault(key, {})[rec["side"]] = rec["result"]["metrics"]
    table = {}
    for (workload, trace, _), sides in sorted(runs.items()):
        if "parent" not in sides or "change" not in sides:
            continue
        for name in sides["parent"]:
            if name in sides["change"]:
                row = table.setdefault((workload, trace, name), ([], []))
                row[0].append(sides["parent"][name]["value"])
                row[1].append(sides["change"][name]["value"])
    rows = []
    for (workload, trace, name), (parent, change) in sorted(table.items()):
        m = metrics.get(name, {"better": "lower", "unit": "?"})
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                     "pairs": len(parent), "parent": [p1, pm, p3], "change": [c1, cm, c3],
                     "wins": wins, "base": pm, "ratio": cm / pm if pm else float("nan"),
                     "verdict": verdict(parent, change, m["better"], m.get("bound"))})
    return rows


def run_pairs(args):
    spec_seconds = args.seconds
    if spec_seconds is None:
        with open(os.path.join(args.change, "BENCHMARK.json")) as f:
            spec_seconds = json.load(f)["run_seconds"]
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        workloads = args.workloads.split(",") if args.workloads else [
            w["name"] for w in json.load(f)["workloads"]]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    root = getattr(args, side)
                    got = subprocess.run(
                        ["python3", os.path.join("e2ebench", "run.py"), "--workload", workload,
                         "--seed", str(seed), "--seconds", str(spec_seconds),
                         "--trace", str(args.trace)],
                        cwd=root, capture_output=True, text=True)
                    if got.returncode != 0:
                        sys.exit(f"{side} run failed:\n{got.stderr[-2000:]}")
                    result = json.loads(got.stdout.strip().splitlines()[-1])
                    out.write(json.dumps({"side": side, "workload": workload, "pair": pair,
                                          "seed": seed, "trace": args.trace,
                                          "result": result}) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: correct={result['correct']}",
                          file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="root of the parent checkout")
    r.add_argument("--change", required=True, help="root of the changed checkout")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--workloads", help="comma-separated; default all")
    r.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--first-seed", type=int, default=1000)
    r.add_argument("--out", required=True, help="JSON-lines file to append to")
    j = sub.add_parser("judge", help="judge pairs from a JSON-lines file")
    j.add_argument("pairs_file")
    j.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    j.add_argument("--json", action="store_true", help="print rows as JSON")
    args = parser.parse_args()

    if args.cmd == "run":
        run_pairs(args)
        return 0
    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.pairs_file) as f:
        rows = judge([json.loads(line) for line in f if line.strip()], spec)
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'workload':<12} {'metric':<36} {'n':>3} {'parent median [q1,q3]':>34} "
          f"{'change median [q1,q3]':>34} {'wins':>5} {'change/parent':>13}  verdict")
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        print(f"{row['workload']:<12} {row['metric']:<36} {row['pairs']:>3} "
              f"{pm:>12.5g} [{p1:.5g},{p3:.5g}] {cm:>12.5g} [{c1:.5g},{c3:.5g}] "
              f"{row['wins']:>5} {row['ratio']:>13.4f}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
