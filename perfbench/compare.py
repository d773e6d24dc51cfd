#!/usr/bin/env python3
"""Collects benchmark runs and judges them by the rules of BENCHMARK.json.

Subcommands (python3 stdlib only):

  collect  Run one workload over several seeds in one checkout:
             compare.py collect --checkout DIR --workload W --seeds 1-10 \\
                 --out runs.jsonl
  pairs    Run parent/change pairs, alternating which side goes first, the
           same seed within a pair:
             compare.py pairs --parent DIR --change DIR --workload W \\
                 --pairs 10 --out pairs.jsonl
  report   Per workload and end-to-end metric: each side's median and
           quartiles, pair wins and a verdict (gain / regression / within
           bound / unresolved):
             compare.py report pairs.jsonl
  spread   The spread of each metric over the runs of one side — the
           distance between the quartiles as a share of the median —
           against its bound:
             compare.py spread runs.jsonl
  agree    Whether two sets of runs of the same code agree: every median
           of the second set within its metric's bound of the first:
             compare.py agree first.jsonl second.jsonl

Rules (see "Comparing two commits" in perfbench/README.md): a gain
needs the change to win at least 9/10 of the pairs, ties counting for
neither, and a median gap wider than the parent's quartile distance, with no
more failed operations than the parent. A metric whose parent spread
exceeds its bound is unresolved unless every change run beats every parent
run. A regression is a change median worse than the parent's by more than
the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec(path):
    return json.loads(pathlib.Path(path).read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """Runs the benchmark command of a checkout; returns its result line."""
    spec = load_spec(pathlib.Path(checkout) / "BENCHMARK.json")
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no "
                         f"result (exit {proc.returncode})")
    return json.loads(lines[-1])


def append(out, record):
    with open(out, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record), file=sys.stderr)


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records, side=None):
    groups = {}
    for r in records:
        if side is None or r.get("side") == side:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def cmd_collect(args):
    seconds = args.seconds or load_spec(ROOT / "BENCHMARK.json")["run_seconds"]
    for seed in parse_seeds(args.seeds):
        line = run_once(args.checkout, args.workload, seed, seconds, args.trace)
        append(args.out, {"workload": args.workload, "seed": seed,
                          "trace": args.trace, "side": args.side,
                          "result": line})


def cmd_pairs(args):
    seconds = args.seconds or load_spec(ROOT / "BENCHMARK.json")["run_seconds"]
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            line = run_once(checkout, args.workload, seed, seconds, 0)
            append(args.out, {"workload": args.workload, "seed": seed,
                              "trace": 0, "side": side, "result": line})


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    p = {r["seed"]: r for r in parent}
    c = {r["seed"]: r for r in change}
    seeds = sorted(set(p) & set(c))
    pv = values([p[s] for s in seeds], metric["name"])
    cv = values([c[s] for s in seeds], metric["name"])
    if not pv or len(pv) != len(cv):
        return None
    wins = sum(better(b, a) for a, b in zip(pv, cv))
    pq1, pm, pq3 = quartiles(pv)
    cq1, cm, cq3 = quartiles(cv)
    spread = (pq3 - pq1) / pm if pm else 0.0
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    every = all(better(b, a) for a in pv for b in cv)
    failed_p = sum(p[s]["result"]["failed"] for s in seeds)
    failed_c = sum(c[s]["result"]["failed"] for s in seeds)
    if spread > metric["bound"] and not every:
        text = "unresolved"
    elif (wins >= 0.9 * len(seeds) and abs(cm - pm) > pq3 - pq1
          and failed_c <= failed_p):
        text = "gain"
    elif worse > metric["bound"]:
        text = "regression"
    else:
        text = "within bound"
    return (f"{metric['name']:<14} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
            f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {metric['unit']}  "
            f"wins {wins}/{len(seeds)}  change {-worse:+.1%}  "
            f"spread {spread:.1%} (bound {metric['bound']:.0%})  {text}")


def cmd_report(args):
    spec = load_spec(args.bench)
    records = read_records(args.file)
    parents = by_workload(records, "parent")
    changes = by_workload(records, "change")
    for workload in sorted(parents):
        runs = parents[workload] + changes.get(workload, [])
        wrong = [r["seed"] for r in runs if not r["result"]["correct"]]
        print(f"== {workload}" + (f"  WRONG ANSWERS at seeds {wrong}"
                                  if wrong else ""))
        for metric in spec["end_to_end"]:
            row = verdict(metric, parents[workload], changes.get(workload, []))
            if row:
                print("  " + row)


def cmd_spread(args):
    spec = load_spec(args.bench)
    failing = 0
    for workload, runs in sorted(by_workload(read_records(args.file)).items()):
        print(f"== {workload} ({len(runs)} runs)")
        for metric in spec["end_to_end"]:
            v = values(runs, metric["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else 0.0
            over = spread > metric["bound"] and metric["name"] != "setup_s"
            failing += over
            third = "" if spread < metric["bound"] / 3 else "  (over a third)"
            print(f"  {metric['name']:<14} median {med:.6g} [{q1:.6g}, "
                  f"{q3:.6g}] {metric['unit']}  spread {spread:.1%} of bound "
                  f"{metric['bound']:.0%}{'  OVER BOUND' if over else third}")
    return 1 if failing else 0


def cmd_agree(args):
    spec = load_spec(args.bench)
    first = by_workload(read_records(args.first))
    second = by_workload(read_records(args.second))
    failing = 0
    for workload in sorted(first):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            a = values(first[workload], metric["name"])
            b = values(second.get(workload, []), metric["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            lower = metric["better"] == "lower"
            worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            over = worse > metric["bound"]
            failing += over
            print(f"  {metric['name']:<14} {ma:.6g} -> {mb:.6g} "
                  f"{metric['unit']}  worse by {worse:+.1%} (bound "
                  f"{metric['bound']:.0%}){'  OVER BOUND' if over else ''}")
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect")
    collect.add_argument("--checkout", default=str(ROOT))
    collect.add_argument("--workload", required=True)
    collect.add_argument("--seeds", default="1-10")
    collect.add_argument("--seconds", type=float)
    collect.add_argument("--trace", type=int, default=0, choices=(0, 1))
    collect.add_argument("--side", default="parent")
    collect.add_argument("--out", required=True)

    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--first-seed", type=int, default=1000)
    pairs.add_argument("--seconds", type=float)
    pairs.add_argument("--out", required=True)

    for name in ("report", "spread"):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))

    agree = sub.add_parser("agree")
    agree.add_argument("first")
    agree.add_argument("second")
    agree.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))

    args = parser.parse_args()
    if args.command == "pairs" and args.pairs < 10:
        parser.error("a claim needs at least 10 pairs")
    handler = {"collect": cmd_collect, "pairs": cmd_pairs,
               "report": cmd_report, "spread": cmd_spread,
               "agree": cmd_agree}[args.command]
    return handler(args) or 0


if __name__ == "__main__":
    sys.exit(main())
