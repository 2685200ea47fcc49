#!/usr/bin/env python3
"""Collects yardstick results and compares two sets of them.

    python3 yardstick/compare.py collect OUT.jsonl [OUT2.jsonl ...]
            [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 yardstick/compare.py spread RESULTS.jsonl
    python3 yardstick/compare.py compare BASE.jsonl CHANGE.jsonl

`collect` runs yardstick/run.py once per workload, seed and output file
and appends one line per run to that file: {"workload", "seed", "trace",
"result"}. With several output files, the runs of one workload and seed
follow each other, one per file, so that a phase of the host's load
falls on every set alike (two sets of the same code should then agree
within the bounds). Seconds default to BENCHMARK.json's run_seconds;
workloads to all of its workloads.

`spread` prints, per workload and metric, the median, the quartiles and
the spread (q3 - q1) / median, and marks end-to-end metrics whose spread
is not below a third of their bound.

`compare` prints, per workload and metric, each side's median and
quartiles. An end-to-end metric is a regression when the change's median
is worse than the base's by more than its bound, and unresolved when
either side's spread exceeds the bound (unless every change run beats
every base run). Work counters are deterministic per seed on the serial
workloads: any difference between two runs of one workload and seed,
within a side or across sides, is reported as COUNTER DRIFT, a
correctness bug.

Both `spread` and `compare` report a run with correct=false or an ok_frac
below 1 as WRONG ANSWERS: any answer the harness could not confirm, and
any drift of the counters inside a run, is a correctness bug, whatever
the bounds say. Exit status 1 on a regression, drift or wrong answers.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SHAPES = ["complement-join", "universal", "disjunctive-filter",
          "producer-disjunction", "nested-exists"]
# Counters that repeat exactly for one seed on every workload: the
# per-shape yardstick runs serially on each workload's database.
SHAPE_COUNTERS = [f"{engine}.{shape}.scanned"
                  for engine in ("exec", "nestedloop") for shape in SHAPES]
# Counters over each run's fixed op prefix; exact on the serial workloads
# only (service-mixed's parallel passes race to the first witness).
OP_COUNTERS = ["exec.scanned_per_op", "exec.comparisons_per_op",
               "exec.probes_per_op", "exec.materialized_per_op",
               "exec.scanned_per_answer", "columnar.segments_per_op",
               "columnar.pruned_frac"]
SERIAL_WORKLOADS = {"lookup-zipf", "integrity-ingest"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def counters_for(workload):
    if workload in SERIAL_WORKLOADS:
        return SHAPE_COUNTERS + OP_COUNTERS
    return SHAPE_COUNTERS


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def by_metric(runs):
    """{(workload, trace): {metric: [values]}}"""
    table = defaultdict(lambda: defaultdict(list))
    for run in runs:
        key = (run["workload"], run["trace"])
        for name, metric in run["result"]["metrics"].items():
            table[key][name].append(metric["value"])
    return table


def wrong_answers(runs):
    """Runs whose answers the harness did not confirm."""
    problems = []
    for run in runs:
        result = run["result"]
        ok_frac = result["metrics"].get("ok_frac", {}).get("value", 1)
        if not result["correct"] or ok_frac < 1:
            problems.append(
                f"WRONG ANSWERS {run['workload']} seed {run['seed']} "
                f"trace {run['trace']}: correct={result['correct']} "
                f"failed={result['failed']} of {result['attempted']}")
    return problems


def drift(runs_a, runs_b=()):
    """Counter mismatches between runs of one workload and seed."""
    seen = {}
    problems = []
    for side, runs in (("base", runs_a), ("change", runs_b)):
        for run in runs:
            if run["trace"] != 1:
                continue
            metrics = run["result"]["metrics"]
            for name in counters_for(run["workload"]):
                if name not in metrics:
                    continue
                key = (run["workload"], run["seed"], name)
                value = metrics[name]["value"]
                if key in seen and seen[key][1] != value:
                    problems.append(
                        f"COUNTER DRIFT {run['workload']} seed {run['seed']} "
                        f"{name}: {seen[key][0]} {seen[key][1]} vs "
                        f"{side} {value}")
                seen.setdefault(key, (side, value))
    return problems


def cmd_collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    seconds = args.seconds or spec["run_seconds"]
    for workload in workloads:
        for seed in seeds:
            for path in args.out:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed "
                          f"({proc.returncode})", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                with open(path, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "trace": args.trace,
                                          "result": result}) + "\n")
                print(f"{workload} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)
    return 0


def cmd_spread(args):
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    runs = load(args.results)
    status = 0
    for (workload, trace), metrics in sorted(by_metric(runs).items()):
        print(f"== {workload} (trace {trace}, {len(runs)} runs in file)")
        for name, values in sorted(metrics.items()):
            q1, med, q3 = quartiles(values)
            spread = spread_of(values)
            mark = ""
            if trace == 0 and name in bounds:
                ok = spread < bounds[name] / 3
                mark = (f"  bound {bounds[name]}: "
                        f"{'ok' if ok else 'NOT below bound/3'}")
                if not ok and name != "setup_s":
                    status = 1
            print(f"  {name:36s} n={len(values):2d} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3%}{mark}")
    for problem in wrong_answers(runs) + drift(runs):
        print(problem)
        status = 1
    return status


def worse_by(base, change, better):
    """Share by which `change` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    delta = (change - base) / base
    return delta if better == "lower" else -delta


def cmd_compare(args):
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base_runs, change_runs = load(args.base), load(args.change)
    base, change = by_metric(base_runs), by_metric(change_runs)
    status = 0
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        names = sorted(set(base[key]) | set(change[key]))
        for name in names:
            a, b = base[key].get(name), change[key].get(name)
            if not a or not b:
                print(f"  {name:36s} present on one side only")
                continue
            qa, qb = quartiles(a), quartiles(b)
            line = (f"  {name:36s} base {qa[1]:.6g} [{qa[0]:.6g}, "
                    f"{qa[2]:.6g}]  change {qb[1]:.6g} [{qb[0]:.6g}, "
                    f"{qb[2]:.6g}]")
            metric = e2e.get(name)
            if trace == 0 and metric is not None:
                bound = metric["bound"]
                worse = worse_by(qa[1], qb[1], metric["better"])
                all_better = all(
                    worse_by(x, y, metric["better"]) < 0
                    for x in a for y in b)
                if max(spread_of(a), spread_of(b)) > bound and not all_better:
                    verdict = "unresolved (spread exceeds bound)"
                elif worse > bound:
                    verdict = f"REGRESSION {worse:+.1%} > {bound:.0%}"
                    status = 1
                elif worse > 0:
                    verdict = f"{worse:.1%} worse, within bound"
                else:
                    verdict = f"{-worse:.1%} better"
                line += f"  {verdict}"
            print(line)
    problems = (wrong_answers(base_runs) + wrong_answers(change_runs) +
                drift(base_runs, change_runs))
    for problem in problems:
        print(problem)
        status = 1
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("out", nargs="+")
    collect.add_argument("--workloads")
    collect.add_argument("--seeds", default="1-10")
    collect.add_argument("--seconds", type=int)
    collect.add_argument("--trace", type=int, choices=[0, 1], default=0)
    spread = sub.add_parser("spread")
    spread.add_argument("results")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args()
    handlers = {"collect": cmd_collect, "spread": cmd_spread,
                "compare": cmd_compare}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
