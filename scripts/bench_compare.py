#!/usr/bin/env python3
"""Compares two Google Benchmark JSON reports, parent against change.

Usage: python3 scripts/bench_compare.py PARENT.json[:KEY] CHANGE.json[:KEY]

Each file is what a bench writes with `--json` (or
`--benchmark_format=json`), or a BENCH_<n>.json bundle holding several
such reports under named sections. FILE:KEY reads the bundle stored
under top-level KEY of FILE, so one BENCH_<n>.json can hold both sides:

    python3 scripts/bench_compare.py BENCH_16.json:parent BENCH_16.json:change
 For every benchmark name in both, it
prints the CPU time of the parent and of the change, in the parent's time
unit, and the ratio change / parent; with repetitions, the median of the
iteration runs. It then checks the deterministic counters (scanned,
comparisons, probes, materialized, answers, tuples, rows): the same
benchmark must report the same values on both sides, since a moved
counter means the change did different work, not the same work faster.

Exit status: 0 when no counter drifted, 1 when one did, 2 on bad input.
"""
import json
import statistics
import sys

DETERMINISTIC = ("scanned", "comparisons", "probes", "materialized",
                 "answers", "tuples", "rows")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fail(message):
    """Exits with status 2 (bad input), not 1, which means drift."""
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def reports(doc):
    """Yields (section, report) for a report or a bundle of reports."""
    if isinstance(doc, dict) and "benchmarks" in doc:
        yield "", doc
        return
    if isinstance(doc, dict):
        for section, value in doc.items():
            if isinstance(value, dict) and "benchmarks" in value:
                yield section, value


def load(arg):
    """{name: {"cpu_ns": [...], "unit": str, "counters": {c: [...]}}}."""
    path, _, key = arg.partition(":")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    if key:
        if not isinstance(doc, dict) or key not in doc:
            fail(f"no section '{key}' in {path}")
        doc = doc[key]
    runs = {}
    for section, report in reports(doc):
        for b in report["benchmarks"]:
            if b.get("run_type", "iteration") != "iteration":
                continue  # mean/median/stddev rows: recomputed below
            name = f"{section}:{b['name']}" if section else b["name"]
            unit = b.get("time_unit", "ns")
            entry = runs.setdefault(
                name, {"cpu_ns": [], "unit": unit, "counters": {}})
            entry["cpu_ns"].append(b["cpu_time"] * NS_PER_UNIT[unit])
            for counter in DETERMINISTIC:
                if counter in b:
                    entry["counters"].setdefault(counter, []).append(
                        b[counter])
    if not runs:
        fail(f"no benchmark runs in {path}")
    return runs


def same(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    drifts = []
    width = max(len(n) for n in parent)
    print(f"{'benchmark':<{width}}  {'parent':>12}  {'change':>12}  ratio")
    for name, p in parent.items():
        c = change.get(name)
        if c is None:
            print(f"{name:<{width}}  only in {argv[1]}")
            continue
        scale = NS_PER_UNIT[p["unit"]]
        p_cpu = statistics.median(p["cpu_ns"]) / scale
        c_cpu = statistics.median(c["cpu_ns"]) / scale
        ratio = c_cpu / p_cpu if p_cpu > 0 else float("nan")
        print(f"{name:<{width}}  {p_cpu:>10.4g}{p['unit']:>2}  "
              f"{c_cpu:>10.4g}{p['unit']:>2}  {ratio:.3f}")
        for counter in DETERMINISTIC:
            values = p["counters"].get(counter, []) + \
                c["counters"].get(counter, [])
            if counter in p["counters"] and counter in c["counters"] and \
                    not all(same(v, values[0]) for v in values):
                drifts.append(f"{name}: {counter} "
                              f"{sorted(set(p['counters'][counter]))} -> "
                              f"{sorted(set(c['counters'][counter]))}")
    for name in change:
        if name not in parent:
            print(f"{name:<{width}}  only in {argv[2]}")
    if drifts:
        print("\ncounter drift (the change did different work):")
        for d in drifts:
            print("  " + d)
        return 1
    print("\nno counter drift")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
