#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py <base-results-dir> <new-results-dir>

Each directory holds the `*-trace0.json` files that `perfbench/run.py`
writes to `.bench_out/results/` (copy them aside between runs), one per
(workload, seed). For every (workload, end-to-end metric) pair the script
prints both medians over the runs, the spread of each side (interquartile
range over median, as `statistics.quantiles(values, n=4)` gives it) and a
verdict under the metric's bound from BENCHMARK.json:

  unresolved  a side's spread exceeds the bound, and not every new run
              beats every base run
  worse       the new median is worse than the base by more than the bound
  better      the new median is better by more than either side's spread,
              and new runs beat base runs in at least 90% of all pairings
  unchanged   otherwise
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: [result, ...]} of the untraced results in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], []).append(r)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    gain = sign * (mn - mb) / mb if mb else 0.0
    wins = sum(sign * (n - b) > 0 for n in new for b in base) / (len(new) * len(base))
    noise = max(spread(base), spread(new))
    if noise > bound and wins < 1.0:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > noise and wins >= 0.9:
        return "better"
    return "unchanged"


def host(runs):
    """Distinct host facts of a result set, and its largest CPU steal share."""
    facts, steal = set(), 0.0
    for rs in runs.values():
        for r in rs:
            h = dict(r["host"])
            steal = max(steal, h.pop("cpu_steal_share", 0.0))
            facts.add(json.dumps(h, sort_keys=True))
    return f"{'; '.join(sorted(facts))}; CPU steal share up to {steal:.1%}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    print(f"base host: {host(base)}")
    print(f"new host:  {host(new)}")
    header = f"{'workload':<14} {'metric':<14} {'base':>12} {'new':>12} {'change':>8} {'spread b/n':>15}  verdict"
    print(header)
    print("-" * len(header))
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base.get(name, []) if r["correct"]]
            n = [r["metrics"][m["name"]]["value"] for r in new.get(name, []) if r["correct"]]
            if not b or not n:
                print(f"{name:<14} {m['name']:<14} {'-':>12} {'-':>12} {'':>8} {'':>15}  missing")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            print(
                f"{name:<14} {m['name']:<14} {mb:>12.5g} {mn:>12.5g} {change:>+8.1%} "
                f"{spread(b):>7.1%}/{spread(n):<7.1%}  {verdict(b, n, m['better'], m['bound'])}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
