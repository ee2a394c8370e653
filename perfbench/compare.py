"""Series of runs, their spread, and parent-versus-change comparison.

    python3 perfbench/compare.py series --workload study --seeds 1-10 --out parent.jsonl
    python3 perfbench/compare.py spread parent.jsonl
    python3 perfbench/compare.py compare parent.jsonl change.jsonl

``series`` runs ``perfbench/run.py`` once per seed with the settings of
``BENCHMARK.json`` and appends each record to ``--out``. ``spread`` prints,
per workload and end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median, against the metric's
bound. ``compare`` prints one row per workload and end-to-end metric: parent
median, change median, their ratio, the change's wins over runs of the same
seed, and a verdict. The verdict is "unresolved" where either side's spread is
wider than the bound, unless every change run beats every parent run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def load(path):
    """{workload: {seed: end-to-end values}} from a JSON-lines file of records."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            out.setdefault(record["workload"], {})[record["seed"]] = record["end_to_end"]
    return out


def spread(values):
    """(median, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def _better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def cmd_series(args):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    for workload in args.workload:
        for seed in seeds:
            cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds or BENCHMARK["run_seconds"]), "--trace", "0",
                   "--out", str(Path(args.out).resolve())]
            done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-2000:])
    cmd_spread(argparse.Namespace(file=args.out))


def cmd_spread(args):
    runs = load(args.file)
    print(f"{'workload':<12} {'metric':<22} {'runs':>4} {'median':>12} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload, by_seed in sorted(runs.items()):
        for name, metric in METRICS.items():
            median, share = spread([v[name] for v in by_seed.values()])
            bound = metric["bound"]
            verdict = ("steady" if share < bound / 3 else
                       "inside bound" if share <= bound else "WIDER THAN BOUND")
            print(f"{workload:<12} {name:<22} {len(by_seed):>4} {median:>12.4f} "
                  f"{share:>7.3f} {bound:>6.2f}  {verdict}")


def cmd_compare(args):
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<12} {'metric':<22} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'wins':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<12} (only in {'parent' if workload in parent else 'change'})")
            continue
        before, after = parent[workload], change[workload]
        for name, metric in METRICS.items():
            p_vals = [v[name] for v in before.values()]
            c_vals = [v[name] for v in after.values()]
            p_med, p_spread = spread(p_vals)
            c_med, c_spread = spread(c_vals)
            ratio = c_med / p_med if p_med else float("inf")
            paired = sorted(set(before) & set(after))
            wins = sum(_better(metric, after[s][name], before[s][name]) for s in paired)
            worse = (1.0 - ratio) if metric["better"] == "higher" else (ratio - 1.0)
            bound = metric["bound"]
            if all(_better(metric, c, p) for c in c_vals for p in p_vals):
                verdict = "better in every run"
            elif max(p_spread, c_spread) > bound:
                verdict = "unresolved (spread wider than bound)"
            elif worse > bound:
                verdict = "WORSE than bound"
            elif -worse > p_spread and len(paired) and wins >= 0.9 * len(paired):
                verdict = "better"
            else:
                verdict = "inside bound"
            print(f"{workload:<12} {name:<22} {p_med:>12.4f} {c_med:>12.4f} {ratio:>7.3f} "
                  f"{wins:>3}/{len(paired):<2}  {verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("series", help="run the benchmark once per seed")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_series)
    p = sub.add_parser("spread", help="median and quartile spread per metric")
    p.add_argument("file")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("compare", help="parent against change, one row per metric")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
