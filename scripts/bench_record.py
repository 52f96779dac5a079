"""Collect perfbench records into one committed BENCH_<n>.json file.

Run from the root of a checkout, after perfbench/run.py has written its
records (``.bench_out/<workload>-seed<n>-trace<t>.json``):

    python3 scripts/bench_record.py BENCH_6.json parent=../parent/.bench_out \\
        change=.bench_out

Each LABEL=DIR argument names a directory of records from one checkout.  A
label may be given several times (repeated runs copied aside into separate
directories); its records are pooled.  For each label the file holds:

* per workload, every untraced run's gated end-to-end metrics (the names
  come from BENCHMARK.json) and their medians over those runs;
* per workload and seed, the traced per-layer metrics: work counts and
  per-call times;
* the non-blank ``src/`` lines and the environment block of the runs.

Records from different sources under one label are an error.  Given the
labels ``parent`` and ``change``, it also prints a comparison: per workload
and gated metric both medians, change over parent, the metric's bound from
BENCHMARK.json and each side's quartiles; then the pairs the change won
(runs paired by seed, the k-th run of a seed under one label with the k-th
under the other; ties count for neither) and whether the medians differ by
more than the parent's interquartile range, the two tests a claimed gain
must pass.  Last come every traced seed-101 count (a per-layer metric of
unit ``count``) that differs between the two: a change meant to do the
parent's work shows it in one command.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys

_VOLATILE_ENV = ("loadavg_before", "loadavg_after")


def _load(directory: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json")))
    if not paths:
        raise SystemExit(f"no perfbench records in {directory}")
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def summarize(records: list[dict], gated: list[str]) -> dict:
    sources = {r["env"]["src_sha256"] for r in records}
    if len(sources) != 1:
        raise SystemExit(f"records from {len(sources)} different src/ trees under one label")
    env = {k: v for k, v in records[0]["env"].items() if k not in _VOLATILE_ENV}
    workloads: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        if r["trace"]:
            traced.setdefault(r["workload"], {})[str(r["seed"])] = {
                "correct": r["correct"], "digest": r["digest"],
                "untraced_targets": r["extra"].get("untraced_targets", []),
                "metrics": r["metrics"]}
            continue
        runs = workloads.setdefault(r["workload"], {"runs": []})["runs"]
        runs.append({"seed": r["seed"], "correct": r["correct"],
                     "digest": r["digest"], "attempted": r["attempted"],
                     "failed": r["failed"],
                     **{name: r["metrics"][name] for name in gated}})
    for entry in workloads.values():
        entry["median"] = {name: statistics.median(run[name] for run in entry["runs"])
                           for name in gated}
    return {"src_nonblank_lines": env.pop("src_nonblank_lines"), "env": env,
            "workloads": workloads, "traced": traced}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _by_seed(runs: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for run in runs:
        out.setdefault(run["seed"], []).append(run)
    return out


def _pairs(before: list[dict], after: list[dict]) -> list[tuple[dict, dict]]:
    """Runs paired by seed: the k-th run of a seed in before with the k-th in after."""
    b, a = _by_seed(before), _by_seed(after)
    return [pair for seed in sorted(b.keys() & a.keys()) for pair in zip(b[seed], a[seed])]


def compare(out: dict, benchmark: dict) -> list[str]:
    """The comparison lines of labels "change" against "parent" in out."""
    parent, change = out["labels"]["parent"], out["labels"]["change"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    lower = {metric["name"]: metric["better"] == "lower" for metric in benchmark["end_to_end"]}
    lines = [f"{'workload':<10}{'metric':<13}{'parent':>11}{'change':>11}{'ratio':>8}{'bound':>7}"
             f"{'parent q1-q3':>24}{'change q1-q3':>24}{'won':>8}  gap>IQR"]
    for workload in sorted(parent["workloads"].keys() & change["workloads"].keys()):
        before_runs = parent["workloads"][workload]["runs"]
        after_runs = change["workloads"][workload]["runs"]
        before = parent["workloads"][workload]["median"]
        after = change["workloads"][workload]["median"]
        pairs = _pairs(before_runs, after_runs)
        for name in out["gated_metrics"]:
            ratio = after[name] / before[name] if before[name] else math.nan
            p1, p3 = _quartiles([run[name] for run in before_runs])
            c1, c3 = _quartiles([run[name] for run in after_runs])
            won = sum((b[name] < a[name]) if lower[name] else (b[name] > a[name])
                      for a, b in pairs)
            gap = "yes" if abs(after[name] - before[name]) > p3 - p1 else "no"
            lines.append(f"{workload:<10}{name:<13}{before[name]:>11.4g}{after[name]:>11.4g}"
                         f"{ratio:>8.3f}{bounds[name]:>7g}{f'{p1:.4g}-{p3:.4g}':>24}"
                         f"{f'{c1:.4g}-{c3:.4g}':>24}{f'{won}/{len(pairs)}':>8}  {gap}")
    counts = [metric["name"] for metric in benchmark["per_layer"] if metric["unit"] == "count"]
    compared, differ = [], []
    for workload in sorted(parent["traced"].keys() & change["traced"].keys()):
        before = parent["traced"][workload].get("101")
        after = change["traced"][workload].get("101")
        if before is None or after is None:
            continue
        compared.append(workload)
        for name in counts:
            a, b = before["metrics"].get(name), after["metrics"].get(name)
            if a != b:
                differ.append(f"{workload} {name}: parent {a}, change {b}")
    if not compared:
        return lines + ["no traced seed-101 record under both labels"]
    return lines + (differ or [f"every traced seed-101 count matches ({', '.join(compared)})"])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all("=" in arg for arg in argv[1:]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    gated = [metric["name"] for metric in benchmark["end_to_end"]]
    pooled: dict[str, list[dict]] = {}
    for arg in argv[1:]:
        label, directory = arg.split("=", 1)
        pooled.setdefault(label, []).extend(_load(directory))
    out = {"gated_metrics": gated,
           "labels": {label: summarize(records, gated)
                      for label, records in pooled.items()}}
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if {"parent", "change"} <= out["labels"].keys():
        print("\n".join(compare(out, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
