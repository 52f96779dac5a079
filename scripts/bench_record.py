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

Records from different sources under one label are an error.
"""

from __future__ import annotations

import glob
import json
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


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all("=" in arg for arg in argv[1:]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        gated = [metric["name"] for metric in json.load(fh)["end_to_end"]]
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
