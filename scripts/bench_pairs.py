"""Run alternating parent/change perfbench pairs and compare them.

Run from the root of a checkout:

    python3 scripts/bench_pairs.py PARENT_CHECKOUT --workload strategy --seeds 101-110

For each seed, ``perfbench/run.py --workload W --seed s --seconds 16
--trace 0`` runs once in PARENT_CHECKOUT and once in this checkout, one
after the other: the parent first on odd seeds, this checkout first on even
ones.  perfbench overwrites ``.bench_out/<workload>-seed<n>-trace0.json`` on
every run, so each record is copied aside at once, into its own directory
``.bench_pairs/<workload>-seed<n>/<parent|change>/``.  Last it prints
``scripts/bench_record.py``'s parent/change comparison over all the pairs:
medians, quartiles, pairs won and whether the medians differ by more than
the parent's interquartile range.  Those directories can also be given to
``bench_record.py`` as ``parent=DIR`` and ``change=DIR`` arguments.

Exits 1 when a run fails or reads incorrect, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from bench_record import compare, summarize
from ops import parse_seeds

PAIRS_DIR = ".bench_pairs"
SECONDS = "16"


def _run(checkout: str, workload: str, seed: int, dest: str) -> dict:
    """One untraced perfbench run in checkout; its record, copied to dest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", "0"],
        cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout} at seed {seed}: {proc.stderr.strip()}")
    name = f"{workload}-seed{seed}-trace0.json"
    os.makedirs(dest, exist_ok=True)
    shutil.copyfile(os.path.join(checkout, ".bench_out", name), os.path.join(dest, name))
    with open(os.path.join(dest, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", metavar="PARENT_CHECKOUT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, metavar="LO-HI")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    gated = [metric["name"] for metric in benchmark["end_to_end"]]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    records: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in parse_seeds(args.seeds):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for label in order:
            dest = os.path.join(PAIRS_DIR, f"{args.workload}-seed{seed}", label)
            records[label].append(_run(checkouts[label], args.workload, seed, dest))
        run_s = {label: records[label][-1]["metrics"]["run_s"] for label in order}
        print(f"seed {seed}: {order[0]} first; run_s parent {run_s['parent']:.4g} s, "
              f"change {run_s['change']:.4g} s", flush=True)
    out = {"gated_metrics": gated,
           "labels": {label: summarize(runs, gated) for label, runs in records.items()}}
    print("\n".join(compare(out, benchmark)))
    incorrect = [f"{label} seed {r['seed']}" for label, runs in records.items()
                 for r in runs if not r["correct"] or r["failed"]]
    if incorrect:
        print("incorrect or failed ops: " + ", ".join(incorrect))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
