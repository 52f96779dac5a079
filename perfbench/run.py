"""The breakaway benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload strategy --seed 1 --seconds 16 --trace 0

The program is imported from the checkout's own ``src/`` and compared with
its own ``tests/golden``.  Workloads (see workloads.py):

strategy  in-process fatigue optima, flat sweeps and three golden sweeps
terrain   in-process full-dynamics terrain rides (RK45 and BDF)
validate  in-process crash Monte Carlo, microstructure, quasi-steady terrain
cli       cold ``python -m breakaway.cli`` processes, one at a time

All are closed loops with one client, serial (``output.jobs`` = 1).

With ``--trace 0`` the run starts SETUPS fresh worker processes one after
the other.  Each worker's set-up time runs from its launch until it has
imported ``breakaway.cli`` and finished one untimed warm-up op; for ``cli``
set-up is a bare ``import breakaway.cli`` in a fresh interpreter.  The
workers then share ``--seconds`` of whole passes over the seeded op list:
each gets an equal part of what the earlier ones left, so a worker may run
none when passes are long.

With ``--trace 1`` one worker runs an untraced pass and two traced passes
(spans.py); the per-layer figures are per pass, and the work counts must
repeat exactly between the two traced passes.  ``-X importtime`` gives the
import breakdown.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it give the environment, the output digest
and every metric with its unit.  Exit code 2 means the checkout could not
be measured (no ``src/breakaway`` here, a worker died or ran out of time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5              # fresh processes per run; set-up time is their median
IMPORT_REPEATS = 3      # -X importtime runs per traced run
DEADLINE_S = 170.0      # the whole run, set-up included
OUT_DIR = ".bench_out"

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB", "golden_ratio": "ratio"}


class BenchError(Exception):
    """The checkout could not be measured."""


# -- environment --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def _git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_stats() -> tuple[int, str]:
    """Non-blank lines under src/ and a digest of the sources."""
    lines = 0
    h = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(path.encode() + b"\0" + data)
            lines += sum(1 for line in data.splitlines() if line.strip())
    return lines, h.hexdigest()


def environment() -> dict:
    lines, digest = _source_stats()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": digest,
        "src_nonblank_lines": lines,
    }


# -- processes ----------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


class _Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0.0:
            raise BenchError("out of time")
        return left


def _start_worker(plan_path: str, deadline: _Deadline, share_s: float = 0.0):
    """Launch one worker; returns (set-up seconds, result dict)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, plan_path, repr(share_s)],
                            stdout=subprocess.PIPE, text=True, env=_worker_env())
    watchdog = threading.Timer(deadline.left(), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY":
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    last = rest.strip().splitlines()[-1] if rest.strip() else ""
    if code != 0 or not last.startswith("RESULT "):
        raise BenchError(f"worker failed (exit code {code})")
    return setup, json.loads(last[len("RESULT "):])


def _timed_import(deadline: _Deadline, importtime: bool = False):
    """Seconds for a fresh interpreter to `import breakaway.cli` (and stderr)."""
    args = [sys.executable] + (["-X", "importtime"] if importtime else [])
    start = time.perf_counter()
    proc = subprocess.run(args + ["-c", "import breakaway.cli"], env=_worker_env(),
                          capture_output=True, text=True, timeout=deadline.left())
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import breakaway.cli failed: {proc.stderr.strip()[-300:]}")
    return seconds, proc.stderr


def import_breakdown(stderr: str) -> dict[str, float]:
    """numpy, scipy and the rest of `import breakaway.cli`, from -X importtime.

    scipy counts every outermost scipy.* import; breakaway is the cumulative
    time of the top-level breakaway imports minus numpy and scipy.
    """
    entries = []  # (depth, name, cumulative seconds), in completion order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    numpy_s = scipy_s = breakaway_s = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, seconds in reversed(entries):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = [a for _, a in ancestors]
        if name == "numpy":
            numpy_s += seconds
        elif name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in inside):
            scipy_s += seconds
        elif depth == 0 and name.split(".")[0] == "breakaway":
            breakaway_s += seconds
        ancestors.append((depth, name))
    return {"import.numpy_s": numpy_s, "import.scipy_s": scipy_s,
            "import.breakaway_s": breakaway_s - numpy_s - scipy_s}


# -- the two kinds of run -----------------------------------------------------


def _write_plan(plan: dict, name: str, **extra) -> str:
    path = os.path.join(workloads.TMP_DIR, f"plan-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(plan, **extra), fh)
    return path


def _median(values):
    return statistics.median(values) if values else 0.0


def _kernel_factor() -> float:
    """Reference over current kernel time, measured right now."""
    return calibration.REFERENCE_S / calibration.time_kernel(5)


def run_untraced(plan: dict, seconds: float, deadline: _Deadline):
    """Set-up times and passes of SETUPS workers, reported at reference speed.

    Each set-up is adjusted by the kernel timed just before it, each op by
    the kernel timed between the ops just before it (calibration.py).
    """
    calibration.kernel()  # untimed: imports numpy here before anything is timed
    setups, factors, results = [], [], []
    if plan["workload"] == "cli":
        for _ in range(SETUPS):
            factors.append(_kernel_factor())
            setups.append(_timed_import(deadline)[0])
        path = _write_plan(plan, "cli", mode="cli")
        results.append(_start_worker(path, deadline, seconds)[1])
    else:
        path = _write_plan(plan, "inproc", mode="inproc")
        spent = 0.0
        for k in range(SETUPS):
            factors.append(_kernel_factor())
            share = (seconds - spent) / (SETUPS - k)
            setup, result = _start_worker(path, deadline, share)
            spent += result["timed_s"]
            setups.append(setup)
            results.append(result)

    passes = [p for r in results for p in r["passes"]]
    adjusted = [[t * calibration.REFERENCE_S / c for t, c in zip(p["op_s"], p["kernel_s"])]
                for p in passes]
    golden_ops = sum(p["golden_ops"] for p in passes)

    def timings(per_pass, setup_times):
        op_s = [t for times in per_pass for t in times]
        # each op's median over the passes: a burst of load on the host
        # spoils one sample of one op rather than a whole pass
        op_median = [_median([times[k] for times in per_pass])
                     for k in range(len(plan["ops"]))]
        return {
            "setup_s": _median(setup_times),
            "run_s": sum(op_median),
            "op_p50_s": _median(op_s),
            "op_p90_s": statistics.quantiles(op_s, n=10)[8] if len(op_s) >= 100 else None,
        }, op_median

    raw, _ = timings([p["op_s"] for p in passes], setups)
    times, op_median = timings(adjusted, [t * f for t, f in zip(setups, factors)])
    metrics = {
        "setup_s": times["setup_s"],
        "run_s": times["run_s"],
        "op_p50_s": times["op_p50_s"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "golden_ratio": sum(p["golden_same"] for p in passes) / max(golden_ops, 1),
    }
    kernel_s = [c for r in results for c in r["calibration_s"]]
    extra = {
        "op_p90_s": times["op_p90_s"],
        "raw_s": raw,
        "kernel_median_s": _median(kernel_s),
        "kernel_setup_factors": factors,
        "passes": len(passes),
        "golden_ops": golden_ops,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setups_s": setups,
        "op_median_s": {op["id"]: t for op, t in zip(plan["ops"], op_median)},
    }
    return metrics, extra, results, passes


def run_traced(plan: dict, deadline: _Deadline):
    imports = [import_breakdown(_timed_import(deadline, importtime=True)[1])
               for _ in range(IMPORT_REPEATS)]
    os.makedirs(OUT_DIR, exist_ok=True)
    mode = "cli-trace" if plan["workload"] == "cli" else "trace"
    path = _write_plan(
        plan, mode, mode=mode,
        spans_path=os.path.join(OUT_DIR, f"spans-{plan['workload']}.npz"),
        agg_prefix=os.path.join(workloads.TMP_DIR, "aggregate"))
    _, result = _start_worker(path, deadline)

    traced = result["traced"]
    layers = [spans.layer_metrics(t["aggregates"]) for t in traced]
    kernel_s = _median(result["calibration_s"])
    factor = calibration.REFERENCE_S / kernel_s
    metrics = {}
    for name, unit in spans.PER_LAYER.items():
        if name.startswith("import."):
            value = _median([i[name] for i in imports])
        elif name == "trace.overhead_s":
            untraced = result["passes"][0]["wall_s"]
            value = _median([t["wall_s"] for t in traced]) - untraced
        elif unit == "count":
            value = layers[0][name]
        else:
            value = _median([layer[name] for layer in layers])
        if unit in ("s", "us"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        metrics[name] = value
    # calls and work counts must repeat exactly; times need not
    repeatable = all((t["aggregates"]["calls"], t["aggregates"]["counts"])
                     == (traced[0]["aggregates"]["calls"], traced[0]["aggregates"]["counts"])
                     for t in traced)
    extra = {"counts_repeat": repeatable,
             "kernel_median_s": kernel_s,
             "untraced_run_s": result["passes"][0]["wall_s"],
             "traced_run_s": [t["wall_s"] for t in traced],
             "untraced_targets": result.get("untraced_targets", [])}
    return metrics, extra, [result], result["passes"] + traced


# -- main ---------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return str(value)


def measure(args) -> dict:
    if not os.path.isfile(os.path.join("src", "breakaway", "cli.py")):
        raise BenchError("no src/breakaway/cli.py here; run from a checkout's root")
    if not os.path.isdir(os.path.join("tests", "golden")):
        raise BenchError("no tests/golden here; run from a checkout's root")
    deadline = _Deadline(DEADLINE_S)
    env = environment()
    env["loadavg_before"] = list(os.getloadavg())
    plan = workloads.generate(args.workload, args.seed)
    os.makedirs(workloads.TMP_DIR, exist_ok=True)
    written = []
    try:
        for path, text in plan["files"].items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
        if args.trace:
            metrics, extra, results, passes = run_traced(plan, deadline)
        else:
            metrics, extra, results, passes = run_untraced(plan, args.seconds, deadline)
    finally:
        for path in written:
            os.remove(path)
    env["loadavg_after"] = list(os.getloadavg())

    digests = sorted({p["digest"] for p in passes})
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["op_s"]) for p in passes)
    correct = (not failures and len(digests) == 1
               and all(r["warmup_ok"] for r in results)
               and extra.get("counts_repeat", True))
    return {"env": env, "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "digest": digests, "failures": failures[:20],
            "attempted": attempted, "failed": len(failures), "correct": correct,
            "metrics": metrics, "extra": extra}


def report(out: dict) -> None:
    units = spans.PER_LAYER if out["trace"] else END_TO_END
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"workload={out['workload']} seed={out['seed']} trace={out['trace']} "
          f"digest={','.join(d[:16] for d in out['digest'])} "
          f"attempted={out['attempted']} failed={out['failed']}")
    for failure in out["failures"]:
        print(f"  FAILED {failure}")
    rows = [(name, out["metrics"][name], unit) for name, unit in units.items()]
    if not out["trace"]:
        p90 = out["extra"]["op_p90_s"]
        rows.insert(3, ("op_p90_s", "n/a (fewer than 100 ops)" if p90 is None else p90, "s"))
        rows.append(("fail_ratio", out["failed"] / max(out["attempted"], 1), "ratio"))
    for name, value, unit in rows:
        print(f"  {name:28s} {_fmt(value):>14s} {unit}")
    for key, value in out["extra"].items():
        if key not in ("op_p90_s", "op_median_s"):
            print(f"  # {key} = {_fmt(value)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{out['workload']}-seed{out['seed']}-trace{int(out['trace'])}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    final = {"correct": out["correct"], "attempted": max(out["attempted"], 1),
             "failed": out["failed"],
             "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                         for name, unit in units.items()}}
    print(json.dumps(final))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0.0:
        parser.error("--seconds must be positive")
    try:
        out = measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
