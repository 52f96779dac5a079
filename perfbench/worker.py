"""One benchmark process.  Started by run.py, never by hand.

Usage: worker.py PLAN_JSON SHARE_S
       worker.py --traced-op AGGREGATE_JSON ARGV...

Modes (``plan["mode"]``):

inproc
    Import ``breakaway.cli``, run the untimed warm-up op, print ``READY``,
    then run whole passes of ``main(argv)`` calls until SHARE_S seconds are
    spent; none if SHARE_S <= 0.
trace
    As inproc up to ``READY``; then one untraced pass and two traced passes.
cli
    Print ``READY`` after one untimed cold ``python -m breakaway.cli`` op,
    then run passes of cold processes, one at a time.
cli-trace
    One untraced pass of cold processes, then two passes in which each op
    runs under ``worker.py --traced-op`` with the tracer installed.

The last line on stdout is ``RESULT <json>``.  Op outputs are checked after
each pass, outside the timed region.

After ``READY`` the worker also times a fixed calibration kernel (its own
code, not the program's) between ops; see calibration.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import checks
from calibration import Calibration

OP_TIMEOUT_S = 120.0
COLD = [sys.executable, "-m", "breakaway.cli"]


def _golden_text(name: str) -> str | None:
    path = os.path.join("tests", "golden", name)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Pass:
    """Outputs and timings of one pass, checked after it is timed."""

    def __init__(self):
        self.op_s: list[float] = []
        self.kernel_s: list[float] = []   # recent calibration time at each op
        self.outputs: list[str] = []
        self.failures: list[str] = []
        self.golden_ops = 0
        self.golden_same = 0
        self._pending: list[tuple] = []

    def record(self, op: dict, seconds: float, code, out: str, err: str,
               error: str | None) -> None:
        self.op_s.append(seconds)
        self.outputs.append(out)
        self._pending.append((op, code, out, err, error))

    def check(self) -> None:
        for op, code, out, err, error in self._pending:
            try:
                if error is not None:
                    raise checks.CheckError(error)
                if code != 0:
                    raise checks.CheckError(f"exit code {code}: {err.strip()[-300:]}")
                if "Traceback" in err:
                    raise checks.CheckError("traceback on stderr")
                checks.check_output(op["argv"], out)
            except checks.CheckError as exc:
                self.failures.append(f"{op['id']}: {exc}")
            if op.get("golden"):
                self.golden_ops += 1
                self.golden_same += out == _golden_text(op["golden"])
        self._pending = []

    def summary(self) -> dict:
        return {"op_s": self.op_s, "kernel_s": self.kernel_s,
                "wall_s": sum(self.op_s),
                "digest": checks.digest(self.outputs),
                "failures": self.failures, "golden_ops": self.golden_ops,
                "golden_same": self.golden_same}


# -- running one op -----------------------------------------------------------


def _run_inproc(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):  # an escaped exception is a failed op
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), error


def _run_cold(argv, env, prefix):
    start = time.perf_counter()
    try:
        proc = subprocess.run(prefix + list(argv), capture_output=True, text=True,
                              env=env, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", "", "timed out"
    seconds = time.perf_counter() - start
    return seconds, proc.returncode, proc.stdout, proc.stderr, None


def _traced_prefix(agg_path: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--traced-op", agg_path]


def _one_pass(ops, run_op, calibration: Calibration) -> dict:
    result = Pass()
    for k, op in enumerate(ops):
        calibration.maybe()
        result.kernel_s.append(calibration.recent())
        result.record(op, *run_op(k, op))
    result.check()
    return result.summary()


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def _timed_passes(out: dict, ops, run_op, share_s: float,
                  calibration: Calibration) -> None:
    """Whole passes until share_s seconds are spent; records them in out."""
    out["passes"] = []
    start = time.perf_counter()
    while time.perf_counter() - start < share_s:
        out["passes"].append(_one_pass(ops, run_op, calibration))
    out["timed_s"] = time.perf_counter() - start


def _check_module(cli) -> None:
    src = os.path.realpath(os.path.join("src", "breakaway"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != src:
        raise SystemExit(f"breakaway.cli was imported from {cli.__file__}, not {src}")


# -- modes --------------------------------------------------------------------


def _inproc(plan: dict) -> dict:
    import breakaway.cli as cli
    _check_module(cli)
    warm = _run_inproc(cli, plan["warmup"]["argv"])
    _ready()
    calibration = Calibration()
    out = {"warmup_ok": warm[1] == 0, "calibration_s": calibration.samples}

    def run_op(k, op):
        return _run_inproc(cli, op["argv"])

    if plan["mode"] == "inproc":
        _timed_passes(out, plan["ops"], run_op, plan["share_s"], calibration)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    import spans
    out["passes"] = [_one_pass(plan["ops"], run_op, calibration)]
    tracer = spans.Tracer()
    undo, out["untraced_targets"] = spans.install(tracer)
    out["traced"] = []
    try:
        for _ in range(2):
            tracer.reset()

            def traced_op(k, op):
                tracer.op = k
                return _run_inproc(cli, op["argv"])

            traced = _one_pass(plan["ops"], traced_op, calibration)
            traced["aggregates"] = spans.aggregates(tracer)
            out["traced"].append(traced)
    finally:
        spans.uninstall(undo)
    tracer.write(plan["spans_path"])
    return out


def _cli(plan: dict) -> dict:
    env = dict(os.environ)
    warm = _run_cold(plan["warmup"]["argv"], env, COLD)
    _ready()
    calibration = Calibration()
    out = {"warmup_ok": warm[1] == 0, "calibration_s": calibration.samples}

    def run_op(k, op):
        return _run_cold(op["argv"], env, COLD)

    if plan["mode"] == "cli":
        _timed_passes(out, plan["ops"], run_op, plan["share_s"], calibration)
        # the largest child: ru_maxrss of RUSAGE_CHILDREN is a maximum
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return out

    import spans
    out["passes"] = [_one_pass(plan["ops"], run_op, calibration)]
    out["traced"] = []
    paths = [f"{plan['agg_prefix']}-{k}.json" for k in range(len(plan["ops"]))]

    def traced_op(k, op):
        return _run_cold(op["argv"], env, _traced_prefix(paths[k]))

    for _ in range(2):
        traced = _one_pass(plan["ops"], traced_op, calibration)
        parts = []
        for path in paths:
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    parts.append(json.load(fh))
                os.remove(path)
        traced["aggregates"] = spans.merge(parts)
        out["traced"].append(traced)
    out["untraced_targets"] = []
    return out


def _traced_op(agg_path: str, argv: list[str]) -> int:
    """One cold CLI process with the tracer installed around main(argv)."""
    import breakaway.cli as cli
    import spans
    tracer = spans.Tracer()
    undo, _ = spans.install(tracer)
    try:
        tracer.op = 0
        code = cli.main(argv)
    finally:
        spans.uninstall(undo)
        with open(agg_path, "w", encoding="utf-8") as fh:
            json.dump(spans.aggregates(tracer), fh)
    return code


def main() -> int:
    if sys.argv[1] == "--traced-op":
        return _traced_op(sys.argv[2], sys.argv[3:])
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    plan["share_s"] = float(sys.argv[2])
    run = _cli if plan["mode"] in ("cli", "cli-trace") else _inproc
    result = run(plan)
    sys.stdout.write("RESULT " + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
