import argparse
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import breakaway.cli as cli
from breakaway.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_table(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestFlatCommand:
    def test_single_point_defaults(self, capsys):
        code, out = run_cli(["flat"], capsys)
        assert code == 0
        meta, header, rows = parse_table(out)
        assert len(rows) == 1
        assert float(rows[0]["beta_crit"]) == pytest.approx(0.0949, abs=5e-4)
        assert rows[0]["branch"] == "interior"
        assert meta["config.strategy.energy_budget"] == "1.2"

    def test_beta_sweep_monotone(self, capsys):
        code, out = run_cli([
            "flat", "--set", "sweep.parameter=strategy.risk_index",
            "--set", "sweep.lo=0", "--set", "sweep.hi=1",
            "--set", "sweep.points=11"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        xs = [float(r["x_a_star"]) for r in rows]
        assert len(xs) == 11
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))

    def test_set_override(self, capsys):
        code, out = run_cli(["flat", "--set", "strategy.risk_index=0.02"],
                            capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        assert rows[0]["branch"] == "boundary"

    def test_unknown_key_exits_one(self, capsys):
        code = main(["flat", "--set", "strategy.bogus=1"])
        assert code == 1

    def test_bad_value_exits_one(self, capsys):
        code = main(["flat", "--set", "strategy.risk_index=high"])
        assert code == 1

    @pytest.mark.parametrize("args", [
        ["terrain", "--course", "flat", "--set", "terrain.quasi_steady=true",
         "--set", "terrain.attack_power=nan"],
        ["terrain", "--set", "terrain.attack_power=nan"],
        ["microstructure", "--set", "micro.attack_power=nan"],
        ["flat", "--set", "strategy.energy_budget=inf"],
    ])
    def test_non_finite_value_exits_one(self, args, capsys):
        # a NaN power used to run the terrain and microstructure solvers
        # without bound, and an infinite budget printed p_a_star=inf
        assert main(args) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: bad value for ")

    def test_unknown_command_exits_one(self):
        assert main(["describe"]) == 1

    def test_fractional_integer_sweep_exits_one(self, capsys):
        code = main(["flat", "--set", "sweep.parameter=crash.n_riders",
                     "--set", "sweep.lo=50", "--set", "sweep.hi=51",
                     "--set", "sweep.points=4"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: bad value for crash.n_riders: ")

    def test_integral_integer_sweep(self, capsys):
        code, out = run_cli(["flat", "--set", "sweep.parameter=crash.n_riders",
                             "--set", "sweep.lo=50", "--set", "sweep.hi=52",
                             "--set", "sweep.points=3"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        assert [r["crash.n_riders"] for r in rows] == ["50", "51", "52"]


class TestReusedParser:
    """main() builds its parser once per process; parsing leaves nothing in it."""

    @staticmethod
    def outputs(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def help_text(argv, capsys):
        assert main(argv) == 0  # returned, not raised as SystemExit
        return capsys.readouterr().out

    def test_second_call_registers_no_option(self, capsys, monkeypatch):
        main(["flat"])
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert main(["flat"]) == 0
        assert added == []

    def test_set_does_not_leak_into_the_next_call(self, capsys):
        first = self.outputs(["flat"], capsys)
        other = self.outputs(["flat", "--set", "strategy.risk_index=0.37"], capsys)
        assert other[0] == 0 and other[1] != first[1]
        assert self.outputs(["flat"], capsys) == first
        assert self.outputs(["flat", "--set", "strategy.risk_index=0.37"], capsys) == other

    def test_usage_error_between_calls(self, capsys):
        first = self.outputs(["flat"], capsys)
        usage = self.outputs(["describe"], capsys)
        assert usage[0] == 1 and usage[2].startswith("error: ")
        assert self.outputs(["flat"], capsys) == first
        assert self.outputs(["describe"], capsys) == usage

    @pytest.mark.parametrize("command", [[], ["flat"], ["fatigue"], ["terrain"],
                                         ["crash-mc"], ["microstructure"]])
    def test_help_is_the_same_on_a_later_call(self, command, capsys):
        first = self.help_text(command + ["--help"], capsys)
        assert first.startswith("usage: breakaway")
        self.outputs(["flat", "--set", "strategy.risk_index=0.37"], capsys)
        assert self.help_text(command + ["--help"], capsys) == first


class TestDeterminismAndEcho:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["flat", "--set", "sweep.parameter=strategy.energy_budget",
                "--set", "sweep.lo=0.6", "--set", "sweep.hi=1.8",
                "--set", "sweep.points=7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_echo_round_trip(self, tmp_path):
        first = tmp_path / "first.csv"
        assert main(["flat", "--set", "strategy.risk_index=0.37",
                     "--set", "crash.omega=0.8", "--out", str(first)]) == 0
        sets = []
        for line in first.read_text().splitlines():
            if line.startswith("# config."):
                key, _, value = line[len("# config."):].partition(" = ")
                sets += ["--set", f"{key}={value}"]
        second = tmp_path / "second.csv"
        assert main(["flat", *sets, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[strategy]\nrisk_index = 0.9\n[crash]\nomega = 0.25\n")
        out = tmp_path / "out.csv"
        assert main(["flat", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, _ = parse_table(out.read_text())
        assert meta["config.strategy.risk_index"] == "0.9"
        assert meta["config.crash.omega"] == "0.25"

    def test_json_format(self, capsys):
        code, out = run_cli(["flat", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][0] == "x_a_min"
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["beta_crit"] == pytest.approx(0.0949, abs=5e-4)

    def test_no_win_cells(self, capsys):
        # a budget too small to win leaves these cells without a value:
        # nan in CSV and null in JSON, single point and swept alike
        empty = {"flat": {"x_a_star", "p_a_star", "beta_min_win"},
                 "fatigue": {"x_a_star", "p_max_star", "t_f_star",
                             "budget_residual", "arrival_residual"}}
        sweep = ["--set", "sweep.parameter=strategy.risk_index",
                 "--set", "sweep.lo=0.1", "--set", "sweep.hi=0.2",
                 "--set", "sweep.points=2"]
        for command, cells in empty.items():
            for extra in ([], sweep):
                args = [command, "--set", "strategy.energy_budget=0.3", *extra]
                code, out = run_cli(args, capsys)
                assert code == 0
                _, header, rows = parse_table(out)
                assert len(rows) == (2 if extra else 1)
                for row in rows:
                    assert {k for k in header if row[k] == "nan"} == cells
                    assert row.get("branch", row.get("status")) == "no_win"
                code, out = run_cli(args + ["--format", "json"], capsys)
                assert code == 0
                doc = json.loads(out)
                for values in doc["rows"]:
                    assert {k for k, v in zip(doc["columns"], values)
                            if v is None} == cells


class TestFatigueCommand:
    def test_small_mu_matches_flat(self, capsys):
        code, flat_out = run_cli(["flat", "--set", "strategy.risk_index=0.6"],
                                 capsys)
        assert code == 0
        _, _, flat_rows = parse_table(flat_out)
        code, fat_out = run_cli(["fatigue", "--set", "fatigue.mu=0.001",
                                 "--set", "strategy.risk_index=0.6"], capsys)
        assert code == 0
        _, _, fat_rows = parse_table(fat_out)
        assert float(fat_rows[0]["x_a_star"]) == pytest.approx(
            float(flat_rows[0]["x_a_star"]), abs=1e-2)

    def test_mu_sweep_orders_peak_power(self, capsys):
        code, out = run_cli([
            "fatigue", "--set", "sweep.parameter=fatigue.mu",
            "--set", "sweep.lo=1", "--set", "sweep.hi=10",
            "--set", "sweep.points=2"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        p1, p10 = (float(r["p_max_star"]) for r in rows)
        assert p10 > p1

    def test_non_convergence_reports_exit_two(self, capsys, monkeypatch):
        import math as _math
        from breakaway.fatigue import FatigueResult

        def stuck(problem, mu, p_sustain=None):
            return FatigueResult(0.5, 4.0, 0.95, 0.05, -0.03, converged=False,
                                 budget_residual=_math.nan,
                                 arrival_residual=_math.nan)
        monkeypatch.setattr("breakaway.fatigue.optimize_fatigue", stuck)
        code, out = run_cli(["fatigue"], capsys)
        assert code == 2
        _, _, rows = parse_table(out)   # the row is still emitted, flagged
        assert rows[0]["converged"] == "false"

    def test_numpy_false_is_not_converged(self, capsys, monkeypatch):
        # a numpy bool is neither `False` by identity nor printed as `false`
        # unless the command turns it into a plain bool
        from breakaway.fatigue import FatigueResult

        def stuck(problem, mu, p_sustain=None):
            return FatigueResult(0.5, 4.0, 0.95, 0.05, -0.03,
                                 converged=np.False_,
                                 budget_residual=math.nan,
                                 arrival_residual=math.nan)
        monkeypatch.setattr("breakaway.fatigue.optimize_fatigue", stuck)
        code, out = run_cli(["fatigue"], capsys)
        assert code == 2
        _, _, rows = parse_table(out)
        assert rows[0]["converged"] == "false"

    @pytest.mark.parametrize("mu", ["1e-9", "1e-320", "5e-324", "1e6"])
    def test_vanishing_fatigue_converges(self, mu, capsys):
        # the budget residual's energy integral must not cancel at tiny mu,
        # a subnormal mu must not underflow the burst integral to 0, and a
        # fast decay must cost no more than a slow one
        code, out = run_cli(["fatigue", "--set", f"fatigue.mu={mu}"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        assert rows[0]["converged"] == "true"
        assert rows[0]["budget_residual"] == "0"
        assert rows[0]["arrival_residual"] == "0"

    @pytest.mark.parametrize("p_sustain", ["1.5", "2", "5"])
    def test_sustain_above_front_drag_converges(self, p_sustain, capsys):
        # steady riding at p_sustain outpaces the peloton, so the earliest
        # feasible attack already wins; rounding there must not make it
        # infeasible
        code, out = run_cli(["fatigue", "--set", f"fatigue.p_sustain={p_sustain}"],
                            capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        assert rows[0]["converged"] == "true"
        assert float(rows[0]["delta_t"]) > 0.0


class TestFileErrors:
    @pytest.mark.parametrize("args", [
        ["flat", "--out", "/missing/dir/x"],
        ["terrain", "--course", "/missing"],
    ])
    def test_missing_path_exits_one(self, args, capsys):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_binary_course_exits_one(self, tmp_path, capsys):
        path = tmp_path / "course.bin"
        header = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))
        path.write_bytes((header * 2)[:200])
        assert main(["terrain", "--course", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad value for terrain.course: {str(path)!r} " \
                      f"(not a UTF-8 text file)\n"

    @pytest.mark.parametrize("name, reason", [
        ("missing.txt", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unreadable_course_names_the_key(self, name, reason, tmp_path, capsys):
        path = str(tmp_path / name)
        assert main(["terrain", "--course", path]) == 1
        assert capsys.readouterr().err == \
            f"error: bad value for terrain.course: {path!r} ({reason})\n"

    @pytest.mark.parametrize("table", [
        "0 0\nnan 0.1\n1 0\n",      # a nan x
        "0 0\n0.5 inf\n1 0\n",      # an infinite height
        "0 1e308\n1 -1e308\n",      # finite heights, overflowing slope
        "0 -1.7e308\n0.5 0\n1 1.7e308\n",  # two overflowing chords: a zero mean
    ])
    def test_non_finite_course_exits_one(self, table, tmp_path, capsys):
        path = tmp_path / "course.txt"
        path.write_text("x h\n" + table)
        assert main(["terrain", "--course", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: bad value for terrain.course: {str(path)!r} (")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        b"risk_index = 0.3\n",                                     # no section header
        b"[strategy]\nrisk_index = 0.3\njunk line\nmore junk\n",  # junk lines
        b"\xef\xbb\xbf\xef\xbb\xbf[strategy]\nrisk_index = 0.3\n",  # two byte-order marks
        b"[strategy]\nrisk_index = 0.3\xff\n",                   # not UTF-8
    ], ids=["no-header", "junk-lines", "two-byte-order-marks", "not-utf-8"])
    def test_malformed_config_is_one_line(self, text, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(text)
        assert main(["flat", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config file: ")
        assert err.count("\n") == 1 and repr(str(path)) in err

    @pytest.mark.parametrize("argv, name, text", [
        (["flat", "--config"], "run.ini", b"[strategy]\nrisk_index = 0.3\n"),
        (["terrain", "--set", "terrain.samples=5", "--course"], "course.txt",
         b"0 0\n0.5 0.002\n1 0\n"),
        (["terrain", "--set", "terrain.samples=5", "--course"], "course.txt",
         b"x h\n0 0\n0.5 0.002\n1 0\n"),
    ], ids=["config", "course", "course-with-header"])
    def test_byte_order_mark_is_not_text(self, argv, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(text)
        assert main(argv + [str(path)]) == 0
        plain = capsys.readouterr().out
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(argv + [str(path)]) == 0
        assert capsys.readouterr().out == plain


class TestTerrainCommand:
    def test_flat_course_reduction(self, capsys):
        code, out = run_cli([
            "terrain", "--course", "flat",
            "--set", "terrain.quasi_steady=true",
            "--set", "terrain.attack_power=3.0",
            "--set", "terrain.attack_position=0.5",
            "--set", "terrain.samples=17"], capsys)
        assert code == 0
        meta, _, rows = parse_table(out)
        # cross-check against the closed-form gap at the implied budget
        from breakaway.flat import StrategyProblem, time_gap_from_position
        implied = 0.46 * 0.5 + 1.43 ** (1 / 3) * 3.0 ** (2 / 3) * 0.5
        ref = time_gap_from_position(0.5, StrategyProblem(energy_budget=implied))
        assert float(meta["summary.delta_t"]) == pytest.approx(ref, abs=1e-6)
        assert {r["series"] for r in rows} == {"rider", "peloton"}

    def test_demo_course_rider_wins(self, capsys):
        code, out = run_cli(["terrain", "--set", "terrain.samples=9"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        assert float(meta["summary.delta_t"]) > 0.0

    def test_zero_power_stays_in_pack(self, capsys):
        code, out = run_cli(["terrain", "--set", "terrain.attack_power=0",
                             "--set", "terrain.quasi_steady=true",
                             "--set", "terrain.samples=9"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        assert float(meta["summary.delta_t"]) == 0.0

    def test_course_file(self, tmp_path, capsys):
        course = tmp_path / "c.txt"
        course.write_text("0 0\n0.5 0.002\n1 0\n")
        code, out = run_cli(["terrain", "--course", str(course),
                             "--set", "terrain.quasi_steady=true",
                             "--set", "terrain.samples=9"], capsys)
        assert code == 0

    def test_malformed_course_exits_one(self, tmp_path, capsys):
        course = tmp_path / "bad.txt"
        course.write_text("0 0\nmid high\n1 0\n")
        assert main(["terrain", "--course", str(course)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "terrain.attack_position=1",
        "terrain.attack_position=-0.1",
        "terrain.epsilon=0",
    ])
    def test_out_of_range_key_exits_one(self, setting, capsys):
        assert main(["terrain", "--set", setting]) == 1
        err = capsys.readouterr().err
        key = setting.split("=")[0]
        assert err.startswith(f"error: bad value for {key}: ")
        assert err.count("\n") == 1

    # RK45 at the default inertia: these digits held with SIM_SETTINGS
    # tightened 100x and 1000x, so they are pinned as printed
    DEMO_RK45 = {"t_peloton": "1.30056616984", "t_rider": "0.932801547202",
                 "delta_t": "0.367764622633", "attack_time": "0.532549111652",
                 "rider_energy": "1.70854101203",
                 "peloton_energy": "1.30056616984"}
    # BDF at inertia 5e-4 prints about two digits its tolerances do not
    # certify; pinned against the same ride with SIM_SETTINGS 1000x tighter
    DEMO_BDF = {"t_peloton": 1.30161408292, "t_rider": 0.932698597375,
                "delta_t": 0.368915485543, "attack_time": 0.532224140808,
                "rider_energy": 1.70874259299,
                "peloton_energy": 1.30161408292}

    def test_demo_full_dynamics_pinned(self, capsys):
        code, out = run_cli(["terrain", "--course", "demo"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        assert {k: meta[f"summary.{k}"] for k in self.DEMO_RK45} == self.DEMO_RK45
        # "auto" picks BDF below inertia 1e-3
        code, out = run_cli(["terrain", "--course", "demo",
                             "--set", "terrain.epsilon=5e-4"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        for key, ref in self.DEMO_BDF.items():
            assert float(meta[f"summary.{key}"]) == pytest.approx(ref, rel=2e-9)

    def test_rider_energy_ignores_samples(self, capsys):
        # the lurk energy comes from the dense ride, not from the output rows
        printed = []
        for samples in (64, 4097):
            code, out = run_cli(["terrain", "--course", "demo",
                                 "--set", f"terrain.samples={samples}"], capsys)
            assert code == 0
            printed.append(parse_table(out)[0]["summary.rider_energy"])
        assert printed == [self.DEMO_RK45["rider_energy"]] * 2

    def test_crawling_attack_finishes(self, capsys):
        # marched in distance a crawl ends: after a start transient of about
        # 0.02 in x the rider holds the cruise speed (P / C)^(1/3) = 0.0089
        code, out = run_cli(["terrain", "--course", "flat",
                             "--set", "terrain.attack_power=1e-6"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        t_attack, t_rider = (float(meta[f"summary.{k}"]) for k in ("attack_time", "t_rider"))
        assert t_rider - t_attack == pytest.approx(0.5 / (1e-6 / 1.43) ** (1 / 3), rel=0.05)

    # the rider attacks at the peloton's speed 0.062, far below the speed
    # their power holds: the start transient needs steps of about 1e-14,
    # below ten ulps of an absolute time near 2.4, so only a march from the
    # ride's own start resolves it
    TINY_INERTIA = {"epsilon": 1.1632606033892603e-07, "gravity_ratio": 207.36160825532963,
                    "attack_position": 0.8784013631472541, "attack_power": 3.877572888343776}

    def test_tiny_inertia_rider_finishes(self, capsys):
        from breakaway.numerics import SolverSettings
        from breakaway.terrain import demo_profile, simulate_breakaway

        sets = [a for k, v in self.TINY_INERTIA.items() for a in ("--set", f"terrain.{k}={v!r}")]
        code, out = run_cli(["terrain", "--course", "demo"] + sets, capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        ride = float(meta["summary.t_rider"]) - float(meta["summary.attack_time"])
        args = self.TINY_INERTIA
        tight = simulate_breakaway(args["attack_position"], args["attack_power"], demo_profile(),
                                   inertia=args["epsilon"], gravity_ratio=args["gravity_ratio"],
                                   settings=SolverSettings(abs_tol=1e-15, rel_tol=1e-13))
        assert ride == pytest.approx(tight.rider.finish_time - tight.attack_time, rel=1e-9)

    def test_steep_gravity_rides_bdf(self, capsys):
        # at gamma = 1000 the peloton crawls up the demo climbs, where
        # |dv'/dv| reaches 1e6: RK45 would take millions of steps
        code, out = run_cli(["terrain", "--course", "demo",
                             "--set", "terrain.gravity_ratio=1000"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        assert float(meta["summary.t_peloton"]) == pytest.approx(18.3358297, rel=1e-8)

    def test_budget_overrun_names_the_ride(self, monkeypatch, capsys):
        # the demo peloton's RK45 ride takes about 25,900 rhs evaluations
        monkeypatch.setattr("breakaway.ode._MAX_RHS_EVALS", 5_000)
        assert main(["terrain", "--course", "demo"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "peloton RK45" in err[0] and "budget" in err[0]


class TestQuasiSteadyReference:
    """Quasi-steady summaries against an independent quadrature.

    In the quasi-steady limit the time to ride [a, b] is the integral of
    1/v(x), v the largest real root of drag v^3 + gamma sin(theta) v = power.
    QUADPACK integrates it knot interval by knot interval, with v from
    numpy.roots, so the PCHIP kinks never fall inside a panel.
    """

    # the course table of the perfbench validate workload at seed 101
    TABLE = [(0.0, 0.0), (0.1, -0.000298546), (0.2, 0.002329763),
             (0.3, 0.005329763), (0.4, 0.005381263), (0.5, 0.002672042),
             (0.6, 0.000539437), (0.7, 0.001013606), (0.8, 0.002362193),
             (0.9, 0.001895791), (1.0, 0.0)]

    @staticmethod
    def reference(profile, knots, x_attack, power, gamma=40.0, cd_front=1.43):
        def pace(x, drag, p):
            slope_term = gamma * math.sin(math.atan(float(profile.slope(x))))
            roots = np.roots([drag, 0.0, slope_term, -p])
            return 1.0 / max(r.real for r in roots if abs(r.imag) < 1e-9)

        def elapsed(a, b, drag, p):
            cuts = [a, *(k for k in knots if a < k < b), b]
            return sum(quad(pace, u, w, args=(drag, p), epsabs=1e-13,
                            epsrel=1e-12, limit=500)[0]
                       for u, w in zip(cuts, cuts[1:]))

        t_attack = elapsed(0.0, x_attack, 1.0, 1.0)
        return {"t_peloton": elapsed(0.0, 1.0, 1.0, 1.0),
                "attack_time": t_attack,
                "t_rider": t_attack + elapsed(x_attack, 1.0, cd_front, power)}

    # the validate ops quasi-steady-0 (demo) and quasi-steady-1 (table)
    @pytest.mark.parametrize("course, x_attack, power", [
        ("demo", 0.689069, 3.14134),
        ("table", 0.7014, 2.85505),
    ])
    def test_summary_matches_quadrature(self, course, x_attack, power,
                                        tmp_path, capsys):
        from breakaway.terrain import CourseProfile, demo_profile
        if course == "demo":
            profile, knots = demo_profile(), []
        else:
            knots, heights = zip(*self.TABLE)
            profile = CourseProfile.from_table(knots, heights)
            course = tmp_path / "course.txt"
            course.write_text("".join(f"{x} {h}\n" for x, h in self.TABLE))
        code, out = run_cli(["terrain", "--course", str(course),
                             "--set", "terrain.quasi_steady=true",
                             "--set", f"terrain.attack_position={x_attack}",
                             "--set", f"terrain.attack_power={power}"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        for key, ref in self.reference(profile, knots, x_attack, power).items():
            assert abs(float(meta[f"summary.{key}"]) - ref) < 1e-9, key


# one probe per key that the flat, fatigue, microstructure and crash-mc
# commands read; each used to end in a traceback or run on regardless
RANGE_PROBES = [
    (["flat", "--set", "strategy.risk_index=1.5"], "strategy.risk_index"),
    (["flat", "--set", "strategy.energy_budget=-1"], "strategy.energy_budget"),
    (["flat", "--set", "crash.omega=0"], "crash.omega"),
    (["flat", "--set", "crash.n_riders=0"], "crash.n_riders"),
    (["flat", "--set", "crash.intensity=-1"], "crash.intensity"),
    (["fatigue", "--set", "fatigue.mu=-1"], "fatigue.mu"),
    (["microstructure", "--set", "micro.epsilon=0"], "micro.epsilon"),
    (["flat", "--set", "sweep.parameter=strategy.risk_index",
      "--set", "sweep.points=-3"], "sweep.points"),
    (["crash-mc", "--set", "mc.attack_position=1.5"], "mc.attack_position"),
    (["crash-mc", "--set", "model.position=0.5"], "model.position"),
    # no crash starts deeper than crash.n_riders (crash-mc: see TestCrashMcCommand)
    (["flat", "--set", "model.position=76"], "model.position"),
    (["fatigue", "--set", "model.position=75.5"], "model.position"),
    (["flat", "--set", "crash.n_riders=4"], "model.position"),
    (["crash-mc", "--seed", "-1"], "mc.seed"),
    # far above the cap on expected crashes, crash.intensity times mc.trials
    (["crash-mc", "--trials", "10", "--set", "crash.intensity=1e308"],
     "crash.intensity"),
    # a sweep steps a number; a string or a flag has no values between
    (["flat", "--set", "sweep.points=3",
      "--set", "sweep.parameter=terrain.course"], "sweep.parameter"),
    (["flat", "--set", "sweep.points=3",
      "--set", "sweep.parameter=terrain.quasi_steady"], "sweep.parameter"),
    # only flat and fatigue sweep; the other commands would print one row
    (["terrain", "--set", "sweep.parameter=crash.omega",
      "--set", "sweep.points=1"], "sweep.parameter"),
    (["crash-mc", "--set", "sweep.parameter=crash.omega",
      "--set", "sweep.points=3"], "sweep.parameter"),
    (["microstructure", "--set", "sweep.parameter=omega",
      "--set", "sweep.points=2"], "sweep.parameter"),
    # cd_lurk=2 and cd_min=1 break only the order of a key pair
    (["flat", "--set", "model.cd_lurk=2"], "model.cd_lurk"),
    (["fatigue", "--set", "model.cd_front=-1"], "model.cd_front"),
    (["microstructure", "--set", "model.cd_min=1"], "model.cd_min"),
    (["flat", "--set", "output.format=xml"], "output.format"),
    (["microstructure", "--set", "model.decay=0"], "model.decay"),
    (["microstructure", "--set", "model.cd_avg=0"], "model.cd_avg"),
    (["microstructure", "--set", "model.cd_avg=-1"], "model.cd_avg"),
    (["microstructure", "--set", "model.mass_ratio=0"], "model.mass_ratio"),
    (["microstructure", "--set", "micro.gamma_ratio=0"], "micro.gamma_ratio"),
    (["microstructure", "--set", "micro.gamma_ratio=-1"], "micro.gamma_ratio"),
    (["microstructure", "--set", "micro.samples=0"], "micro.samples"),
    (["terrain", "--set", "terrain.quasi_steady=1",
      "--set", "terrain.samples=-1"], "terrain.samples"),
    (["fatigue", "--set", "fatigue.p_sustain=-1"], "fatigue.p_sustain"),
    (["microstructure", "--set", "micro.attack_power=0"], "micro.attack_power"),
    (["microstructure", "--set", "micro.attack_power=-1"], "micro.attack_power"),
    # at or below the drag at the start depth, 0.576286067493209 at position 5
    (["microstructure", "--set", "micro.attack_power=0.3"], "micro.attack_power"),
    (["microstructure", "--set", "micro.attack_power=0.576286067493209"],
     "micro.attack_power"),
    # at the front the start depth is 0, where the drag is the front drag 1.43
    (["microstructure", "--set", "model.position=1",
      "--set", "micro.attack_power=0.1"], "micro.attack_power"),
    (["microstructure", "--set", "model.position=1",
      "--set", "micro.attack_power=1.0"], "micro.attack_power"),
    (["microstructure", "--set", "model.position=1",
      "--set", "micro.attack_power=1.43"], "micro.attack_power"),
]


@pytest.mark.parametrize("argv, key", RANGE_PROBES,
                         ids=[" ".join(argv[-2:]) for argv, _ in RANGE_PROBES])
def test_out_of_range_probe_exits_one(argv, key, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad value for {key}: ")
    assert err.count("\n") == 1


# one past the upper end of each size key, and a huge one: each allocates in
# proportion to its size, 1e13 trials some terabytes
SIZE_PROBES = [
    (["crash-mc", "--trials", "50000001"], "mc.trials"),
    (["crash-mc", "--trials", "10000000000000"], "mc.trials"),
    (["terrain", "--set", "terrain.samples=250001"], "terrain.samples"),
    (["microstructure", "--set", "micro.samples=500001"], "micro.samples"),
    (["flat", "--set", "sweep.parameter=strategy.risk_index",
      "--set", "sweep.points=250001"], "sweep.points"),
]


@pytest.mark.parametrize("argv, key", SIZE_PROBES,
                         ids=[" ".join(argv[-2:]) for argv, _ in SIZE_PROBES])
def test_size_past_its_bound_exits_one(argv, key, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad value for {key}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["flat", "--jobs", "2"],
    ["flat", "--set", "output.jobs=2"],
    ["terrain", "--set", "terrain.method=bdf"],
], ids=lambda argv: " ".join(argv[1:]))
def test_removed_knob_exits_one(argv, capsys):
    # sweeps run serially and each ride picks its own integrator
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["terrain", "--set", "terrain.gravity_ratio=1e308"],
    ["terrain", "--set", "terrain.attack_power=1e308"],
    ["terrain", "--set", "model.mass_ratio=1e-300"],
    ["terrain", "--set", "model.mass_ratio=1e-310"],
    ["terrain", "--set", "terrain.epsilon=1e-200", "--set", "model.mass_ratio=1e-200"],
    ["terrain", "--set", "terrain.epsilon=1e-10", "--set", "model.mass_ratio=1e-320"],
    ["flat", "--set", "strategy.energy_budget=1e308"],
    ["microstructure", "--set", "micro.epsilon=1e300"],
], ids=lambda argv: " ".join(argv[2:]))
def test_overflow_exits_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["terrain", "--set", "terrain.gravity_ratio=1e308"],
    ["flat", "--set", "strategy.energy_budget=1e308"],
    ["microstructure", "--set", "micro.epsilon=1e300"],
], ids=lambda argv: argv[0])
def test_overflow_names_the_command(argv, capsys):
    # Python's own OverflowError text, "(34, 'Numerical result out of
    # range')", names neither the command nor what overflowed
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {argv[0]}: an input overflowed a float\n")


def test_every_schema_key_is_read(monkeypatch, capsys):
    # a key no run reads is a knob that changes nothing but the echo
    from breakaway.config import SCHEMA, RunConfig

    read = set()
    get = RunConfig.get

    def record(self, name):
        read.add(name)
        return get(self, name)
    monkeypatch.setattr(RunConfig, "get", record)
    for argv in (["flat", "--set", "sweep.parameter=strategy.risk_index",
                  "--set", "sweep.points=2"],
                 ["fatigue"],
                 ["terrain", "--set", "terrain.quasi_steady=true",
                  "--set", "terrain.samples=9"],
                 ["crash-mc", "--trials", "100"],
                 ["microstructure", "--set", "micro.samples=9"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert read == set(SCHEMA)


class TestCrashMcCommand:
    def test_agrees_with_analytic(self, capsys):
        code, out = run_cli(["crash-mc", "--trials", "50000", "--seed", "3"],
                            capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        row = rows[0]
        assert abs(float(row["z_score"])) <= 4.0
        assert float(row["analytic"]) == pytest.approx(0.044438, abs=1e-5)

    def test_json_is_strict(self, capsys, monkeypatch):
        # an infinite standard error is null in JSON and inf in CSV
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        monkeypatch.setattr(cli, "monte_carlo_exposure",
                            lambda x_attack, position, trials, seed, model:
                            (3.0, math.inf))
        _, out = run_cli(["crash-mc", "--format", "json"], capsys)
        doc = json.loads(out, parse_constant=reject)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["std_error"] is None
        _, out = run_cli(["crash-mc"], capsys)
        assert parse_table(out)[2][0]["std_error"] == "inf"

    @pytest.mark.parametrize("args", [
        ["--trials", "1", "--set", "crash.intensity=50"],
        ["--trials", "0"],
        ["--set", "mc.trials=1"],
    ])
    def test_too_few_trials_exits_one(self, args, capsys):
        # one trial has an infinite standard error, so the gate could not trip
        assert main(["crash-mc"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for mc.trials: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--trials", "16", "--set", "crash.intensity=1e12"],
        # one past the cap of 1e8 expected crashes; the cap itself would
        # allocate about 0.5 GiB
        ["--trials", "2", "--set", "crash.intensity=5.0000001e7"],
    ])
    def test_crash_count_past_its_cap_exits_one(self, args, capsys, monkeypatch):
        # memory grows with crash.intensity times mc.trials, so the cap is
        # checked before any random number is drawn
        def refuse(seed):
            raise AssertionError("sampled past the crash-count cap")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(["crash-mc"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for crash.intensity: ")
        assert "mc.trials" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["flat", "fatigue"])
    def test_position_behind_the_pack_names_both_keys(self, command, capsys):
        assert main([command, "--set", "model.position=100"]) == 1
        assert capsys.readouterr().err == (
            "error: bad value for model.position: 100.0 (position must be >= 1 and "
            "at most n_riders; crash.n_riders = 75)\n")

    @pytest.mark.parametrize("position", ["5.5", "100", "75.5"])
    def test_position_not_a_start_rank_exits_one(self, position, capsys):
        assert main(["crash-mc", "--set", f"model.position={position}"]) == 1
        assert capsys.readouterr().err == (
            f"error: bad value for model.position: {float(position)!r} (crash-mc needs "
            f"a whole start rank, at most crash.n_riders = 75)\n")
        # flat takes the closed form's continuous extension
        assert main(["flat", "--set", "model.position=5.5"]) == 0

    def test_zero_intensity(self, capsys):
        code, out = run_cli(["crash-mc", "--set", "crash.intensity=0",
                             "--trials", "1000"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        assert float(rows[0]["estimate"]) == 0.0

    def test_strong_decay_limit(self, capsys):
        code, out = run_cli(["crash-mc", "--set", "crash.omega=10",
                             "--trials", "200000", "--seed", "5"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        limit = 2.0 / 75.0
        assert float(rows[0]["analytic"]) == pytest.approx(limit, rel=1e-3)
        assert abs(float(rows[0]["estimate"]) - limit) < 5e-4

    def test_statistical_gate_exit_code(self, capsys, monkeypatch):
        def biased(x_attack, position, trials, seed, model):
            return 1.0, 1e-6
        monkeypatch.setattr(cli, "monte_carlo_exposure", biased)
        assert main(["crash-mc"]) == 3


class TestMicrostructureCommand:
    def test_deviation_within_bound(self, capsys):
        code, out = run_cli(["microstructure",
                             "--set", "micro.gamma_ratio=6",
                             "--set", "micro.samples=64"], capsys)
        assert code == 0
        meta, _, rows = parse_table(out)
        eps = float(meta["config.micro.epsilon"])
        assert float(meta["summary.max_rel_deviation"]) < 5.0 * eps
        assert float(meta["summary.terminal_speed"]) == pytest.approx(
            (4.0 / 1.43) ** (1.0 / 3.0), abs=1e-9)

    def test_turning_back_mid_pack_exits_two(self, capsys):
        # above the drag at the start depth but below the drag further up
        assert main(["microstructure", "--set", "micro.attack_power=0.7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")

    def test_stiff_passage_exits_two_at_the_work_budget(self, capsys, monkeypatch):
        # the passage's stiffness grows like gamma * eps; past the budget of
        # rhs evaluations a solve stops with one line, naming it, instead of
        # running on
        monkeypatch.setattr("breakaway.ode._MAX_RHS_EVALS", 50_000)
        assert main(["microstructure", "--set", "micro.gamma_ratio=1e5"]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: passage RK45: solve over its budget of 50000 rhs evaluations\n")

    @pytest.mark.parametrize("sets, product", [
        (["micro.epsilon=1e-170"], "gamma ratio times eps^2"),
        (["micro.epsilon=5e-324"], "gamma ratio times eps^2"),
        (["micro.gamma_ratio=1e-200", "model.mass_ratio=1e-200"],
         "gamma ratio times mass ratio"),
        (["micro.epsilon=1e-160", "model.mass_ratio=1e-200", "micro.gamma_ratio=1e300"],
         "eps times mass ratio"),
    ], ids=["epsilon", "subnormal-epsilon", "gamma-mass", "epsilon-mass"])
    def test_underflowing_product_exits_two(self, sets, product, capsys):
        argv = ["microstructure"] + [arg for item in sets for arg in ("--set", item)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"numerical failure: {product} underflows to 0\n"

    def test_front_start_has_empty_passage(self, capsys):
        # any power above the front drag 1.43 runs from the front
        for power in ("4.0", "1.44"):
            code, out = run_cli(["microstructure", "--set", "model.position=1",
                                 "--set", f"micro.attack_power={power}",
                                 "--set", "micro.samples=16"], capsys)
            assert code == 0
            meta, _, _ = parse_table(out)
            assert float(meta["summary.passage_duration_inner"]) == 0.0
