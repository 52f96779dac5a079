import json

import pytest

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
        monkeypatch.setattr(cli.fatigue, "optimize_fatigue", stuck)
        code, out = run_cli(["fatigue"], capsys)
        assert code == 2
        _, _, rows = parse_table(out)   # the row is still emitted, flagged
        assert rows[0]["converged"] == "false"

    def test_vanishing_fatigue_converges(self, capsys):
        # the budget residual's energy integral must not cancel at tiny mu
        code, out = run_cli(["fatigue", "--set", "fatigue.mu=1e-9"], capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        assert rows[0]["converged"] == "true"
        assert rows[0]["budget_residual"] == "0"
        assert rows[0]["arrival_residual"] == "0"

    def test_parallel_jobs_identical(self, tmp_path):
        args = ["fatigue", "--set", "sweep.parameter=strategy.risk_index",
                "--set", "sweep.lo=0.2", "--set", "sweep.hi=0.8",
                "--set", "sweep.points=4"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
        # identical apart from the echoed worker count itself
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("# config.output.jobs")]
        assert strip(serial) == strip(parallel)


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
        assert len(err.splitlines()) == 1
        assert err.startswith("course file error:")
        assert str(path) in err
        assert "Traceback" not in err


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

    def test_never_finishing_attack_exits_two(self, capsys):
        code = main(["terrain", "--course", "flat",
                     "--set", "terrain.attack_power=1e-6",
                     "--set", "terrain.method=bdf"])
        assert code == 2


class TestCrashMcCommand:
    def test_agrees_with_analytic(self, capsys):
        code, out = run_cli(["crash-mc", "--trials", "50000", "--seed", "3"],
                            capsys)
        assert code == 0
        _, _, rows = parse_table(out)
        row = rows[0]
        assert abs(float(row["z_score"])) <= 4.0
        assert float(row["analytic"]) == pytest.approx(0.044438, abs=1e-5)

    def test_json_is_strict(self, capsys):
        # one trial has an infinite standard error: null in JSON, inf in CSV
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        _, out = run_cli(["crash-mc", "--trials", "1", "--format", "json"],
                         capsys)
        doc = json.loads(out, parse_constant=reject)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["std_error"] is None
        _, out = run_cli(["crash-mc", "--trials", "1"], capsys)
        assert parse_table(out)[2][0]["std_error"] == "inf"

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
        def biased(trace, model, trials, seed):
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

    def test_front_start_has_empty_passage(self, capsys):
        code, out = run_cli(["microstructure", "--set", "model.position=1",
                             "--set", "micro.samples=16"], capsys)
        assert code == 0
        meta, _, _ = parse_table(out)
        assert float(meta["summary.passage_duration_inner"]) == 0.0
