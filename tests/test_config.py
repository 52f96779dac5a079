import inspect

import pytest

from breakaway.config import SCHEMA, ConfigError, RunConfig
from breakaway.crash import CrashModel
from breakaway.flat import CD_FRONT_CALIBRATED, CD_LURK_CALIBRATED, StrategyProblem
from breakaway.microstructure import DragParams, attack_onset
from breakaway.terrain import simulate_breakaway


class TestDefaults:
    def test_reference_calibration(self):
        cfg = RunConfig.defaults()
        assert cfg.get("model.position") == 5.0
        assert cfg.get("model.cd_lurk") == 0.46
        assert cfg.get("model.cd_front") == 1.43
        assert cfg.get("model.decay") == 0.25
        assert cfg.get("crash.omega") == 0.5
        assert cfg.get("crash.intensity") == 2.0
        assert cfg.get("crash.n_riders") == 75
        assert cfg.get("terrain.epsilon") == 0.005

    def test_builders(self):
        cfg = RunConfig.defaults()
        problem = cfg.strategy_problem()
        assert problem.cd_front == 1.43
        assert problem.crash.n_riders == 75
        assert cfg.p_sustain() is None   # 0 means "use the lurking power"
        assert cfg.with_value("fatigue.p_sustain", 0.7).p_sustain() == 0.7


    def test_schema_defaults_are_the_library_defaults(self):
        # one calibration: each SCHEMA default equals the library default it feeds
        def defaults(fn):
            return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

        drag, crash, problem = DragParams(), CrashModel(), StrategyProblem()
        ride, onset = defaults(simulate_breakaway), defaults(attack_onset)
        fed = {
            "model.cd_max": drag.cd_max, "model.cd_min": drag.cd_min,
            "model.decay": drag.decay,
            "crash.omega": crash.omega, "crash.intensity": crash.intensity,
            "crash.n_riders": crash.n_riders,
            "strategy.energy_budget": problem.energy_budget,
            "strategy.risk_index": problem.risk_index, "model.position": problem.position,
            "model.cd_front": problem.cd_front, "model.cd_lurk": problem.cd_lurk,
            "terrain.epsilon": ride["inertia"], "terrain.gravity_ratio": ride["gravity_ratio"],
            "model.mass_ratio": ride["mass_ratio"], "micro.gamma_ratio": onset["gamma_ratio"],
            "model.cd_avg": drag.cd_max / CD_FRONT_CALIBRATED,
        }
        for name, value in fed.items():
            assert SCHEMA[name][1] == value, name
        assert (problem.cd_front, problem.cd_lurk) == (CD_FRONT_CALIBRATED, CD_LURK_CALIBRATED)
        assert (ride["cd_front"], ride["cd_lurk"]) == (CD_FRONT_CALIBRATED, CD_LURK_CALIBRATED)
        assert onset["mass_ratio"] == ride["mass_ratio"]
        # the one exception: the CLI prints 513 samples, while criterion 9
        # runs attack_onset at its library default
        assert (SCHEMA["micro.samples"][1], onset["n_samples"]) == (513, 2001)


class TestOverrides:
    def test_dotted_and_bare_keys(self):
        cfg = RunConfig.defaults().with_value("strategy.risk_index", 0.4)
        assert cfg.get("strategy.risk_index") == 0.4
        cfg = cfg.with_value("omega", "0.7")   # bare key, unique
        assert cfg.get("crash.omega") == 0.7

    def test_ambiguous_bare_key(self):
        # several sections define attack_power and epsilon
        with pytest.raises(ConfigError, match="ambiguous"):
            RunConfig.defaults().with_value("attack_power", 3.0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.defaults().with_value("strategy.nonsense", 1.0)

    def test_type_coercion(self):
        cfg = RunConfig.defaults().with_value("sweep.points", "11")
        assert cfg.get("sweep.points") == 11
        cfg = cfg.with_value("terrain.quasi_steady", "true")
        assert cfg.get("terrain.quasi_steady") is True
        with pytest.raises(ConfigError):
            cfg.with_value("sweep.points", "eleven")

    def test_precedence_file_then_set(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[strategy]\nrisk_index = 0.3\nenergy_budget = 1.5\n")
        cfg = RunConfig.load(ini, overrides=["strategy.risk_index=0.9"])
        assert cfg.get("strategy.risk_index") == 0.9   # override wins
        assert cfg.get("strategy.energy_budget") == 1.5  # file beats default

    def test_malformed_sources(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nowhere]\nkey = 1\n")
        with pytest.raises(ConfigError, match="section"):
            RunConfig.load(bad)
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.load(None, overrides=["just-a-name"])
        with pytest.raises(ConfigError):
            RunConfig.load(tmp_path / "missing.ini")

    def test_echo_covers_every_key(self):
        cfg = RunConfig.defaults()
        names = {name for name, _ in cfg.echo_items()}
        from breakaway.config import SCHEMA
        assert names == set(SCHEMA)

    def test_copy_and_pickle_keep_the_values(self):
        import copy
        import pickle

        cfg = RunConfig.load(overrides=["risk_index=0.3"])
        for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert type(twin) is RunConfig and twin == cfg
            assert twin.get("strategy.risk_index") == 0.3


class TestIniValues:
    """INI values are read verbatim, and [DEFAULT] is no special section."""

    def run(self, tmp_path, capsys, text, command="flat"):
        from breakaway.cli import main

        ini = tmp_path / "run.ini"
        ini.write_text(text)
        code = main([command, "--config", str(ini)])
        return code, capsys.readouterr()

    def test_percent_is_a_character(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, "[strategy]\nrisk_index = 50%\n")
        assert code == 1
        assert out.err == "error: bad value for strategy.risk_index: '50%'\n"
        code, out = self.run(tmp_path, capsys, "[terrain]\ncourse = a%(x)s\n", "terrain")
        assert code == 1
        assert out.err.startswith("error: bad value for terrain.course: 'a%(x)s' (")
        assert out.err.count("\n") == 1

    def test_key_names_keep_their_case(self, tmp_path, capsys):
        # as --set keys do: Risk_Index is no key of the schema
        code, out = self.run(tmp_path, capsys, "[strategy]\nRisk_Index = 0.3\n")
        assert code == 1
        assert out.err == "error: unknown key strategy.Risk_Index\n"
        assert out.out == ""

    def test_default_section_is_unknown(self, tmp_path, capsys):
        for text in ("[DEFAULT]\nrisk_index = 0.3\n",
                     "[DEFAULT]\nrisk_index = 0.3\n[crash]\nomega = 0.6\n"):
            code, out = self.run(tmp_path, capsys, text)
            assert code == 1
            assert out.err == "error: unknown config section [DEFAULT]\n"
            assert out.out == ""
