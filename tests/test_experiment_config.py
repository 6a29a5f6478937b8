"""Configuration parsing, validation, and round-trip identity."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from ris_sim.experiment_config import (
    _CHECKED_TYPES,
    LOAD_BOUNDS,
    ConfigError,
    ExperimentConfig,
    SweepConfig,
    config_digest,
    dbm_to_watts,
    dump_config,
    load_config,
    with_overrides,
)

COMMANDS = ("topology", "validate-power", "outage-sweep", "sis-sim", "r0-sweep", "validate-laplace")


class TestLoading:
    def test_defaults(self):
        cfg = load_config(text="")
        assert cfg == ExperimentConfig()

    def test_roundtrip_identity(self):
        cfg = ExperimentConfig(
            seed=7, lambda_u=3e-3, power_dbm=-12.5,
            sweep=SweepConfig(axis="ue_density", grid=(1e-3, 1e-2)),
        )
        assert load_config(text=dump_config(cfg)) == cfg

    def test_roundtrip_of_default(self):
        cfg = ExperimentConfig()
        assert load_config(text=dump_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(text="bogus_key: 3\n")

    @pytest.mark.parametrize("key", ["abm_x0", "frequency_ghz"])
    def test_keys_no_command_read_are_rejected(self, key):
        # each panel sets its own infected count, and only a frequency sweep
        # (from its grid) turns a carrier into a path gain
        with pytest.raises(ConfigError, match=key):
            load_config(text=f"{key}: 5\n")

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(text="sweep:\n  axis: power_dbm\n  grid: [1]\n  nope: 2\n")

    def test_bad_yaml(self):
        with pytest.raises(ConfigError):
            load_config(text="a: [unclosed")

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")),
        ids=lambda p: p.stem,
    )
    def test_shipped_config_loads(self, path):
        # every command's load bounds leave the shipped configs alone
        cfg = load_config(path)
        for command in COMMANDS:
            cfg.check_load(command)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config(path="/nonexistent/file.yaml")


class TestValidation:
    def test_one_axis_only(self):
        with pytest.raises(ConfigError):
            SweepConfig(axis="both_of_them")

    def test_grid_must_be_sorted(self):
        with pytest.raises(ConfigError):
            SweepConfig(axis="ue_density", grid=(1e-2, 1e-3))

    def test_grid_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            SweepConfig(axis="ue_density", grid=())

    def test_every_field_type_is_checked(self):
        # each field is checked by _check_numbers (sweep is built from its
        # mapping): a field of another type, a bool say, would load whatever
        # YAML value it is given
        known = set(_CHECKED_TYPES) | {"SweepConfig"}
        for config in (ExperimentConfig, SweepConfig):
            assert [f.name for f in fields(config) if f.type not in known] == []

    def test_reflected_form_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(reflected_form="wrong")

    def test_elements_must_be_positive(self):
        with pytest.raises(ConfigError):
            load_config(text="n_elements: 0\n")

    @pytest.mark.parametrize(
        "text,key",
        [
            ("sinr_threshold: 1.0e6\n", "sinr_threshold"),
            ("power_dbm: high\n", "power_dbm"),
            ("trials: 1.0e+5\n", "trials"),
            ("seed: true\n", "seed"),
            ("sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e6]\n", "grid"),
        ],
    )
    def test_non_numeric_value_named(self, text, key):
        with pytest.raises(ConfigError, match=key):
            load_config(text=text)

    @pytest.mark.parametrize("text", ["sweep: 5\n", "sweep:\n  axis: ue_density\n  grid: 5\n"])
    def test_malformed_sweep_rejected(self, text):
        with pytest.raises(ConfigError):
            load_config(text=text)

    # a validity case (no command) is refused by load_config itself; a load
    # case loads, and the command that pays its amount refuses it before
    # its work, as cli.main checks it right after loading
    @pytest.mark.parametrize("text,command", [pytest.param(*case, id=case[0]) for case in [
        ("alpha: .nan\n", None),
        ("window_radius: .inf\n", None),
        ("r_b: 1.0e+300\n", None),  # overflows the hard-core check
        ("power_dbm: -1.0e+8\n", None),  # 0 W, the transmit power of sis-sim's panels
        # clusters wider than the window, or under a millimetre
        ("r_r: 1.0e+300\n", None),
        ("r_r: 1.0e-300\n", None),
        ("r_r: 1.0e-30\n", None),
        ("seed: -1\n", None),
        ("abm_steps: 0\n", None),
        ("out_dir: 5\n", None),
        ("lambda_r: -1.0\n", None),  # rejected by the derived topology
        ("window_radius: 1.0e+5\n", "topology"),  # ~3e8 expected users
        ("lambda_r: 3.0\n", "outage-sweep"),  # ~3e8 BS x surface pairs per trial
        ("r_i: 1.0e+5\n", "validate-laplace"),  # ~1e10 moved users per trial
        # 1e10 serving-hop draws: about 10 minutes at 60 ns per hop
        ("n_elements: 100000\ntrials: 100000\n", "validate-power"),
        # ~8e7 agent contact pairs per step at the densest sis-sim panel
        ("r_i: 500.0\nabm_agents: 20000\nabm_steps: 1\nabm_ensemble_runs: 1\n", "sis-sim"),
        ("abm_agents: 100000000\nr_i: 1.0e-3\n", "sis-sim"),  # 1e8 agents, few contacts
        # 1e10 agent trajectory points (an 80 GB array of infected counts)
        ("abm_steps: 100000000\nabm_ensemble_runs: 100\nabm_agents: 10\n", "sis-sim"),
        # trials outside [1, 5e6]
        ("trials: 0\n", None),
        ("trials: 5000001\n", None),
        ("n_elements: 1\nlambda_r: 1.0e-9\ntrials: 50000000\n", None),
        ("n_elements: 1\ntrials: 50000000\n", None),
        # ~2e10 Monte Carlo pair draws: about 0.3 h at 53 us per trial
        ("n_elements: 1\nlambda_r: 1.0e-9\ntrials: 5000000\n", "outage-sweep"),
        ("n_elements: 1\ntrials: 5000000\n", "outage-sweep"),  # about 0.4 h at 132 us per trial
        ("r_i: 1000.0\n", "outage-sweep"),  # ~1e6 moved users per trial, 1e5 trials: about 4.5 h
        # 3.6e10 agent-steps: hours at ~5e6 agent-steps per second
        ("abm_agents: 600\nabm_steps: 166000\nabm_ensemble_runs: 60\n", "sis-sim"),
        # 1.4e9 agent-steps, each with ~57 contact pairs at the densest panel:
        # about an hour at 4e5 agent-steps per second
        ("r_i: 60.0\nabm_agents: 2000\nabm_steps: 2000\nabm_ensemble_runs: 60\n", "sis-sim"),
        ("lambda_r: 3.0e-2\nsweep:\n  axis: ue_density\n  grid: [1.0e-3]\n"
         # Monte Carlo pair draws at lambda_b and 1e5 trials; the groups add none
         "  group_grid: [1.0e-5, 1.2e-4]\n", "validate-laplace"),
        ("sweep:\n  axis: ue_density\n  grid: [-1.0, 1.0e-3]\n", None),
        ("sweep:\n  axis: frequency_ghz\n  grid: [0.0, 1.0]\n", None),
        # a removed key is unknown
        ("gain_tx: -1.0\nsweep:\n  axis: frequency_ghz\n  grid: [1.0]\n", None),
        ("sweep:\n  axis: ue_density\n  grid: [1.0e-3]\n  group_grid: [-1.0]\n", None),
        # an element count that int() would truncate
        ("sweep:\n  axis: ris_elements\n  grid: [200.9, 201.0]\n", None),
    ]])
    def test_rejected_at_load(self, text, command):
        if command is None:
            with pytest.raises(ConfigError):
                load_config(text=text)
        else:
            cfg = load_config(text=text)
            with pytest.raises(ConfigError, match=", above "):
                cfg.check_load(command)

    def test_laplace_pair_draws_count_the_trials_it_runs(self):
        # validate-laplace runs 1e5 trials at most, whatever trials says
        text = "trials: 5000000\nlambda_r: 2.0e-4\n"
        cfg = load_config(text=text)
        assert cfg.laplace_trials == 100_000
        cfg.check_load("validate-laplace")
        with pytest.raises(ConfigError, match="Monte Carlo pair draws"):
            cfg.check_load("outage-sweep")

    # 1000 trials keep the base's Monte Carlo work under its bound
    PAIR_BASE = "trials: 1000\nlambda_r: 3.0e-2\nsweep:\n  axis: ue_density\n  grid: [1.0e-3]\n"

    def test_pair_budget_ignores_bs_groups(self):
        # only r0-sweep reads the groups, and it samples no pair
        text = self.PAIR_BASE + "  group_grid: [1.2e-4]\n"
        cfg = load_config(text=text)
        for command in COMMANDS:
            cfg.check_load(command)

    def test_pair_budget_at_lambda_b(self):
        load_config(text=self.PAIR_BASE).check_load("validate-laplace")
        cfg = load_config(text=self.PAIR_BASE + "lambda_b: 1.2e-4\n")
        for command in ("outage-sweep", "validate-laplace"):
            with pytest.raises(ConfigError, match="lambda_b=0.00012 .* pairs"):
                cfg.check_load(command)

    @pytest.mark.parametrize(
        "text,row",
        [
            # 2.5e6 trials at 53 us: 131 s serially on 2 vCPUs
            ("n_elements: 1\nlambda_r: 1.0e-9\ntrials: 2500000\n",
             "expected Monte Carlo pair draws"),
            # 1.3e9 agent-steps: 271 s serially on 2 vCPUs
            ("abm_agents: 600\nabm_steps: 1000\nabm_ensemble_runs: 370\n",
             "expected agent-steps"),
            # 4.9e9 serving hops (validate-power): 302 s serially on 2 vCPUs
            ("trials: 100000\nn_elements: 49000\n", "serving-hop draws"),
            # 9.4e5 users: 4.3 s on 2 vCPUs
            ("lambda_u: 3.0e-1\n", "expected topology distances"),
        ],
    )
    def test_just_under_a_work_bound_loads(self, text, row):
        # the largest amount of the row that any command pays
        cfg = load_config(text=text)
        amount = max(amount for command in COMMANDS
                     for _, amount, name in cfg.expected_load(command) if name == row)
        assert 0.9 * LOAD_BOUNDS[row] < amount <= LOAD_BOUNDS[row]

    def test_series_order_range(self):
        # the outage series takes its order from the fitted gamma shape, so
        # no value of the key is in range
        refused = r"unknown configuration keys: \['series_order'\]"
        for order in (0, 6, 60):
            with pytest.raises(ConfigError, match=refused):
                load_config(text=f"series_order: {order}\n")

    def test_hard_core_density_reachable(self):
        with pytest.raises(ConfigError):
            load_config(text="lambda_b: 1.0e-3\nr_b: 50\n")
        with pytest.raises(ConfigError):
            with_overrides(ExperimentConfig(), lambda_b=1.3e-4)
        assert ExperimentConfig(lambda_b=1.2e-4).lambda_b == 1.2e-4


class TestDerived:
    def test_dbm_conversion(self):
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_outage_params_auto_series_order(self):
        op = ExperimentConfig().outage_params()
        assert op.series_order == 6

    def test_digest_stable_and_sensitive(self):
        cfg = ExperimentConfig()
        assert config_digest(cfg) == config_digest(ExperimentConfig())
        assert config_digest(with_overrides(cfg, seed=99)) != config_digest(cfg)

    def test_digest_ignores_out_dir(self):
        cfg = ExperimentConfig()
        assert config_digest(with_overrides(cfg, out_dir="elsewhere")) == config_digest(cfg)

    def test_with_overrides_ignores_none(self):
        cfg = ExperimentConfig()
        assert with_overrides(cfg, seed=None) == cfg


class TestSchemaDoc:
    """configs/schema.md documents exactly the keys the configuration has."""

    TEXT = (Path(__file__).resolve().parents[1] / "configs" / "schema.md").read_text()

    def test_top_level_keys(self):
        # a key is documented in the first cell of a table row
        documented = set()
        for line in self.TEXT.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        expected = {f.name for f in fields(ExperimentConfig)} - {"sweep"}
        assert documented == expected

    def test_load_bounds_table(self):
        # the rows of the "Load bounds" table: quantity, formula, bound
        section = self.TEXT.split("## Load bounds", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|") for line in section.splitlines() if line.startswith("| ")]
        documented = {cells[1].strip(): float(cells[-2]) for cells in rows[1:]}
        assert documented == LOAD_BOUNDS

    def test_sweep_keys(self):
        block = self.TEXT.split("```yaml\n", 1)[1].split("```", 1)[0].splitlines()
        assert block[0] == "sweep:"
        documented = {line.split(":")[0].strip() for line in block[1:]}
        assert documented == {f.name for f in fields(SweepConfig)}
