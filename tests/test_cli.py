"""Command-line surface: exit codes, output contracts, determinism."""

import csv
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_sim
from ris_sim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from ris_sim.experiment_config import LOAD_BOUNDS, load_config

SRC = str(Path(ris_sim.__file__).resolve().parents[1])

# address-space limit of the child processes that check memory bounds: far
# above what the bounded runs need, far below a runaway allocation
ADDRESS_SPACE = 2_500_000_000


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run_cli(tmp_path: Path, config_text: str, command: str, *,
             limit_memory: bool = False) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so a traceback would reach stderr, with
    numpy's warnings raised as errors, as the suite raises them in process;
    ``limit_memory`` caps its address space at ``ADDRESS_SPACE``."""
    cfg = _write(tmp_path, "bad.yaml", config_text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ris_sim.cli",
         "--config", cfg, "--trials", "100", "--out", str(tmp_path / "o"), command],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space if limit_memory else None,
    )


def _run_script(script: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _read_rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def _data_lines(path: Path) -> list[bytes]:
    """CSV lines without the config header, which embeds out_dir."""
    return [l for l in path.read_bytes().splitlines() if not l.startswith(b"#")]


def _data_digest(path: Path) -> str:
    """sha256 of the data lines joined by newlines."""
    return hashlib.sha256(b"\n".join(_data_lines(path))).hexdigest()


_SMALL_SIS = "abm_agents: 30\nabm_steps: 8\nabm_ensemble_runs: 3\n"

# (config, a command that pays the row, the load row that refuses it), at
# the CLI's 100 trials
_BUDGET_CASES = [
    # ~3e8 users in the window
    ("window_radius: 1.0e+5\n", "topology", "expected points of one field"),
    # 9.4e6 BSs for 31,416 users: 124 s and 1.2 GB with a k-d tree
    ("lambda_b: 3.0\nr_b: 1.0e-100\n", "topology", "topology distances"),
    # 9.4e6 users and their CSV rows: 85 s and 468 MB
    ("lambda_u: 3.0\n", "topology", "topology distances"),
    # ~1e10 network-field movers per trial
    ("r_i: 1.0e+5\n", "outage-sweep", "moved users per trial"),
    ("abm_agents: 100000000\nr_i: 1.0e-3\n", "sis-sim", "agents"),
    # ~8e7 agent contact pairs in one sis-sim step
    ("r_i: 500.0\nabm_agents: 20000\nabm_steps: 1\nabm_ensemble_runs: 1\n", "sis-sim",
     "contact pairs per step"),
    # an 80 GB array of 100 runs x 1e8 steps of infected counts
    ("abm_steps: 100000000\nabm_ensemble_runs: 100\nabm_agents: 10\n", "sis-sim",
     "agent trajectory points"),
    # 1000 trials x 1e8 elements of Nakagami hops: about 1.4 h
    ("n_elements: 100000000\n", "validate-power", "serving-hop draws"),
    # ~3e8 BS x surface pairs per trial
    ("lambda_r: 3.0\n", "outage-sweep", "BS x surface pairs per trial"),
    # ~8e6 pairs per trial for at least 1000 trials: about 5 minutes
    ("lambda_r: 8.0e-2\n", "validate-laplace", "Monte Carlo pair draws"),
    # 3.6e10 agent-steps: hours
    ("abm_agents: 600\nabm_steps: 166000\nabm_ensemble_runs: 60\n", "sis-sim",
     "agent-steps"),
]


class TestExitCodes:
    def test_bad_config_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.yaml", "not_a_key: 1\n")
        assert main(["--config", cfg, "topology"]) == EXIT_CONFIG

    def test_topology_without_base_stations(self, tmp_path):
        cfg = _write(tmp_path, "nobs.yaml", "lambda_b: 0.0\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "topology"]) == EXIT_CONFIG

    def test_r0_sweep_needs_proper_axis(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "r0-sweep"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text,command",
        [
            ("lambda_b: 1.0e-3\nr_b: 50\n", "outage-sweep"),
            ("lambda_b: 1.0e-3\nr_b: 50\n", "topology"),
            ("n_elements: 0\n", "outage-sweep"),
            ("power_dbm: -1.0e+8\n", "sis-sim"),  # 0 W
            ("series_order: 61\n", "outage-sweep"),
            # PyYAML reads an exponent without a sign as a string
            ("sinr_threshold: 1.0e6\n", "outage-sweep"),
            # keys no command reads
            ("abm_x0: 5\n", "sis-sim"),
            ("frequency_ghz: 28.0\n", "validate-power"),
            ("gain_tx: 1.0\n", "validate-power"),
        ],
    )
    def test_impossible_parameters_exit_config(self, tmp_path, text, command):
        proc = _run_cli(tmp_path, text, command)
        assert proc.returncode == EXIT_CONFIG
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

    # a 1 mm window holds clusters of at most its own radius
    @pytest.mark.parametrize("text", ["lambda_b: 0.0\n", "window_radius: 1.0e-3\nr_r: 1.0e-3\n"])
    def test_validate_laplace_without_base_stations(self, tmp_path, text):
        # whole chunks without a BS, their moved users served by none
        proc = _run_cli(tmp_path, text, "validate-laplace")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text,command,reason", _BUDGET_CASES)
    def test_draw_budgets_exit_config_under_memory_limit(self, tmp_path, text, command, reason):
        proc = _run_cli(tmp_path, text, command, limit_memory=True)
        assert proc.returncode == EXIT_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and f"{reason}, above" in lines[0]

    # a frequency sweep always shrinks r_i with the wavelength from its value
    # at 1 GHz, and the group grid always lists BS densities: these settings
    # are refused by name as unknown sweep keys, a quoted bool included
    @pytest.mark.parametrize("text, named", [
        ("  r_i_scales_with_wavelength: true\n", "r_i_scales_with_wavelength"),
        ('  r_i_scales_with_wavelength: "false"\n', "r_i_scales_with_wavelength"),
        ("  reference_frequency_ghz: 1.0\n", "reference_frequency_ghz"),
        ("  group_by: ris_elements\n  group_grid: [100.0]\n", "group_by"),
    ])
    def test_unsupported_sweep_settings_exit_config(self, tmp_path, capsys, text, named):
        sweep = "sweep:\n  axis: frequency_ghz\n  grid: [1.0, 3.0]\n" + text
        out = tmp_path / "o"
        assert main(["--config", _write(tmp_path, "c.yaml", sweep), "--out", str(out),
                     "r0-sweep"]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"configuration error: unknown sweep keys: ['{named}']"
        assert not out.exists()

    def test_every_load_bound_has_a_refusing_case(self):
        # each case names one row, and each row has a case
        named = [[row for row in LOAD_BOUNDS if row.endswith(reason)]
                 for *_, reason in _BUDGET_CASES]
        assert all(len(rows) == 1 for rows in named)
        assert {rows[0] for rows in named} == set(LOAD_BOUNDS)

    def test_overrides_apply_before_the_check(self, tmp_path):
        # 300000 trials of 20000 elements in the file exceed the serving-hop
        # budget; the 2000 given on the command line do not
        cfg = _write(tmp_path, "big.yaml", "trials: 300000\nn_elements: 20000\n")
        argv = ["--config", cfg, "--trials", "2000", "--seed", "3",
                "--out", str(tmp_path / "o"), "validate-power"]
        assert main(argv) == EXIT_OK

    def test_overrides_are_checked(self, tmp_path):
        cfg = _write(tmp_path, "small.yaml", "trials: 10\nn_elements: 20000\n")
        argv = ["--config", cfg, "--trials", "300000", "--out", str(tmp_path / "o"),
                "validate-power"]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    # lambda_b = lambda_r = 1e-4: about 1e5 BS x surface pairs per trial, so
    # the default 1e5 trials are 2.26e10 Monte Carlo pair draws, which only
    # the two ensembles pay
    @pytest.mark.parametrize("command, text, code", [pytest.param(*case, id=case[0]) for case in [
        ("topology", "", EXIT_OK),
        ("r0-sweep", "sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n", EXIT_OK),
        ("sis-sim", _SMALL_SIS, EXIT_OK),
        ("validate-power", "trials: 50000\n", EXIT_OK),
        ("outage-sweep", "", EXIT_CONFIG),
        ("validate-laplace", "", EXIT_CONFIG),
    ]])
    def test_dense_config_refused_only_where_paid(self, tmp_path, capsys, command, text, code):
        cfg = _write(tmp_path, "dense.yaml", "lambda_b: 1.0e-4\nlambda_r: 1.0e-4\n" + text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), command]) == code
        if code == EXIT_CONFIG:
            assert capsys.readouterr().err == (
                "configuration error: trials=100000 and lambda_b=0.0001 and r_b=50.0 and "
                "lambda_r=0.0001 and lambda_u=0.01 and r_i=10.0 and window_radius=1000.0 "
                "give 2.26e+10 expected Monte Carlo pair draws, above 1e+10\n")
            assert not out.exists()

    @pytest.mark.parametrize("command", [
        "topology", "validate-power", "outage-sweep", "sis-sim", "r0-sweep", "validate-laplace"])
    def test_trials_above_the_range_exit_config(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main(["--trials", "5000001", "--out", str(out), command]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: trials must lie in [1, 5000000], got 5000001\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["r0-sweep", "validate-laplace"])
    def test_numeric_failure_exits_validation(self, tmp_path, command):
        # alpha just above 2 overflows the outage jet and fails the quadrature
        text = (
            "alpha: 2.0001\nsinr_threshold: 1.0e+6\n"
            "sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n"
        )
        proc = _run_cli(tmp_path, text, command)
        assert proc.returncode == EXIT_VALIDATION
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oracle_underflow_exits_validation(self, tmp_path):
        # a strong path gain drives the transform below the smallest float:
        # no relative error can be formed against an oracle value of 0.0
        proc = _run_cli(tmp_path, "pathloss_const: 1.0e+3\nlambda_r: 1.0e-4\n",
                        "validate-laplace")
        assert proc.returncode == EXIT_VALIDATION
        lines = proc.stderr.splitlines()
        assert lines[-1] == (
            "numeric failure: ArithmeticError: quadrature oracle underflows to 0.0 at "
            "s=1e+06 (before stage), so no relative error can be taken against it")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_jet_overflow_leaves_one_line_without_a_warning(self, tmp_path):
        # a noise-limited link at order 60 (fitted shape 74.5, capped): the
        # jet's recurrence overflows, which the finiteness check reports, not
        # numpy
        text = "power_dbm: -150\nnoise_dbm: 40\nn_elements: 1000\n"
        proc = _run_cli(tmp_path, text, "outage-sweep")
        assert proc.returncode == EXIT_VALIDATION
        assert ("numeric failure: ArithmeticError: jet exp produced non-finite "
                "coefficients") in proc.stderr
        assert "Warning" not in proc.stderr


class TestFailFast:
    def test_validate_laplace_fails_before_the_ensembles(self, tmp_path, monkeypatch):
        from ris_sim import montecarlo

        def no_ensemble(*args, **kwargs):
            raise AssertionError("ensemble built before the quadrature oracle ran")

        monkeypatch.setattr(montecarlo, "run_ensemble", no_ensemble)
        cfg = _write(tmp_path, "bad.yaml", "alpha: 2.0001\nsinr_threshold: 1.0e+6\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "validate-laplace"]) == EXIT_VALIDATION
        assert not out.exists()


class TestAtomicWrites:
    @staticmethod
    def _rows_then_failure():
        yield (1.0, "a")
        yield (2.0, "b")
        raise ArithmeticError("row formatting failed")

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        from ris_sim.cli import _write_csv
        from ris_sim.experiment_config import ExperimentConfig

        path = tmp_path / "out.csv"
        path.write_text("old contents\n")
        with pytest.raises(ArithmeticError):
            _write_csv(path, ExperimentConfig(), ["x", "y"], self._rows_then_failure())
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        from ris_sim.cli import _write_csv
        from ris_sim.experiment_config import ExperimentConfig

        with pytest.raises(ArithmeticError):
            _write_csv(tmp_path / "out.csv", ExperimentConfig(), ["x"], self._rows_then_failure())
        assert list(tmp_path.iterdir()) == []

    def test_successful_write_replaces_the_old_file(self, tmp_path):
        from ris_sim.cli import _write_csv
        from ris_sim.experiment_config import ExperimentConfig

        path = tmp_path / "out.csv"
        path.write_text("old contents\n")
        _write_csv(path, ExperimentConfig(), ["x", "y"], [(1.5, "a")])
        lines = path.read_text().splitlines()
        assert lines[-2:] == ["x,y", "1.5,a"]
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestTopologyCommand:
    def test_writes_points_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--seed", "5", "--out", str(out), "topology"]) == EXIT_OK
        rows = _read_rows(out / "topology.csv")
        kinds = {r["kind"] for r in rows}
        assert kinds == {"bs", "ris", "ue"}
        captured = capsys.readouterr()
        assert "min BS spacing" in captured.out
        assert sorted(p.name for p in out.iterdir()) == ["topology.csv"]
        # plain float reprs, readable back with float()
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("x", "y"))

    def test_min_spacing_is_the_closest_pair(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--seed", "5", "--out", str(out), "topology"]) == EXIT_OK
        printed = float(capsys.readouterr().out.split("min BS spacing:")[1])
        bs = [(float(r["x"]), float(r["y"])) for r in _read_rows(out / "topology.csv")
              if r["kind"] == "bs"]
        closest = min(math.dist(a, b) for i, a in enumerate(bs) for b in bs[:i])
        assert printed == pytest.approx(closest, rel=1e-12)
        assert printed >= 50.0  # the hard-core radius r_b

    def test_rows_match_the_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--seed", "5", "--out", str(out), "topology"]) == EXIT_OK
        lines = _data_lines(out / "topology.csv")
        assert lines[0] == b"kind,index,x,y,parent_index,serving_index"
        kinds = [line.split(b",")[0].decode() for line in lines[1:]]
        # the kinds in bs, ris, ue order, as many as the summary counts
        summary = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        counts = [int(summary[k]) for k in ("base stations", "surfaces", "users")]
        assert kinds == ["bs"] * counts[0] + ["ris"] * counts[1] + ["ue"] * counts[2]

    def test_points_are_the_sampled_deployment(self, tmp_path):
        # the fields of one trial of the Monte Carlo sampler, then the users,
        # from SeedSequence(seed); coordinates read back exactly
        from ris_sim.geometry import sample_hppp
        from ris_sim.montecarlo import sample_fields

        out = tmp_path / "run"
        assert main(["--seed", "5", "--out", str(out), "topology"]) == EXIT_OK
        topo = load_config(None, overrides={"seed": 5}).topology_config()
        rng = np.random.default_rng(np.random.SeedSequence(5))
        bs, _, ris, parent, _ = sample_fields(topo, rng, 1)
        ue = sample_hppp(topo.lambda_u, topo.window, rng)
        rows = _read_rows(out / "topology.csv")
        assert [(float(r["x"]), float(r["y"])) for r in rows] == [
            tuple(p) for p in np.concatenate((bs, ris, ue))]
        assert [int(r["parent_index"]) for r in rows if r["kind"] == "ris"] == parent.tolist()

    def test_association_is_nearest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--seed", "5", "--out", str(out), "topology"]) == EXIT_OK
        rows = _read_rows(out / "topology.csv")

        def points(kind):
            return [r for r in rows if r["kind"] == kind], np.array(
                [(float(r["x"]), float(r["y"])) for r in rows if r["kind"] == kind])

        (bs_rows, bs), (ris_rows, ris), (ue_rows, ue) = map(points, ("bs", "ris", "ue"))
        assert bs.shape[0] > 1 and ris.shape[0] > 0 and ue.shape[0] > 0
        # each user's serving BS is its nearest one
        d = np.linalg.norm(ue[:, None, :] - bs[None, :, :], axis=2)
        chosen = d[np.arange(ue.shape[0]), [int(r["serving_index"]) for r in ue_rows]]
        assert (chosen <= d.min(axis=1) + 1e-12).all()
        # each BS's serving surface is its nearest cluster child, none for
        # an empty cluster
        parent = np.array([int(r["parent_index"]) for r in ris_rows])
        for i, r in enumerate(bs_rows):
            children = np.flatnonzero(parent == i)
            if children.size == 0:
                assert r["serving_index"] == ""
                continue
            d = np.linalg.norm(ris[children] - bs[i], axis=1)
            assert int(r["serving_index"]) in children
            assert np.linalg.norm(ris[int(r["serving_index"])] - bs[i]) <= d.min() + 1e-12

    # about 3 points of each field, whatever the window
    @staticmethod
    def _sparse(window_radius):
        density = 3.0 / (math.pi * window_radius**2)
        return f"window_radius: {window_radius:.1e}\n" + "".join(
            f"{key}: {density:.1e}\n" for key in ("lambda_b", "lambda_r", "lambda_u"))

    def test_window_beyond_the_cell_list_bound_exits_config(self, tmp_path):
        # the Matern cell list's widening divided by zero here (exit 3)
        proc = _run_cli(tmp_path, self._sparse(7.0e153), "topology")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            "configuration error: window_radius=7e+153 and r_b=50.0: "
            "window_radius + r_b must be at most 1e150"]
        assert not (tmp_path / "o").exists()

    def test_window_at_the_bound_runs(self, tmp_path):
        proc = _run_cli(tmp_path, self._sparse(1.0e150), "topology")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "base stations: " in proc.stdout

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_bs", [1, 7, 3000])
    def test_nearest_bs_is_the_ensembles_search(self, seed, n_bs):
        # users beyond the BSs' hull included; 3000 BSs split 1000 users into
        # blocks of 349 and a remainder
        from ris_sim.cli import _nearest_bs
        from ris_sim.geometry import Window
        from ris_sim.montecarlo import _nearest_bs_in_trial

        rng = np.random.default_rng(seed)
        bs = Window("disk", radius=100.0).sample_uniform(n_bs, rng)
        for n_ue in (1000, 0):
            ue = Window("disk", radius=300.0).sample_uniform(n_ue, rng)
            expected = _nearest_bs_in_trial(bs, np.array([0, n_bs]), ue, np.zeros(n_ue, dtype=int))
            assert _nearest_bs(ue, bs).tolist() == expected.tolist()

    def test_nearest_bs_ties_and_no_bs(self):
        from ris_sim.cli import _nearest_bs

        # the origin is 1 from the last three BSs: the lowest index of them wins
        bs = np.array([[5.0, 5.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        ue = np.array([[0.0, 0.0], [0.0, -2.0], [9.0, 9.0]])
        assert _nearest_bs(ue, bs).tolist() == [1, 3, 0]
        assert _nearest_bs(ue, np.empty((0, 2))).tolist() == [-1, -1, -1]

    @pytest.mark.parametrize("n_bs,radius", [(2, 1.0), (3, 1.0), (50, 1e-2), (500, 1e3), (2000, 1e5)])
    def test_min_spacing_is_the_brute_force_minimum(self, n_bs, radius):
        from ris_sim.cli import _min_spacing
        from ris_sim.geometry import Window

        rng = np.random.default_rng(n_bs)
        for _ in range(5):
            bs = Window("disk", radius=radius).sample_uniform(n_bs, rng)
            i, j = np.triu_indices(n_bs, 1)
            dx, dy = bs[i, 0] - bs[j, 0], bs[i, 1] - bs[j, 1]
            assert _min_spacing(bs, radius) == np.sqrt(dx * dx + dy * dy).min()
        # two BSs a diameter apart, and fewer than two
        assert _min_spacing(np.array([[-radius, 0.0], [radius, 0.0]]), radius) == 2.0 * radius
        # in a window whose squared diameter overflows
        assert _min_spacing(np.array([[0.0, 0.0], [1e153, 0.0]]), 7e153) == 1e153
        assert _min_spacing(bs[:1], radius) == _min_spacing(bs[:0], radius) == math.inf


class TestOutageSweep:
    def test_columns_and_ordering(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--trials", "3000", "--seed", "2", "--out", str(out), "outage-sweep"])
        assert code == EXIT_OK
        rows = _read_rows(out / "outage_sweep.csv")
        assert len(rows) == 7
        expected_cols = {
            "P_dBm", "P_o_analytic", "P_o_empirical", "stderr",
            "P_o_prime_analytic", "P_o_prime_empirical", "stderr_prime",
        }
        assert expected_cols <= set(rows[0])
        analytic = [float(r["P_o_analytic"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(analytic, analytic[1:]))
        for r in rows:
            assert float(r["P_o_prime_analytic"]) >= float(r["P_o_analytic"]) - 1e-12

    def test_bs_density_groups_refused(self, tmp_path, capsys):
        # the power grid runs at lambda_b alone, so the groups would be dropped
        out = tmp_path / "o"
        text = (f"out_dir: {out}\nsweep:\n  axis: power_dbm\n  grid: [-5.0, 0.0]\n"
                "  group_grid: [1.0e-5, 1.0e-4]\n")
        assert main(["--config", _write(tmp_path, "c.yaml", text), "outage-sweep"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: outage-sweep requires sweep axis power_dbm and no group_grid"]
        assert not out.exists()


class TestMonteCarloWorkers:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_config(self, tmp_path, capsys, threads):
        out = tmp_path / "o"
        assert main(["--threads", threads, "--out", str(out), "outage-sweep"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: --threads must be at least 1, got {threads}"]
        assert not out.exists()

    # a fresh interpreter, so that a traceback from the command or from a
    # worker would reach stderr
    FAILING_WORKER = """
import multiprocessing, os, sys
import ris_sim.cli
from ris_sim import montecarlo

caller = os.getpid()
draw = montecarlo._field_draws

def failing_draw(*args):
    if os.getpid() != caller:
        raise RuntimeError("draw failed in a worker")
    return draw(*args)

os.sched_getaffinity = lambda pid: {0, 1}
montecarlo._field_draws = failing_draw
code = ris_sim.cli.main(sys.argv[1:])
print(code, len(multiprocessing.active_children()))
"""

    def test_failing_worker_exits_validation_without_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", self.FAILING_WORKER, "--trials", "1600",
             "--threads", "2", "--out", str(tmp_path / "o"), "outage-sweep"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_VALIDATION} 0"
        assert "numeric failure: RuntimeError: draw failed in a worker" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()


class TestConfigDigest:
    def test_one_config_into_two_directories_has_one_digest(self, tmp_path):
        cfg = _write(tmp_path, "sweep.yaml",
                     "sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n")

        def header(out):
            assert main(["--config", cfg, "--out", str(out), "r0-sweep"]) == EXIT_OK
            lines = (out / "r0_sweep.csv").read_text().splitlines()
            return {line.split(":", 1)[0]: line for line in lines if line.startswith("# ")}

        a, b = header(tmp_path / "a"), header(tmp_path / "b")
        assert a["# out_dir"] != b["# out_dir"]
        assert a["# config_digest"] == b["# config_digest"]


class TestR0Sweep:
    def test_ue_density_sweep(self, tmp_path):
        cfg = _write(
            tmp_path, "sweep.yaml",
            "sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n",
        )
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "r0-sweep"]) == EXIT_OK
        rows = _read_rows(out / "r0_sweep.csv")
        assert len(rows) == 2
        assert float(rows[1]["r0"]) > float(rows[0]["r0"])

    # 1000 elements fit a gamma shape of 74.51 at the default link, summed at
    # the capped order 60
    @pytest.mark.parametrize("sweep, capped", [
        pytest.param("  axis: ris_elements\n  grid: [1000]\n",
                     ["outage series capped at order 60: largest fitted gamma shape 74.51"],
                     id="elements-1000"),
        pytest.param("  axis: ris_elements\n  grid: [100, 886]\n", [], id="elements-886"),
        pytest.param("  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n", [], id="default-link"),
    ])
    def test_capped_series_order_is_reported(self, tmp_path, capsys, sweep, capped):
        out = tmp_path / "o"
        cfg = _write(tmp_path, "c.yaml", f"out_dir: {out}\nsweep:\n{sweep}")
        assert main(["--config", cfg, "r0-sweep"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == capped + [f"wrote {out / 'r0_sweep.csv'}"]

    @pytest.mark.parametrize("fig", ["fig6", "fig7", "fig8", "fig9", "fig10"])
    def test_figure_matches_tracked_results(self, tmp_path, fig):
        # the full figure config: every sweep axis, the frequency sweeps'
        # wavelength-scaled radius and the bs_density groups included
        root = Path(__file__).resolve().parents[1]
        (cfg,) = (root / "configs").glob(f"{fig}_*.yaml")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "r0-sweep"]) == EXIT_OK
        assert _data_lines(out / "r0_sweep.csv") == _data_lines(
            root / "results" / fig / "r0_sweep.csv")


class TestStartUp:
    # what each command loads is checked by TestContracts::test_fresh_interpreter
    def test_threads_load_nothing_in_validate_power_set_up(self, tmp_path):
        # the threads that draw the serving batch start after set-up: what
        # is loaded when load_config returns does not depend on --threads
        script = (
            "import json, sys\nimport ris_sim.cli as cli\nseen = []\n"
            "load_config = cli.load_config\n"
            "def stamped(*args, **kwargs):\n"
            "    cfg = load_config(*args, **kwargs)\n"
            "    seen.append(sorted(sys.modules))\n"
            "    return cfg\n"
            "cli.load_config = stamped\n"
            "print(cli.main(sys.argv[1:]), json.dumps(seen))\n"
        )
        cfg = _write(tmp_path, "c.yaml", "trials: 5000\n")
        loaded = {}
        for threads in ("1", "2"):
            proc = _run_script(script, ["--config", cfg, "--threads", threads,
                                        "--out", str(tmp_path / threads), "validate-power"])
            assert proc.returncode == 0, proc.stderr
            code, _, seen = proc.stdout.splitlines()[-1].partition(" ")
            assert code == "0"
            (loaded[threads],) = json.loads(seen)
        assert set(loaded["2"]) - set(loaded["1"]) == set()


class TestSisSim:
    def test_small_run(self, tmp_path):
        cfg = _write(tmp_path, "sis.yaml", _SMALL_SIS)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "sis-sim"]) == EXIT_OK
        rows = _read_rows(out / "sis_abm.csv")
        panels = {r["panel"] for r in rows}
        assert panels == {"a", "b", "c", "d", "e", "f"}
        for r in rows:
            assert float(r["mean_S"]) + float(r["mean_X"]) == pytest.approx(30.0)
        assert (out / "sis_ode.csv").exists()

    def test_many_agents_run_under_memory_limit(self, tmp_path):
        # memory grows with neighbour pairs, not with agents squared
        text = "abm_agents: 200000\nabm_steps: 1\nabm_ensemble_runs: 1\n"
        proc = _run_cli(tmp_path, text, "sis-sim", limit_memory=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = _read_rows(tmp_path / "o" / "sis_abm.csv")
        assert len(rows) == 12
        assert all(float(r["mean_S"]) + float(r["mean_X"]) == 200000.0 for r in rows)

    def test_figure_5_matches_tracked_results(self, tmp_path):
        # the full Figure-5 config: 6 panels x 100 runs x 100 agents x 200 steps
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "o"
        cfg = str(root / "configs" / "fig5_sis_panels.yaml")
        assert main(["--config", cfg, "--out", str(out), "sis-sim"]) == EXIT_OK
        for name in ("sis_abm.csv", "sis_ode.csv"):
            assert _data_lines(out / name) == _data_lines(root / "results" / "fig5" / name)


class TestValidateLaplace:
    def test_far_cluster_edge_fails_without_a_warning(self, tmp_path, capsys):
        # at d_max = 1e160 the cluster kernel's scale overflows to inf, its
        # limit: the closed form misses the oracle, and no warning is raised
        cfg = _write(tmp_path, "c.yaml", "d_max: 1.0e+160\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", cfg, "--trials", "10", "--out", str(tmp_path / "o"),
                         "validate-laplace"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines()[-1] == (
            "validation FAILED: pgfl closed form deviates from quadrature by >= 1e-6")

    def test_cell_reflected_column_shares_the_fields(self, tmp_path):
        assert main(["--trials", "1000", "--seed", "4", "--out", str(tmp_path),
                     "validate-laplace"]) == EXIT_OK
        rows = _read_rows(tmp_path / "laplace_validation.csv")
        compared = [r for r in rows if r["monte_carlo"]]
        before = [r for r in compared if r["stage"] == "before"]
        after = [r for r in compared if r["stage"] == "after"]
        assert before and after
        assert all(r["monte_carlo_cell_reflected"] == r["monte_carlo"] for r in before)
        assert any(r["monte_carlo_cell_reflected"] != r["monte_carlo"] for r in after)

    # outage-sweep draws the 1000 pinned powers in row blocks of 327 (N = 200)
    @pytest.mark.parametrize("command, draws, config", [
        pytest.param("validate-laplace", [], None, id="validate-laplace-draws0"),
        pytest.param("outage-sweep", [327, 327, 327, 19], None, id="outage-sweep-draws1"),
        pytest.param("validate-laplace", [], "serving_mode: associated\n",
                     id="validate-laplace-associated"),
    ])
    def test_pinned_serving_powers_drawn_only_when_read(self, tmp_path, monkeypatch,
                                                        command, draws, config):
        # validate-laplace reads only the interference, in either serving mode
        from ris_sim import montecarlo

        calls = []
        draw = montecarlo.draw_serving_power

        def counting(*args):
            calls.append(args[3])
            return draw(*args)

        monkeypatch.setattr(montecarlo, "draw_serving_power", counting)
        argv = ["--trials", "1000", "--out", str(tmp_path), command]
        if config:
            argv = ["--config", _write(tmp_path, "c.yaml", config), *argv]
        assert main(argv) == EXIT_OK
        assert calls == draws


class TestValidatePower:
    def test_quick_run_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--trials", "20000", "--seed", "3", "--out", str(out), "validate-power"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "ks_distance" in captured.out
        rows = _read_rows(out / "power_cdf.csv")
        assert {"x", "empirical_cdf", "analytic_cdf"} <= set(rows[0])
        assert 0.0 <= float(rows[0]["empirical_cdf"]) <= float(rows[-1]["empirical_cdf"]) <= 1.0

    def test_samples_are_the_ensembles_pinned_batch(self, tmp_path):
        from ris_sim import montecarlo

        assert main(["--trials", "2000", "--seed", "21", "--out", str(tmp_path),
                     "--threads", "2", "validate-power"]) == EXIT_OK
        # 2000 samples: every sorted sample is written
        written = [float(r["x"]) for r in _read_rows(tmp_path / "power_cdf.csv")]
        cfg = load_config(None, overrides={"trials": 2000, "seed": 21})
        stats = montecarlo.run_ensemble(cfg.simulation_setup(), 2000, 21)
        assert written == np.sort(stats.s0).tolist()


# ---------------------------------------------------------------------------
# Command contracts: every command's output bytes, in both serving modes
# ---------------------------------------------------------------------------

class _Contract(NamedTuple):
    """One command on one config: the data digest of each CSV it writes,
    its stdout, and the modules (with their submodules) it leaves unloaded."""
    command: str
    config: str
    digests: dict
    stdout: str
    unloaded: tuple = (
        # no scipy module (validate-power's gamma CDF and the quadrature
        # oracle run the package's own rules, Matern thinning, topology's BS
        # spacing and the agent contacts a numpy cell list, and topology's
        # nearest BSs all distances); numpy.f2py comes behind scipy.special;
        # concurrent.futures (and logging behind it) only with a worker pool
        # or serving threads; numpy.ma with np.median's NaN check
        "scipy", "numpy.f2py", "concurrent.futures", "numpy.ma")


_LAPLACE_STDOUT = ("pgfl vs quadrature worst relative error: 5.916e-07\n"
                   "affine form at s=0 (axiom says 1): 0.9907128641466655\n")
_SIS_STDOUT = (
    "panel a: lambda_u=0.001 x0=2 beta=0.01557 mu=0.01401 final_X=2.00\n"
    "panel b: lambda_u=0.005 x0=2 beta=0.02177 mu=0.01392 final_X=2.33\n"
    "panel c: lambda_u=0.01 x0=2 beta=0.02963 mu=0.01381 final_X=2.33\n"
    "panel d: lambda_u=0.001 x0=15 beta=0.01557 mu=0.01401 final_X=13.33\n"
    "panel e: lambda_u=0.005 x0=15 beta=0.02177 mu=0.01392 final_X=14.33\n"
    "panel f: lambda_u=0.01 x0=15 beta=0.02963 mu=0.01381 final_X=16.33\n")

# One row per command and serving mode.  The Monte Carlo rows run 1600
# trials, 5 chunks of 394, so that at --threads 2 one worker starts beside
# the calling process.  A change that moves a stream updates its row, from
# the fresh values a mismatch prints.
_CONTRACTS = [
    pytest.param(_Contract(
        "topology", "seed: 5\n",
        {"topology.csv": "3faaa2907b528274421d1c0f1c873134332cf1e75faaf017bf3dacdd75f1cf21"},
        "base stations: 33\nsurfaces: 34\nusers: 31745\nmin BS spacing: 51.73736097107253\n"),
        id="topology"),
    # the pinned serving batch of seed 21: row block b from child b of
    # stream (21, 0), 7 blocks of 327
    pytest.param(_Contract(
        "validate-power", "seed: 21\ntrials: 2000\n",
        {"power_cdf.csv": "176db92b837e5af22350ead2b83173a739751e6aeea7d3e7c60fe773349cbb3c"},
        "gamma fit shape=6.184639768344331 scale=6.067898436265701e-11\n"
        "ks_distance: 0.031458579828487154\n"),
        id="validate-power"),
    pytest.param(_Contract(
        "outage-sweep", "seed: 4\ntrials: 1600\n",
        {"outage_sweep.csv": "6814f0be56442e9cd5fb83114677d9689cf390f59969d265ed186934c483df4a"},
        ""),
        id="outage-sweep-pinned"),
    pytest.param(_Contract(
        "outage-sweep", "seed: 4\ntrials: 1600\nserving_mode: associated\n",
        {"outage_sweep.csv": "50c2372526dbd918ab4c6462c593b4b11b9ce80b0f04e1c2abe87c1b2637e7f4"},
        ""),
        id="outage-sweep-associated"),
    pytest.param(_Contract(
        "validate-laplace", "seed: 4\ntrials: 1600\n",
        {"laplace_validation.csv":
         "35c9991516bceac3342b7b6be8e07578b4b8c8f71e271df3160eb8fa8ba3f061"},
        _LAPLACE_STDOUT),
        id="validate-laplace-pinned"),
    pytest.param(_Contract(
        "validate-laplace", "seed: 4\ntrials: 1600\nserving_mode: associated\n",
        {"laplace_validation.csv":
         "827d0123fc999c438bf5f211f46ba0e2d9c8979e79e9f57dc6962672231aa382"},
        _LAPLACE_STDOUT),
        id="validate-laplace-associated"),
    pytest.param(_Contract(
        "sis-sim", "seed: 4\n" + _SMALL_SIS,
        {"sis_abm.csv": "2cf776f1de062e603b9a3166c255b4226fc68c564735c05b03c41ea45be0de40",
         "sis_ode.csv": "69581f82a07ad9cd25a02ddcbf2145fc29361bb19dd4fdf0c3772f93d3bb09de"},
        _SIS_STDOUT),
        id="sis-sim"),
    pytest.param(_Contract(
        "r0-sweep", "sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n",
        {"r0_sweep.csv": "247b8aea6c4555a5cde2bc164d4a3970e12327f910f270e99690a34f29e739a5"},
        ""),
        id="r0-sweep"),
]

# the commands that can start a worker pool or serving threads
_POOLED = ("validate-power", "outage-sweep", "validate-laplace")


def _check_contract(row: _Contract, out: Path, stdout: str) -> None:
    fresh = ({p.name: _data_digest(p) for p in out.glob("*.csv")}, stdout)
    assert fresh == (row.digests, row.stdout), f"fresh digests and stdout: {fresh!r}"


class TestContracts:
    # the last stdout line: exit code, whether main froze the heap, modules
    SCRIPT = """
import gc, json, sys
import ris_sim.cli
code = ris_sim.cli.main(sys.argv[1:])
print(json.dumps([code, gc.get_freeze_count() > 0, sorted(sys.modules)]))
"""

    @pytest.mark.parametrize("row", _CONTRACTS)
    def test_fresh_interpreter(self, tmp_path, row):
        # --threads 1 for the commands that start a pool or threads above
        # it, --threads 2 for those that start none at any value
        threads = "1" if row.command in _POOLED else "2"
        out = tmp_path / "o"
        proc = _run_script(self.SCRIPT, ["--config", _write(tmp_path, "c.yaml", row.config),
                                         "--threads", threads, "--out", str(out), row.command])
        assert proc.returncode == 0, proc.stderr
        *printed, last = proc.stdout.splitlines(keepends=True)
        code, frozen, modules = json.loads(last)
        assert code == EXIT_OK, proc.stderr
        _check_contract(row, out, "".join(printed))
        assert frozen
        assert [m for m in modules
                if any(m == u or m.startswith(u + ".") for u in row.unloaded)] == []

    @pytest.mark.parametrize("row", _CONTRACTS)
    def test_every_thread_count(self, tmp_path, capsys, monkeypatch, row):
        from ris_sim import interference_analytic, montecarlo

        cfg = _write(tmp_path, "c.yaml", row.config)
        if row.command in ("outage-sweep", "validate-laplace"):
            # at least two chunks, so that with two CPUs one worker starts
            loaded = load_config(cfg)
            trials = loaded.laplace_trials if row.command == "validate-laplace" else loaded.trials
            assert -(-trials // montecarlo._chunk_trials(loaded.simulation_setup())) >= 2
        # the first run evaluates the quadrature oracle afresh, the next
        # reuses its memo
        interference_analytic._reflected_cluster_exponent.cache_clear()
        # validate-power's 7 row blocks split unevenly over 2 and 3 threads
        for threads in ("1", "2", "3") if row.command == "validate-power" else ("1", "2"):
            # two usable CPUs whatever the host has, three for --threads 3,
            # so that each run starts as many processes or threads as it asks
            cpus = set(range(max(2, int(threads))))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            out = tmp_path / threads
            assert main(["--config", cfg, "--threads", threads, "--out", str(out),
                         row.command]) == EXIT_OK
            _check_contract(row, out, capsys.readouterr().out)


# ---------------------------------------------------------------------------
# Exit-code fuzz: any configuration gives exit 0, 2 or 3, never an exception
# ---------------------------------------------------------------------------

# the numeric keys of configs/schema.md, each with a typical value
_FLOAT_KEYS = {
    "lambda_b": 1e-5, "lambda_r": 1e-5, "lambda_u": 1e-2, "r_b": 50.0, "r_r": 10.0,
    "window_radius": 1000.0, "pathloss_const": 6.3326e-5, "alpha": 3.0, "m1": 2.0, "m2": 2.0,
    "power_dbm": -5.0, "noise_dbm": -90.0, "sinr_threshold": 1e-2,
    "d_direct": 100.0, "d_bs_ris": 30.0, "d_ris_ue": 80.0,
    "d_min": 1.0, "d_max": 1000.0, "r_i": 10.0,
}
_INT_KEYS = {
    "seed": 12345, "trials": 100000, "n_elements": 200,
    "abm_agents": 100, "abm_steps": 200, "abm_ensemble_runs": 100,
}
# spellings PyYAML reads as a string, a non-finite float, a bool, null, a
# list, a mapping or an integer in another base
_ODD_TOKENS = [
    "1.0e6", "1e3", "abc", "'5'", ".inf", "-.inf", ".nan", "1.0e+400", "-0.0",
    "true", "null", "[1, 2]", "{}", "0x10", "1_000",
]
_ODD_DOCUMENTS = ["- 1\n- 2\n", "42\n", "sweep: 5\n", "lambda_b: [\n", "? [1, 2]\n: 3\n"]


def _yaml_float(value: float) -> str:
    # a mantissa with a dot and a signed exponent, which PyYAML reads as a float
    return f"{value:.17e}"


def _float_tokens(typical: float, wild: bool = True):
    near = st.sampled_from([0.5, 1.0, 2.0]).map(lambda f: _yaml_float(typical * f))
    if not wild:
        return near
    return st.one_of(
        near,
        st.sampled_from([0.0, -1.0, -typical, 1e-300, 1e30, 1e300]).map(_yaml_float),
        st.floats(allow_nan=False, allow_infinity=False).map(_yaml_float),
        st.sampled_from(_ODD_TOKENS),
    )


def _int_tokens(typical: int, wild: bool = True):
    near = st.sampled_from([typical // 2, typical, 2 * typical]).map(str)
    if not wild:
        return near
    return st.one_of(
        near,
        st.sampled_from([0, -1, 1, 10**30]).map(str),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(_ODD_TOKENS),
    )


# a typical grid value of each sweep axis, and of the group grid's BS densities
_AXIS_TYPICAL = {
    "ue_density": 1e-3, "frequency_ghz": 3.0, "ris_elements": 200.0, "power_dbm": -5.0,
    "bs_density": 1e-5, "bogus": 1.0,
}


@st.composite
def _grids(draw, typical, wild):
    if wild and draw(st.booleans()):
        tokens = draw(st.lists(_float_tokens(typical), max_size=4))
    else:
        factors = [0.5, 1.0, 2.0, 5.0] + ([0.0, -1.0, 1e30] if wild else [])
        values = draw(st.lists(st.sampled_from(factors), min_size=1, max_size=4))
        tokens = [_yaml_float(typical * f) for f in sorted(values)]
    return "[" + ", ".join(tokens) + "]"


@st.composite
def _config_texts(draw):
    """YAML text: a tame configuration (every value near its typical one) or
    a wild one (edge values, any float, odd YAML spellings, bad sweeps)."""
    wild = draw(st.booleans())
    if wild and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_ODD_DOCUMENTS))
    lines = []
    for keys, tokens in ((_FLOAT_KEYS, _float_tokens), (_INT_KEYS, _int_tokens)):
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=4)):
            lines.append(f"{key}: {draw(tokens(keys[key], wild))}")
    if draw(st.integers(0, 3)):
        axes = ["ue_density", "frequency_ghz", "ris_elements"]
        if wild:
            axes += ["power_dbm", "bogus"]
        axis = draw(st.sampled_from(axes))
        lines.append("sweep:")
        lines.append(f"  axis: {axis}")
        lines.append(f"  grid: {draw(_grids(_AXIS_TYPICAL[axis], wild))}")
        if draw(st.booleans()):
            lines.append(f"  group_grid: {draw(_grids(_AXIS_TYPICAL['bs_density'], wild))}")
    return "\n".join(lines) + "\n"


class TestExitCodeFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=_config_texts(), command=st.sampled_from(
        ["topology", "r0-sweep", "validate-power", "outage-sweep"]))
    # cluster radii whose pair lengths overflowed or rounded to 0, each on a
    # command whose numpy warning it raised
    @example(text="r_r: 1.0e+300\n", command="topology")
    @example(text="r_r: 1.0e+300\n", command="outage-sweep")
    @example(text="r_r: 1.0e-300\n", command="outage-sweep")
    @example(text="r_r: 1.0e-30\n", command="outage-sweep")
    def test_exit_code_is_0_2_or_3(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _write(Path(tmp), "fuzz.yaml", text)
            argv = ["--config", cfg, "--trials", "10", "--out", str(Path(tmp) / "o"), command]
            assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION)

    @settings(max_examples=30, deadline=None)
    @given(text=_config_texts(), command=st.sampled_from(["validate-laplace", "sis-sim"]))
    def test_exit_code_is_0_2_or_3_under_memory_limit(self, text, command):
        # a child process, so that a runaway allocation fails the test and a
        # traceback reaches stderr
        if command == "sis-sim" and text not in _ODD_DOCUMENTS:
            # the agent runs are kept short, as _run_cli keeps the trials
            # few.  sis-sim alone pays the agent rows, so the fuzz never
            # reaches a refusal of these two keys' values: the agent
            # trajectory and agent-step cases of _BUDGET_CASES do
            text += "abm_steps: 2\nabm_ensemble_runs: 2\n"
        with tempfile.TemporaryDirectory() as tmp:
            proc = _run_cli(Path(tmp), text, command, limit_memory=True)
        assert proc.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION), proc.stderr
        assert "Traceback" not in proc.stderr
