"""Command-line surface: exit codes, output contracts, determinism."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ris_sim
from ris_sim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main

SRC = str(Path(ris_sim.__file__).resolve().parents[1])


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run_cli(tmp_path: Path, config_text: str, command: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    cfg = _write(tmp_path, "bad.yaml", config_text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "ris_sim.cli", "--config", cfg, "--trials", "100",
         "--out", str(tmp_path / "o"), command],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _read_rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


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
            ("series_order: 61\n", "outage-sweep"),
            # PyYAML reads an exponent without a sign as a string
            ("sinr_threshold: 1.0e6\n", "outage-sweep"),
        ],
    )
    def test_impossible_parameters_exit_config(self, tmp_path, text, command):
        proc = _run_cli(tmp_path, text, command)
        assert proc.returncode == EXIT_CONFIG
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_byte_identical_for_same_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--seed", "5", "--out", str(out1), "topology"])
        main(["--seed", "5", "--out", str(out2), "topology"])
        a = (out1 / "topology.csv").read_bytes()
        b = (out2 / "topology.csv").read_bytes()
        # the out_dir appears in the config header; compare data lines
        a_data = b"\n".join(l for l in a.splitlines() if not l.startswith(b"#"))
        b_data = b"\n".join(l for l in b.splitlines() if not l.startswith(b"#"))
        assert a_data == b_data


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


    def test_byte_identical_across_repeats_and_threads(self, tmp_path):
        def data(out, *extra):
            argv = ["--trials", "600", "--seed", "4", "--out", str(out), *extra, "outage-sweep"]
            assert main(argv) == EXIT_OK
            return [l for l in (out / "outage_sweep.csv").read_bytes().splitlines()
                    if not l.startswith(b"#")]

        first = data(tmp_path / "a", "--threads", "1")
        assert data(tmp_path / "b", "--threads", "1") == first
        assert data(tmp_path / "c", "--threads", "2") == first


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


class TestSisSim:
    def test_small_run(self, tmp_path):
        cfg = _write(
            tmp_path, "sis.yaml",
            "abm_agents: 30\nabm_steps: 8\nabm_ensemble_runs: 3\n",
        )
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "sis-sim"]) == EXIT_OK
        rows = _read_rows(out / "sis_abm.csv")
        panels = {r["panel"] for r in rows}
        assert panels == {"a", "b", "c", "d", "e", "f"}
        for r in rows:
            assert float(r["mean_S"]) + float(r["mean_X"]) == pytest.approx(30.0)
        assert (out / "sis_ode.csv").exists()


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

    def test_byte_identical_for_same_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--trials", "5000", "--seed", "3", "--out", str(out1), "validate-power"])
        main(["--trials", "5000", "--seed", "3", "--out", str(out2), "validate-power"])
        a = [l for l in (out1 / "power_cdf.csv").read_bytes().splitlines() if not l.startswith(b"#")]
        b = [l for l in (out2 / "power_cdf.csv").read_bytes().splitlines() if not l.startswith(b"#")]
        assert a == b
