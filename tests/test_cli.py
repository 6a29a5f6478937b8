"""Command-line surface: exit codes, output contracts, determinism."""

import csv
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    """The CLI in a fresh interpreter, so a traceback would reach stderr;
    ``limit_memory`` caps its address space at ``ADDRESS_SPACE``."""
    cfg = _write(tmp_path, "bad.yaml", config_text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "ris_sim.cli", "--config", cfg, "--trials", "100",
         "--out", str(tmp_path / "o"), command],
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


# (config, command, the load row that refuses it), at the CLI's 100 trials
_BUDGET_CASES = [
    # ~3e8 users in the window
    ("window_radius: 1.0e+5\n", "topology", "expected points of one field"),
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
            ("series_order: 61\n", "outage-sweep"),
            # PyYAML reads an exponent without a sign as a string
            ("sinr_threshold: 1.0e6\n", "outage-sweep"),
            # keys no command reads
            ("abm_x0: 5\n", "sis-sim"),
            ("frequency_ghz: 28.0\n", "validate-power"),
        ],
    )
    def test_impossible_parameters_exit_config(self, tmp_path, text, command):
        proc = _run_cli(tmp_path, text, command)
        assert proc.returncode == EXIT_CONFIG
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", ["lambda_b: 0.0\n", "window_radius: 1.0e-3\n"])
    def test_validate_laplace_without_base_stations(self, tmp_path, text):
        # whole chunks without a BS, their moved users served by none
        proc = _run_cli(tmp_path, text, "validate-laplace")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_field_pair_budget_exits_config_under_memory_limit(self, tmp_path):
        # ~3e8 BS x surface pairs per trial: refused at load, not allocated
        proc = _run_cli(tmp_path, "lambda_r: 3.0\n", "outage-sweep", limit_memory=True)
        assert proc.returncode == EXIT_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "pairs per trial" in lines[0]

    @pytest.mark.parametrize("text,command,reason", _BUDGET_CASES)
    def test_draw_budgets_exit_config_under_memory_limit(self, tmp_path, text, command, reason):
        proc = _run_cli(tmp_path, text, command, limit_memory=True)
        assert proc.returncode == EXIT_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and f"{reason}, above" in lines[0]

    def test_every_load_bound_has_a_refusing_case(self):
        # each case names one row, and each row has a case
        named = [[row for row in LOAD_BOUNDS if row.endswith(reason)]
                 for *_, reason in _BUDGET_CASES]
        assert all(len(rows) == 1 for rows in named)
        assert {rows[0] for rows in named} == set(LOAD_BOUNDS)

    def test_contact_pair_budget_exits_config_under_memory_limit(self, tmp_path):
        # ~8e7 agent contact pairs in one sis-sim step: refused at load
        text = "r_i: 500.0\nabm_agents: 20000\nabm_steps: 1\nabm_ensemble_runs: 1\n"
        proc = _run_cli(tmp_path, text, "sis-sim", limit_memory=True)
        assert proc.returncode == EXIT_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "contact pairs per step" in lines[0]

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
        # a noise-limited link at order 60: the jet's recurrence overflows,
        # which the finiteness check reports, not numpy
        text = "power_dbm: -150\nnoise_dbm: 40\nseries_order: 60\n"
        proc = _run_cli(tmp_path, text, "outage-sweep")
        assert proc.returncode == EXIT_VALIDATION
        assert "numeric failure: ArithmeticError" in proc.stderr
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
            return _data_lines(out / "outage_sweep.csv")

        first = data(tmp_path / "a", "--threads", "1")
        assert data(tmp_path / "b", "--threads", "1") == first
        assert data(tmp_path / "c", "--threads", "2") == first



def _two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so that ``--threads 2`` starts
    workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestMonteCarloWorkers:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_config(self, tmp_path, capsys, threads):
        out = tmp_path / "o"
        assert main(["--threads", threads, "--out", str(out), "outage-sweep"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: --threads must be at least 1, got {threads}"]
        assert not out.exists()

    def test_outage_sweep_byte_identical_with_workers(self, tmp_path, monkeypatch):
        from ris_sim import montecarlo

        _two_cpus(monkeypatch)
        cfg = load_config(None)
        trials = 1600
        chunks = -(-trials // montecarlo._chunk_trials(cfg.simulation_setup()))
        assert chunks >= 4

        def data(out, threads):
            argv = ["--trials", str(trials), "--seed", "4", "--out", str(out),
                    "--threads", threads, "outage-sweep"]
            assert main(argv) == EXIT_OK
            return _data_lines(out / "outage_sweep.csv")

        assert data(tmp_path / "b", "2") == data(tmp_path / "a", "1")

    def test_validate_laplace_byte_identical_with_workers(self, tmp_path, monkeypatch):
        from ris_sim import montecarlo

        _two_cpus(monkeypatch)
        cfg = load_config(None)
        trials = 4000
        # the one ensemble, which carries both moved-user terms
        assert -(-trials // montecarlo._chunk_trials(cfg.simulation_setup())) >= 4

        def data(out, threads):
            argv = ["--trials", str(trials), "--seed", "4", "--out", str(out),
                    "--threads", threads, "validate-laplace"]
            assert main(argv) == EXIT_OK
            return _data_lines(out / "laplace_validation.csv")

        assert data(tmp_path / "b", "2") == data(tmp_path / "a", "1")

    # a fresh interpreter, so that a traceback from the command or from a
    # worker would reach stderr
    FAILING_WORKER = """
import multiprocessing, os, sys
import ris_sim.cli
from ris_sim import montecarlo

def failing_draw(kernel, rng, *rest):
    raise RuntimeError("draw failed in a worker")

os.sched_getaffinity = lambda pid: {0, 1}
montecarlo._draw_field_interference = failing_draw
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


class TestStartUp:
    # run in a fresh interpreter: the test session has imported everything
    SCRIPT = """
import gc, sys
import ris_sim.cli
import ris_sim.interference_analytic as ia
code = ris_sim.cli.main(sys.argv[1:])
loaded = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg",
                      "scipy.spatial._ckdtree") if m in sys.modules]
print(code, loaded, hasattr(ia, "integrate"), gc.get_freeze_count() > 0)
"""

    def test_r0_sweep_loads_no_quadrature_or_tree(self, tmp_path):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "fig6_r0_vs_ue_density.yaml"
        proc = _run_script(self.SCRIPT, ["--config", str(cfg), "--trials", "1000",
                                         "--out", str(tmp_path / "o"), "r0-sweep"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [] True True"

    def test_validate_laplace_loads_no_quadpack_stack(self, tmp_path):
        # the oracle's own rule needs none of scipy.integrate and the
        # optimize, sparse and linalg packages its import brings along
        script = (
            "import sys\nimport ris_sim.cli\ncode = ris_sim.cli.main(sys.argv[1:])\n"
            "print(code, [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse',"
            " 'scipy.linalg') if m in sys.modules])\n"
        )
        proc = _run_script(script, ["--trials", "1000", "--out", str(tmp_path / "o"),
                                    "validate-laplace"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("command, text", [
        ("outage-sweep", "trials: 300\n"),
        ("sis-sim", "abm_agents: 30\nabm_steps: 8\nabm_ensemble_runs: 3\n"),
    ])
    def test_sampling_commands_load_no_spatial_module(self, tmp_path, command, text):
        # both find close pairs (Matern thinning, agent contacts); only
        # topology's nearest-neighbour queries need scipy.spatial
        script = (
            "import sys\nimport ris_sim.cli\ncode = ris_sim.cli.main(sys.argv[1:])\n"
            "print(code, [m for m in sys.modules if m.startswith('scipy.spatial')])\n"
        )
        cfg = _write(tmp_path, "c.yaml", text)
        proc = _run_script(script, ["--config", cfg, "--out", str(tmp_path / "o"), command])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    # scipy.special stays in sys.modules as an unexecuted lazy module, so its
    # compiled _ufuncs tell whether it ran; numpy.f2py comes in behind it.
    # concurrent.futures (and logging behind it) starts threads or workers,
    # which --threads 1 never asks for.
    UNUSED = ("scipy.special._ufuncs", "numpy.f2py", "concurrent.futures")

    @pytest.mark.parametrize("command, text", [
        ("outage-sweep", "trials: 300\n"),
        ("sis-sim", "abm_agents: 30\nabm_steps: 8\nabm_ensemble_runs: 3\n"),
        ("r0-sweep", "sweep:\n  axis: ue_density\n  grid: [1.0e-3, 1.0e-2]\n"),
    ])
    def test_no_special_functions_or_pool(self, tmp_path, command, text):
        script = (
            "import sys\nimport ris_sim.cli\ncode = ris_sim.cli.main(sys.argv[1:])\n"
            f"print(code, [m for m in {self.UNUSED!r} if m in sys.modules])\n"
        )
        cfg = _write(tmp_path, "c.yaml", text)
        proc = _run_script(script, ["--config", cfg, "--out", str(tmp_path / "o"), command])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_sis_sim_starts_no_pool_at_two_threads(self, tmp_path):
        # the six panels advance in one agent run, whatever --threads says
        script = (
            "import sys\nimport ris_sim.cli\ncode = ris_sim.cli.main(sys.argv[1:])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n"
        )
        cfg = _write(tmp_path, "c.yaml", "abm_agents: 30\nabm_steps: 8\nabm_ensemble_runs: 3\n")
        proc = _run_script(script, ["--config", cfg, "--threads", "2",
                                    "--out", str(tmp_path / "o"), "sis-sim"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    @pytest.mark.parametrize("command, trials", [
        ("validate-power", 5000), ("validate-laplace", 1000)])
    def test_special_functions_load_in_set_up(self, tmp_path, command, trials):
        # loaded by the time the config is, so the import counts as set-up
        # and not as the command's work
        script = (
            "import sys\nimport ris_sim.cli as cli\nseen = []\n"
            "load_config = cli.load_config\n"
            "def stamped(*args, **kwargs):\n"
            "    cfg = load_config(*args, **kwargs)\n"
            "    seen.append('scipy.special._ufuncs' in sys.modules)\n"
            "    return cfg\n"
            "cli.load_config = stamped\n"
            "print(cli.main(sys.argv[1:]), seen)\n"
        )
        cfg = _write(tmp_path, "c.yaml", f"trials: {trials}\n")
        proc = _run_script(script, ["--config", cfg, "--out", str(tmp_path / "o"), command])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [True]"


class TestSisSim:
    SMALL = "abm_agents: 30\nabm_steps: 8\nabm_ensemble_runs: 3\n"

    def test_small_run(self, tmp_path):
        cfg = _write(tmp_path, "sis.yaml", self.SMALL)
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

    def test_byte_identical_across_repeats_and_threads(self, tmp_path):
        cfg = _write(tmp_path, "sis.yaml", self.SMALL)

        def data(out, threads):
            argv = ["--config", cfg, "--seed", "4", "--out", str(out),
                    "--threads", threads, "sis-sim"]
            assert main(argv) == EXIT_OK
            return [_data_lines(out / name) for name in ("sis_abm.csv", "sis_ode.csv")]

        first = data(tmp_path / "a", "1")
        assert data(tmp_path / "b", "1") == first
        assert data(tmp_path / "c", "2") == first

    def test_figure_5_matches_tracked_results(self, tmp_path):
        # the full Figure-5 config: 6 panels x 100 runs x 100 agents x 200 steps
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "o"
        cfg = str(root / "configs" / "fig5_sis_panels.yaml")
        assert main(["--config", cfg, "--out", str(out), "sis-sim"]) == EXIT_OK
        for name in ("sis_abm.csv", "sis_ode.csv"):
            assert _data_lines(out / name) == _data_lines(root / "results" / "fig5" / name)


class TestValidateLaplace:
    def test_byte_identical_across_repeats_and_threads(self, tmp_path):
        from ris_sim import interference_analytic

        # the first run evaluates the oracle afresh, the repeats reuse its memo
        interference_analytic._reflected_cluster_exponent.cache_clear()

        def data(out, threads):
            argv = ["--trials", "1000", "--seed", "4", "--out", str(out),
                    "--threads", threads, "validate-laplace"]
            assert main(argv) == EXIT_OK
            return _data_lines(out / "laplace_validation.csv")

        first = data(tmp_path / "a", "1")
        assert data(tmp_path / "b", "1") == first
        assert data(tmp_path / "c", "2") == first

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

    @pytest.mark.parametrize("command, draws", [
        ("validate-laplace", []), ("outage-sweep", [1000])])
    def test_pinned_serving_powers_drawn_only_when_read(self, tmp_path, monkeypatch,
                                                        command, draws):
        # validate-laplace reads only the interference
        from ris_sim import montecarlo

        calls = []
        draw = montecarlo.draw_serving_power

        def counting(*args):
            calls.append(args[3])
            return draw(*args)

        monkeypatch.setattr(montecarlo, "draw_serving_power", counting)
        assert main(["--trials", "1000", "--out", str(tmp_path), command]) == EXIT_OK
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

    def test_byte_identical_for_same_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--trials", "5000", "--seed", "3", "--out", str(out1), "validate-power"])
        main(["--trials", "5000", "--seed", "3", "--out", str(out2), "validate-power"])
        a = [l for l in (out1 / "power_cdf.csv").read_bytes().splitlines() if not l.startswith(b"#")]
        b = [l for l in (out2 / "power_cdf.csv").read_bytes().splitlines() if not l.startswith(b"#")]
        assert a == b


# ---------------------------------------------------------------------------
# Exit-code fuzz: any configuration gives exit 0, 2 or 3, never an exception
# ---------------------------------------------------------------------------

# the numeric keys of configs/schema.md, each with a typical value
_FLOAT_KEYS = {
    "lambda_b": 1e-5, "lambda_r": 1e-5, "lambda_u": 1e-2, "r_b": 50.0, "r_r": 10.0,
    "window_radius": 1000.0, "gain_tx": 1.0, "gain_rx": 1.0,
    "pathloss_const": 6.3326e-5, "alpha": 3.0, "m1": 2.0, "m2": 2.0,
    "power_dbm": -5.0, "noise_dbm": -90.0, "sinr_threshold": 1e-2,
    "d_direct": 100.0, "d_bs_ris": 30.0, "d_ris_ue": 80.0,
    "d_min": 1.0, "d_max": 1000.0, "r_i": 10.0,
}
_INT_KEYS = {
    "seed": 12345, "trials": 100000, "n_elements": 200, "series_order": 0,
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


# a typical grid value of each sweep and group axis
_AXIS_TYPICAL = {
    "ue_density": 1e-3, "frequency_ghz": 3.0, "ris_elements": 200.0, "power_dbm": -5.0,
    "bs_density": 1e-5, "bogus": 1.0, "null": 1.0,
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
        groups = ["null", "bs_density", "ris_elements"]
        if wild:
            axes += ["power_dbm", "bogus"]
            groups += ["bogus"]
        axis = draw(st.sampled_from(axes))
        group_by = draw(st.sampled_from(groups))
        lines.append("sweep:")
        lines.append(f"  axis: {axis}")
        lines.append(f"  grid: {draw(_grids(_AXIS_TYPICAL[axis], wild))}")
        lines.append(f"  group_by: {group_by}")
        if group_by != "null" or wild and draw(st.booleans()):
            lines.append(f"  group_grid: {draw(_grids(_AXIS_TYPICAL[group_by], wild))}")
        if draw(st.booleans()):
            lines.append("  r_i_scales_with_wavelength: true")
            lines.append(f"  reference_frequency_ghz: {draw(_float_tokens(1.0, wild))}")
    return "\n".join(lines) + "\n"


class TestExitCodeFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=_config_texts(), command=st.sampled_from(
        ["topology", "r0-sweep", "validate-power", "outage-sweep"]))
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
            # few; the fuzz checks these keys' values through the other
            # commands, which refuse the same values at load
            text += "abm_steps: 2\nabm_ensemble_runs: 2\n"
        with tempfile.TemporaryDirectory() as tmp:
            proc = _run_cli(Path(tmp), text, command, limit_memory=True)
        assert proc.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION), proc.stderr
        assert "Traceback" not in proc.stderr
