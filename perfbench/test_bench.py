"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The smoke tests run every workload, check and wrapper at tiny sizes (about a
minute on two cores); the others check single mechanisms without running
the program.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# the layer metrics each workload exists to measure; they must not read 0 there
LAYERS_BY_WORKLOAD = {
    "mc-sparse": [
        "geometry.sample_mhcpp.self_us", "geometry.sample_hppp.points_per_call",
        "geometry.sample_mhcpp.retained_ratio", "geometry.sample_ris_clusters.us_per_call",
        "montecarlo.run_ensemble.self_us_per_trial", "montecarlo.pairs_per_trial",
        "montecarlo.ns_per_pair", "montecarlo.outage_from_ensemble.us_per_call",
        "power_analytic.s0_gamma_cdf.us_per_sample", "special_functions.incomplete_gamma.calls",
        "power_analytic.ks_distance", "outage_epidemic.outage_max_abs_dev",
        "cli.validate-power.wall_s", "cli.validate-power.self_s",
        "cli.outage-sweep.wall_s", "cli.outage-sweep.self_s",
    ],
    "mc-dense": [
        "geometry.sample_mhcpp.self_us", "geometry.sample_hppp.points_per_call",
        "geometry.sample_mhcpp.retained_ratio", "montecarlo.pairs_per_trial",
        "montecarlo.ns_per_pair", "montecarlo.run_ensemble.self_us_per_trial",
    ],
    "oracle-sweep": [
        "interference_analytic.oracle.ms_per_point",
        "interference_analytic.oracle.quad_calls_per_point",
        "interference_analytic.oracle.worst_rel_err", "outage_epidemic.analytic_rates.us_per_point",
        "cli.validate-laplace.wall_s", "cli.r0-sweep.wall_s", "cli.r0-sweep.self_s",
    ],
    "sis-panels": [
        "mobility_sim.abm_step.self_us", "mobility_sim.random_walk_step.us_per_call",
        "mobility_sim.run_abm.overlap", "outage_epidemic.sis_ode_solve.ms_per_call",
        "cli.sis-sim.wall_s", "cli.sis-sim.self_s",
    ],
}
EVERYWHERE = ["setup.import_s", "experiment_config.load_config_ms", "cli.csv_bytes",
              "cli.threads1_over_threadsN", "trace.overhead_ratio"]


def _bench(trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (k, unit, better) for k, (unit, better) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, unit, better) for k, (unit, better) in layers.PER_LAYER.items()]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_traced_smoke_run_measures_every_layer_where_it_runs(tmp_path):
    result, stdout = _bench(trace=1)
    assert result["correct"] and result["failed"] == 0
    # three passes: --threads 1, untraced and traced at --threads nproc
    assert result["attempted"] == 3 * sum(
        len(workloads.build(w, 7, True, HERE.parent, tmp_path).commands)
        for w in workloads.NAMES)
    metrics = result["metrics"]
    assert set(metrics) == {f"{w}.{m}" for w in workloads.NAMES for m in layers.PER_LAYER}
    for workload, names in LAYERS_BY_WORKLOAD.items():
        for name in names + EVERYWHERE:
            assert metrics[f"{workload}.{name}"]["value"] > 0, (workload, name)
    # a metric that reads 0 says why
    assert "(0: layer does not run on this workload)" in stdout


def test_untraced_smoke_run_reports_end_to_end_metrics():
    result, stdout = _bench(trace=0)
    assert result["correct"] and result["failed"] == 0
    for workload in workloads.NAMES:
        for name, (unit, _) in run.END_TO_END.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    for name in ("trials_per_s", "oracle_points_per_s", "agent_steps_per_s", "failed_ops_ratio"):
        assert f" {name} " in stdout


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0 and done.stdout == ""


def test_missing_wrapped_name_is_recorded_not_fatal():
    tr = tracer.Tracer()
    tracer._patch(tr, "ris_sim.mobility_sim", "no_such_function", lambda fn: fn)
    tracer._patch(tr, "ris_sim.no_such_module", "anything", lambda fn: fn)
    assert tr.missing == ["ris_sim.mobility_sim.no_such_function", "ris_sim.no_such_module"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    dump = {"missing": [], "counts": {}, "spans": [
        {"id": 0, "name": "cli.sis-sim", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "mobility_sim.run_abm", "start": 1.0, "end": 5.0, "parent": 0},
        {"id": 2, "name": "mobility_sim.run_abm", "start": 2.0, "end": 6.0, "parent": 0},
    ]}
    spans = layers.Spans([dump])
    assert spans.self_time(spans.named("cli.sis-sim")[0]) == pytest.approx(5.0)


def _fake_run(cmd, digest):
    return run.Run(cmd, 1.0, 0.5, 0.4, 1024, [], {}, {"power_cdf.csv": (digest, 10)}, None)


def test_changed_data_fail_the_determinism_check():
    cmd = workloads.Command("validate-power", Path("c.yaml"), 10, ("power_cdf.csv",))
    first, same, changed = (run.Pass(t, [_fake_run(cmd, d)])
                            for t, d in ((1, "a"), (2, "a"), (2, "b")))
    run.check_determinism(first, same)
    run.check_determinism(first, changed)
    assert same.runs[0].errors == []
    assert changed.runs[0].errors == [
        "power_cdf.csv: data differ from the first pass (--threads 1)"]


def test_gate_outside_its_bound_fails_the_command(tmp_path):
    cmd = workloads.Command("validate-power", Path("c.yaml"), 10, ("power_cdf.csv",),
                            gates={"ks_distance": workloads.KS_GATE})
    (tmp_path / "power_cdf.csv").write_text("# seed: 1\nx,empirical_cdf,analytic_cdf\n1,0.5,0.5\n")
    errors, gates, _ = workloads.check(cmd, tmp_path, "ks_distance: 0.06\n")
    assert gates == {"ks_distance": 0.06}
    assert errors == ["ks_distance = 0.06 outside its bound 0.05"]
    assert workloads.check(cmd, tmp_path, "ks_distance: 0.04\n")[0] == []
    errors, gates, _ = workloads.check(cmd, tmp_path, "")
    assert errors == ["ks_distance: not reported"] and gates == {}


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    cmd = workloads.Command("outage-sweep", Path("c.yaml"), 10, ("outage_sweep.csv",))
    workload = workloads.Workload("mc-dense", [cmd], 30, "trials", "trials_per_s", {})
    # the probe took twice its reference time: the host ran at half speed
    slow = run.Pass(2, [run.Run(cmd, 4.0, 1.0, 0.8, 2048, [], {}, {}, None)],
                    probe=2 * run.PROBE_REF_S)
    values = run.end_to_end(workload, [slow])
    assert values == pytest.approx(
        {"wall_s": 2.0, "setup_s": 0.5, "work_per_s": 20.0, "peak_rss_mb": 2.0})
    assert run.end_to_end(workload, [slow], speed=False)["wall_s"] == pytest.approx(4.0)
