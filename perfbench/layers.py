"""Per-layer metrics, derived from the spans of one traced pass and from the
untraced passes run beside it.

Every metric is reported on every workload.  Where its layer does not run on
the workload, or a refactor removed the wrapped name, the value is 0 and
``derive`` returns the reason beside it.
"""

from __future__ import annotations

from collections import defaultdict

COMMANDS = ("validate-power", "outage-sweep", "validate-laplace", "r0-sweep", "sis-sim")

# name -> (unit, better); BENCHMARK.json lists the same names in this order
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "experiment_config.load_config_ms": ("ms", "lower"),
    "geometry.sample_mhcpp.self_us": ("us", "lower"),
    "geometry.sample_hppp.points_per_call": ("count", "lower"),
    "geometry.sample_mhcpp.retained_ratio": ("ratio", "higher"),
    "geometry.sample_ris_clusters.us_per_call": ("us", "lower"),
    "montecarlo.run_ensemble.self_us_per_trial": ("us", "lower"),
    "montecarlo.pairs_per_trial": ("count", "lower"),
    "montecarlo.ns_per_pair": ("ns", "lower"),
    "montecarlo.resampled_trials": ("count", "lower"),
    "montecarlo.outage_from_ensemble.us_per_call": ("us", "lower"),
    "power_analytic.s0_gamma_cdf.us_per_sample": ("us", "lower"),
    "special_functions.incomplete_gamma.calls": ("count", "lower"),
    "power_analytic.ks_distance": ("ratio", "lower"),
    "interference_analytic.oracle.ms_per_point": ("ms", "lower"),
    "interference_analytic.oracle.quad_calls_per_point": ("count", "lower"),
    "interference_analytic.oracle.worst_rel_err": ("ratio", "lower"),
    "outage_epidemic.analytic_rates.us_per_point": ("us", "lower"),
    "outage_epidemic.sis_ode_solve.ms_per_call": ("ms", "lower"),
    "outage_epidemic.outage_max_abs_dev": ("ratio", "lower"),
    "mobility_sim.abm_step.self_us": ("us", "lower"),
    "mobility_sim.random_walk_step.us_per_call": ("us", "lower"),
    "mobility_sim.run_abm.overlap": ("ratio", "higher"),
    **{f"cli.{c}.{m}": ("s", "lower") for c in COMMANDS for m in ("wall_s", "self_s")},
    "cli.csv_bytes": ("bytes", "lower"),
    "cli.threads1_over_threadsN": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# the wrapped names each traced metric depends on (see tracer.py)
SOURCES = {
    "experiment_config.load_config_ms": ["ris_sim.cli.load_config"],
    "geometry.sample_mhcpp.self_us": ["ris_sim.montecarlo.sample_mhcpp",
                                      "ris_sim.geometry.sample_hppp"],
    "geometry.sample_hppp.points_per_call": ["ris_sim.montecarlo.sample_mhcpp",
                                             "ris_sim.geometry.sample_hppp"],
    "geometry.sample_mhcpp.retained_ratio": ["ris_sim.montecarlo.sample_mhcpp",
                                             "ris_sim.geometry.sample_hppp"],
    "geometry.sample_ris_clusters.us_per_call": ["ris_sim.montecarlo.sample_ris_clusters"],
    "montecarlo.run_ensemble.self_us_per_trial": ["ris_sim.montecarlo.run_ensemble"],
    "montecarlo.pairs_per_trial": ["ris_sim.montecarlo.run_ensemble",
                                   "ris_sim.montecarlo.sample_ris_clusters"],
    "montecarlo.ns_per_pair": ["ris_sim.montecarlo.run_ensemble",
                               "ris_sim.montecarlo.sample_ris_clusters"],
    "montecarlo.resampled_trials": ["ris_sim.montecarlo.run_ensemble"],
    "montecarlo.outage_from_ensemble.us_per_call": ["ris_sim.montecarlo.outage_from_ensemble"],
    "power_analytic.s0_gamma_cdf.us_per_sample": ["ris_sim.cli.s0_gamma_cdf"],
    "special_functions.incomplete_gamma.calls": [
        "ris_sim.power_analytic.lower_incomplete_gamma_regularized"],
    "interference_analytic.oracle.ms_per_point": ["ris_sim.cli.laplace_quadrature_oracle"],
    "interference_analytic.oracle.quad_calls_per_point": [
        "ris_sim.cli.laplace_quadrature_oracle", "ris_sim.interference_analytic.integrate.quad"],
    "outage_epidemic.analytic_rates.us_per_point": ["ris_sim.cli.analytic_rates"],
    "outage_epidemic.sis_ode_solve.ms_per_call": ["ris_sim.cli.sis_ode_solve"],
    "mobility_sim.abm_step.self_us": ["ris_sim.mobility_sim.abm_step",
                                      "ris_sim.mobility_sim.random_walk_step"],
    "mobility_sim.random_walk_step.us_per_call": ["ris_sim.mobility_sim.random_walk_step"],
    "mobility_sim.run_abm.overlap": ["ris_sim.cli.run_abm"],
}

GATES = {
    "power_analytic.ks_distance": "ks_distance",
    "interference_analytic.oracle.worst_rel_err": "worst_rel_err",
    "outage_epidemic.outage_max_abs_dev": "outage_max_abs_dev",
}


class Spans:
    """The spans of every command in one traced pass, with their tree."""

    def __init__(self, dumps: list[dict]) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        for i, dump in enumerate(dumps):
            for span in dump["spans"]:
                parent = span["parent"]
                self.spans.append(dict(span, key=(i, span["id"]),
                                       parent_key=None if parent is None else (i, parent)))
            for key, value in dump["counts"].items():
                self.counts[key] += value
            self.missing.update(dump["missing"])
        self.children: dict[tuple, list[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent_key"] is not None:
                self.children[span["parent_key"]].append(span)
        self.by_key = {span["key"]: span for span in self.spans}

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def parent_name(self, span: dict) -> str | None:
        parent = self.by_key.get(span["parent_key"])
        return parent["name"] if parent else None

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover (children on
        pool threads may overlap one another)."""
        covered, reach = 0.0, span["start"]
        for child in sorted(self.children[span["key"]], key=lambda s: s["start"]):
            start, end = max(child["start"], reach), min(child["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        return (span["end"] - span["start"]) - covered

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, counter: str, within: str | None = None) -> int:
        return sum(v for k, v in self.counts.items()
                   if k.split("@")[0] == counter and (within is None or k.endswith("@" + within)))


def _ratio(num: float, den: float):
    return num / den if den else None


def _traced(spans: Spans) -> dict:
    """Metric -> value (None where the layer did not run)."""
    m = {}
    mhcpp = spans.named("geometry.sample_mhcpp")
    parents = [s for s in spans.named("geometry.sample_hppp")
               if spans.parent_name(s) == "geometry.sample_mhcpp"]
    m["experiment_config.load_config_ms"] = (
        1e3 * spans.total("experiment_config.load_config")
        if spans.named("experiment_config.load_config") else None)
    m["geometry.sample_mhcpp.self_us"] = _ratio(
        1e6 * sum(spans.self_time(s) for s in mhcpp), len(mhcpp))
    m["geometry.sample_hppp.points_per_call"] = _ratio(
        sum(s.get("points", 0) for s in parents), len(parents))
    m["geometry.sample_mhcpp.retained_ratio"] = _ratio(
        sum(s.get("kept", 0) for s in mhcpp), sum(s.get("points", 0) for s in parents))
    clusters = spans.named("geometry.sample_ris_clusters")
    m["geometry.sample_ris_clusters.us_per_call"] = _ratio(
        1e6 * spans.total("geometry.sample_ris_clusters"), len(clusters))

    ensembles = spans.named("montecarlo.run_ensemble")
    trials = sum(s.get("trials", 0) for s in ensembles)
    ensemble_self = sum(spans.self_time(s) for s in ensembles)
    pairs = sum(c.get("pairs", 0) for c in clusters
                if spans.parent_name(c) == "montecarlo.run_ensemble")
    m["montecarlo.run_ensemble.self_us_per_trial"] = _ratio(1e6 * ensemble_self, trials)
    m["montecarlo.pairs_per_trial"] = _ratio(pairs, trials) if pairs else None
    m["montecarlo.ns_per_pair"] = _ratio(1e9 * ensemble_self, pairs)
    m["montecarlo.resampled_trials"] = (
        sum(s.get("resampled", 0) for s in ensembles) if ensembles else None)
    outage = spans.named("montecarlo.outage_from_ensemble")
    m["montecarlo.outage_from_ensemble.us_per_call"] = _ratio(
        1e6 * spans.total("montecarlo.outage_from_ensemble"), len(outage))

    cdf = spans.named("power_analytic.s0_gamma_cdf")
    m["power_analytic.s0_gamma_cdf.us_per_sample"] = _ratio(
        1e6 * spans.total("power_analytic.s0_gamma_cdf"), sum(s.get("samples", 0) for s in cdf))
    gamma_calls = spans.count("special_functions.incomplete_gamma")
    m["special_functions.incomplete_gamma.calls"] = gamma_calls or None

    oracle = spans.named("interference_analytic.oracle")
    m["interference_analytic.oracle.ms_per_point"] = _ratio(
        1e3 * spans.total("interference_analytic.oracle"), len(oracle))
    m["interference_analytic.oracle.quad_calls_per_point"] = _ratio(
        spans.count("quad", within="interference_analytic.oracle"), len(oracle))

    rates = spans.named("outage_epidemic.analytic_rates")
    m["outage_epidemic.analytic_rates.us_per_point"] = _ratio(
        1e6 * spans.total("outage_epidemic.analytic_rates"), len(rates))
    ode = spans.named("outage_epidemic.sis_ode_solve")
    m["outage_epidemic.sis_ode_solve.ms_per_call"] = _ratio(
        1e3 * spans.total("outage_epidemic.sis_ode_solve"), len(ode))

    steps = spans.named("mobility_sim.abm_step")
    m["mobility_sim.abm_step.self_us"] = _ratio(
        1e6 * sum(spans.self_time(s) for s in steps), len(steps))
    walks = spans.named("mobility_sim.random_walk_step")
    m["mobility_sim.random_walk_step.us_per_call"] = _ratio(
        1e6 * spans.total("mobility_sim.random_walk_step"), len(walks))
    # run_abm spans over the wall time of the commands that ran them: above 1
    # when several panels are in flight at once
    abm_runs = spans.named("mobility_sim.run_abm")
    hosts = {s["parent_key"] for s in abm_runs} - {None}
    m["mobility_sim.run_abm.overlap"] = _ratio(
        spans.total("mobility_sim.run_abm"),
        sum(spans.by_key[k]["end"] - spans.by_key[k]["start"] for k in hosts))

    for command in COMMANDS:
        cmd_spans = spans.named(f"cli.{command}")
        m[f"cli.{command}.self_s"] = (
            sum(spans.self_time(s) for s in cmd_spans) if cmd_spans else None)
    return m


def derive(ref, untraced, traced) -> tuple[dict, dict]:
    """(metric -> value, metric -> why it is 0) from one pass at --threads 1,
    one untraced and one traced pass at --threads nproc."""
    spans = Spans([run.trace for run in traced.runs if run.trace is not None])
    values = _traced(spans)
    ran = {run.cmd.command for run in untraced.runs}
    for command in COMMANDS:
        values[f"cli.{command}.wall_s"] = (
            sum(r.wall for r in untraced.runs if r.cmd.command == command)
            if command in ran else None)
    values["setup.import_s"] = sum(r.imported for r in untraced.runs if r.imported is not None)
    values["cli.csv_bytes"] = sum(size for r in untraced.runs for _, size in r.files.values())
    values["cli.threads1_over_threadsN"] = ref.wall / untraced.wall
    values["trace.overhead_ratio"] = traced.wall / untraced.wall
    for metric, gate in GATES.items():
        found = [r.gates[gate] for r in traced.runs if gate in r.gates]
        values[metric] = max(found) if found else None

    reasons = {}
    for metric in PER_LAYER:
        if values.get(metric) is not None:
            continue
        gone = [name for name in SOURCES.get(metric, []) if name in spans.missing]
        if gone:
            reasons[metric] = f"wrapped name missing from the program: {', '.join(gone)}"
        elif metric in GATES:
            reasons[metric] = "gate not checked on this workload"
        elif metric.startswith("cli."):
            reasons[metric] = "command not run on this workload"
        else:
            reasons[metric] = "layer does not run on this workload"
        values[metric] = 0
    return values, reasons
