"""Experiment runner: reproduces the study's figures as CSV data and runs
the numeric validation reports.

Commands: topology | validate-power | outage-sweep | sis-sim | r0-sweep |
validate-laplace.  Exit codes: 0 success, 2 configuration error, 3 numeric
validation failure (including an overflow or a failed quadrature in the
numeric layers).  No environment variable is read: --threads (default 1,
at least 1) caps the processes, this one included, that run the Monte Carlo
ensembles (outage-sweep, validate-laplace; each process runs whole chunks,
sampling and per-trial loop; see ``montecarlo.run_ensemble``), and the
threads that draw the serving batch, pinned or associated (validate-power,
outage-sweep; see ``montecarlo.serving_power``).  The other commands run serially,
sis-sim's six panels as one agent run (``mobility_sim.run_abm``).  Output is
byte-identical whatever its value.

Monte Carlo ensembles feed outage-sweep and validate-laplace only;
validate-power draws their pinned-link serving batch, and topology one
deployment of their field sampler.  r0-sweep, and the rates behind
sis-sim's agents, are the analytic chain (gamma fit, transform, outage
series, beta and mu).

A configuration is refused (exit 2, one line on stderr, no output directory
made) when it is invalid, at load, or when the running command would pay an
amount above its bound in ``experiment_config.LOAD_BOUNDS``, before the
command's work (``ExperimentConfig.check_load``): each command is checked
for the memory and work that it pays, and r0-sweep for none.

Every output file starts with the resolved configuration as comment lines,
and identical seeds produce byte-identical files.

The package runs on numpy and PyYAML alone, and start-up loads only what the
command needs: ``concurrent.futures`` only to start the ensembles' worker
processes or the serving batch's threads, after set-up.  topology's nearest
BSs are blocked all-pairs distances, and its BS spacing the cell list of
Matern thinning (``geometry.close_pairs``); validate-power's gamma CDF runs
the package's own incomplete gamma function
(``power_analytic.lower_incomplete_gamma_regularized``), and the quadrature
oracle its own rules (``ris_sim.integrate`` and the Gauss–Jacobi
rules of its inner integral).
``main`` freezes the import-time heap (``gc.freeze``) once per process, so
neither the collector's passes during the run nor the one at exit walk it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import montecarlo
from .experiment_config import (
    SIS_PANELS,
    ConfigError,
    ExperimentConfig,
    config_digest,
    dbm_to_watts,
    dump_config,
    load_config,
)
from .geometry import close_pairs, sample_hppp, serving_surfaces
from .interference_analytic import (
    empirical_laplace,
    laplace_after,
    laplace_before,
    laplace_quadrature_oracle,
    transform_exponent_coeffs,
)
from .mobility_sim import run_abm
from .outage_epidemic import (
    SisParams,
    analytic_rates,
    sis_ode_solve,
)
from .power_analytic import ks_distance, s0_gamma_cdf

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _config_header(cfg: ExperimentConfig) -> str:
    lines = [f"# {line}" for line in dump_config(cfg).rstrip().splitlines()]
    lines.append(f"# config_digest: {config_digest(cfg)}")
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then move it
    over ``path``; on any failure the temporary file is removed and ``path``
    is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows) -> None:
    def write(fh):
        fh.write(_config_header(cfg))
        fh.write(",".join(header) + "\n")
        for row in rows:
            # numpy scalars print as their Python values do
            fh.write(",".join(map(str, row)) + "\n")

    _write_atomic(path, write)
    _log(f"wrote {path}")


def _analytic_rates(params: list, form: str) -> list:
    """``analytic_rates`` at each point; one stderr line names the largest
    fitted gamma shape when a point's series order is capped below it."""
    capped = [(p.fit.shape, p.series_order) for p in params
              if p.series_order < round(p.fit.shape)]
    if capped:
        shape, order = max(capped)
        _log(f"outage series capped at order {order}: largest fitted gamma shape {shape:.2f}")
    return [analytic_rates(p, form) for p in params]


def _nearest_bs(ue: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Index of each user's nearest BS (ties to the lowest index), or -1
    for every user when there is no BS: all squared distances, in blocks of
    users of at most 2**20 distances."""
    if bs.shape[0] == 0:
        return np.full(ue.shape[0], -1)
    nearest = np.empty(ue.shape[0], dtype=np.intp)
    step = max(1, 2**20 // bs.shape[0])
    for k in range(0, ue.shape[0], step):
        dx = ue[k:k + step, 0, None] - bs[:, 0]
        dy = ue[k:k + step, 1, None] - bs[:, 1]
        nearest[k:k + step] = np.argmin(dx * dx + dy * dy, axis=1)
    return nearest


def _min_spacing(bs: np.ndarray, radius: float) -> float:
    """Smallest distance between two BSs in the disk of ``radius`` (inf for
    fewer than two): the closest of the close pairs within 2R / (sqrt(B) - 1),
    since B points d apart have disjoint disks of radius d/2 inside the disk
    of radius R + d/2, and within the BSs' bounding-box diagonal, whose
    square, unlike the window's diameter's, cannot overflow.  The distance is
    doubled only when rounding leaves no pair."""
    b = bs.shape[0]
    if b < 2:
        return math.inf
    r = min(2.0 * radius / (math.sqrt(b) - 1.0), math.hypot(*np.ptp(bs, axis=0)))
    while True:
        i, j = close_pairs(bs, np.zeros(b, dtype=np.intp), r)
        if i.size:
            break
        r *= 2.0
    dx, dy = bs[i, 0] - bs[j, 0], bs[i, 1] - bs[j, 1]
    return float(np.sqrt(dx * dx + dy * dy).min())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_topology(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """One deployment from stream SeedSequence(seed): its BSs (each with its
    nearest cluster child), surfaces and users (each with its nearest BS)."""
    if cfg.lambda_b <= 0:
        _log("error: no base stations (lambda_b must be positive)")
        return EXIT_CONFIG
    topo = cfg.topology_config()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    bs, _, ris, ris_parent, _ = montecarlo.sample_fields(topo, rng, 1)
    ue = sample_hppp(topo.lambda_u, topo.window, rng)
    serving_ris = serving_surfaces(bs, ris, ris_parent)
    serving_bs = _nearest_bs(ue, bs)
    min_spacing = _min_spacing(bs, topo.window.radius)
    # -1 (no cluster child, no BS) is written as an empty field
    rows = itertools.chain(
        (("bs", i, *p, "", "" if j < 0 else j) for i, (p, j) in enumerate(zip(bs, serving_ris))),
        (("ris", j, *p, i, "") for j, (p, i) in enumerate(zip(ris, ris_parent))),
        (("ue", k, *p, "", "" if i < 0 else i) for k, (p, i) in enumerate(zip(ue, serving_bs))),
    )
    _write_csv(out_dir / "topology.csv", cfg,
               ["kind", "index", "x", "y", "parent_index", "serving_index"], rows)
    print(f"base stations: {bs.shape[0]}")
    print(f"surfaces: {ris.shape[0]}")
    print(f"users: {ue.shape[0]}")
    print(f"min BS spacing: {min_spacing}")
    return EXIT_OK


def cmd_validate_power(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Empirical vs analytic CDF of the serving power at the representative
    link distances; fails (exit 3) when the KS distance reaches 0.05."""
    n = cfg.trials
    ch = cfg.channel_params()
    # the serving batch of the pinned ensembles with this seed and trial count
    samples = np.sort(montecarlo.serving_power(
        ch, *cfg.link_geometry().pathloss(ch.c, ch.alpha), n, cfg.seed, threads))

    fit = cfg.serving_gamma_fit()
    analytic = s0_gamma_cdf(samples, fit)
    ks = ks_distance(analytic)

    stride = max(1, n // 2000)
    rows = [
        (samples[i], (i + 1) / n, analytic[i])
        for i in range(0, n, stride)
    ]
    _write_csv(out_dir / "power_cdf.csv", cfg, ["x", "empirical_cdf", "analytic_cdf"], rows)
    print(f"gamma fit shape={fit.shape} scale={fit.scale}")
    print(f"ks_distance: {ks}")
    if ks >= 0.05:
        _log("validation FAILED: KS distance >= 0.05")
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_outage_sweep(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Analytic and empirical outage before/after movement over the power grid."""
    # the power grid runs at lambda_b alone
    if cfg.sweep.axis != "power_dbm" or cfg.sweep.group_grid:
        _log("error: outage-sweep requires sweep axis power_dbm and no group_grid")
        return EXIT_CONFIG
    # the analytic series first: a failing one exits before the ensemble
    rates = _analytic_rates([cfg.outage_params(power_dbm=p_dbm) for p_dbm in cfg.sweep.grid],
                            cfg.reflected_form)
    stats = montecarlo.run_ensemble(cfg.simulation_setup(), cfg.trials, cfg.seed, threads)
    rows = []
    for p_dbm, res in zip(cfg.sweep.grid, rates):
        est = montecarlo.outage_from_ensemble(
            stats, dbm_to_watts(p_dbm), cfg.sigma2_w, cfg.sinr_threshold
        )
        rows.append(
            (p_dbm, res.p_o, est.p_before, est.stderr_before,
             res.p_o_prime, est.p_after, est.stderr_after)
        )
    _write_csv(
        out_dir / "outage_sweep.csv", cfg,
        ["P_dBm", "P_o_analytic", "P_o_empirical", "stderr",
         "P_o_prime_analytic", "P_o_prime_empirical", "stderr_prime"],
        rows,
    )
    if stats.resampled:
        print(f"resampled empty-field trials: {stats.resampled}")
    return EXIT_OK


def cmd_sis_sim(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Six-panel interference propagation: three densities by two initial
    splits, each an ensemble-averaged agent trajectory plus the matched-rate
    ODE trajectory.

    The six agent ensembles share their seed and sizes, so one ``run_abm``
    call advances them together on one set of draws (see ``mobility_sim``);
    it runs serially whatever ``threads`` says."""
    rates = _analytic_rates([cfg.outage_params(lambda_u=lam_u) for _, lam_u, _ in SIS_PANELS],
                            cfg.reflected_form)
    panels = []
    for (name, lam_u, infected_frac), res in zip(SIS_PANELS, rates):
        x0 = round(infected_frac * cfg.abm_agents)
        abm = cfg.abm_config(lambda_u=lam_u, x0=x0, beta=res.beta, mu=res.mu)
        panels.append((name, lam_u, x0, res, abm))
    trajectories = run_abm([abm for *_, abm in panels])

    abm_rows = []
    ode_rows = []
    for (name, lam_u, x0, res, abm), (t, mean_s, mean_x, stderr_x) in zip(panels, trajectories):
        for i in range(t.size):
            abm_rows.append((name, lam_u, x0, t[i], mean_s[i], mean_x[i], stderr_x[i]))
        area = abm.n_agents / lam_u
        pair_rate = res.beta * math.pi * abm.r_i**2 / area
        sis = SisParams(beta=pair_rate, mu=res.mu, n_total=abm.n_agents, x0=x0)
        t_ode, s_ode, x_ode = sis_ode_solve(sis, t_end=float(abm.steps), dt=0.1)
        for i in range(0, t_ode.size, 10):
            ode_rows.append((name, lam_u, x0, t_ode[i], s_ode[i], x_ode[i]))
        print(
            f"panel {name}: lambda_u={lam_u} x0={x0} beta={res.beta:.5f} "
            f"mu={res.mu:.5f} final_X={mean_x[-1]:.2f}"
        )
    _write_csv(
        out_dir / "sis_abm.csv", cfg,
        ["panel", "lambda_u", "x0", "t", "mean_S", "mean_X", "stderr_X"], abm_rows,
    )
    _write_csv(out_dir / "sis_ode.csv", cfg, ["panel", "lambda_u", "x0", "t", "S", "X"], ode_rows)
    return EXIT_OK


def cmd_r0_sweep(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Interference propagation intensity over the configured axis/groups."""
    if cfg.sweep.axis == "power_dbm":
        _log("error: r0-sweep axis must be ue_density, frequency_ghz, or ris_elements")
        return EXIT_CONFIG
    points = cfg.sweep.points()
    # a few milliseconds of analytic work in all: no workers
    results = _analytic_rates([cfg.sweep_outage_params(*p) for p in points], cfg.reflected_form)
    rows = [
        (cfg.sweep.axis, axis_value, "" if group_value is None else group_value,
         res.p_o, res.p_o_prime, res.beta, res.mu, res.r0)
        for (axis_value, group_value), res in zip(points, results)
    ]
    _write_csv(
        out_dir / "r0_sweep.csv", cfg,
        ["axis", "axis_value", "group_value", "P_o", "P_o_prime", "beta", "mu", "r0"],
        rows,
    )
    return EXIT_OK


def cmd_validate_laplace(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    """Closed forms vs quadrature oracle vs Monte Carlo across an s grid.

    The generating-functional closed form must match the oracle to 1e-6
    relative (exit 3 otherwise); the published affine form's deviation is
    reported, including its nonunit value at s = 0.

    One ensemble feeds both Monte Carlo columns: ``monte_carlo`` from the
    network-field movers (streams (seed, chunk + 1), as outage-sweep draws
    them), ``monte_carlo_cell_reflected`` from the cell-reflected movers on
    the same fields and field fading, drawn from each chunk's child stream
    (see ``montecarlo``).  Before movement the two columns are equal.  The
    serving powers, pinned or associated, are never read, so never drawn.
    """
    p = cfg.laplace_params()
    s_grid = np.geomspace(1e2, 1e9, 50)

    # closed forms and the quadrature oracle first: a failing quadrature
    # exits before the ensembles are paid for
    analytic = []
    worst_rel = 0.0
    for stage, closed in (("before", laplace_before), ("after", laplace_after)):
        for s in s_grid:
            closed_default = closed(float(s), p, cfg.reflected_form)
            closed_pgfl = closed(float(s), p, "pgfl")
            oracle = laplace_quadrature_oracle(float(s), p, stage)
            if oracle == 0.0:
                raise ArithmeticError(
                    f"quadrature oracle underflows to 0.0 at s={s:.6g} ({stage} stage), "
                    "so no relative error can be taken against it"
                )
            worst_rel = max(worst_rel, abs(closed_pgfl - oracle) / oracle)
            analytic.append((stage, s, closed_default, oracle, closed_pgfl))

    stats = montecarlo.run_ensemble(
        cfg.simulation_setup(), cfg.laplace_trials, cfg.seed, threads, cell_reflected=True)
    # the cell-reflected comparison shares the fields and their fading
    samples = {"before": (stats.i_before, stats.i_before),
               "after": (stats.i_after, stats.i_after_cell_reflected)}

    # Monte Carlo comparison is meaningful only where the estimator is
    # conditioned and the finite window's truncated tail is below the noise.
    # np.median's NaN check would load numpy.ma: the middle element, or the
    # mean of the two middle ones, of a partition, as np.median takes them
    half = stats.i_before.size // 2
    part = np.partition(stats.i_before, [half - 1, half])
    median_i = float(part[half] if stats.i_before.size % 2 else (part[half - 1] + part[half]) / 2)
    two_pi_lb = 2.0 * math.pi * cfg.lambda_b

    rows = []
    for stage, s, closed_default, oracle, closed_pgfl in analytic:
        truncation_bias = two_pi_lb * s * p.c / cfg.window_radius
        if s * median_i <= 5.0 and truncation_bias < 2e-5:
            own, alt_samples = samples[stage]
            mc, se = empirical_laplace(float(s), own)
            alt = mc if alt_samples is own else empirical_laplace(float(s), alt_samples)[0]
        else:
            mc, se, alt = "", "", ""
        rows.append((s, closed_default, oracle, mc, se, stage, closed_pgfl, alt))
    _write_csv(
        out_dir / "laplace_validation.csv", cfg,
        ["s", "closed_form", "quadrature", "monte_carlo", "stderr",
         "stage", "closed_form_pgfl", "monte_carlo_cell_reflected"],
        rows,
    )
    affine_at_zero = math.exp(-transform_exponent_coeffs(p, "before", "affine")[2])
    print(f"pgfl vs quadrature worst relative error: {worst_rel:.3e}")
    print(f"affine form at s=0 (axiom says 1): {affine_at_zero}")
    if worst_rel >= 1e-6:
        _log("validation FAILED: pgfl closed form deviates from quadrature by >= 1e-6")
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-sim",
        description="Interference propagation experiments for multi-surface downlinks",
    )
    parser.add_argument("--config", type=str, default=None, help="YAML experiment file")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="processes for Monte Carlo ensembles (this one included), and threads "
             "for their serving batch (sis-sim runs serially)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("topology", help="sample and export one topology")
    sub.add_parser("validate-power", help="serving-power CDF vs gamma fit")
    sub.add_parser("outage-sweep", help="outage vs transmit power")
    sub.add_parser("sis-sim", help="six-panel epidemic trajectories")
    sub.add_parser("r0-sweep", help="propagation intensity sweeps")
    sub.add_parser("validate-laplace", help="transform closed forms vs oracle")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        _log(f"configuration error: --threads must be at least 1, got {args.threads}")
        return EXIT_CONFIG
    if gc.get_freeze_count() == 0:
        # the import-time heap lives until exit: freezing it spares the
        # collector's passes over it, the one at interpreter exit included
        gc.freeze()
    try:
        overrides = {"seed": args.seed, "trials": args.trials, "out_dir": args.out}
        overrides = {k: v for k, v in overrides.items() if v is not None}
        cfg = load_config(args.config, overrides=overrides)
        # the amounts this command pays, before any output directory exists
        cfg.check_load(args.command)
        if overrides:
            _log(f"overrides: {overrides}")
    except ConfigError as exc:
        _log(f"configuration error: {exc}")
        return EXIT_CONFIG

    out_dir = Path(cfg.out_dir)

    commands = {
        "topology": cmd_topology,
        "validate-power": cmd_validate_power,
        "outage-sweep": cmd_outage_sweep,
        "sis-sim": cmd_sis_sim,
        "r0-sweep": cmd_r0_sweep,
        "validate-laplace": cmd_validate_laplace,
    }
    try:
        return commands[args.command](cfg, out_dir, args.threads)
    except ConfigError as exc:
        _log(f"configuration error: {exc}")
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as exc:
        _log(f"numeric failure: {type(exc).__name__}: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
