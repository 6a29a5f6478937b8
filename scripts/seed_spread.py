#!/usr/bin/env python3
"""Print each Monte Carlo acceptance gate's value at a fixed list of seeds.

For each seed, one default-config ensemble (``montecarlo.run_ensemble``)
and its pinned serving batch (``EnsembleStats.s0``) give three values:

- criterion 1: the KS distance of the pinned batch from the gamma fit, as
  ``validate-power`` computes it (gate: below 0.05);
- criterion 2: the worst |analytic - Monte Carlo| outage, before and after
  movement, over the acceptance power grid (gate: at most 0.03);
- criterion 3: the worst |z| of the Monte Carlo Laplace transform against
  the pgfl closed form on the acceptance bracket grid (gate: at most 3).

Then it prints the worst value and the median over the seeds.  It is a
tool, not a gate: a change that moves a Monte Carlo stream runs it on both
trees, so that a gate's margin is read over seeds, not at one chosen seed.
The seed list is fixed here; ``--seeds k`` takes its first k.

    python3 scripts/seed_spread.py                 # 8 seeds at 1e5 trials
    python3 scripts/seed_spread.py --seeds 2 --trials 2000
"""

import argparse
import os
import statistics
import sys

import numpy as np

from ris_sim import montecarlo
from ris_sim.experiment_config import ExperimentConfig, dbm_to_watts
from ris_sim.interference_analytic import empirical_laplace, laplace_after, laplace_before
from ris_sim.outage_epidemic import analytic_rates
from ris_sim.power_analytic import ks_distance, s0_gamma_cdf

# the default seed first
SEEDS = (12345, 1, 2, 3, 4, 5, 6, 7)
# criterion 2's transmit powers (dBm) and criterion 3's bracket grid
POWER_GRID = (-20.0, -10.0, -5.0, 0.0, 10.0, 20.0, 30.0)
BRACKET_S = np.geomspace(1e3, 2e6, 8)
COLUMNS = ("criterion_1_ks", "criterion_2_worst_dev", "criterion_3_worst_z")
# the fewest samples empirical_laplace takes an error bar from
MIN_TRIALS = 1000


def gate_values(cfg: ExperimentConfig, stats: montecarlo.EnsembleStats) -> tuple[float, ...]:
    """(criterion 1's KS, criterion 2's worst |dev|, criterion 3's worst |z|)
    of one ensemble."""
    ks = ks_distance(s0_gamma_cdf(np.sort(stats.s0), cfg.serving_gamma_fit()))

    dev = 0.0
    for p_dbm in POWER_GRID:
        res = analytic_rates(cfg.outage_params(power_dbm=p_dbm), cfg.reflected_form)
        est = montecarlo.outage_from_ensemble(
            stats, dbm_to_watts(p_dbm), cfg.sigma2_w, cfg.sinr_threshold)
        dev = max(dev, abs(res.p_o - est.p_before), abs(res.p_o_prime - est.p_after))

    p = cfg.laplace_params()
    z = 0.0
    for s in BRACKET_S:
        for samples_i, closed in ((stats.i_before, laplace_before),
                                  (stats.i_after, laplace_after)):
            est, stderr = empirical_laplace(float(s), samples_i)
            z = max(z, abs(est - closed(float(s), p, "pgfl")) / stderr)
    return ks, dev, z


def _row(label: str, values) -> str:
    return f"{label:<8}" + "".join(f"{v:>24.6f}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=len(SEEDS),
                        help=f"how many of the fixed seeds to run (1 to {len(SEEDS)})")
    parser.add_argument("--trials", type=int, default=None,
                        help=f"trials per seed, at least {MIN_TRIALS} "
                             "(default: the default config's)")
    parser.add_argument("--threads", type=int, default=len(os.sched_getaffinity(0)),
                        help="workers of each ensemble (default: the usable CPUs)")
    args = parser.parse_args(argv)
    if not 1 <= args.seeds <= len(SEEDS):
        parser.error(f"--seeds must be 1 to {len(SEEDS)}")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.trials is not None and args.trials < MIN_TRIALS:
        parser.error(f"--trials must be at least {MIN_TRIALS}")
    base = ExperimentConfig()
    trials = base.trials if args.trials is None else args.trials

    print(f"{trials} trials per seed, default config, --threads {args.threads}")
    print(f"{'seed':<8}" + "".join(f"{c:>24}" for c in COLUMNS))
    rows = []
    for seed in SEEDS[:args.seeds]:
        stats = montecarlo.run_ensemble(base.simulation_setup(), trials, seed, args.threads)
        rows.append(gate_values(base, stats))
        print(_row(str(seed), rows[-1]), flush=True)
    per_gate = list(zip(*rows))
    print(_row("worst", (max(v) for v in per_gate)))
    print(_row("median", (statistics.median(v) for v in per_gate)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
