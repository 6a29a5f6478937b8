"""End-to-end empirical harness: sample a topology and fading, compute
SINRs, and estimate outage, rates, and interference statistics as oracles
for the analytic modules.

The validation default pins the serving link at representative distances
and treats every sampled BS as an interferer with no exclusion zone, which
is exactly the geometry the closed-form transforms integrate over.  The
"associated" mode instead serves the typical user from the realized nearest
BS, for fully physical runs.

Near mobile interferers follow the convention that reproduces the
closed-form after-movement factor: a Poisson field of density
lambda_b * lambda_u * pi * r_i**2 across the window, each point adding a
direct-strength term.  The per-cell alternative (Poisson(lambda_u pi r_i**2)
movers whose reflected bounce from their own serving surface reaches the
target) is implemented too and reported alongside in validation output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, sample_nakagami, sample_rayleigh
from .geometry import (
    TopologyConfig,
    associate_nearest,
    matern_parent_intensity,
    sample_mhcpp,
    sample_ris_clusters,
    serving_surfaces,
)

__all__ = [
    "LinkGeometry",
    "SimulationSetup",
    "TrialResult",
    "EnsembleStats",
    "draw_serving_power",
    "simulate_trial",
    "run_ensemble",
    "sinr_from_powers",
    "outage_from_ensemble",
    "rates_from_ensemble",
    "empirical_outage",
    "empirical_rates",
    "make_sinr_sampler",
    "OutageEstimate",
    "RateEstimate",
]


@dataclass(frozen=True)
class LinkGeometry:
    """Representative serving-link distances used by the pinned mode."""

    d_direct: float = 100.0
    d_bs_ris: float = 30.0
    d_ris_ue: float = 80.0

    def __post_init__(self):
        if min(self.d_direct, self.d_bs_ris, self.d_ris_ue) <= 0:
            raise ValueError("link distances must be positive")

    def pathloss(self, c: float, alpha: float) -> tuple[float, float]:
        """(direct, reflected) gains c d^(-alpha) and c (d_bs_ris d_ris_ue)^(-alpha)."""
        return c * self.d_direct ** (-alpha), c * (self.d_bs_ris * self.d_ris_ue) ** (-alpha)


@dataclass(frozen=True)
class SimulationSetup:
    """Bundle of everything one trial needs."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    link: LinkGeometry = field(default_factory=LinkGeometry)
    r_i: float = 10.0
    serving_mode: str = "pinned"
    moved_mode: str = "network_field"

    def __post_init__(self):
        if self.serving_mode not in ("pinned", "associated"):
            raise ValueError(f"unknown serving mode {self.serving_mode!r}")
        if self.moved_mode not in ("network_field", "cell_reflected"):
            raise ValueError(f"unknown moved-interferer mode {self.moved_mode!r}")
        if not self.r_i > 0:
            raise ValueError("r_i must be positive")


@dataclass(frozen=True)
class TrialResult:
    """One trial's powers and SINRs; sinr = P*s0 / (P*i + sigma2)."""

    s0: float
    i_before: float
    i_after: float
    sinr_before: float
    sinr_after: float


@dataclass
class EnsembleStats:
    """Raw per-trial samples plus bookkeeping; estimators live below."""

    s0: np.ndarray
    i_before: np.ndarray
    i_after: np.ndarray
    resampled: int
    seed: int

    @property
    def trials(self) -> int:
        return self.s0.size


@dataclass(frozen=True)
class OutageEstimate:
    p_before: float
    p_after: float
    stderr_before: float
    stderr_after: float


@dataclass(frozen=True)
class RateEstimate:
    beta_hat: float
    mu_hat: float
    r0_hat: float
    supercritical: bool
    unchanged: float


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # stream 0 is reserved for the batched serving-power draw
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial + 1))))


def _sample_field(cfg: TopologyConfig, rng: np.random.Generator):
    """Interferer infrastructure only: BS positions and surface positions."""
    parent = matern_parent_intensity(cfg.lambda_b, cfg.r_b)
    bs = sample_mhcpp(parent, cfg.r_b, cfg.window, rng)
    if bs.shape[0] > 0 and cfg.lambda_r > 0:
        ris, ris_parent = sample_ris_clusters(bs, cfg.lambda_r, cfg.lambda_b, cfg.r_r, rng)
    else:
        ris = np.empty((0, 2))
        ris_parent = np.empty(0, dtype=int)
    return bs, ris, ris_parent


def _field_kernel(
    bs: np.ndarray,
    ris: np.ndarray,
    ch: ChannelParams,
    exclude: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean powers of the fixed-infrastructure interference at the origin
    (shift ``bs`` and ``ris`` by a receiver position to evaluate it there).

    Built once per topology: the direct means c d^(-alpha) of every
    interfering BS (the serving BS ``exclude`` left out) and the BS x surface
    pair means N c^2 (d_ij d_jk)^(-alpha), or None without surfaces.  A trial
    draws from it twice with ``_draw_field_interference``, once before and
    once after movement, instead of rebuilding the pair matrix per draw.
    """
    if exclude is not None and bs.shape[0] > 0:
        keep = np.ones(bs.shape[0], dtype=bool)
        keep[exclude] = False
        bs = bs[keep]
    alpha = ch.alpha
    d_bs = np.hypot(bs[:, 0], bs[:, 1])
    direct = ch.c * d_bs ** (-alpha)
    if bs.shape[0] == 0 or ris.shape[0] == 0:
        return direct, None
    d_ris = np.hypot(ris[:, 0], ris[:, 1])
    # built in place, because at ~1e5 pairs every pair-sized temporary costs
    # page faults; each step rounds exactly as the plain expression would
    pairs = bs[:, 0:1] - ris[None, :, 0]
    dy = bs[:, 1:2] - ris[None, :, 1]
    np.square(pairs, out=pairs)
    np.square(dy, out=dy)
    pairs += dy
    np.sqrt(pairs, out=pairs)
    pairs *= d_ris[None, :]
    np.power(pairs, -alpha, out=pairs)
    pairs *= ch.n_elements * ch.c**2
    return direct, pairs


def _draw_field_interference(
    kernel: tuple[np.ndarray, np.ndarray | None], rng: np.random.Generator
) -> float:
    """One fading draw of the field interference from its mean kernel.

    Direct Rayleigh powers are exactly exponential; misaligned reflected
    sums are exponential with their pair mean to the same accuracy as the
    analytic per-term kernels.  The direct exponentials are drawn before the
    pair exponentials; an empty interferer set draws nothing.
    """
    direct, pairs = kernel
    if direct.size == 0:
        return 0.0
    total = float(np.sum(direct * rng.exponential(size=direct.size)))
    if pairs is not None:
        fading = rng.exponential(size=pairs.shape)
        fading *= pairs
        total += float(np.sum(fading))
    return total


def _moved_interference(
    setup: SimulationSetup,
    bs: np.ndarray,
    ris: np.ndarray,
    ris_parent: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Extra interference from users that moved near the target."""
    cfg, ch = setup.topology, setup.channel
    if setup.moved_mode == "network_field":
        density = cfg.lambda_b * cfg.lambda_u * math.pi * setup.r_i**2
        count = rng.poisson(density * cfg.window.area())
        if count == 0:
            return 0.0
        pts = cfg.window.sample_uniform(count, rng)
        d = np.hypot(pts[:, 0], pts[:, 1])
        d = d[d > 0]
        return float(np.sum(ch.c * d ** (-ch.alpha) * rng.exponential(size=d.size)))

    count = rng.poisson(cfg.lambda_u * math.pi * setup.r_i**2)
    if count == 0 or bs.shape[0] == 0 or ris.shape[0] == 0:
        return 0.0
    total = 0.0
    r = setup.r_i * np.sqrt(rng.random(count))
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    positions = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    serving = serving_surfaces(bs, ris, ris_parent)
    for pos in positions:
        i = associate_nearest(pos, bs)
        j = serving[i]
        if j < 0:
            continue
        d_ij = math.sqrt(float(np.sum((ris[j] - bs[i]) ** 2)))
        d_jk = float(np.hypot(ris[j, 0], ris[j, 1]))
        if d_ij <= 0 or d_jk <= 0:
            continue
        mean = ch.n_elements * ch.c**2 * (d_ij * d_jk) ** (-ch.alpha)
        total += mean * float(rng.exponential())
    return total


def draw_serving_power(
    ch: ChannelParams,
    pl_direct: float,
    pl_reflected: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n`` ideal-phase serving powers (sqrt(PL_d) g + sqrt(PL_r) sum h1 h2)^2.

    Every element is aligned onto the direct path, so the reflected term is
    the scalar sum of the N Nakagami amplitude products.  The draw order is
    n Rayleigh amplitudes, then the (n, N) first hops, then the second hops;
    without a reflected link (``pl_reflected == 0``) the hops are not drawn.
    """
    if pl_direct < 0 or pl_reflected < 0:
        raise ValueError("path-loss gains must be nonnegative")
    amp = math.sqrt(pl_direct) * sample_rayleigh(rng, n)
    if pl_reflected > 0.0:
        shape = (n, ch.n_elements)
        hops = sample_nakagami(ch.m1, rng, shape) * sample_nakagami(ch.m2, rng, shape)
        amp += math.sqrt(pl_reflected) * np.sum(hops, axis=1)
    return amp * amp


def sinr_from_powers(
    s0: float | np.ndarray,
    interference: float | np.ndarray,
    power_w: float,
    sigma2_w: float,
):
    return power_w * np.asarray(s0) / (power_w * np.asarray(interference) + sigma2_w)


def simulate_trial(setup: SimulationSetup, rng: np.random.Generator) -> TrialResult:
    """One independent trial.

    Pinned mode fixes the serving-link distances and keeps every field BS as
    an interferer.  Associated mode serves the typical user from the nearest
    realized BS (resampling empty fields) and excludes it from interference.
    The after-movement interference redraws the field fading and adds the
    moved-user terms on a shared topology; the serving power is drawn once.
    """
    result, _ = _simulate_trial_counted(setup, rng)
    return result


def _simulate_trial_counted(
    setup: SimulationSetup, rng: np.random.Generator
) -> tuple[TrialResult, int]:
    ch = setup.channel
    serving_index = None
    resamples = 0
    for _ in range(1000):
        bs, ris, ris_parent = _sample_field(setup.topology, rng)
        if setup.serving_mode == "pinned" or bs.shape[0] > 0:
            break
        resamples += 1
    else:
        raise RuntimeError("failed to sample a nonempty BS field after 1000 attempts")

    if setup.serving_mode == "pinned":
        pl_d, pl_r = setup.link.pathloss(ch.c, ch.alpha)
    else:
        serving_index = associate_nearest(np.zeros(2), bs)
        d_direct = float(np.hypot(*bs[serving_index]))
        pl_d = ch.c * d_direct ** (-ch.alpha)
        j = serving_surfaces(bs, ris, ris_parent)[serving_index]
        if j < 0:
            pl_r = 0.0
        else:
            d_ij = float(np.linalg.norm(bs[serving_index] - ris[j]))
            d_jk = float(np.hypot(*ris[j]))
            pl_r = ch.c * (d_ij * d_jk) ** (-ch.alpha)

    s0 = float(draw_serving_power(ch, pl_d, pl_r, 1, rng)[0])
    kernel = _field_kernel(bs, ris, ch, exclude=serving_index)
    i_before = _draw_field_interference(kernel, rng)
    i_after = _draw_field_interference(kernel, rng)
    i_after += _moved_interference(setup, bs, ris, ris_parent, rng)

    sinr_b = float(sinr_from_powers(s0, i_before, ch.power_w, ch.sigma2_w))
    sinr_a = float(sinr_from_powers(s0, i_after, ch.power_w, ch.sigma2_w))
    return TrialResult(s0, i_before, i_after, sinr_b, sinr_a), resamples


def run_ensemble(setup: SimulationSetup, trials: int, seed: int = 0) -> EnsembleStats:
    """Independent trials with per-trial generators derived from (seed, trial).

    Each trial owns its generator, so trials can run in any order or split
    across workers without changing the result; the aggregation here is a
    plain in-order fill.  The pinned-mode serving powers are drawn in one
    vectorized batch (their law does not depend on the trial's topology), so
    only the interference needs the per-trial loop.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    ch = setup.channel
    resampled = 0

    s0 = np.empty(trials)
    i_b = np.empty(trials)
    i_a = np.empty(trials)

    if setup.serving_mode == "pinned":
        batch_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
        pl_d, pl_r = setup.link.pathloss(ch.c, ch.alpha)
        s0[:] = draw_serving_power(ch, pl_d, pl_r, trials, batch_rng)
        for t in range(trials):
            rng = _trial_rng(seed, t)
            bs, ris, ris_parent = _sample_field(setup.topology, rng)
            kernel = _field_kernel(bs, ris, ch)
            i_b[t] = _draw_field_interference(kernel, rng)
            after = _draw_field_interference(kernel, rng)
            i_a[t] = after + _moved_interference(setup, bs, ris, ris_parent, rng)
    else:
        for t in range(trials):
            rng = _trial_rng(seed, t)
            result, n_resampled = _simulate_trial_counted(setup, rng)
            resampled += n_resampled
            s0[t], i_b[t], i_a[t] = result.s0, result.i_before, result.i_after
    return EnsembleStats(s0, i_b, i_a, resampled, seed)


def outage_from_ensemble(
    stats: EnsembleStats, power_w: float, sigma2_w: float, threshold: float
) -> OutageEstimate:
    """Outage fractions before and after movement with binomial errors."""
    sinr_b = sinr_from_powers(stats.s0, stats.i_before, power_w, sigma2_w)
    sinr_a = sinr_from_powers(stats.s0, stats.i_after, power_w, sigma2_w)
    n = stats.trials
    p_b = float(np.mean(sinr_b < threshold))
    p_a = float(np.mean(sinr_a < threshold))
    return OutageEstimate(
        p_b, p_a,
        math.sqrt(max(p_b * (1 - p_b), 1e-12) / n),
        math.sqrt(max(p_a * (1 - p_a), 1e-12) / n),
    )


def rates_from_ensemble(
    stats: EnsembleStats, power_w: float, sigma2_w: float, threshold: float
) -> RateEstimate:
    """Paired transition fractions: infections are non-outage -> outage,
    recoveries the reverse; their partition with unchanged outcomes is exact."""
    sinr_b = sinr_from_powers(stats.s0, stats.i_before, power_w, sigma2_w)
    sinr_a = sinr_from_powers(stats.s0, stats.i_after, power_w, sigma2_w)
    out_b = sinr_b < threshold
    out_a = sinr_a < threshold
    beta_hat = float(np.mean(~out_b & out_a))
    mu_hat = float(np.mean(out_b & ~out_a))
    unchanged = float(np.mean(out_b == out_a))
    supercritical = mu_hat == 0.0
    r0 = math.inf if supercritical else beta_hat / mu_hat
    return RateEstimate(beta_hat, mu_hat, r0, supercritical, unchanged)


def empirical_outage(
    setup: SimulationSetup, threshold: float, trials: int, seed: int = 0
) -> OutageEstimate:
    if trials < 1000:
        raise ValueError("need at least 1e3 trials for a usable estimate")
    stats = run_ensemble(setup, trials, seed)
    return outage_from_ensemble(stats, setup.channel.power_w, setup.channel.sigma2_w, threshold)


def empirical_rates(
    setup: SimulationSetup, threshold: float, trials: int, seed: int = 0
) -> RateEstimate:
    if trials < 1000:
        raise ValueError("need at least 1e3 trials for a usable estimate")
    stats = run_ensemble(setup, trials, seed)
    return rates_from_ensemble(stats, setup.channel.power_w, setup.channel.sigma2_w, threshold)


def make_sinr_sampler(setup: SimulationSetup, seed: int = 0):
    """Per-agent SINR sampler for the SINR-driven agent simulation.

    Samples the infrastructure once (BSs move on much slower timescales than
    users); each call serves every agent from its nearest BS at the realized
    distances, draws fresh fading, and returns the SINR vector.
    """
    field_rng = _trial_rng(seed, 0)
    bs, ris, ris_parent = _sample_field(setup.topology, field_rng)
    if bs.shape[0] == 0:
        raise RuntimeError("sampled an empty BS field; enlarge the window or density")
    ch = setup.channel
    alpha = ch.alpha

    serving_ris = serving_surfaces(bs, ris, ris_parent)

    def sampler(positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        positions = np.atleast_2d(positions)
        d_all = np.linalg.norm(positions[:, None, :] - bs[None, :, :], axis=2)
        serving = np.argmin(d_all, axis=1)
        sinr = np.empty(positions.shape[0])
        for k, pos in enumerate(positions):
            i = serving[k]
            pl_d = ch.c * max(d_all[k, i], 1e-3) ** (-alpha)
            j = serving_ris[i]
            if j >= 0:
                d_ij = float(np.linalg.norm(bs[i] - ris[j]))
                d_jk = float(np.linalg.norm(ris[j] - pos))
                pl_r = ch.c * (max(d_ij, 1e-3) * max(d_jk, 1e-3)) ** (-alpha)
            else:
                pl_r = 0.0
            s0 = draw_serving_power(ch, pl_d, pl_r, 1, rng)[0]
            kernel = _field_kernel(bs - pos, ris - pos, ch, exclude=i)
            interference = _draw_field_interference(kernel, rng)
            sinr[k] = ch.power_w * s0 / (ch.power_w * interference + ch.sigma2_w)
        return sinr

    return sampler
