"""End-to-end empirical harness: sample a topology and fading, compute
SINRs, and estimate outage, rates, and interference statistics as oracles
for the analytic modules.  ``sample_fields`` draws the BSs and surface
clusters of every command, ``topology`` included, and ``serving_power``
every serving power, pinned or associated, ``validate-power``'s too.

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
target) is reported alongside in validation output: ``run_ensemble(...,
cell_reflected=True)`` adds it on the same fields and the same field fading
(common random numbers), so the two after-movement samples differ only in
their movers.

Ensembles are sampled in chunks of trials.  A chunk draws the fields, the
associated serving links and the network-field movers of all its trials in
vectorized passes from one generator, stream (seed, chunk + 1); only the
per-topology interference kernel and its fading draws run trial by trial,
from the same generator where the sampling left it.  The cell-reflected
movers draw from the first child of that stream (``SeedSequence.spawn``), so
asking for them leaves every other sample unchanged.  The chunk size comes
from the setup alone, so a trial of a full chunk has the same interference
whatever the trial count; a partial last chunk draws fewer trials from its
stream and differs.  The serving powers of either mode are one batch over
all trials (``serving_power``), drawn when ``EnsembleStats.s0`` is first
read: row block b from child b of stream (seed, 0), so no trials x N array
is held.  The blocks run on up to ``workers`` threads, each holding one
block at a time, with the same bytes whatever the thread count.

The per-trial loop of a chunk is one function, ``_field_draws``.  It takes
the direct means and surface distances of the whole chunk in one pass, and
owns the one float64 buffer in which every trial builds its pair means and
draws its fading: two slots, each as long as the chunk's largest trial
needs, slot A for the pair means and slot B first for their temporary and
then for each draw's exponentials.  The buffer exists because a pair-sized
array freed at the end of a trial goes back to the operating system and
faults in again on the next: at ~1e5 pairs per trial (lambda_b = lambda_r =
1e-4, associated), the loop of a 150-trial ensemble takes 918 minor faults,
against 5,547 with the two slots allocated afresh for each trial.

Every process of an ensemble runs whole chunks (``_run_chunk``: a chunk's
sampling, then its per-trial loop).  With ``run_ensemble(..., workers=n)``
the calling process runs chunks 0, n, 2n, ... and n - 1 fork-started worker
processes the others, one task per chunk; each chunk draws from its own
streams, so the samples are byte-identical whatever the worker count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, sample_nakagami, sample_rayleigh
from .geometry import (
    TopologyConfig,
    Window,
    matern_parent_intensity,
    nearest_per_group,
    sample_mhcpp,
    sample_ris_clusters,
    serving_surfaces,
)

__all__ = [
    "LinkGeometry",
    "SimulationSetup",
    "EnsembleStats",
    "draw_serving_power",
    "serving_power",
    "run_ensemble",
    "sample_fields",
    "sinr_from_powers",
    "outage_from_ensemble",
    "rates_from_ensemble",
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

    def __post_init__(self):
        if self.serving_mode not in ("pinned", "associated"):
            raise ValueError(f"unknown serving mode {self.serving_mode!r}")
        if not self.r_i > 0:
            raise ValueError("r_i must be positive")


@dataclass
class EnsembleStats:
    """Raw per-trial samples plus bookkeeping; estimators live below.

    ``i_after_cell_reflected`` (None unless asked for) is the after-movement
    interference with the cell-reflected movers in place of the network
    field, on the same fields and field fading as ``i_after``.
    """

    i_before: np.ndarray
    i_after: np.ndarray
    resampled: int
    # the call that draws the serving powers
    serving: Callable[[], np.ndarray] = field(repr=False)
    i_after_cell_reflected: np.ndarray | None = None

    @functools.cached_property
    def s0(self) -> np.ndarray:
        """Serving power per trial, drawn on first access."""
        return self.serving()

    @property
    def trials(self) -> int:
        return self.i_before.size


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


# Matern parents, surfaces and network-field movers sampled per chunk: bounds
# a chunk's memory whatever the densities
_CHUNK_POINTS = 1 << 16
# hops per row block of ``serving_power``: each block's draw holds its first
# and its second hops (one row when N is larger)
_HOP_BLOCK = 1 << 16


def _stream(seed: int, index: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """Stream (seed, index), or with ``spawn_key`` its child of that key, as
    ``SeedSequence.spawn`` would make it."""
    seq = np.random.SeedSequence((seed, index), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(seq))


def _chunk_trials(setup: SimulationSetup) -> int:
    """Trials per chunk: the point budget over the expected points per trial.

    Derived from the setup alone, so the draws of a full chunk do not
    depend on the trial count.
    """
    cfg = setup.topology
    area = cfg.window.area()
    points = matern_parent_intensity(cfg.lambda_b, cfg.r_b) * cfg.window.dilate(cfg.r_b).area()
    points += cfg.lambda_r * area
    points += cfg.lambda_b * cfg.lambda_u * math.pi * setup.r_i**2 * area
    return max(1, int(_CHUNK_POINTS / max(points, 1.0)))


def sample_fields(cfg: TopologyConfig, rng: np.random.Generator, trials: int,
                  nonempty: bool = False):
    """Base stations and surface clusters of ``trials`` independent trials.

    Returns (bs, bs_start, ris, ris_parent, resampled): trial t owns
    ``bs[bs_start[t]:bs_start[t + 1]]``, and ``ris_parent`` indexes ``bs``, so
    the surfaces come in trial order too.  With ``nonempty`` the trials whose
    BS field came out empty are redrawn together until every trial has a BS;
    ``resampled`` counts the redrawn fields, and a trial still empty after
    1000 attempts raises ``RuntimeError``.  One trial without ``nonempty``
    is one deployment as the ``topology`` command draws it.
    """
    parent = matern_parent_intensity(cfg.lambda_b, cfg.r_b)
    counts = np.empty(trials, dtype=int)
    bs = sample_mhcpp(parent, cfg.r_b, cfg.window, rng, counts)
    resampled = 0
    empty = np.flatnonzero(counts == 0) if nonempty else np.empty(0, dtype=int)
    if empty.size:
        points, owner = [bs], [np.repeat(np.arange(trials), counts)]
        for _ in range(999):
            resampled += empty.size
            redrawn = np.empty(empty.size, dtype=int)
            points.append(sample_mhcpp(parent, cfg.r_b, cfg.window, rng, redrawn))
            owner.append(np.repeat(empty, redrawn))
            counts[empty] = redrawn
            empty = empty[redrawn == 0]
            if empty.size == 0:
                break
        else:
            raise RuntimeError("failed to sample a nonempty BS field after 1000 attempts")
        bs = np.concatenate(points)[np.argsort(np.concatenate(owner), kind="stable")]
    bs_start = np.concatenate(([0], np.cumsum(counts)))
    if bs.shape[0] > 0 and cfg.lambda_r > 0:
        ris, ris_parent = sample_ris_clusters(bs, cfg.lambda_r, cfg.lambda_b, cfg.r_r, rng)
    else:
        ris = np.empty((0, 2))
        ris_parent = np.empty(0, dtype=int)
    return bs, bs_start, ris, ris_parent, resampled


def _bounce_length(bs: np.ndarray, ris: np.ndarray) -> np.ndarray:
    """d(BS, surface) * d(surface, origin) for each row of matched BSs and surfaces."""
    return np.hypot(*(ris - bs).T) * np.hypot(ris[:, 0], ris[:, 1])


def _nearest_bs_in_trial(
    bs: np.ndarray, bs_start: np.ndarray, positions: np.ndarray, trial: np.ndarray
) -> np.ndarray:
    """Index into ``bs`` of each position's nearest BS among its own trial's
    BSs (ties to the lowest index), or -1 when its trial has no BS."""
    # every (position, BS of its trial) pair, the BSs in index order
    n_bs = np.diff(bs_start)[trial]
    owner = np.repeat(np.arange(trial.size), n_bs)
    pair_bs = np.arange(owner.size) + np.repeat(bs_start[trial] - (np.cumsum(n_bs) - n_bs), n_bs)
    d2 = np.sum((bs[pair_bs] - positions[owner]) ** 2, axis=1)
    nearest = nearest_per_group(d2, owner, trial.size)
    if pair_bs.size == 0:
        return nearest
    return np.where(nearest >= 0, pair_bs[nearest], -1)


def _network_field_movers(setup: SimulationSetup, trials: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Interference per trial from the network field of near movers:
    Poisson(lambda_b lambda_u pi r_i**2) points per unit area of the window,
    each a direct Rayleigh term."""
    cfg, ch = setup.topology, setup.channel
    density = cfg.lambda_b * cfg.lambda_u * math.pi * setup.r_i**2
    counts = rng.poisson(density * cfg.window.area(), size=trials)
    pts = cfg.window.sample_uniform(int(counts.sum()), rng)
    trial = np.repeat(np.arange(trials), counts)
    d = np.hypot(pts[:, 0], pts[:, 1])
    near = d > 0
    power = ch.c * d[near] ** (-ch.alpha) * rng.exponential(size=int(near.sum()))
    return np.bincount(trial[near], weights=power, minlength=trials)


def _cell_reflected_movers(
    setup: SimulationSetup,
    bs: np.ndarray,
    bs_start: np.ndarray,
    ris: np.ndarray,
    serving_ris: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Interference per trial of a chunk laid out as ``sample_fields``
    returns it, from Poisson(lambda_u pi r_i**2) movers in the disk of
    radius r_i around the target: each mover's nearest BS of its trial
    bounces its signal off that BS's serving surface (``serving_ris`` as
    ``serving_surfaces`` returns it) to the target."""
    cfg, ch = setup.topology, setup.channel
    trials = bs_start.size - 1
    counts = rng.poisson(cfg.lambda_u * math.pi * setup.r_i**2, size=trials)
    positions = Window("disk", radius=setup.r_i).sample_uniform(int(counts.sum()), rng)
    trial = np.repeat(np.arange(trials), counts)
    i = _nearest_bs_in_trial(bs, bs_start, positions, trial)
    has_bs = i >= 0
    i, trial = i[has_bs], trial[has_bs]
    j = serving_ris[i]
    served = j >= 0
    bounce = _bounce_length(bs[i[served]], ris[j[served]])
    trial = trial[served]
    reaches = bounce > 0
    mean = ch.n_elements * ch.c**2 * bounce[reaches] ** (-ch.alpha)
    power = mean * rng.exponential(size=mean.size)
    return np.bincount(trial[reaches], weights=power, minlength=trials)


def draw_serving_power(
    ch: ChannelParams,
    pl_direct: float | np.ndarray,
    pl_reflected: float | np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n`` ideal-phase serving powers (sqrt(PL_d) g + sqrt(PL_r) sum h1 h2)^2.

    Every element is aligned onto the direct path, so the reflected term is
    the scalar sum of the N Nakagami amplitude products.  The gains are scalars
    or length-``n`` arrays (one link per draw).  The draw order is n Rayleigh
    amplitudes, then all n x N first hops, then all second hops, which are
    not drawn when no draw has a reflected link (``pl_reflected == 0``).
    ``serving_power`` calls it one row block at a time.
    """
    if np.any(np.less(pl_direct, 0)) or np.any(np.less(pl_reflected, 0)):
        raise ValueError("path-loss gains must be nonnegative")
    amp = np.sqrt(pl_direct) * sample_rayleigh(rng, n)
    if np.any(np.greater(pl_reflected, 0.0)):
        hops = sample_nakagami(ch.m1, rng, (n, ch.n_elements))
        hops *= sample_nakagami(ch.m2, rng, hops.shape)
        amp += np.sqrt(pl_reflected) * hops.sum(axis=1)
    return amp * amp


def serving_power(ch: ChannelParams, pl_direct: float | np.ndarray,
                  pl_reflected: float | np.ndarray, n: int, seed: int,
                  workers: int = 1) -> np.ndarray:
    """``n`` serving powers over the path-loss gains: scalars for the pinned
    link, or length-``n`` arrays, one associated link per trial.  The batch
    of every ensemble, and the samples of ``validate-power``.

    The batch is cut into row blocks of ``max(1, _HOP_BLOCK // N)`` rows, and
    block b is one ``draw_serving_power`` call on its slice of the gains and
    the child b of stream (seed, 0), so no n x N array is held.  The blocks
    run on ``min(workers, blocks, usable CPUs)`` threads, each drawing a fixed
    run of blocks into one output array (numpy's draws and ufuncs release the
    interpreter lock); below two threads they run in this thread.  The output
    depends on the block, not on the thread, so it is byte-identical whatever
    ``workers`` says.  Every thread has exited when this returns.
    """
    pl_direct, pl_reflected = np.broadcast_to(pl_direct, n), np.broadcast_to(pl_reflected, n)
    rows = max(1, _HOP_BLOCK // ch.n_elements)
    blocks = -(-n // rows)
    out = np.empty(n)

    def draw(first: int, stop: int):
        for b in range(first, stop):
            block = slice(b * rows, min((b + 1) * rows, n))
            out[block] = draw_serving_power(ch, pl_direct[block], pl_reflected[block],
                                            block.stop - block.start, _stream(seed, 0, (b,)))

    threads = min(workers, blocks, len(os.sched_getaffinity(0)))
    if threads < 2:
        draw(0, blocks)
        return out

    from concurrent.futures import ThreadPoolExecutor

    # one task per thread: at N near _HOP_BLOCK every block is one row
    with ThreadPoolExecutor(threads) as pool:
        tasks = [pool.submit(draw, t * blocks // threads, (t + 1) * blocks // threads)
                 for t in range(threads)]
        for task in tasks:
            task.result()
    return out


def sinr_from_powers(
    s0: float | np.ndarray,
    interference: float | np.ndarray,
    power_w: float,
    sigma2_w: float,
):
    return power_w * np.asarray(s0) / (power_w * np.asarray(interference) + sigma2_w)


def _field_draws(
    ch: ChannelParams,
    bs: np.ndarray,
    bs_start: np.ndarray,
    ris: np.ndarray,
    ris_start: np.ndarray,
    serving: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-trial loop of a chunk: each trial's field interference at the
    origin, drawn twice from one set of mean powers, before and after movement.

    Trial t owns ``bs[bs_start[t]:bs_start[t + 1]]`` and
    ``ris[ris_start[t]:ris_start[t + 1]]``; ``serving`` (associated mode)
    indexes each trial's serving BS in ``bs``, which does not interfere.  The
    means are c d^(-alpha) per interfering BS and N c^2 (d_ij d_jk)^(-alpha)
    per pair of an interfering BS and a surface of the trial.  Direct
    Rayleigh powers are exactly exponential; misaligned reflected sums are
    exponential with their pair mean to the same accuracy as the analytic
    per-term kernels.  Each draw takes the direct exponentials, then the pair
    exponentials, in one call; a trial without an interfering BS draws
    nothing.  Returns (i_before, field part of i_after).
    """
    trials = bs_start.size - 1
    if serving is not None:
        keep = np.ones(bs.shape[0], dtype=bool)
        keep[serving] = False
        bs, bs_start = bs[keep], bs_start - np.arange(trials + 1)
    direct = ch.c * np.hypot(bs[:, 0], bs[:, 1]) ** (-ch.alpha)
    d_ris = np.hypot(ris[:, 0], ris[:, 1])
    n_bs = np.diff(bs_start)
    n_pairs = n_bs * np.diff(ris_start)
    # slot A takes a trial's pair means, slot B first the dy temporary and
    # then each draw's fading (see the module docstring); each out= step
    # rounds exactly as the plain expression would
    buffer = np.empty((2, int(np.max(n_bs + n_pairs))))
    before = np.empty(trials)
    after = np.empty(trials)
    for t in range(trials):
        b, r = slice(bs_start[t], bs_start[t + 1]), slice(ris_start[t], ris_start[t + 1])
        k, m = n_bs[t], n_pairs[t]
        pairs = buffer[0, :m]
        if m:
            grid = pairs.reshape(k, -1)
            dy = buffer[1, :m].reshape(grid.shape)
            np.subtract(bs[b, 0:1], ris[None, r, 0], out=grid)
            np.subtract(bs[b, 1:2], ris[None, r, 1], out=dy)
            np.square(grid, out=grid)
            np.square(dy, out=dy)
            grid += dy
            np.sqrt(grid, out=grid)
            grid *= d_ris[None, r]
            np.power(grid, -ch.alpha, out=grid)
            grid *= ch.n_elements * ch.c**2
        for stage in (before, after):
            fading = buffer[1, :k + m]
            # the same bits and stream position as rng.exponential(size=k + m)
            rng.standard_exponential(out=fading)
            fading[:k] *= direct[b]
            fading[k:] *= pairs
            stage[t] = float(fading[:k].sum()) + float(fading[k:].sum())
    return before, after


def _run_chunk(setup: SimulationSetup, trials: int, seed: int, cell_reflected: bool, c: int):
    """Chunk ``c`` of an ensemble of ``trials`` trials, whole: its fields,
    associated serving links and moved users in vectorized passes from
    stream (seed, c + 1) (the cell-reflected movers from its first child),
    then its per-trial loop from that generator where the sampling left it.

    Returns (the chunk's slice of the trials, i_before, i_after with one row
    per moved-user term, the associated serving links' (direct, reflected)
    path-loss gains per trial or None, the redrawn empty fields).  The
    gains are None in pinned mode, whose link does not depend on the field.
    ``i_after`` holds the network-field term, then, with ``cell_reflected``,
    the cell-reflected term on the same fields and field fading.
    """
    size = _chunk_trials(setup)
    chunk = slice(c * size, min((c + 1) * size, trials))
    n = chunk.stop - chunk.start
    rng = _stream(seed, c + 1)
    ch = setup.channel
    associated = setup.serving_mode == "associated"
    bs, bs_start, ris, ris_parent, resampled = sample_fields(
        setup.topology, rng, n, nonempty=associated)
    serving_ris = None
    if associated or cell_reflected:
        serving_ris = serving_surfaces(bs, ris, ris_parent)
    gains = serving = None
    if associated:
        # each trial's typical user at the origin
        serving = _nearest_bs_in_trial(bs, bs_start, np.zeros((n, 2)), np.arange(n))
        pl_d = ch.c * np.hypot(bs[serving, 0], bs[serving, 1]) ** (-ch.alpha)
        j = serving_ris[serving]
        has = j >= 0
        pl_r = np.zeros(n)
        pl_r[has] = ch.c * _bounce_length(bs[serving[has]], ris[j[has]]) ** (-ch.alpha)
        gains = pl_d, pl_r
    moved = [_network_field_movers(setup, n, rng)]
    if cell_reflected:
        moved.append(_cell_reflected_movers(setup, bs, bs_start, ris, serving_ris,
                                            _stream(seed, c + 1, (0,))))
    ris_start = np.searchsorted(ris_parent, bs_start)
    before, field_after = _field_draws(ch, bs, bs_start, ris, ris_start, serving, rng)
    return chunk, before, [term + field_after for term in moved], gains, resampled


def run_ensemble(setup: SimulationSetup, trials: int, seed: int = 0,
                 workers: int = 1, cell_reflected: bool = False) -> EnsembleStats:
    """``trials`` trials, sampled in chunks from per-(seed, chunk) streams.

    The trials are cut into chunks of a size derived from the setup alone,
    and chunk c draws everything it samples from stream (seed, c + 1), so
    the interference of a trial in a full chunk (and its associated serving
    link) depends on the seed and the trial's position, not on the trial
    count; a partial last chunk draws differently.  The serving powers,
    pinned or associated, are one ``serving_power`` batch over all trials,
    drawn on the first read of ``s0`` on up to ``workers`` threads; that read
    comes after any worker pool has shut down, and its threads have exited
    when it returns.

    With ``cell_reflected`` each chunk also draws the cell-reflected movers,
    from the child stream of its own, and fills ``i_after_cell_reflected``;
    every other sample is the same as without.

    The chunks run on n = min(``workers``, chunks, usable CPUs) processes,
    this one included, each running whole chunks (``_run_chunk``): this
    process runs chunks 0, n, 2n, ... and n - 1 fork-started workers the
    others, one task per chunk.  Below two processes, or while another
    thread is alive, every chunk runs here.  The output is byte-identical
    whatever ``workers`` says.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    ch = setup.channel
    i_b = np.empty(trials)
    # after movement, one row per moved-user term
    i_a = np.empty((1 + cell_reflected, trials))
    if setup.serving_mode == "pinned":
        pl_d, pl_r = setup.link.pathloss(ch.c, ch.alpha)
    else:
        pl_d, pl_r = np.empty(trials), np.empty(trials)  # filled chunk by chunk
    serving = functools.partial(serving_power, ch, pl_d, pl_r, trials, seed, workers)

    chunks = -(-trials // _chunk_trials(setup))
    run = functools.partial(_run_chunk, setup, trials, seed, cell_reflected)
    resampled = 0

    def store(chunk: slice, before: np.ndarray, after: list, gains, n_resampled: int):
        nonlocal resampled
        i_b[chunk], i_a[:, chunk] = before, after
        if gains is not None:
            pl_d[chunk], pl_r[chunk] = gains
        resampled += n_resampled

    processes = min(workers, chunks, len(os.sched_getaffinity(0)))
    pool = None
    # a forked worker is a copy of this process, and a lock another thread
    # held at the fork would stay held in it: fork only a single thread
    if processes > 1 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # forked, not spawned: a spawned worker starts an interpreter and
        # imports numpy and this module afresh, 0.19-0.32 s on 2 vCPUs
        # against 6 ms for a fork, which is more than a small ensemble's
        # whole loop
        pool = ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork"))
    else:
        processes = 1
    try:
        # the workers fork at the first submit and run their chunks while
        # this process runs chunks 0, n, 2n, ...
        tasks = [pool.submit(run, c) for c in range(chunks) if c % processes]
        for c in range(0, chunks, processes):
            store(*run(c))
        for task in tasks:
            store(*task.result())
    finally:
        # on a failure here or in a worker no queued chunk starts, and every
        # worker has exited before the exception propagates
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return EnsembleStats(i_b, i_a[0], resampled, serving,
                         i_a[1] if cell_reflected else None)


def _outage_masks(
    stats: EnsembleStats, power_w: float, sigma2_w: float, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, whether the SINR is below ``threshold``, before and after movement."""
    return tuple(sinr_from_powers(stats.s0, interference, power_w, sigma2_w) < threshold
                 for interference in (stats.i_before, stats.i_after))


def outage_from_ensemble(
    stats: EnsembleStats, power_w: float, sigma2_w: float, threshold: float
) -> OutageEstimate:
    """Outage fractions before and after movement with binomial errors."""
    p_b, p_a = (float(np.mean(out)) for out in _outage_masks(stats, power_w, sigma2_w, threshold))
    stderr = (math.sqrt(max(p * (1 - p), 1e-12) / stats.trials) for p in (p_b, p_a))
    return OutageEstimate(p_b, p_a, *stderr)


def rates_from_ensemble(
    stats: EnsembleStats, power_w: float, sigma2_w: float, threshold: float
) -> RateEstimate:
    """Paired transition fractions: infections are non-outage -> outage,
    recoveries the reverse; r0_hat is +inf when no trial recovers."""
    out_b, out_a = _outage_masks(stats, power_w, sigma2_w, threshold)
    beta_hat = float(np.mean(~out_b & out_a))
    mu_hat = float(np.mean(out_b & ~out_a))
    r0 = math.inf if mu_hat == 0.0 else beta_hat / mu_hat
    return RateEstimate(beta_hat, mu_hat, r0)

