"""Monte Carlo harness: trial structure, paired estimators, reproducibility."""

import concurrent.futures.process
import functools
import math
import multiprocessing
import os
import threading
from concurrent.futures.process import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ris_sim import montecarlo
from ris_sim.channel import ChannelParams
from ris_sim.geometry import (
    TopologyConfig,
    Window,
    matern_parent_intensity,
    sample_mhcpp,
    sample_ris_clusters,
    serving_surfaces,
)
from ris_sim.montecarlo import (
    LinkGeometry,
    SimulationSetup,
    _draw_field_interference,
    _field_kernel,
    draw_serving_power,
    outage_from_ensemble,
    rates_from_ensemble,
    run_ensemble,
    sample_fields,
    sinr_from_powers,
)


# transmit and noise powers of the SINR checks
POWER_W = 1e-3
SIGMA2_W = 1e-12


def _setup(**kwargs):
    defaults = dict(
        topology=TopologyConfig(window=Window("disk", radius=500.0)),
        channel=ChannelParams(),
        link=LinkGeometry(),
    )
    defaults.update(kwargs)
    return SimulationSetup(**defaults)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _associate_nearest(ue, bs):
    """Index of the BS closest to ``ue`` by brute force; np.argmin breaks a
    tie to the lowest index."""
    return int(np.argmin(np.sum((bs - ue) ** 2, axis=1)))


def _reference_field_interference(bs, ris, ch, rng, exclude=None):
    """One draw with the pair means recomputed, as before the kernel split."""
    if bs.shape[0] == 0:
        return 0.0
    keep = np.ones(bs.shape[0], dtype=bool)
    if exclude is not None:
        keep[exclude] = False
    bs = bs[keep]
    if bs.shape[0] == 0:
        return 0.0
    d_bs = np.hypot(bs[:, 0], bs[:, 1])
    total = float(np.sum(ch.c * d_bs ** (-ch.alpha) * rng.exponential(size=d_bs.size)))
    if ris.shape[0] > 0:
        d_ris = np.hypot(ris[:, 0], ris[:, 1])
        d_pair = np.sqrt(
            (bs[:, 0:1] - ris[None, :, 0]) ** 2 + (bs[:, 1:2] - ris[None, :, 1]) ** 2
        )
        means = ch.n_elements * ch.c**2 * (d_pair * d_ris[None, :]) ** (-ch.alpha)
        total += float(np.sum(means * rng.exponential(size=means.shape)))
    return total


def _sinrs(stats, sigma2_w=SIGMA2_W):
    return (sinr_from_powers(stats.s0, stats.i_before, POWER_W, sigma2_w),
            sinr_from_powers(stats.s0, stats.i_after, POWER_W, sigma2_w))


class TestSimulateTrial:
    """Properties of each simulated trial of a small ensemble."""

    def test_sinr_identity(self):
        setup = _setup()
        stats = run_ensemble(setup, 20, seed=1)
        sinr_b, sinr_a = _sinrs(stats)
        assert sinr_b == pytest.approx(
            POWER_W * stats.s0 / (POWER_W * stats.i_before + SIGMA2_W), rel=1e-12
        )
        assert sinr_a == pytest.approx(
            POWER_W * stats.s0 / (POWER_W * stats.i_after + SIGMA2_W), rel=1e-12
        )
        assert min(stats.s0.min(), stats.i_before.min(), stats.i_after.min()) >= 0.0

    def test_no_movement_and_empty_field(self):
        # a nearly empty deployment: no interferers and no movers, so both
        # stages coincide exactly
        topo = TopologyConfig(
            lambda_b=1e-9, lambda_r=0.0, lambda_u=1e-12,
            window=Window("disk", radius=100.0),
        )
        setup = _setup(topology=topo)
        stats = run_ensemble(setup, 5, seed=0)
        sinr_b, sinr_a = _sinrs(stats)
        quiet = (stats.i_before == 0.0) & (stats.i_after == 0.0)
        assert quiet.any()
        assert np.array_equal(sinr_a[quiet], sinr_b[quiet])

    def test_noise_dominated_limit(self):
        stats = run_ensemble(_setup(), 20, seed=2)
        sinr_b, _ = _sinrs(stats, sigma2_w=1.0)
        assert sinr_b == pytest.approx(POWER_W * stats.s0, rel=1e-6)

    def test_associated_mode_runs(self):
        setup = _setup(serving_mode="associated")
        stats = run_ensemble(setup, 20, seed=3)
        sinr_b, sinr_a = _sinrs(stats)
        assert np.all(stats.s0 > 0.0)
        assert np.all(np.isfinite(sinr_b)) and np.all(np.isfinite(sinr_a))

    def test_cell_reflected_mode_runs(self):
        stats = run_ensemble(_setup(), 20, seed=4, cell_reflected=True)
        assert np.all(stats.i_after_cell_reflected >= 0.0)
        assert run_ensemble(_setup(), 20, seed=4).i_after_cell_reflected is None


class TestFieldKernel:
    def test_two_draws_match_recomputed_reference(self):
        ch = ChannelParams()
        topo = TopologyConfig(lambda_b=5e-5, lambda_r=1e-4, window=Window("disk", radius=500.0))
        for seed in range(20):
            bs, _, ris, _, _ = sample_fields(topo, _rng(100 + seed), 1)
            for exclude in (None, seed % bs.shape[0]):
                kernel = _field_kernel(bs, ris, ch, exclude)
                rng, ref_rng = _rng(seed), _rng(seed)
                got = [_draw_field_interference(kernel, rng) for _ in range(2)]
                want = [_reference_field_interference(bs, ris, ch, ref_rng, exclude)
                        for _ in range(2)]
                assert got == want
                assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "bs,ris,exclude",
        [
            (np.zeros((0, 2)), np.zeros((0, 2)), None),
            (np.array([[30.0, 40.0]]), np.array([[35.0, 40.0]]), 0),
            (np.array([[30.0, 40.0], [-60.0, 80.0]]), np.zeros((0, 2)), None),
        ],
    )
    def test_degenerate_fields_match_reference(self, bs, ris, exclude):
        ch = ChannelParams()
        rng, ref_rng = _rng(3), _rng(3)
        got = _draw_field_interference(_field_kernel(bs, ris, ch, exclude), rng)
        assert got == _reference_field_interference(bs, ris, ch, ref_rng, exclude)
        assert rng.random() == ref_rng.random()

    def test_chunk_buffer_matches_fresh_arrays(self):
        # (BSs, surfaces) per trial: the largest in the middle, a trial with
        # no BS and one with no surfaces
        sizes = [(3, 4), (0, 0), (8, 9), (4, 0), (2, 5)]
        gen = _rng(21)
        bs = gen.uniform(-400.0, 400.0, (sum(b for b, _ in sizes), 2))
        ris = gen.uniform(-400.0, 400.0, (sum(r for _, r in sizes), 2))
        bs_start = np.concatenate(([0], np.cumsum([b for b, _ in sizes])))
        ris_start = np.concatenate(([0], np.cumsum([r for _, r in sizes])))
        # associated mode: each trial's serving BS is left out of its kernel
        serving = bs_start[:-1] + np.array([2, 0, 5, 1, 0])
        ch = ChannelParams()
        rng, ref_rng = _rng(8), _rng(8)
        drawn = montecarlo._field_draws(ch, bs, bs_start, ris, ris_start, serving, rng)
        want = np.empty((2, len(sizes)))
        for t in range(len(sizes)):
            kernel = _field_kernel(bs[bs_start[t]:bs_start[t + 1]],
                                   ris[ris_start[t]:ris_start[t + 1]], ch,
                                   serving[t] - bs_start[t])
            want[:, t] = [_draw_field_interference(kernel, ref_rng) for _ in range(2)]
        assert [a.tobytes() for a in drawn] == [row.tobytes() for row in want]
        assert rng.random() == ref_rng.random()


class TestEnsemble:
    def test_reproducible(self):
        setup = _setup()
        a = run_ensemble(setup, 200, seed=11)
        b = run_ensemble(setup, 200, seed=11)
        assert np.array_equal(a.s0, b.s0)
        assert np.array_equal(a.i_before, b.i_before)
        assert np.array_equal(a.i_after, b.i_after)

    def test_interference_ordering(self):
        # movement adds nonnegative terms, so the after-stage law dominates;
        # quantiles are the stable comparison for this heavy-tailed variable
        # (the no-exclusion field has an infinite mean at alpha = 3)
        stats = run_ensemble(_setup(), 5000, seed=1)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(stats.i_after, q) >= np.quantile(stats.i_before, q)

    def test_resampling_counted_in_associated_mode(self):
        # tiny window and density make empty fields common
        topo = TopologyConfig(lambda_b=5e-5, window=Window("disk", radius=80.0))
        setup = _setup(topology=topo, serving_mode="associated")
        stats = run_ensemble(setup, 150, seed=3)
        assert stats.resampled > 0
        assert stats.trials == 150


class TestEstimators:
    def test_outage_extremes(self):
        setup = _setup()
        stats = run_ensemble(setup, 2000, seed=4)
        zero = outage_from_ensemble(stats, POWER_W, SIGMA2_W, 0.0)
        assert (zero.p_before, zero.p_after) == (0.0, 0.0)
        huge = outage_from_ensemble(stats, POWER_W, SIGMA2_W, 1e12)
        assert (huge.p_before, huge.p_after) == (1.0, 1.0)

    def test_rates_flagged_at_zero_threshold(self):
        setup = _setup()
        stats = run_ensemble(setup, 2000, seed=5)
        r = rates_from_ensemble(stats, POWER_W, SIGMA2_W, 0.0)
        assert r.beta_hat == 0.0 and r.mu_hat == 0.0
        assert math.isinf(r.r0_hat)

    def test_sinr_from_powers_vectorized(self):
        sinr = sinr_from_powers(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 2.0, 1.0)
        assert sinr == pytest.approx([2.0, 4.0 / 3.0])


def _reference_trial(setup, rng, moved_mode):
    """One trial as the per-trial loop drew it before the chunked engine:
    field (empty fields redrawn in associated mode), serving power, kernel
    draws, then the moved users one by one, as a network field or as
    cell-reflected movers.  Returns (s0, i_before, i_after, resampled)."""
    cfg, ch = setup.topology, setup.channel
    parent = matern_parent_intensity(cfg.lambda_b, cfg.r_b)
    resamples = 0
    while True:
        bs = sample_mhcpp(parent, cfg.r_b, cfg.window, rng)
        ris, ris_parent = np.empty((0, 2)), np.empty(0, dtype=int)
        if bs.shape[0] > 0 and cfg.lambda_r > 0:
            ris, ris_parent = sample_ris_clusters(bs, cfg.lambda_r, cfg.lambda_b, cfg.r_r, rng)
        if setup.serving_mode == "pinned" or bs.shape[0] > 0:
            break
        resamples += 1
    serving = serving_surfaces(bs, ris, ris_parent)
    exclude = None
    if setup.serving_mode == "pinned":
        pl_d, pl_r = setup.link.pathloss(ch.c, ch.alpha)
    else:
        exclude = _associate_nearest(np.zeros(2), bs)
        pl_d = ch.c * float(np.hypot(*bs[exclude])) ** (-ch.alpha)
        j = serving[exclude]
        pl_r = 0.0
        if j >= 0:
            d = float(np.linalg.norm(bs[exclude] - ris[j])) * float(np.hypot(*ris[j]))
            pl_r = ch.c * d ** (-ch.alpha)
    s0 = float(draw_serving_power(ch, pl_d, pl_r, 1, rng)[0])
    kernel = _field_kernel(bs, ris, ch, exclude=exclude)
    i_before = _draw_field_interference(kernel, rng)
    i_after = _draw_field_interference(kernel, rng)
    if moved_mode == "network_field":
        density = cfg.lambda_b * cfg.lambda_u * math.pi * setup.r_i**2
        pts = cfg.window.sample_uniform(rng.poisson(density * cfg.window.area()), rng)
        d = np.hypot(pts[:, 0], pts[:, 1])
        d = d[d > 0]
        i_after += float(np.sum(ch.c * d ** (-ch.alpha) * rng.exponential(size=d.size)))
    else:
        count = rng.poisson(cfg.lambda_u * math.pi * setup.r_i**2)
        r = setup.r_i * np.sqrt(rng.random(count))
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        for pos in np.column_stack((r * np.cos(theta), r * np.sin(theta))):
            if bs.shape[0] == 0:
                break
            i = _associate_nearest(pos, bs)
            j = serving[i]
            if j < 0:
                continue
            d_ij = float(np.linalg.norm(ris[j] - bs[i]))
            d_jk = float(np.hypot(*ris[j]))
            if d_ij > 0 and d_jk > 0:
                mean = ch.n_elements * ch.c**2 * (d_ij * d_jk) ** (-ch.alpha)
                i_after += mean * float(rng.exponential())
    return s0, i_before, i_after, resamples


def _reference_ensemble(setup, trials, seed, moved_mode="network_field"):
    rows = np.array([
        _reference_trial(setup, np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, t + 1)))), moved_mode)
        for t in range(trials)
    ])
    return rows[:, 0], rows[:, 1], rows[:, 2], int(rows[:, 3].sum())


@pytest.fixture
def small_chunks(monkeypatch):
    """About a dozen trials per chunk on the _setup() fields."""
    monkeypatch.setattr(montecarlo, "_CHUNK_POINTS", 500)


class TestChunkEngine:
    @pytest.mark.parametrize("serving_mode", ["pinned", "associated"])
    @pytest.mark.parametrize("moved_mode", ["network_field", "cell_reflected"])
    def test_law_matches_per_trial_loop(self, serving_mode, moved_mode):
        # two-sample KS on independent ensembles of both engines; a real
        # change of law at this size shows as p far below 1e-3.  The chunk
        # engine draws the cell-reflected movers beside the network field.
        topo = TopologyConfig(lambda_u=5e-2, window=Window("disk", radius=500.0))
        setup = _setup(topology=topo, serving_mode=serving_mode)
        n = 3000
        got = run_ensemble(setup, n, seed=21, cell_reflected=moved_mode == "cell_reflected")
        got_after = got.i_after if moved_mode == "network_field" else got.i_after_cell_reflected
        s0, i_before, i_after, _ = _reference_ensemble(setup, n, seed=22, moved_mode=moved_mode)
        assert ks_2samp(got.i_before, i_before).pvalue > 1e-3
        assert ks_2samp(got_after, i_after).pvalue > 1e-3
        assert ks_2samp(got.s0, s0).pvalue > 1e-3
        # the moved users add interference in a nonzero share of trials
        assert np.mean(got_after > got.i_before) > 0.2

    def test_resampled_matches_per_trial_loop(self):
        # empty fields are common in this small window; the redraw count per
        # trial is a geometric mean that both engines must share
        topo = TopologyConfig(lambda_b=5e-5, window=Window("disk", radius=80.0))
        setup = _setup(topology=topo, serving_mode="associated")
        n = 2000
        got = run_ensemble(setup, n, seed=3)
        *_, want = _reference_ensemble(setup, n, seed=4)
        assert got.resampled > 0 and want > 0
        assert abs(got.resampled - want) < 5 * math.sqrt(want)

    def test_empty_fields_give_up_after_1000_attempts(self):
        topo = TopologyConfig(lambda_b=0.0, lambda_r=0.0, window=Window("disk", radius=100.0))
        with pytest.raises(RuntimeError, match="1000 attempts"):
            run_ensemble(_setup(topology=topo, serving_mode="associated"), 5, seed=0)

    @pytest.mark.parametrize("serving_mode", ["pinned", "associated"])
    def test_first_chunk_independent_of_trial_count(self, small_chunks, serving_mode):
        setup = _setup(serving_mode=serving_mode)
        chunk = montecarlo._chunk_trials(setup)
        assert 5 <= chunk <= 50
        one = run_ensemble(setup, chunk, seed=8, cell_reflected=True)
        two = run_ensemble(setup, 2 * chunk, seed=8, cell_reflected=True)
        assert np.array_equal(one.i_before, two.i_before[:chunk])
        assert np.array_equal(one.i_after, two.i_after[:chunk])
        assert np.array_equal(one.i_after_cell_reflected, two.i_after_cell_reflected[:chunk])
        assert not np.array_equal(two.i_before[:chunk], two.i_before[chunk:])

    @pytest.mark.parametrize("serving_mode", ["pinned", "associated"])
    def test_full_chunks_independent_of_trial_count(self, small_chunks, serving_mode):
        # only a partial last chunk draws differently: its stream serves
        # fewer trials
        setup = _setup(serving_mode=serving_mode)
        chunk = montecarlo._chunk_trials(setup)
        full = run_ensemble(setup, 2 * chunk, seed=3)
        more = run_ensemble(setup, 2 * chunk + 5, seed=3)
        assert np.array_equal(full.i_before, more.i_before[:2 * chunk])
        assert np.array_equal(full.i_after, more.i_after[:2 * chunk])
        fewer = run_ensemble(setup, chunk + 5, seed=3)
        assert not np.array_equal(fewer.i_before[chunk:], full.i_before[chunk:chunk + 5])

    def test_chunk_size_shrinks_with_density(self):
        sparse = _setup()
        dense = _setup(topology=TopologyConfig(
            lambda_b=1e-4, lambda_r=1e-4, window=Window("disk", radius=500.0)))
        assert montecarlo._chunk_trials(sparse) > 10 * montecarlo._chunk_trials(dense) >= 10

    @pytest.mark.parametrize("serving_mode", ["pinned", "associated"])
    def test_repeats_identical_and_seeds_differ(self, small_chunks, serving_mode):
        setup = _setup(serving_mode=serving_mode)
        a, b = (run_ensemble(setup, 100, seed=5, cell_reflected=True) for _ in range(2))
        c = run_ensemble(setup, 100, seed=6, cell_reflected=True)
        for field_name in ("s0", "i_before", "i_after", "i_after_cell_reflected"):
            x, y, z = getattr(a, field_name), getattr(b, field_name), getattr(c, field_name)
            assert x.tobytes() == y.tobytes()
            assert not np.array_equal(x, z)
        assert a.resampled == b.resampled

    @pytest.mark.parametrize("serving_mode", ["pinned", "associated"])
    def test_cell_reflected_term_leaves_the_network_field_unchanged(self, small_chunks,
                                                                   serving_mode):
        # the cell-reflected movers draw from streams of their own
        setup = _setup(serving_mode=serving_mode)
        plain = run_ensemble(setup, 100, seed=5)
        both = run_ensemble(setup, 100, seed=5, cell_reflected=True)
        for name in ("s0", "i_before", "i_after"):
            assert getattr(both, name).tobytes() == getattr(plain, name).tobytes()
        assert both.resampled == plain.resampled
        assert not np.array_equal(both.i_after_cell_reflected, both.i_after)

    def test_pinned_serving_powers_drawn_on_first_read(self, monkeypatch):
        calls = []
        draw = montecarlo.draw_serving_power

        def counting(*args):
            calls.append(args[3])
            return draw(*args)

        monkeypatch.setattr(montecarlo, "draw_serving_power", counting)
        setup = _setup()
        stats = run_ensemble(setup, 50, seed=7, cell_reflected=True)
        assert calls == [] and stats.trials == 50
        s0 = stats.s0
        # 50 trials are one row block: one call, on child 0 of stream (7, 0)
        assert stats.s0 is s0 and calls == [50]
        ch = setup.channel
        want = draw(ch, *setup.link.pathloss(ch.c, ch.alpha), 50,
                    montecarlo._stream(7, 0, (0,)))
        assert s0.tobytes() == want.tobytes()

    def test_associated_serving_powers_drawn_on_first_read(self, small_chunks, monkeypatch):
        # one batch on the chunks' associated links, as in pinned mode
        calls = []
        draw = montecarlo.draw_serving_power

        def counting(*args):
            calls.append(args[3])
            return draw(*args)

        monkeypatch.setattr(montecarlo, "draw_serving_power", counting)
        setup = _setup(serving_mode="associated")
        chunk = montecarlo._chunk_trials(setup)
        trials = 2 * chunk + 5
        stats = run_ensemble(setup, trials, seed=7)
        assert calls == []
        gains = np.concatenate([montecarlo._run_chunk(setup, trials, 7, False, c)[3]
                                for c in range(3)], axis=1)
        want = montecarlo.serving_power(setup.channel, *gains, trials, 7)
        assert stats.s0.tobytes() == want.tobytes() and calls == [trials, trials]

    def test_cell_reflected_nearest_bs_matches_associate_nearest(self):
        rng = _rng(17)
        topo = TopologyConfig(lambda_b=5e-5, window=Window("disk", radius=300.0))
        counts = np.empty(30, dtype=int)
        bs = sample_mhcpp(matern_parent_intensity(topo.lambda_b, topo.r_b), topo.r_b,
                          topo.window, rng, counts)
        bs_start = np.concatenate(([0], np.cumsum(counts)))
        # trial 3 without BSs, and an exact tie in trial 4
        bs = np.concatenate((bs[:bs_start[3]], [[10.0, 0.0], [-10.0, 0.0]], bs[bs_start[5]:]))
        counts[3:5] = 0, 2
        bs_start = np.concatenate(([0], np.cumsum(counts)))
        trial = np.repeat(np.arange(30), 6)
        positions = rng.uniform(-300.0, 300.0, (trial.size, 2))
        positions[trial == 4] = [0.0, 5.0]
        got = montecarlo._nearest_bs_in_trial(bs, bs_start, positions, trial)
        assert np.all(got[trial == 3] == -1)
        assert np.all(got[trial == 4] == bs_start[4])
        for k, t in enumerate(trial):
            own = bs[bs_start[t]:bs_start[t + 1]]
            want = -1 if own.shape[0] == 0 else bs_start[t] + _associate_nearest(positions[k], own)
            assert got[k] == want

    def test_nearest_bs_in_a_chunk_without_bs(self):
        # moved users in every trial, but no BS in the whole chunk
        bs_start = np.zeros(4, dtype=int)
        trial = np.array([0, 0, 1, 2, 2, 2])
        got = montecarlo._nearest_bs_in_trial(
            np.empty((0, 2)), bs_start, np.ones((trial.size, 2)), trial)
        assert got.tolist() == [-1] * trial.size


def _by_blocks(ch, pl_d, pl_r, n, seed):
    """The serving batch as one ``draw_serving_power`` call per row block,
    block b on its slice of the gains (scalars or length-n arrays) and child b
    of stream (seed, 0), concatenated."""
    rows = max(1, montecarlo._HOP_BLOCK // ch.n_elements)
    part = lambda gain, block: gain if np.ndim(gain) == 0 else gain[block]
    blocks = [slice(start, min(start + rows, n)) for start in range(0, n, rows)]
    return np.concatenate([
        draw_serving_power(ch, part(pl_d, block), part(pl_r, block), block.stop - block.start,
                           montecarlo._stream(seed, 0, (b,)))
        for b, block in enumerate(blocks)])


class TestPinnedServingBatch:
    @pytest.mark.parametrize("n_elements", [200, montecarlo._HOP_BLOCK + 3])
    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    def test_equals_the_blocks_drawn_in_turn(self, four_cpus, n_elements, workers):
        ch = ChannelParams(n_elements=n_elements)
        pinned = LinkGeometry().pathloss(ch.c, ch.alpha)
        rows = max(1, montecarlo._HOP_BLOCK // n_elements)
        for n in (1, rows, rows + 1, 3 * rows + 5):
            # associated gains: one link per trial, some without a surface
            gains = _rng(n).uniform(0.5, 2.0, (2, n)) * np.array(pinned)[:, None]
            gains[1, ::3] = 0.0
            for pl_d, pl_r in (pinned, gains):
                got = montecarlo.serving_power(ch, pl_d, pl_r, n, 11, workers)
                assert got.tobytes() == _by_blocks(ch, pl_d, pl_r, n, 11).tobytes()

    def test_threads_exit_before_it_returns(self, small_chunks, four_cpus, monkeypatch):
        # 5 rows per block at N = 200: 10 blocks on 2 threads
        monkeypatch.setattr(montecarlo, "_HOP_BLOCK", 1000)
        setup = _setup()
        ch = setup.channel
        pinned = setup.link.pathloss(ch.c, ch.alpha)
        before = threading.active_count()
        s0 = montecarlo.serving_power(ch, *pinned, 50, 3, workers=2)
        assert threading.active_count() == before
        assert s0.tobytes() == _by_blocks(ch, *pinned, 50, 3).tobytes()
        # so a pooled ensemble afterwards still forks its workers, and its
        # lazy pinned draw on two threads leaves none behind either
        stats = run_ensemble(setup, 170, seed=3, workers=2)
        assert four_cpus == [1]
        assert stats.s0[:50].tobytes() == s0.tobytes()
        assert threading.active_count() == before
        _assert_no_children()

    def test_failing_block_raises_after_every_thread_exits(self, four_cpus, monkeypatch):
        monkeypatch.setattr(montecarlo, "_HOP_BLOCK", 1000)
        draw = montecarlo.draw_serving_power

        def failing_last_block(ch, pl_d, pl_r, n, rng):
            if n < 5:
                raise MemoryError("block failed")
            return draw(ch, pl_d, pl_r, n, rng)

        monkeypatch.setattr(montecarlo, "draw_serving_power", failing_last_block)
        before = threading.active_count()
        setup = _setup()
        ch = setup.channel
        with pytest.raises(MemoryError, match="block failed"):
            montecarlo.serving_power(ch, *setup.link.pathloss(ch.c, ch.alpha), 48, 3, workers=3)
        assert threading.active_count() == before


class _RecordingPool:
    """Stands in for ProcessPoolExecutor and records the worker counts it
    was built with."""

    built: list[int] = []

    def __new__(cls, max_workers, **kwargs):
        cls.built.append(max_workers)
        return ProcessPoolExecutor(max_workers, **kwargs)


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs whatever the host has, and a record of the pools
    ``run_ensemble`` starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "built", [])
    return _RecordingPool.built


def _assert_no_children():
    assert multiprocessing.active_children() == []


class TestWorkerPool:
    @pytest.mark.parametrize("serving_mode", ["pinned", "associated"])
    @pytest.mark.parametrize("moved_mode", ["network_field", "cell_reflected"])
    def test_byte_identical_across_workers(self, small_chunks, four_cpus, serving_mode,
                                           moved_mode):
        setup = _setup(serving_mode=serving_mode)
        cell_reflected = moved_mode == "cell_reflected"
        names = ("s0", "i_before", "i_after") + ("i_after_cell_reflected",) * cell_reflected
        trials = 170
        assert trials // montecarlo._chunk_trials(setup) >= 6
        ref = run_ensemble(setup, trials, seed=9, workers=1, cell_reflected=cell_reflected)
        for workers in (1, 2, 3):
            got = run_ensemble(setup, trials, seed=9, workers=workers,
                               cell_reflected=cell_reflected)
            for name in names:
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            assert got.resampled == ref.resampled
        # the caller is one of the processes: pools of 1 and 2 workers
        assert four_cpus == [1, 2]
        _assert_no_children()

    def test_byte_identical_across_workers_with_resampling(self, small_chunks, four_cpus):
        topo = TopologyConfig(lambda_b=5e-5, window=Window("disk", radius=80.0))
        setup = _setup(topology=topo, serving_mode="associated")
        trials = 450
        assert trials // montecarlo._chunk_trials(setup) >= 6
        ref = run_ensemble(setup, trials, seed=3)
        assert ref.resampled > 0
        for workers in (2, 3):
            got = run_ensemble(setup, trials, seed=3, workers=workers)
            for name in ("s0", "i_before", "i_after"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            assert got.resampled == ref.resampled
        assert four_cpus == [1, 2]

    def test_caller_samples_every_second_chunk(self, small_chunks, four_cpus, monkeypatch):
        # the wrapper counts in this process only: each forked worker calls
        # its own copy.  It carries _run_chunk's name, so that the pool
        # pickles it by reference as it does the unpatched function
        run_chunk = montecarlo._run_chunk
        sampled = []

        @functools.wraps(run_chunk)
        def counting(*args):
            sampled.append(args[-1])  # the chunk index
            return run_chunk(*args)

        monkeypatch.setattr(montecarlo, "_run_chunk", counting)
        setup = _setup()
        chunks = -(-170 // montecarlo._chunk_trials(setup))
        assert chunks >= 6
        run_ensemble(setup, 170, seed=1, workers=2)
        assert four_cpus == [1]
        assert sampled == list(range(0, chunks, 2))
        _assert_no_children()

    def test_sampling_failure_leaves_no_workers(self, small_chunks, four_cpus, monkeypatch):
        run_chunk = montecarlo._run_chunk
        calls = []

        @functools.wraps(run_chunk)
        def failing_fourth_chunk(*args):
            calls.append(None)
            if len(calls) == 4:
                raise RuntimeError("failed to sample a nonempty BS field after 1000 attempts")
            return run_chunk(*args)

        monkeypatch.setattr(montecarlo, "_run_chunk", failing_fourth_chunk)
        with pytest.raises(RuntimeError, match="1000 attempts"):
            run_ensemble(_setup(), 170, seed=1, workers=2)
        assert four_cpus == [1]
        _assert_no_children()

    def test_worker_failure_leaves_no_workers(self, small_chunks, four_cpus, monkeypatch):
        caller = os.getpid()
        draw = montecarlo._draw_field_interference

        def failing_draw(kernel, rng, *rest):
            if os.getpid() != caller:
                raise RuntimeError("draw failed in a worker")
            return draw(kernel, rng, *rest)

        # the workers are forked after the patch, so they draw with it, and
        # this process draws its own chunks as before
        monkeypatch.setattr(montecarlo, "_draw_field_interference", failing_draw)
        with pytest.raises(RuntimeError, match="draw failed in a worker"):
            run_ensemble(_setup(), 170, seed=1, workers=2)
        assert four_cpus == [1]
        _assert_no_children()

    def test_workers_below_one_refused(self):
        with pytest.raises(ValueError, match="workers"):
            run_ensemble(_setup(), 10, seed=1, workers=0)
