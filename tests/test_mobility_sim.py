"""Random-walk mobility and the agent-based epidemic."""

import math
import warnings

import numpy as np
import pytest

from ris_sim import mobility_sim
from ris_sim.geometry import Window
from ris_sim.mobility_sim import (
    AbmConfig,
    AgentState,
    abm_step,
    random_walk_step,
    run_abm,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestRandomWalk:
    def test_displacement_bounded(self):
        window = Window("rectangle", half_extents=(1e6, 1e6))
        start = np.zeros((10_000, 2))
        moved = random_walk_step(start, window, _rng(1))
        d = np.hypot(moved[:, 0], moved[:, 1])
        assert d.max() <= 10.0 + 1e-9

    def test_mean_squared_displacement(self):
        # uniform distance on [0, 10]: E{d^2} = 100/3
        window = Window("rectangle", half_extents=(1e6, 1e6))
        start = np.zeros((1_000_000, 2))
        moved = random_walk_step(start, window, _rng(2))
        msd = np.mean(np.sum(moved**2, axis=1))
        assert msd == pytest.approx(100.0 / 3.0, rel=0.01)

    def test_reflection_keeps_points_inside_rectangle(self):
        window = Window("rectangle", half_extents=(15.0, 15.0))
        pts = window.sample_uniform(500, _rng(3))
        for step in range(20):
            pts = random_walk_step(pts, window, _rng(step + 10))
            assert window.contains(pts).all()

    @pytest.mark.parametrize("half_extents", [(15.0, 15.0), (15.0, 4.0)])
    def test_reflection_equals_the_fold_everywhere(self, half_extents):
        # the fold skips np.mod for points inside; it must give the bytes of
        # the fold applied to every point, also many periods away
        pts = _rng(5).uniform(-200.0, 200.0, (2, 400, 2))
        pts[:, :200] *= 0.01  # half of them inside
        wide = Window("rectangle", half_extents=(30.0, 30.0))
        moved = mobility_sim._reflect_into([Window("rectangle", half_extents=half_extents), wide],
                                           pts)
        for layer, (hx, hy) in ((0, half_extents), (1, (30.0, 30.0))):
            for axis, h in enumerate((hx, hy)):
                y = np.mod(pts[layer, :, axis] + h, 4.0 * h)
                ref = np.where(y <= 2.0 * h, y - h, 3.0 * h - y)
                assert moved[layer, :, axis].tobytes() == ref.tobytes()

    def test_one_window_per_layer(self):
        window = Window("rectangle", half_extents=(15.0, 15.0))
        with pytest.raises(ValueError, match="2 windows for 3 layers"):
            random_walk_step(np.zeros((3, 5, 2)), [window, window], _rng(4))

    def test_disk_window_rejected(self):
        # the agent arena is always a rectangle (AbmConfig.resolve_window)
        with pytest.raises(ValueError, match="rectangle"):
            random_walk_step(np.zeros((3, 2)), Window("disk", radius=12.0), _rng(4))


def _state(positions, infected):
    return AgentState(np.asarray(positions, dtype=float), np.asarray(infected, dtype=bool))


class TestAbmStep:
    def test_population_conserved(self):
        cfg = AbmConfig(n_agents=50, x0=10, beta=0.3, mu=0.2, lambda_u=1e-3)
        window = cfg.resolve_window()
        state = _state(window.sample_uniform(50, _rng(5)), [True] * 10 + [False] * 40)
        for step in range(30):
            state, (s, x) = abm_step(state, cfg, _rng(step), window)
            assert s + x == 50

    def test_absorbing_state(self):
        cfg = AbmConfig(n_agents=20, x0=0, beta=1.0, mu=0.5, lambda_u=1e-2)
        window = cfg.resolve_window()
        state = _state(window.sample_uniform(20, _rng(6)), [False] * 20)
        for step in range(10):
            state, (_, x) = abm_step(state, cfg, _rng(step), window)
            assert x == 0

    def test_certain_infection_in_range(self):
        cfg = AbmConfig(n_agents=5, x0=1, beta=1.0, mu=0.0, r_i=10.0, lambda_u=1e-2)
        window = Window("rectangle", half_extents=(4.0, 4.0))
        state = _state(np.zeros((5, 2)), [True, False, False, False, False])
        state, (_, x) = abm_step(state, cfg, _rng(7), window)
        assert x == 5

    def test_no_transmission_without_beta(self):
        cfg = AbmConfig(n_agents=30, x0=10, beta=0.0, mu=0.3, lambda_u=1e-2)
        window = cfg.resolve_window()
        state = _state(window.sample_uniform(30, _rng(8)), [True] * 10 + [False] * 20)
        xs = [10]
        for step in range(40):
            state, (_, x) = abm_step(state, cfg, _rng(step), window)
            xs.append(x)
        assert all(b <= a for a, b in zip(xs, xs[1:]))
        assert xs[-1] == 0

    def test_monotone_coupling_in_beta(self):
        # same seed means identical pair/recovery/movement draws, so the
        # infected set under the larger beta dominates stepwise
        low = AbmConfig(n_agents=60, x0=5, beta=0.05, mu=0.1, lambda_u=5e-3, seed=3)
        high = AbmConfig(n_agents=60, x0=5, beta=0.25, mu=0.1, lambda_u=5e-3, seed=3)
        window = low.resolve_window()
        init = window.sample_uniform(60, _rng(9))
        infected0 = np.zeros(60, dtype=bool)
        infected0[:5] = True
        state_lo = _state(init.copy(), infected0.copy())
        state_hi = _state(init.copy(), infected0.copy())
        for step in range(60):
            rng_seed = np.random.SeedSequence((3, 0, step))
            state_lo, _ = abm_step(
                state_lo, low, np.random.Generator(np.random.PCG64(rng_seed)), window
            )
            state_hi, _ = abm_step(
                state_hi, high, np.random.Generator(np.random.PCG64(rng_seed)), window
            )
            assert np.all(state_hi.infected >= state_lo.infected)


def _per_pair_infections(positions, infected, beta, r_i, rng):
    """Infections of the per-pair step the Reed-Frost step replaced: one
    Bernoulli(beta) trial per (agent, infected neighbour) pair."""
    n = positions.shape[0]
    pair_u = rng.random((n, n))
    diff = positions[:, None, :] - positions[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= r_i**2
    np.fill_diagonal(within, False)
    return (within & infected[None, :] & (pair_u < beta)).any(axis=1)


# agent 2 is the susceptible target at the origin; the agents of _NEAR_ORDER[:k]
# stand 5 m from it, the rest 40 m away (r_i = 10 m), and every other agent
# is infected.  The order puts neighbours on both sides of the target's index.
_TARGET = 2
_NEAR_ORDER = (0, 3, 1, 4)


def _layout(k):
    positions = np.zeros((5, 2))
    for slot, agent in enumerate(_NEAR_ORDER):
        angle = 0.5 * math.pi * slot
        radius = 5.0 if slot < k else 40.0
        positions[agent] = radius * math.cos(angle), radius * math.sin(angle)
    return positions, np.arange(5) != _TARGET


class TestReedFrost:
    BETA = 0.3

    @pytest.mark.parametrize("k", range(5))
    def test_infection_frequency(self, k):
        # 5 agents at 5e-4 per m^2: a 100 m square
        cfg = AbmConfig(n_agents=5, x0=4, beta=self.BETA, mu=0.5, r_i=10.0, lambda_u=5e-4)
        assert cfg.resolve_window() == Window("rectangle", half_extents=(50.0, 50.0))
        positions, infected = _layout(k)
        runs, seeds = 500, 20
        state = _state(np.tile(positions, (runs, 1)), np.tile(infected, runs))
        hits = sum(int(abm_step(state, cfg, _rng(seed))[0].infected[_TARGET::5].sum())
                   for seed in range(seeds))
        m = 4000
        ref_hits = sum(
            bool(_per_pair_infections(positions, infected, self.BETA, 10.0,
                                      _rng(10_000 + seed))[_TARGET])
            for seed in range(m)
        )
        n = runs * seeds
        p = 1.0 - (1.0 - self.BETA) ** k
        if k == 0:
            assert hits == ref_hits == 0
            return
        # binomial z against the law, and two-sample z against the per-pair step
        assert abs(hits - n * p) / math.sqrt(n * p * (1.0 - p)) < 4.0
        pooled = (hits + ref_hits) / (n + m)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / m))
        assert abs(hits / n - ref_hits / m) / se < 4.0

    def test_runs_of_one_batch_never_touch(self):
        # run 0 starts clean on the very coordinates of run 1, which is all
        # infected; certain contact would infect run 0 at once if runs met
        cfg = AbmConfig(n_agents=30, x0=0, beta=1.0, mu=0.0, r_i=10.0, lambda_u=1e-2)
        window = cfg.resolve_window()
        positions = window.sample_uniform(30, _rng(40))
        state = _state(np.tile(positions, (2, 1)), np.arange(60) >= 30)
        for step in range(10):
            state, (_, x) = abm_step(state, cfg, _rng(step), window)
            assert not state.infected[:30].any()
            assert x == 30

    def test_partial_runs_rejected(self):
        cfg = AbmConfig(n_agents=4, x0=0, lambda_u=1e-2)
        with pytest.raises(ValueError, match="whole runs"):
            abm_step(_state(np.zeros((6, 2)), [False] * 6), cfg, _rng(0))


class TestRunAbm:
    def test_no_seed_infections_stay_zero(self):
        cfg = AbmConfig(n_agents=40, x0=0, beta=0.5, mu=0.1, lambda_u=1e-2,
                        steps=20, ensemble_runs=5)
        _, _, mean_x, _ = run_abm(cfg)
        assert np.all(mean_x == 0.0)

    def test_deterministic(self):
        cfg = AbmConfig(n_agents=40, x0=5, beta=0.2, mu=0.1, lambda_u=5e-3,
                        steps=25, ensemble_runs=8, seed=77)
        t1, s1, x1, e1 = run_abm(cfg)
        t2, s2, x2, e2 = run_abm(cfg)
        assert np.array_equal(x1, x2)
        assert np.array_equal(e1, e2)

    def test_supercritical_growth(self):
        cfg = AbmConfig(n_agents=80, x0=5, beta=0.3, mu=0.02, lambda_u=1e-2,
                        steps=120, ensemble_runs=20, seed=5)
        _, _, mean_x, _ = run_abm(cfg)
        assert mean_x[-1] > 50.0

    def test_population_conserved_in_means(self):
        cfg = AbmConfig(n_agents=30, x0=3, beta=0.1, mu=0.1, lambda_u=1e-2,
                        steps=15, ensemble_runs=6)
        _, mean_s, mean_x, _ = run_abm(cfg)
        assert np.allclose(mean_s + mean_x, 30.0)

    def test_one_run_has_nan_stderr_without_warnings(self):
        cfg = AbmConfig(n_agents=30, x0=3, beta=0.1, mu=0.1, lambda_u=1e-2,
                        steps=5, ensemble_runs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, mean_s, mean_x, stderr_x = run_abm(cfg)
        assert stderr_x.shape == t.shape
        assert np.all(np.isnan(stderr_x))
        assert mean_x[0] == 3.0 and np.allclose(mean_s + mean_x, 30.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AbmConfig(beta=1.5)
        with pytest.raises(ValueError):
            AbmConfig(x0=200, n_agents=100)
        with pytest.raises(ValueError):
            AbmConfig(lambda_u=0)

    @pytest.mark.parametrize("field", ["n_agents", "steps", "ensemble_runs"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_counts_below_one_rejected(self, field, value):
        # x0=0 keeps n_agents below one from tripping the x0 check first
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
            AbmConfig(x0=0, **{field: value})

    def test_chunk_streams(self, monkeypatch):
        # two runs per chunk; chunk c places its agents from stream
        # (seed, c, 0) and takes step k from stream (seed, c, k + 1)
        monkeypatch.setattr(mobility_sim, "_CHUNK_AGENTS", 80)
        cfg = AbmConfig(n_agents=40, x0=5, beta=0.2, mu=0.1, lambda_u=5e-3,
                        steps=12, ensemble_runs=3, seed=77)
        window = cfg.resolve_window()

        def stream(*key):
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

        x_series = []
        for chunk, runs in ((0, 2), (1, 1)):
            state = _state(window.sample_uniform(runs * 40, stream(77, chunk, 0)),
                           np.tile(np.arange(40) < 5, runs))
            x = [np.full(runs, 5)]
            for step in range(12):
                state, _ = abm_step(state, cfg, stream(77, chunk, step + 1), window)
                x.append(state.infected.reshape(runs, 40).sum(axis=1))
            x_series.append(np.array(x))
        x_series = np.concatenate(x_series, axis=1)
        _, mean_s, mean_x, stderr_x = run_abm(cfg)
        assert np.array_equal(mean_x, x_series.mean(axis=1))
        assert np.array_equal(stderr_x, x_series.std(axis=1, ddof=1) / math.sqrt(3))
        assert np.allclose(mean_s + mean_x, 40.0)
        assert np.all(stderr_x[4:] > 0.0)


def _bytes(trajectory):
    return [a.tobytes() for a in trajectory]


class TestRunAbmTogether:
    """Configs advanced together in one run_abm call."""

    BASE = dict(n_agents=40, r_i=10.0, steps=15, seed=21, ensemble_runs=5)
    PANELS = ((5e-3, 5, 0.2, 0.1), (1e-2, 5, 0.3, 0.05),
              (5e-3, 20, 0.2, 0.1), (1e-3, 0, 0.5, 0.2), (1e-2, 20, 0.1, 0.3))

    def _configs(self, **base):
        base = dict(self.BASE, **base)
        return [AbmConfig(lambda_u=lam, x0=x0, beta=beta, mu=mu, **base)
                for lam, x0, beta, mu in self.PANELS]

    @pytest.mark.parametrize("chunk_agents", [1 << 16, 80])
    def test_each_config_as_alone(self, monkeypatch, chunk_agents):
        # at 80 agents a chunk holds two runs: chunks of 2, 2 and 1 run
        monkeypatch.setattr(mobility_sim, "_CHUNK_AGENTS", chunk_agents)
        configs = self._configs()
        together = run_abm(configs)
        assert len(together) == len(configs)
        for cfg, trajectory in zip(configs, together):
            assert _bytes(trajectory) == _bytes(run_abm(cfg))
        assert np.all(together[2][2] >= together[0][2])  # same arena, larger x0

    def test_one_run_each(self):
        configs = self._configs(ensemble_runs=1)
        for cfg, trajectory in zip(configs, run_abm(configs)):
            assert np.all(np.isnan(trajectory[3]))
            assert _bytes(trajectory) == _bytes(run_abm(cfg))

    def test_a_list_of_one_is_the_single_run(self):
        cfg = self._configs()[1]
        (together,) = run_abm([cfg])
        assert _bytes(together) == _bytes(run_abm(cfg))

    @pytest.mark.parametrize("field, value", [
        ("seed", 22), ("n_agents", 50), ("r_i", 12.0), ("steps", 16), ("ensemble_runs", 6)])
    def test_configs_must_share(self, field, value):
        configs = self._configs()
        configs[-1] = AbmConfig(**dict(vars(configs[-1]), **{field: value}))
        with pytest.raises(ValueError, match=f"must share {field}"):
            run_abm(configs)

    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="no configs"):
            run_abm([])

    def test_stacked_step_counts_per_config(self):
        configs = self._configs()[:3]
        windows = [configs[0].resolve_window(), configs[1].resolve_window()]
        positions = np.stack([w.sample_uniform(40, _rng(30)) for w in windows])
        infected = np.tile(np.arange(40) < 5, (3, 1))
        infected[2, 5:20] = True
        state = AgentState(positions, infected)
        new, (s, x) = abm_step(state, configs, _rng(31), windows)
        assert new.positions.shape == (2, 40, 2) and new.infected.shape == (3, 40)
        assert np.array_equal(x, new.infected.sum(axis=1))
        assert np.array_equal(s + x, [40, 40, 40])
        # row 0 and row 2 share the arena of windows[0]
        alone, counts = abm_step(_state(positions[0], infected[2]), configs[2], _rng(31),
                                 windows[0])
        assert np.array_equal(alone.positions, new.positions[0])
        assert np.array_equal(alone.infected, new.infected[2])
        assert counts == (int(s[2]), int(x[2]))

    def test_stacked_state_must_match_the_arenas(self):
        configs = self._configs()[:3]
        state = AgentState(np.zeros((3, 40, 2)), np.zeros((3, 40), dtype=bool))
        with pytest.raises(ValueError, match="2 arenas and 3 configs"):
            abm_step(state, configs, _rng(0))
