"""Agent-based SIS simulation with random-walk mobility.

Agents live in a square window of area n_agents / lambda_u, so that their
density is the user density lambda_u.  They walk a uniform direction and a
uniform distance per step (reflected at the boundary), and swap between
susceptible and infected.
A susceptible agent with k infected neighbours within r_i is infected with
probability 1 - (1 - beta)^k, the Reed-Frost chain-binomial step (the law of
k independent Bernoulli(beta) contacts); an infected agent recovers with
probability mu.

One step advances any number of independent runs at once: the runs of an
ensemble are cut into chunks of a size derived from the agent count alone,
and chunk c draws its placement from stream (seed, c, 0) and its step k
from stream (seed, c, k + 1).  The draws have a fixed shape per agent, so
trajectories with the same seed share their contact events exactly.  That
makes the monotone coupling in beta testable and keeps ensembles
reproducible.

It also lets several configs advance together.  Configs that share the
seed, agent count, contact radius, step count and run count draw the same
numbers (common random numbers), so ``run_abm`` draws them once per chunk
and step for all of them.  Configs of one density share an arena: the walk
never reads infection state, so they walk identical positions and meet the
same contact pairs, which are walked and searched once per arena.  Each
config keeps its own infected mask, beta and mu, so its trajectory is the
one it has when run alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Window, close_pairs

__all__ = [
    "AbmConfig",
    "AgentState",
    "random_walk_step",
    "abm_step",
    "run_abm",
]

MAX_STEP_M = 10.0

# agents advanced by one step call in run_abm: bounds a chunk's memory
_CHUNK_AGENTS = 1 << 16


@dataclass(frozen=True)
class AbmConfig:
    """Population, contact radius, per-step probabilities, and run length.

    ``lambda_u`` fixes the arena, a square window of area n_agents /
    lambda_u.  ``x0`` agents start infected.
    """

    n_agents: int = 100
    x0: int = 5
    r_i: float = 10.0
    beta: float = 0.1
    mu: float = 0.1
    steps: int = 200
    seed: int = 0
    lambda_u: float = 1e-3
    ensemble_runs: int = 100

    def __post_init__(self):
        for name in ("n_agents", "steps", "ensemble_runs"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 <= self.beta <= 1.0 or not 0.0 <= self.mu <= 1.0:
            raise ValueError("beta and mu are per-step probabilities in [0, 1]")
        if not self.r_i > 0:
            raise ValueError("r_i must be positive")
        if not 0 <= self.x0 <= self.n_agents:
            raise ValueError("x0 must lie in [0, n_agents]")
        if not self.lambda_u > 0:
            raise ValueError("lambda_u must be positive")

    def resolve_window(self) -> Window:
        half = 0.5 * math.sqrt(self.n_agents / self.lambda_u)
        return Window("rectangle", half_extents=(half, half))

    def chunk_runs(self) -> int:
        """Runs that ``run_abm`` advances together in one step call."""
        return min(self.ensemble_runs, max(1, _CHUNK_AGENTS // self.n_agents))

    def expected_step_pairs(self) -> float:
        """Expected contact pairs of one step of ``run_abm``'s largest chunk:
        each of its runs holds n (n - 1) / 2 agent pairs, each within r_i
        with probability at most pi r_i**2 / area."""
        n = self.n_agents
        close = min(1.0, math.pi * self.r_i**2 / self.resolve_window().area())
        return self.chunk_runs() * n * (n - 1) / 2 * close


@dataclass
class AgentState:
    """Positions and infected masks of n agents.

    For ``abm_step`` the n agents are R runs of ``n_agents`` each, agent k
    belonging to run k // n_agents.  With one config, ``positions`` is (n, 2)
    and ``infected`` a boolean (n,).  With a sequence of configs,
    ``positions`` is (A, n, 2), one layer per arena (distinct ``lambda_u``, in
    order of first appearance), and ``infected`` is (M, n), one row per
    config.
    """

    positions: np.ndarray
    infected: np.ndarray

    @property
    def counts(self) -> tuple:
        """(susceptible, infected) summed over the agents: ints for one mask,
        arrays with one entry per config for stacked masks."""
        x = np.count_nonzero(self.infected, axis=-1)
        s = self.infected.shape[-1] - x
        if self.infected.ndim == 1:
            return int(s), int(x)
        return s, x


def _windows(window: Window | Sequence[Window]) -> list[Window]:
    return [window] if isinstance(window, Window) else list(window)


def _fold(x: np.ndarray, h: float) -> np.ndarray:
    """``x`` mapped into [-h, h] by the triangular fold with period 4h that
    any walk reflected at -h and h follows."""
    y = x + h
    period = 4.0 * h
    # np.mod returns a value in [0, 4h) unchanged, so only the points that a
    # step carried out of the window need it
    outside = (y < 0.0) | (y >= period)
    if outside.any():
        y[outside] = np.mod(y[outside], period)
    return np.where(y <= 2.0 * h, y - h, 3.0 * h - y)


def _reflect_into(window: Window | Sequence[Window], pts: np.ndarray) -> np.ndarray:
    """Mirror points back across a rectangle's sides until they land inside.

    ``pts`` (n, 2) takes one window; (A, n, 2) takes one per layer.
    """
    windows = _windows(window)
    src_layers = pts.reshape(-1, *pts.shape[-2:])
    if len(windows) != src_layers.shape[0]:
        raise ValueError(f"{len(windows)} windows for {src_layers.shape[0]} layers of points")
    out = np.empty_like(pts)
    for w, src, dst in zip(windows, src_layers, out.reshape(src_layers.shape)):
        if w.shape != "rectangle":
            raise ValueError(f"the walk reflects only in a rectangle, not a {w.shape}")
        for axis, h in enumerate(w.half_extents):
            dst[:, axis] = _fold(src[:, axis], h)
    return out


def random_walk_step(
    positions: np.ndarray, window: Window | Sequence[Window], rng: np.random.Generator
) -> np.ndarray:
    """Displace by a uniform direction in [0, 2pi) and distance in [0, 10] m,
    reflecting at the boundary of a rectangular window.

    Stacked arenas, ``positions`` (A, n, 2) with one window each, take the
    same n displacements, each layer reflected in its own window.
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    n = pts.shape[-2]
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    dist = rng.uniform(0.0, MAX_STEP_M, n)
    moved = pts + np.column_stack((dist * np.cos(theta), dist * np.sin(theta)))
    return _reflect_into(window, moved)


def _step_rng(seed: int, chunk: int, step: int) -> np.random.Generator:
    # step -1 (initial placement) maps to stream 0, step k to stream k+1
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk, step + 1))))


def _check_shared(configs: list[AbmConfig], names: tuple[str, ...]) -> None:
    if not configs:
        raise ValueError("no configs to advance")
    for name in names:
        if len({getattr(c, name) for c in configs}) > 1:
            raise ValueError(f"configs advanced together must share {name}")


def _arenas(configs: list[AbmConfig]) -> list[list[int]]:
    """Indices of the configs in each arena (distinct ``lambda_u``), arenas
    in order of first appearance."""
    rows: dict[float, list[int]] = {}
    for m, c in enumerate(configs):
        rows.setdefault(c.lambda_u, []).append(m)
    return list(rows.values())


def abm_step(
    state: AgentState,
    config: AbmConfig | Sequence[AbmConfig],
    rng: np.random.Generator,
    window: Window | Sequence[Window] | None = None,
) -> tuple[AgentState, tuple]:
    """One epoch: state transitions computed from the current configuration,
    applied in one shot, then every agent takes a walk step.

    ``state`` holds R runs of ``config.n_agents`` agents inside ``window``
    (R = 1 for a single run); agents of different runs never meet.  Each agent draws one
    infection and one recovery uniform, whatever its neighbourhood, which
    supports monotone coupling across beta values.  Returns the new state
    and its (susceptible, infected) counts summed over the runs.

    ``config`` may also be a sequence of configs sharing ``n_agents`` and
    ``r_i``, with ``state`` stacked as ``AgentState`` describes and
    ``window`` one window per arena.  They all use the same draws, so each
    row evolves as it would alone; the counts are then arrays, one entry
    per config.
    """
    single = isinstance(config, AbmConfig)
    configs = [config] if single else list(config)
    _check_shared(configs, ("n_agents", "r_i"))
    arenas = _arenas(configs)
    windows = (_windows(window) if window is not None
               else [configs[rows[0]].resolve_window() for rows in arenas])
    positions = state.positions[None] if single else state.positions
    infected = state.infected[None] if single else state.infected
    n_agents, r_i = configs[0].n_agents, configs[0].r_i
    n = positions.shape[1]
    if positions.shape != (len(arenas), n, 2) or infected.shape != (len(configs), n):
        raise ValueError(
            f"state of {positions.shape} positions and {infected.shape} masks does not "
            f"match {len(arenas)} arenas and {len(configs)} configs")
    if n % n_agents:
        raise ValueError(f"{n} agents are not whole runs of {n_agents}")
    infect_u = rng.random(n)
    recover_u = rng.random(n)
    group = np.arange(n) // n_agents
    k = np.empty(infected.shape, dtype=np.intp)
    for arena, rows in enumerate(arenas):
        a, b = close_pairs(positions[arena], group, r_i)
        # row j's contacts land at j * n + agent of one flat count
        mask = infected[rows]
        offset = (np.arange(len(rows)) * n)[:, None]
        size = len(rows) * n
        k[rows] = (np.bincount((a + offset)[mask[:, b]], minlength=size)
                   + np.bincount((b + offset)[mask[:, a]], minlength=size)).reshape(-1, n)
    beta = np.array([[c.beta] for c in configs])
    mu = np.array([[c.mu] for c in configs])
    fires = infect_u < 1.0 - (1.0 - beta) ** k
    recovers = infected & (recover_u < mu)
    # a firing contact overrides same-epoch recovery (no immunity), which is
    # also what keeps trajectories monotone under a shared seed when beta grows
    new_infected = fires | (infected & ~recovers)

    new_positions = random_walk_step(positions, windows, rng)
    if single:
        new_state = AgentState(new_positions[0], new_infected[0])
    else:
        new_state = AgentState(new_positions, new_infected)
    return new_state, new_state.counts


def run_abm(config: AbmConfig | Sequence[AbmConfig]) -> tuple | list[tuple]:
    """Ensemble-averaged trajectory.

    Returns (t, mean_S, mean_X, stderr_X) over ``ensemble_runs`` independent
    runs; deterministic for a fixed config seed.  One run has no spread to
    estimate an error from, so its ``stderr_X`` is all nan.  The runs are
    advanced in chunks of ``config.chunk_runs()``, each from its own streams
    as the module docstring describes.

    Given a sequence of configs, which must share ``seed``, ``n_agents``,
    ``r_i``, ``steps`` and ``ensemble_runs``, it advances them together and
    returns a list of those tuples, one per config, each equal to the
    config's own run.
    """
    single = isinstance(config, AbmConfig)
    configs = [config] if single else list(config)
    _check_shared(configs, ("seed", "n_agents", "r_i", "steps", "ensemble_runs"))
    first = configs[0]
    windows = [configs[rows[0]].resolve_window() for rows in _arenas(configs)]
    n, total, steps = first.n_agents, first.ensemble_runs, first.steps
    size = first.chunk_runs()
    x0 = np.array([c.x0 for c in configs])
    start_mask = np.arange(n) < x0[:, None]
    # the infected counts of every config, run and step
    x_series = np.empty((len(configs), total, steps + 1), dtype=np.int32)
    x_series[:, :, 0] = x0[:, None]
    for c, start in enumerate(range(0, total, size)):
        runs = min(size, total - start)
        # each arena places its agents from the chunk's stream 0, as alone
        positions = np.stack([w.sample_uniform(runs * n, _step_rng(first.seed, c, -1))
                              for w in windows])
        state = AgentState(positions, np.tile(start_mask, runs))
        for step in range(steps):
            state, _ = abm_step(state, configs, _step_rng(first.seed, c, step), windows)
            x_series[:, start:start + runs, step + 1] = np.count_nonzero(
                state.infected.reshape(len(configs), runs, n), axis=2)
    t = np.arange(steps + 1, dtype=float)
    results = []
    for m, cfg in enumerate(configs):
        mean_x = x_series[m].mean(axis=0)
        stderr_x = np.full(t.size, np.nan)
        if total > 1:
            stderr_x = x_series[m].std(axis=0, ddof=1) / math.sqrt(total)
        results.append((t, cfg.n_agents - mean_x, mean_x, stderr_x))
    return results[0] if single else results
