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
"""

from __future__ import annotations

import math
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
    """Positions (n, 2) and a boolean infected mask.

    For ``abm_step`` the n agents are R runs of ``n_agents`` each, agent k
    belonging to run k // n_agents.
    """

    positions: np.ndarray
    infected: np.ndarray

    @property
    def counts(self) -> tuple[int, int]:
        x = int(self.infected.sum())
        return self.positions.shape[0] - x, x


def _reflect_into(window: Window, pts: np.ndarray) -> np.ndarray:
    """Mirror points back across a rectangle's sides until they land inside."""
    if window.shape != "rectangle":
        raise ValueError(f"the walk reflects only in a rectangle, not a {window.shape}")
    out = pts.copy()
    for axis, h in enumerate(window.half_extents):
        # triangular fold with period 4h maps any reflected walk into [-h, h]
        y = np.mod(out[:, axis] + h, 4.0 * h)
        out[:, axis] = np.where(y <= 2.0 * h, y - h, 3.0 * h - y)
    return out


def random_walk_step(
    positions: np.ndarray, window: Window, rng: np.random.Generator
) -> np.ndarray:
    """Displace by a uniform direction in [0, 2pi) and distance in [0, 10] m,
    reflecting at the boundary of a rectangular window."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    n = pts.shape[0]
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    dist = rng.uniform(0.0, MAX_STEP_M, n)
    moved = pts + np.column_stack((dist * np.cos(theta), dist * np.sin(theta)))
    return _reflect_into(window, moved)


def _step_rng(seed: int, chunk: int, step: int) -> np.random.Generator:
    # step -1 (initial placement) maps to stream 0, step k to stream k+1
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk, step + 1))))


def abm_step(
    state: AgentState,
    config: AbmConfig,
    rng: np.random.Generator,
    window: Window | None = None,
) -> tuple[AgentState, tuple[int, int]]:
    """One epoch: state transitions computed from the current configuration,
    applied in one shot, then every agent takes a walk step.

    ``state`` holds R runs of ``config.n_agents`` agents inside ``window``
    (R = 1 for a single run); agents of different runs never meet.  Each agent draws one
    infection and one recovery uniform, whatever its neighbourhood, which
    supports monotone coupling across beta values.  Returns the new state
    and its (susceptible, infected) counts summed over the runs.
    """
    window = window or config.resolve_window()
    n = state.positions.shape[0]
    if n % config.n_agents:
        raise ValueError(f"{n} agents are not whole runs of {config.n_agents}")
    infected = state.infected
    infect_u = rng.random(n)
    recover_u = rng.random(n)
    a, b = close_pairs(state.positions, np.arange(n) // config.n_agents, config.r_i)
    k = np.bincount(a[infected[b]], minlength=n) + np.bincount(b[infected[a]], minlength=n)
    fires = infect_u < 1.0 - (1.0 - config.beta) ** k
    recovers = infected & (recover_u < config.mu)
    # a firing contact overrides same-epoch recovery (no immunity), which is
    # also what keeps trajectories monotone under a shared seed when beta grows
    new_infected = fires | (infected & ~recovers)

    new_positions = random_walk_step(state.positions, window, rng)
    new_state = AgentState(new_positions, new_infected)
    return new_state, new_state.counts


def run_abm(config: AbmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble-averaged trajectory.

    Returns (t, mean_S, mean_X, stderr_X) over ``ensemble_runs`` independent
    runs; deterministic for a fixed config seed.  One run has no spread to
    estimate an error from, so its ``stderr_X`` is all nan.  The runs are
    advanced in chunks of ``config.chunk_runs()``, each from its own streams
    as the module docstring describes.
    """
    if config.steps < 1:
        raise ValueError("steps must be at least 1")
    window = config.resolve_window()
    n = config.n_agents
    size = config.chunk_runs()
    x_series = np.empty((config.ensemble_runs, config.steps + 1))
    for c, start in enumerate(range(0, config.ensemble_runs, size)):
        runs = min(size, config.ensemble_runs - start)
        positions = window.sample_uniform(runs * n, _step_rng(config.seed, c, -1))
        state = AgentState(positions, np.tile(np.arange(n) < config.x0, runs))
        x_series[start:start + runs, 0] = config.x0
        for step in range(config.steps):
            state, _ = abm_step(state, config, _step_rng(config.seed, c, step), window)
            x_series[start:start + runs, step + 1] = state.infected.reshape(runs, n).sum(axis=1)
    t = np.arange(config.steps + 1, dtype=float)
    mean_x = x_series.mean(axis=0)
    stderr_x = np.full(t.size, np.nan)
    if config.ensemble_runs > 1:
        stderr_x = x_series.std(axis=0, ddof=1) / math.sqrt(config.ensemble_runs)
    return t, config.n_agents - mean_x, mean_x, stderr_x
