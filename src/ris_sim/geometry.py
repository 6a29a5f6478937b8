"""Spatial point processes and nearest-neighbor association.

Base stations follow a Matern type-II hard-core process, each BS carries a
Poisson cluster of reflecting surfaces, and user terminals form an
independent homogeneous Poisson process.  Point collections are float64
arrays of shape (n, 2); the typical user sits at the origin.

These are the building blocks; ``montecarlo.sample_fields`` composes them
into the deployment that every command samples, and the ``topology``
command adds the users and their nearest BSs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Window",
    "TopologyConfig",
    "sample_hppp",
    "close_pairs",
    "sample_mhcpp",
    "matern_retained_intensity",
    "matern_parent_intensity",
    "sample_ris_clusters",
    "nearest_per_group",
    "serving_surfaces",
]


@dataclass(frozen=True)
class Window:
    """Simulation region centered on the origin.

    shape "disk" uses ``radius``; shape "rectangle" uses ``half_extents``
    (half-width, half-height).
    """

    shape: str = "disk"
    radius: float = 1000.0
    half_extents: tuple[float, float] = (1000.0, 1000.0)

    def __post_init__(self):
        if self.shape not in ("disk", "rectangle"):
            raise ValueError(f"unknown window shape {self.shape!r}")
        if self.shape == "disk" and not self.radius > 0:
            raise ValueError("disk radius must be positive")
        if self.shape == "rectangle" and not all(h > 0 for h in self.half_extents):
            raise ValueError("rectangle half extents must be positive")

    def area(self) -> float:
        if self.shape == "disk":
            return math.pi * self.radius**2
        hx, hy = self.half_extents
        return 4.0 * hx * hy

    def dilate(self, margin: float) -> "Window":
        if self.shape == "disk":
            return Window("disk", radius=self.radius + margin)
        hx, hy = self.half_extents
        return Window("rectangle", half_extents=(hx + margin, hy + margin))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.shape == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) <= self.radius + 1e-12
        hx, hy = self.half_extents
        return (np.abs(pts[:, 0]) <= hx + 1e-12) & (np.abs(pts[:, 1]) <= hy + 1e-12)

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty((0, 2))
        if self.shape == "disk":
            r = self.radius * np.sqrt(rng.random(n))
            theta = rng.uniform(0.0, 2.0 * math.pi, n)
            return np.column_stack((r * np.cos(theta), r * np.sin(theta)))
        hx, hy = self.half_extents
        return np.column_stack(
            (rng.uniform(-hx, hx, n), rng.uniform(-hy, hy, n))
        )


@dataclass(frozen=True)
class TopologyConfig:
    """Densities and radii of the deployed network.

    ``lambda_b`` is the realized hard-core BS density; the parent Poisson
    intensity is inferred from the Matern type-II retention formula so the
    generated field actually carries this density.  All link distances are
    horizontal.
    """

    lambda_b: float = 1e-5
    lambda_r: float = 1e-5
    lambda_u: float = 1e-2
    r_b: float = 50.0
    r_r: float = 10.0
    window: Window = field(default_factory=Window)

    def __post_init__(self):
        for name in ("lambda_b", "lambda_r", "lambda_u"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.r_b > 0:
            raise ValueError("r_b must be positive")
        if not self.r_r > 0:
            raise ValueError("r_r must be positive")


def sample_hppp(intensity: float, window: Window, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson field: Poisson count, uniform locations."""
    if intensity < 0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    n = rng.poisson(intensity * window.area())
    return window.sample_uniform(n, rng)


def matern_retained_intensity(parent_intensity: float, r_b: float) -> float:
    """Density surviving Matern type-II thinning of a Poisson parent field."""
    cell = math.pi * r_b**2
    if parent_intensity == 0.0:
        return 0.0
    return -math.expm1(-parent_intensity * cell) / cell


def matern_parent_intensity(retained_intensity: float, r_b: float) -> float:
    """Parent Poisson intensity whose Matern-II thinning retains the target."""
    cell = math.pi * r_b**2
    if retained_intensity * cell >= 1.0:
        raise ValueError(
            f"retained intensity {retained_intensity} unreachable for r_b={r_b}"
        )
    return -math.log1p(-retained_intensity * cell) / cell


def close_pairs(
    points: np.ndarray, group: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b), a < b, of points of the same group at distance at
    most ``r`` (inclusive), in no particular order.

    ``points`` is (n, 2); ``group`` (n,) holds nonnegative ints.  A cell
    list: the points are binned on a square grid of side just over ``r``,
    one grid per group, so a close pair lies in one cell or in two adjacent
    ones.  Each point is compared with the later points of its own cell and
    every point of its four forward neighbours (+x; -x+y, +y and +x+y), which
    meets every pair once, and the candidates are confirmed on squared
    distances.  Time and memory are O(n) plus the number of candidates.
    """
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    n = points.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    group = np.asarray(group, dtype=np.intp)
    n_groups = int(group.max()) + 1
    if n_groups > n:
        _, group = np.unique(group, return_inverse=True)
        n_groups = int(group.max()) + 1
    x, y = points[:, 0].copy(), points[:, 1].copy()
    x_lo, y_lo = x.min(), y.min()
    # the padding keeps a pair at distance r in adjacent cells whatever the
    # rounding of the cell coordinates
    side = r * (1.0 + 1e-6)
    # past its last cell each group's grid has one empty column and one
    # empty row, so no neighbour offset reaches into the next row or group;
    # the side is widened until the grids hold about 4 cells per point
    span_x, span_y = float(x.max() - x_lo), float(y.max() - y_lo)
    per_group = 4.0 * (n + n_groups) / n_groups
    if (span_x / side + 2.0) * (span_y / side + 2.0) > per_group:
        # the inverse side u that solves (span_x u + 2)(span_y u + 2) = per_group,
        # in the form that stays exact when span_x span_y is tiny or 0
        quad, lin, const = span_x * span_y, 2.0 * (span_x + span_y), 4.0 - per_group
        u = -2.0 * const / (lin + math.sqrt(lin * lin - 4.0 * quad * const))
        side = max(side, 1.0 / u)
    cell_x = ((x - x_lo) / side).astype(np.intp)
    key = ((y - y_lo) / side).astype(np.intp)
    nx, ny = int(cell_x.max()) + 2, int(key.max()) + 2
    key += group * ny
    key *= nx
    key += cell_x
    del cell_x
    order = np.argsort(key)
    key, x, y = key[order], x[order], y[order]
    # starts[c] counts the points in the cells before c
    starts = np.bincount(key + 1, minlength=n_groups * ny * nx + 1)
    np.cumsum(starts, out=starts)
    # in sorted order the own cell's later points and its +x neighbour form
    # one run, and the three cells of the row above form another
    a0, b0 = _confirm_runs(np.arange(1, n + 1), starts[key + 2], x, y, order, r)
    a1, b1 = _confirm_runs(starts[key + nx - 1], starts[key + nx + 2], x, y, order, r)
    return np.concatenate((a0, a1)), np.concatenate((b0, b1))


def _confirm_runs(first, stop, x, y, order, r):
    """The pairs (a, b), a < b, within ``r`` among each sorted point i and
    the sorted points first[i] .. stop[i] - 1, as indices of the unsorted
    points (``order`` maps sorted to unsorted)."""
    # each index array is dropped once used: these arrays set the peak
    # memory of a Monte Carlo chunk's Matern thinning
    count = stop - first
    del stop
    i = np.repeat(np.arange(count.size), count)
    # candidate k of point i is first[i] + k - (the candidates before i)
    first += count
    first -= np.cumsum(count)
    del count
    j = np.arange(i.size)
    j += first[i]
    del first
    dx, dy = x[i], y[i]
    dx -= x[j]
    dy -= y[j]
    dx *= dx
    dy *= dy
    dx += dy
    close = dx <= r**2
    a, b = order[i[close]], order[j[close]]
    return np.minimum(a, b), np.maximum(a, b)


def sample_mhcpp(
    parent_intensity: float,
    r_b: float,
    window: Window,
    rng: np.random.Generator,
    trial_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Matern type-II hard-core thinning of a Poisson parent process.

    Each parent draws an independent uniform mark; a point survives iff no
    other point of its own field within ``r_b`` (inclusive: a pair exactly
    ``r_b`` apart competes) holds a smaller mark, so equal marks eliminate
    neither.  The competing pairs come from ``close_pairs``.  Parents are
    sampled on the window dilated by ``r_b`` and clipped back afterwards, so
    points near the boundary see their full competition neighborhood (no
    edge bias).

    ``trial_counts``, an int array of length B, asks for B independent fields
    at once: one Poisson field of B times the intensity whose points are split
    uniformly over the B trials (a multinomial draw, which gives each trial an
    independent Poisson field).  The points come back concatenated in trial
    order and ``trial_counts[t]`` is set to trial t's point count.  The
    trials are the groups of ``close_pairs``, so no two trials compete.
    Without ``trial_counts`` one field is drawn: parent count, positions,
    then marks.
    """
    if not r_b > 0:
        raise ValueError("r_b must be positive")
    if parent_intensity < 0:
        raise ValueError("parent intensity must be nonnegative")
    trials = 1 if trial_counts is None else trial_counts.size
    dilated = window.dilate(r_b)
    parents = sample_hppp(parent_intensity * trials, dilated, rng)
    n = parents.shape[0]
    split = rng.multinomial(n, np.full(trials, 1.0 / trials)) if trials > 1 else [n]
    if n == 0:
        if trial_counts is not None:
            trial_counts[:] = 0
        return parents
    marks = rng.random(n)
    trial = np.repeat(np.arange(trials), split)
    a, b = close_pairs(parents, trial, r_b)
    loses = np.zeros(n, dtype=bool)
    loses[a[marks[a] > marks[b]]] = True
    loses[b[marks[b] > marks[a]]] = True
    keep = ~loses & window.contains(parents)
    if trial_counts is not None:
        trial_counts[:] = np.bincount(trial[keep], minlength=trials)
    return parents[keep]


def sample_ris_clusters(
    bs: np.ndarray,
    lambda_r: float,
    lambda_b: float,
    r_r: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson clusters of surfaces around each BS.

    Per-BS child count is Poisson with mean lambda_r / lambda_b, which makes
    the global surface density match lambda_r.  Children are uniform in the
    disk of radius ``r_r`` around their parent (they may overhang the window
    by at most ``r_r`` when the parent sits on the boundary).

    Returns (positions, parent_indices).
    """
    if not r_r > 0:
        raise ValueError("r_r must be positive")
    if lambda_r < 0:
        raise ValueError("lambda_r must be nonnegative")
    if lambda_r == 0.0:
        return np.empty((0, 2)), np.empty(0, dtype=int)
    if lambda_b <= 0.0:
        raise ValueError("lambda_b must be positive when lambda_r > 0")
    n_bs = bs.shape[0]
    if n_bs == 0:
        raise ValueError("cannot attach surfaces to an empty BS field")
    counts = rng.poisson(lambda_r / lambda_b, size=n_bs)
    total = int(counts.sum())
    parent = np.repeat(np.arange(n_bs), counts)
    return bs[parent] + Window("disk", radius=r_r).sample_uniform(total, rng), parent


def nearest_per_group(d2: np.ndarray, group: np.ndarray, n_groups: int) -> np.ndarray:
    """For each group 0..n_groups-1, the index of its entry with the smallest
    ``d2``, or -1 for a group with no entries.  Ties resolve to the lowest index.

    ``group`` must be non-decreasing, so that each group's entries form one
    run (``np.repeat`` and ``sample_ris_clusters`` give it so); ValueError
    otherwise.  Linear in the entries: a minimum per run, then the run's
    first entry equal to it.
    """
    nearest = np.full(n_groups, -1, dtype=int)
    if d2.size == 0:
        return nearest
    if np.any(group[1:] < group[:-1]):
        raise ValueError("groups must be non-decreasing")
    start = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    run_length = np.diff(np.append(start, d2.size))
    at_min = np.flatnonzero(d2 == np.repeat(np.minimum.reduceat(d2, start), run_length))
    # at_min is sorted, so each run's first hit follows a hit of the run before
    run = np.repeat(np.arange(start.size), run_length)[at_min]
    first = np.concatenate(([True], run[1:] != run[:-1]))
    nearest[group[start[run[first]]]] = at_min[first]
    return nearest


def serving_surfaces(bs: np.ndarray, ris: np.ndarray, ris_parent: np.ndarray) -> np.ndarray:
    """Index of each BS's closest cluster child, or -1 for an empty cluster.

    Ties resolve to the lowest surface index.  The surfaces must be sorted
    by parent, as ``sample_ris_clusters`` returns them; ValueError otherwise.
    """
    d2 = np.sum((ris - bs[ris_parent]) ** 2, axis=1)
    return nearest_per_group(d2, ris_parent, bs.shape[0])
