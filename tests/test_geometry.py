"""Point-process samplers and association rules."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ris_sim.geometry import (
    TopologyConfig,
    Window,
    close_pairs,
    matern_parent_intensity,
    matern_retained_intensity,
    nearest_per_group,
    sample_hppp,
    sample_mhcpp,
    sample_ris_clusters,
    serving_surfaces,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _reference_mhcpp(parent_intensity, r_b, window, rng):
    """The O(n^2) Matern type-II rule: every pair's distance and marks compared."""
    parents = sample_hppp(parent_intensity, window.dilate(r_b), rng)
    n = parents.shape[0]
    if n == 0:
        return parents
    marks = rng.random(n)
    diff = parents[:, None, :] - parents[None, :, :]
    close = np.einsum("ijk,ijk->ij", diff, diff) <= r_b**2
    np.fill_diagonal(close, False)
    loses = (close & (marks[None, :] < marks[:, None])).any(axis=1)
    kept = parents[~loses]
    return kept[window.contains(kept)]


class _ScriptedRng:
    """Generator stand-in placing fixed parents in a rectangle window."""

    def __init__(self, points, marks):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.marks = np.asarray(marks, dtype=float)
        self._coords = iter((self.points[:, 0], self.points[:, 1]))

    def poisson(self, lam):
        return self.points.shape[0]

    def uniform(self, low, high, size):
        return next(self._coords).copy()

    def random(self, size):
        return self.marks.copy()


class TestWindow:
    def test_disk_area(self):
        assert Window("disk", radius=100.0).area() == pytest.approx(math.pi * 1e4)

    def test_rect_area(self):
        w = Window("rectangle", half_extents=(50.0, 20.0))
        assert w.area() == pytest.approx(4000.0)

    def test_uniform_samples_inside(self):
        w = Window("disk", radius=10.0)
        pts = w.sample_uniform(500, _rng())
        assert w.contains(pts).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            Window("hexagon")
        with pytest.raises(ValueError):
            Window("disk", radius=0.0)


class TestHppp:
    def test_zero_intensity_empty(self):
        pts = sample_hppp(0.0, Window("disk", radius=100.0), _rng())
        assert pts.shape == (0, 2)

    def test_negative_intensity(self):
        with pytest.raises(ValueError):
            sample_hppp(-1.0, Window(), _rng())

    @pytest.mark.parametrize(
        "intensity,radius,expected_mean",
        [(1e-2, 100.0, 1e-2 * math.pi * 1e4), (1e-5, 500.0, 1e-5 * math.pi * 25e4)],
    )
    def test_mean_count(self, intensity, radius, expected_mean):
        # oracle: Poisson mean = intensity * area, checked over 1e3 fields
        w = Window("disk", radius=radius)
        rng = _rng(7)
        counts = np.array([sample_hppp(intensity, w, rng).shape[0] for _ in range(1000)])
        stderr = math.sqrt(expected_mean / 1000)
        assert abs(counts.mean() - expected_mean) < 3 * stderr

    def test_poisson_goodness_of_fit(self):
        mean = 1e-2 * math.pi * 1e4  # about 314
        w = Window("disk", radius=100.0)
        rng = _rng(11)
        counts = np.array([sample_hppp(1e-2, w, rng).shape[0] for _ in range(1000)])
        lo, hi = int(counts.min()), int(counts.max())
        edges = np.arange(lo, hi + 2)
        observed = np.histogram(counts, bins=edges)[0].astype(float)
        expected = stats.poisson(mean).pmf(edges[:-1]) * counts.size
        # merge sparse tail bins so the chi-square approximation is valid
        keep_obs, keep_exp = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                keep_obs.append(acc_o)
                keep_exp.append(acc_e)
                acc_o = acc_e = 0.0
        keep_obs[-1] += acc_o
        keep_exp[-1] += acc_e
        keep_exp = np.array(keep_exp) * (sum(keep_obs) / sum(keep_exp))
        _, p_value = stats.chisquare(keep_obs, keep_exp)
        assert p_value > 0.01


class TestMhcpp:
    def test_zero_parent_empty(self):
        pts = sample_mhcpp(0.0, 50.0, Window(), _rng())
        assert pts.shape == (0, 2)

    def test_hard_core_distance(self):
        pts = sample_mhcpp(1e-4, 50.0, Window("disk", radius=500.0), _rng(3))
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        n = pts.shape[0]
        assert n > 3
        assert d[np.triu_indices(n, k=1)].min() >= 50.0

    def test_retained_intensity_formula(self):
        # Matern type-II retention as the oracle, 1e3 fields, 2% tolerance
        lam_p, r_b = 1e-4, 50.0
        expected = matern_retained_intensity(lam_p, r_b)
        assert expected == pytest.approx(6.9277e-5, rel=1e-3)
        w = Window("disk", radius=500.0)
        rng = _rng(5)
        counts = [sample_mhcpp(lam_p, r_b, w, rng).shape[0] for _ in range(1000)]
        empirical = np.mean(counts) / w.area()
        assert abs(empirical - expected) / expected < 0.02

    @pytest.mark.parametrize(
        "window",
        [Window("disk", radius=400.0), Window("rectangle", half_extents=(400.0, 250.0))],
    )
    def test_matches_bruteforce_rule(self, window):
        for seed in range(200):
            for lam_p in np.geomspace(1e-5, 3e-4, 5):
                fast_rng, ref_rng = _rng(seed), _rng(seed)
                fast = sample_mhcpp(lam_p, 50.0, window, fast_rng)
                ref = _reference_mhcpp(lam_p, 50.0, window, ref_rng)
                assert np.array_equal(fast, ref), (seed, lam_p)
                # both consumed exactly the same draws
                assert fast_rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "points,marks",
        [
            ([], []),  # n = 0
            ([(10.0, -5.0)], [0.3]),  # n = 1
            ([(0.0, 0.0), (50.0, 0.0)], [0.2, 0.7]),  # exactly r_b apart: compete
            ([(0.0, 0.0), (50.0, 0.0)], [0.7, 0.2]),
            ([(0.0, 0.0), (50.000001, 0.0)], [0.2, 0.7]),  # just beyond r_b
            ([(0.0, 0.0), (30.0, 40.0)], [0.5, 0.5]),  # equal marks: neither loses
            ([(0.0, 0.0), (40.0, 0.0), (80.0, 0.0)], [0.5, 0.1, 0.9]),
        ],
    )
    def test_scripted_parents_match_bruteforce(self, points, marks):
        window = Window("rectangle", half_extents=(100.0, 100.0))
        fast = sample_mhcpp(1e-4, 50.0, window, _ScriptedRng(points, marks))
        ref = _reference_mhcpp(1e-4, 50.0, window, _ScriptedRng(points, marks))
        assert fast.shape == ref.shape
        assert np.array_equal(fast, ref)

    def test_inclusive_hard_core_radius(self):
        window = Window("rectangle", half_extents=(100.0, 100.0))
        rng = _ScriptedRng([(0.0, 0.0), (50.0, 0.0)], [0.2, 0.7])
        assert np.array_equal(sample_mhcpp(1e-4, 50.0, window, rng), [[0.0, 0.0]])

    def test_parent_retained_roundtrip(self):
        lam = 1e-5
        parent = matern_parent_intensity(lam, 50.0)
        assert matern_retained_intensity(parent, 50.0) == pytest.approx(lam, rel=1e-12)

    def test_unreachable_density(self):
        with pytest.raises(ValueError):
            matern_parent_intensity(2e-4, 50.0)


def _bruteforce_thinning(parents, marks, r_b, window):
    """The O(n^2) Matern type-II rule on one field's own parents and marks."""
    diff = parents[:, None, :] - parents[None, :, :]
    close = np.einsum("ijk,ijk->ij", diff, diff) <= r_b**2
    np.fill_diagonal(close, False)
    loses = (close & (marks[None, :] < marks[:, None])).any(axis=1)
    kept = parents[~loses]
    return kept[window.contains(kept)]


class _ScriptedTrials:
    """Generator stand-in placing fixed parents, trial by trial, in a
    rectangle window: ``fields`` is a list of (points, marks) per trial."""

    def __init__(self, fields):
        points = [np.asarray(p, dtype=float).reshape(-1, 2) for p, _ in fields]
        self.split = np.array([p.shape[0] for p in points])
        self.points = np.concatenate(points)
        self.marks = np.concatenate([np.asarray(m, dtype=float) for _, m in fields])
        self._coords = iter((self.points[:, 0], self.points[:, 1]))

    def poisson(self, lam):
        return self.points.shape[0]

    def uniform(self, low, high, size):
        return next(self._coords).copy()

    def multinomial(self, n, pvals):
        assert n == self.split.sum() and len(pvals) == self.split.size
        return self.split.copy()

    def random(self, size):
        return self.marks.copy()


class TestMhcppTrials:
    """Several fields thinned at once, each trial shifted along x."""

    @pytest.mark.parametrize(
        "window",
        [Window("disk", radius=300.0), Window("rectangle", half_extents=(300.0, 200.0))],
    )
    def test_each_trial_matches_bruteforce_on_its_own_parents(self, window):
        r_b, trials = 50.0, 40
        for seed in range(10):
            for lam_p in (2e-5, 3e-4):
                counts = np.empty(trials, dtype=int)
                rng = _rng(seed)
                got = sample_mhcpp(lam_p, r_b, window, rng, counts)
                # replay the draws: one field of trials x the intensity, its
                # split over the trials, then the marks
                replay = _rng(seed)
                parents = sample_hppp(lam_p * trials, window.dilate(r_b), replay)
                split = replay.multinomial(parents.shape[0], np.full(trials, 1.0 / trials))
                marks = replay.random(parents.shape[0])
                assert rng.random() == replay.random()
                ends = np.cumsum(split)
                want = [
                    _bruteforce_thinning(parents[e - k:e], marks[e - k:e], r_b, window)
                    for e, k in zip(ends, split)
                ]
                assert np.array_equal(counts, [w.shape[0] for w in want])
                assert np.array_equal(got, np.concatenate(want))

    def test_trials_at_the_shift_boundary_do_not_compete(self):
        # dilated half-width 150, so trial t is shifted by 400 t and the
        # dilated windows of neighbouring trials end 2 r_b apart.  Trial 1
        # repeats trial 0's point with a lower mark and adds one on the left
        # edge, 2 r_b from trial 0's right edge once shifted; neither may thin
        # trial 0.  A pair exactly r_b apart still competes in a shifted
        # trial, and a pair just beyond r_b does not.
        window = Window("rectangle", half_extents=(100.0, 100.0))
        fields = [
            ([(100.0, 0.0), (150.0, 10.0)], [0.9, 0.95]),
            ([(100.0, 0.0), (-150.0, 10.0)], [0.1, 0.05]),
            ([(150.0, 150.0)], [0.05]),
            ([(-100.0, 0.0), (0.0, 0.0), (50.0, 0.0)], [0.8, 0.3, 0.6]),
            ([(0.0, 0.0), (50.000001, 0.0)], [0.4, 0.2]),
        ]
        counts = np.empty(len(fields), dtype=int)
        got = sample_mhcpp(1e-4, 50.0, window, _ScriptedTrials(fields), counts)
        want = [
            _bruteforce_thinning(np.asarray(p, dtype=float), np.asarray(m), 50.0, window)
            for p, m in fields
        ]
        assert np.array_equal(got, np.concatenate(want))
        assert counts.tolist() == [w.shape[0] for w in want] == [1, 1, 0, 2, 2]

    def test_one_trial_is_the_single_field_draw(self):
        window = Window("disk", radius=400.0)
        counts = np.empty(1, dtype=int)
        rng, ref_rng = _rng(11), _rng(11)
        got = sample_mhcpp(1e-4, 50.0, window, rng, counts)
        assert np.array_equal(got, sample_mhcpp(1e-4, 50.0, window, ref_rng))
        assert counts[0] == got.shape[0]
        assert rng.random() == ref_rng.random()

    def test_empty_parents(self):
        counts = np.full(5, 7)
        got = sample_mhcpp(0.0, 50.0, Window(), _rng(), counts)
        assert got.shape == (0, 2) and not counts.any()


def _bruteforce_pairs(points, group, r):
    """Every same-group pair (a, b), a < b, from the full n x n distances."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    same = group[:, None] == group[None, :]
    a, b = np.nonzero(np.triu(same & (d2 <= r**2), k=1))
    return set(zip(a.tolist(), b.tolist()))


def _pair_set(a, b):
    assert np.all(a < b)
    pairs = set(zip(a.tolist(), b.tolist()))
    assert len(pairs) == a.size
    return pairs


class TestClosePairs:
    @pytest.mark.parametrize(
        "window", [Window("disk", radius=60.0), Window("rectangle", half_extents=(40.0, 70.0))]
    )
    @pytest.mark.parametrize("groups", [1, 2, 7])
    def test_matches_bruteforce(self, window, groups):
        rng = _rng(31 + groups)
        points = window.sample_uniform(400, rng)
        group = rng.integers(0, groups, 400)
        want = _bruteforce_pairs(points, group, 10.0)
        assert len(want) > 20
        assert _pair_set(*close_pairs(points, group, 10.0)) == want

    def test_boundary_and_coincident_points(self):
        # (0, 1) and (4, 5) are exactly r apart, (0, 2) just beyond it, and
        # point 3 sits on points 0 and 4 but in a group of its own
        points = np.array([[0.0, 0.0], [3.0, 4.0], [-3.0, -4.0 - 1e-9],
                           [0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        group = np.array([0, 0, 0, 1, 2, 2])
        got = _pair_set(*close_pairs(points, group, 5.0))
        assert got == {(0, 1), (4, 5)} == _bruteforce_pairs(points, group, 5.0)

    def test_coincident_groups_never_pair(self):
        window = Window("disk", radius=30.0)
        points = np.tile(window.sample_uniform(50, _rng(5)), (4, 1))
        group = np.repeat(np.arange(4), 50)
        a, b = close_pairs(points, group, 8.0)
        assert a.size > 0
        assert np.all(group[a] == group[b])
        assert _pair_set(a, b) == _bruteforce_pairs(points, group, 8.0)

    def test_empty(self):
        a, b = close_pairs(np.empty((0, 2)), np.empty(0, dtype=int), 5.0)
        assert a.size == b.size == 0

    @given(
        st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                           st.integers(0, 4)), max_size=80),
        st.floats(1e-3, 200.0),
        st.sampled_from([0.0, 1e6, -1e6]),
        st.sampled_from([1, 1000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce_property(self, rows, r, offset, group_stride):
        # a group stride of 1000 leaves more group ids than points
        points = np.array([(x + offset, y) for x, y, _ in rows]).reshape(-1, 2)
        group = np.array([g * group_stride for _, _, g in rows], dtype=int)
        got = _pair_set(*close_pairs(points, group, r))
        assert got == _bruteforce_pairs(points, group, r)

    @pytest.mark.parametrize("r", [2.0, 0.3])
    def test_lattice_at_spacing_r(self, r):
        i, j = np.meshgrid(np.arange(12), np.arange(9))
        points = np.column_stack((i.ravel() * r, j.ravel() * r))
        group = np.zeros(points.shape[0], dtype=int)
        got = _pair_set(*close_pairs(points, group, r))
        assert got == _bruteforce_pairs(points, group, r)
        if r == 2.0:
            # every horizontal and vertical neighbour, no diagonal
            assert len(got) == 11 * 9 + 12 * 8

    def test_all_points_coincident(self):
        points = np.tile([[3.7, -1.2]], (60, 1))
        group = np.repeat([0, 1, 2], 20)
        got = _pair_set(*close_pairs(points, group, 0.5))
        assert len(got) == 3 * 20 * 19 // 2
        assert got == _bruteforce_pairs(points, group, 0.5)

    def test_r_larger_than_span(self):
        rng = _rng(8)
        points = rng.random((90, 2))
        group = rng.integers(0, 3, 90)
        got = _pair_set(*close_pairs(points, group, 10.0))
        assert got == _bruteforce_pairs(points, group, 10.0)
        assert len(got) == sum(k * (k - 1) // 2 for k in np.bincount(group))

    def test_tiny_r_widens_the_table(self):
        # a 1e6 span at r = 1e-3 would be 1e18 cells; the widened table
        # stays O(n)
        rng = _rng(9)
        base = rng.uniform(-5e5, 5e5, (800, 2))
        points = np.vstack((base, base[:200] + [[6e-4, 7e-4]], base[200:300] + [[0.0, 2e-3]]))
        group = rng.integers(0, 4, points.shape[0])
        group[800:1000] = group[:200]
        tracemalloc.start()
        try:
            got = _pair_set(*close_pairs(points, group, 1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert len(got) == 200
        assert got == _bruteforce_pairs(points, group, 1e-3)

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError):
            close_pairs(np.zeros((3, 2)), np.zeros(3, dtype=int), 0.0)


class TestRisClusters:
    def test_zero_density(self):
        bs = np.zeros((3, 2))
        pts, parent = sample_ris_clusters(bs, 0.0, 1e-5, 10.0, _rng())
        assert pts.shape == (0, 2) and parent.size == 0

    def test_mean_one_per_bs(self):
        bs = np.zeros((200, 2))
        rng = _rng(9)
        totals = [
            sample_ris_clusters(bs, 1e-5, 1e-5, 10.0, rng)[0].shape[0] for _ in range(1000)
        ]
        mean_per_bs = np.mean(totals) / 200
        assert abs(mean_per_bs - 1.0) < 3 * math.sqrt(1.0 / (200 * 1000))

    def test_children_within_radius(self):
        bs = np.array([[100.0, -40.0], [-300.0, 10.0]])
        pts, parent = sample_ris_clusters(bs, 2e-4, 1e-5, 10.0, _rng(2))
        d = np.linalg.norm(pts - bs[parent], axis=1)
        assert (d <= 10.0 + 1e-9).all()

    def test_zero_bs_density_error(self):
        with pytest.raises(ValueError):
            sample_ris_clusters(np.zeros((1, 2)), 1e-5, 0.0, 10.0, _rng())


def _nearest_bs(ue, bs):
    """Nearest BS to ``ue`` by ``nearest_per_group`` over one group."""
    d2 = np.sum((bs - ue) ** 2, axis=1)
    return int(nearest_per_group(d2, np.zeros(bs.shape[0], dtype=int), 1)[0])


class TestAssociation:
    def test_single_bs(self):
        assert _nearest_bs(np.zeros(2), np.array([[5.0, 5.0]])) == 0

    def test_nearest_wins(self):
        bs = np.array([[10.0, 0.0], [0.0, 5.0]])
        assert _nearest_bs(np.zeros(2), bs) == 1

    def test_tie_breaks_low_index(self):
        bs = np.array([[5.0, 0.0], [0.0, 5.0]])
        assert _nearest_bs(np.zeros(2), bs) == 0

    def test_serving_ris(self):
        bs = np.array([[0.0, 0.0]])
        ris = np.array([[10.0, 0.0], [30.0, 0.0]])
        assert serving_surfaces(bs, ris, np.array([0, 0])).tolist() == [0]

    def test_serving_surfaces_nearest_child(self):
        bs = np.array([[0.0, 0.0], [100.0, 0.0], [-100.0, 0.0]])
        ris = np.array([[8.0, 0.0], [3.0, 4.0], [5.0, 0.0], [95.0, 0.0], [104.0, 0.0]])
        parent = np.array([0, 0, 0, 1, 1])
        # BS 0: surfaces 1 and 2 tie at distance 5, the lower index wins
        assert serving_surfaces(bs, ris, parent).tolist() == [1, 4, -1]

    def test_serving_surfaces_unsorted_parents_refused(self):
        bs = np.array([[0.0, 0.0], [100.0, 0.0]])
        ris = np.array([[95.0, 0.0], [5.0, 0.0]])
        with pytest.raises(ValueError, match="non-decreasing"):
            serving_surfaces(bs, ris, np.array([1, 0]))

    def test_serving_surfaces_no_surfaces(self):
        out = serving_surfaces(np.zeros((3, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert out.tolist() == [-1, -1, -1]

    def test_serving_surfaces_matches_per_bs_argmin(self):
        rng = _rng(4)
        bs = rng.uniform(-500, 500, (40, 2))
        ris, parent = sample_ris_clusters(bs, 2e-5, 1e-5, 10.0, rng)
        expected = np.full(40, -1)
        for i in range(40):
            children = np.flatnonzero(parent == i)
            if children.size:
                d2 = np.sum((ris[children] - bs[i]) ** 2, axis=1)
                expected[i] = children[np.argmin(d2)]
        assert (expected == -1).any() and (expected >= 0).any()
        assert np.array_equal(serving_surfaces(bs, ris, parent), expected)

    def test_serving_ris_empty_cluster(self):
        # the only surface belongs to another BS's cluster
        out = serving_surfaces(np.array([[0.0, 0.0], [100.0, 0.0]]), np.array([[1.0, 0.0]]),
                               np.array([1]))
        assert out.tolist() == [-1, 0]

    @given(st.lists(st.integers(0, 5), max_size=40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_serving_surfaces_any_sorted_parents(self, parent, seed):
        rng = _rng(seed)
        bs = rng.uniform(-100.0, 100.0, (6, 2))
        parent = np.sort(np.array(parent, dtype=int))
        # whole-metre offsets from the parent, so that distances tie often
        ris = bs[parent] + rng.integers(-2, 3, (parent.size, 2))
        expected = np.full(6, -1)
        for i in range(6):
            children = np.flatnonzero(parent == i)
            if children.size:
                expected[i] = children[np.argmin(np.sum((ris[children] - bs[i]) ** 2, axis=1))]
        assert serving_surfaces(bs, ris, parent).tolist() == expected.tolist()


class TestNearestPerGroup:
    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=60),
        st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce_argmin(self, rows, spare_groups):
        # few distinct distances, so that most groups hold ties; np.argmin
        # breaks a tie to the lowest index
        group = np.sort(np.array([g for g, _ in rows], dtype=int))
        d2 = np.array([float(d) for _, d in rows])
        n_groups = 8 + spare_groups
        expected = np.full(n_groups, -1)
        for g in range(n_groups):
            members = np.flatnonzero(group == g)
            if members.size:
                expected[g] = members[np.argmin(d2[members])]
        assert nearest_per_group(d2, group, n_groups).tolist() == expected.tolist()

    def test_decreasing_groups_refused(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            nearest_per_group(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0]), 2)
