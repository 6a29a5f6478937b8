"""Path loss, fading samplers, and the serving and interference draws built
from them.

The serving draw is ``montecarlo.draw_serving_power``, cut into row blocks
by ``montecarlo.serving_power``, and the field interference is drawn by
``montecarlo._field_draws``; the checks here use test-local oracles
(replayed generator streams, element-wise phase sums) for both.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ris_sim.channel import (
    ChannelParams,
    pathloss_constant,
    sample_nakagami,
    sample_rayleigh,
)
from ris_sim import montecarlo
from ris_sim.montecarlo import (
    LinkGeometry,
    draw_serving_power,
)

NO_SURFACES = np.zeros((0, 2))


def _rng(seed=0):
    return np.random.default_rng(seed)


def _chunk_draws(bs, ris, ch, rng, serving=None, repeats=1):
    """(i_before, i_after) as rows, one column per trial, of a chunk of
    ``repeats`` trials that each hold ``bs`` and ``ris``, ``serving``
    indexing each trial's serving BS in ``bs``."""
    return np.array(montecarlo._field_draws(
        ch, np.tile(bs, (repeats, 1)), np.arange(repeats + 1) * bs.shape[0],
        np.tile(ris, (repeats, 1)), np.arange(repeats + 1) * ris.shape[0],
        None if serving is None else serving + np.arange(repeats) * bs.shape[0], rng))


# the first exponential of stream _rng(): the first draw of a one-trial chunk
# with one interferer from that stream is the interferer's mean times it
FIRST_EXPONENTIAL = _rng().exponential()


def _direct_draws(distances, c):
    """First draws (alpha = 3) of one-trial chunks, one per BS on the x axis,
    each from stream _rng(): each BS's direct mean times FIRST_EXPONENTIAL."""
    ch = ChannelParams(c=c, alpha=3.0)
    return np.array([_chunk_draws(np.array([[d, 0.0]]), NO_SURFACES, ch, _rng())[0, 0]
                     for d in distances])


class TestPathloss:
    def test_reference_constant_at_3ghz(self):
        c = pathloss_constant(3e9)
        assert c == pytest.approx(6.3326e-5, rel=0.01)

    def test_doubling_frequency_quarters(self):
        assert pathloss_constant(6e9) == pytest.approx(pathloss_constant(3e9) / 4, rel=1e-12)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            pathloss_constant(0.0)

    def test_direct_reference_distance(self):
        pl_d, _ = LinkGeometry(d_direct=1.0).pathloss(6.3326e-5, 3.0)
        assert pl_d == 6.3326e-5
        assert _direct_draws([1.0], 6.3326e-5)[0] == 6.3326e-5 * FIRST_EXPONENTIAL

    def test_direct_value(self):
        pl_d, _ = LinkGeometry(d_direct=100.0).pathloss(6.3326e-5, 3.0)
        assert pl_d == pytest.approx(6.3326e-11, rel=1e-12)
        assert _direct_draws([100.0], 6.3326e-5)[0] == pytest.approx(
            6.3326e-11 * FIRST_EXPONENTIAL, rel=1e-12)

    def test_direct_power_law(self):
        near, far = _direct_draws([10.0, 20.0], 1.0)
        assert far == pytest.approx(near / 8.0, rel=1e-12)

    def test_reflected_product(self):
        _, pl_r = LinkGeometry(d_bs_ris=50.0, d_ris_ue=20.0).pathloss(6.3326e-5, 3.0)
        assert pl_r == pytest.approx(6.3326e-14, rel=1e-12)

    def test_reflected_symmetry(self):
        a = LinkGeometry(d_bs_ris=7.0, d_ris_ue=3.0).pathloss(1.0, 3.0)[1]
        b = LinkGeometry(d_bs_ris=3.0, d_ris_ue=7.0).pathloss(1.0, 3.0)[1]
        assert a == b
        # the interference pair means: BS-surface and surface-receiver
        # swapped, read back from draws of the same stream, the direct term
        # (the same BS) taken out
        ch = ChannelParams(c=1.0, n_elements=1)
        bs = np.array([[10.0, 0.0]])
        e = _rng().exponential(size=4)
        for surface in ([3.0, 0.0], [7.0, 0.0]):
            draws = _chunk_draws(bs, np.array([surface]), ch, _rng())[:, 0]
            pairs = (draws - 10.0**-3 * e[0::2]) / e[1::2]
            assert pairs == pytest.approx([21.0**-3] * 2, rel=1e-12)
        assert (_chunk_draws(bs, np.array([[3.0, 0.0]]), ch, _rng()).tolist()
                == _chunk_draws(bs, np.array([[7.0, 0.0]]), ch, _rng()).tolist())

    def test_monotone_in_distance(self):
        vals = _direct_draws(np.linspace(1.0, 100.0, 25), 1.0)
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            LinkGeometry(d_direct=0.0)
        with pytest.raises(ValueError):
            LinkGeometry(d_bs_ris=0.0)
        with pytest.raises(ValueError):
            ChannelParams(alpha=2.0)
        with pytest.raises(ValueError):
            ChannelParams(c=0.0)


class TestFadingSamplers:
    def test_rayleigh_moments(self):
        x = sample_rayleigh(_rng(1), size=1_000_000)
        assert x.mean() == pytest.approx(math.sqrt(math.pi / 4), rel=0.005)
        assert np.mean(x**2) == pytest.approx(1.0, rel=0.005)
        assert x.var() == pytest.approx(1 - math.pi / 4, rel=0.01)

    def test_nakagami_one_is_rayleigh(self):
        x = sample_nakagami(1.0, _rng(2), size=1_000_000)
        assert x.mean() == pytest.approx(math.sqrt(math.pi) / 2, rel=0.005)

    def test_nakagami_two_moments(self):
        x = sample_nakagami(2.0, _rng(3), size=1_000_000)
        assert x.mean() == pytest.approx(0.9399856, rel=0.005)
        assert np.mean(x**2) == pytest.approx(1.0, rel=0.005)

    def test_nakagami_domain(self):
        with pytest.raises(ValueError):
            sample_nakagami(0.3, _rng(), 10)


def _replay_fading(ch, n, rng):
    """The serving draw's amplitudes, replayed from ``rng`` in its documented
    order: the Rayleigh amplitudes, then all first hops, then all second
    hops."""
    g = rng.rayleigh(scale=math.sqrt(0.5), size=n)
    shape = (n, ch.n_elements)
    h1 = np.sqrt(rng.gamma(ch.m1, 1.0 / ch.m1, shape))
    h2 = np.sqrt(rng.gamma(ch.m2, 1.0 / ch.m2, shape))
    return g, h1, h2, rng


class TestPhaseAlignment:
    def test_ideal_coherence_is_scalar_sum(self):
        ch = ChannelParams()
        rng = _rng(4)
        s0 = draw_serving_power(ch, 1e-10, 1e-14, 3, rng)
        g, h1, h2, ref = _replay_fading(ch, 3, _rng(4))
        expected = (math.sqrt(1e-10) * g + math.sqrt(1e-14) * np.sum(h1 * h2, axis=1)) ** 2
        assert s0 == pytest.approx(expected, rel=1e-12)
        assert rng.random() == ref.random()

    def test_quantized_never_beats_ideal(self):
        # test-local oracle: the same amplitudes with each element's residual
        # phase rounded to a 2-bit grid instead of cancelled
        ch = ChannelParams(n_elements=64)
        s0 = draw_serving_power(ch, 1e-10, 1e-14, 50, _rng(5))
        g, h1, h2, _ = _replay_fading(ch, 50, _rng(5))
        residual = _rng(6).uniform(0.0, 2.0 * math.pi, h1.shape)
        step = 2.0 * math.pi / 4
        error = residual - np.round(residual / step) * step
        quantized = np.abs(
            math.sqrt(1e-10) * g + math.sqrt(1e-14) * np.sum(h1 * h2 * np.exp(1j * error), axis=1)
        ) ** 2
        assert np.all(quantized <= s0 * (1 + 1e-12))


class TestServingPower:
    def test_direct_only_when_no_reflection(self):
        ch = ChannelParams(n_elements=3)
        rng = _rng(7)
        s0 = draw_serving_power(ch, 4.0, 0.0, 5, rng)
        ref = _rng(7)
        g = ref.rayleigh(scale=math.sqrt(0.5), size=5)
        assert np.array_equal(s0, (2.0 * g) ** 2)
        # no Nakagami hops are drawn without a reflected link
        assert rng.random() == ref.random()

    def test_matches_closed_form_mean(self):
        # oracle in power-analytic terms; 2e4 draws, 2% tolerance
        from ris_sim.power_analytic import s0_moments

        ch = ChannelParams()
        pl_d, pl_r = LinkGeometry().pathloss(ch.c, ch.alpha)
        draws = draw_serving_power(ch, pl_d, pl_r, 20_000, _rng(6))
        expected = s0_moments(pl_d, pl_r, ch.n_elements, ch.m1, ch.m2).mean
        assert np.mean(draws) == pytest.approx(expected, rel=0.02)

    def test_hop_blocks_replay_the_block_order(self):
        # serving_power's row block b draws its Rayleigh amplitudes, its first
        # hops and then its second hops from child b of stream (seed, 0), on
        # its slice of the gains; n is not a multiple of a block
        ch = ChannelParams(m1=1.7, m2=3.0, n_elements=50)
        rows = montecarlo._HOP_BLOCK // ch.n_elements
        n = 2 * rows + rows // 3
        pl_r = np.linspace(0.0, 1e-14, n)
        s0 = montecarlo.serving_power(ch, 1e-10, pl_r, n, 8, workers=1)
        want = []
        for b, start in enumerate(range(0, n, rows)):
            block = slice(start, min(start + rows, n))
            g, h1, h2, _ = _replay_fading(ch, block.stop - start, montecarlo._stream(8, 0, (b,)))
            amp = np.sqrt(1e-10) * g + np.sqrt(pl_r[block]) * np.sum(h1 * h2, axis=1)
            want.append(amp * amp)
        assert len(want) == 3
        assert s0.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("extra", [0, -1, 1])
    def test_one_block_gives_the_one_batch_bytes(self, extra):
        # all first hops come before all second hops, as in one batch, up to
        # one block and above it: the row blocks are serving_power's alone
        ch = ChannelParams(m1=1.7, m2=3.0, n_elements=50)
        n = montecarlo._HOP_BLOCK // ch.n_elements + extra
        pl_r = np.linspace(0.0, 1e-14, n)
        rng = _rng(10)
        s0 = draw_serving_power(ch, 1e-10, pl_r, n, rng)
        g, h1, h2, ref = _replay_fading(ch, n, _rng(10))
        amp = np.sqrt(1e-10) * g + np.sqrt(pl_r) * np.sum(h1 * h2, axis=1)
        assert s0.tobytes() == (amp * amp).tobytes()
        assert rng.random() == ref.random()

    def test_memory_does_not_grow_with_draws_times_elements(self):
        # numpy reports its buffers to tracemalloc; of serving_power's 50
        # blocks of hops one is held at a time, beside the O(n) powers
        ch = ChannelParams()
        rows = montecarlo._HOP_BLOCK // ch.n_elements
        n = 50 * rows
        pl_d, pl_r = LinkGeometry().pathloss(ch.c, ch.alpha)
        tracemalloc.start()
        try:
            montecarlo.serving_power(ch, pl_d, pl_r, n, 9, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = rows * ch.n_elements * 8
        assert peak <= 4 * block + 8 * n * 8

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            draw_serving_power(ChannelParams(), -1.0, 0.0, 1, _rng())
        with pytest.raises(ValueError):
            draw_serving_power(ChannelParams(), 1.0, -1.0, 1, _rng())


def _misaligned_reflection_power(n_elements, m1, m2, rng):
    """|sum_n h h exp(i theta)|^2 with i.i.d. uniform element phases."""
    amp = sample_nakagami(m1, rng, n_elements) * sample_nakagami(m2, rng, n_elements)
    theta = rng.uniform(0.0, 2.0 * math.pi, n_elements)
    return float(abs(np.sum(amp * np.exp(1j * theta))) ** 2)


ONE_BS = np.array([[300.0, 0.0]])
ONE_SURFACE = np.array([[320.0, 0.0]])


class TestInterferenceRealization:
    def test_empty_field_zero(self):
        rng = _rng()
        assert _chunk_draws(NO_SURFACES, NO_SURFACES, ChannelParams(), rng).tolist() == [[0.0]] * 2
        assert rng.random() == _rng().random()

    def test_single_bs_mean(self):
        # 50,000 trials draw the 100,000 values in stream order, each its
        # BS's mean times one exponential
        ch = ChannelParams()
        vals = _chunk_draws(np.array([[250.0, 0.0]]), NO_SURFACES, ch, _rng(7),
                            repeats=50_000).T.ravel()
        assert vals[:4] == pytest.approx(ch.c * 250.0**-3 * _rng(7).exponential(size=4),
                                         rel=1e-12)
        assert np.mean(vals) == pytest.approx(ch.c * 250.0**-3, rel=0.01)

    def test_reflected_mean_exact_mode(self):
        # Monte Carlo of the element-wise misaligned sums as the oracle for
        # the per-surface mean power N c^2 (d_ij d_jk)^(-alpha), read back
        # from one draw over the stream's exponentials (direct, then pair)
        ch = ChannelParams()
        before = _chunk_draws(ONE_BS, ONE_SURFACE, ch, _rng(8))[0, 0]
        e_direct, e_pair = _rng(8).exponential(size=2)
        pair = (before - ch.c * 300.0**-3 * e_direct) / e_pair
        rng = _rng(8)
        unit = [
            _misaligned_reflection_power(ch.n_elements, ch.m1, ch.m2, rng)
            for _ in range(20_000)
        ]
        oracle = np.mean(unit) * ch.c**2 * (20.0 * 320.0) ** -3
        assert pair == pytest.approx(oracle, rel=0.02)

    def test_exponential_mode_same_mean(self):
        ch = ChannelParams()
        vals = _chunk_draws(ONE_BS, ONE_SURFACE, ch, _rng(9), repeats=50_000).T.ravel()
        expected = ch.c * 300.0**-3 + ch.n_elements * ch.c**2 * (20.0 * 320.0) ** -3
        assert np.mean(vals) == pytest.approx(expected, rel=0.02)

    def test_serving_exclusion(self):
        ch = ChannelParams(n_elements=1)
        rng = _rng(10)
        # the only BS serves; the surface term needs an interfering BS, so
        # nothing is drawn
        assert _chunk_draws(ONE_BS, ONE_SURFACE, ch, rng, serving=0).tolist() == [[0.0]] * 2
        assert rng.random() == _rng(10).random()
