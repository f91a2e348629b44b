import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast.synthesis import RateFunction, RateSegment, SynthConfig, generate, true_window_mean

DAY = 86400.0


def single_pair_config(rate_per_second, length=600.0, seed=0, profile=()):
    return SynthConfig(n=1, communities=1, day_length=length, days=1.0,
                       base_rate=rate_per_second, profile=profile, seed=seed)


class TestGenerate:
    def test_zero_rate_empty_stream(self):
        events, catalog, _ = generate(single_pair_config(0.0))
        assert events == [] and catalog.n == 1

    def test_same_seed_identical(self):
        cfg = SynthConfig(n=6, communities=2, days=1.0, seed=42, profile=())
        a, _, _ = generate(cfg)
        b, _, _ = generate(cfg)
        assert a == b

    def test_different_seeds_differ(self):
        cfg_a = SynthConfig(n=6, communities=2, days=1.0, seed=1, profile=())
        cfg_b = SynthConfig(n=6, communities=2, days=1.0, seed=2, profile=())
        assert generate(cfg_a)[0] != generate(cfg_b)[0]

    def test_monte_carlo_mean(self):
        # One pair, constant 2/minute for 10 minutes: 1000 seeds average to
        # within 5% of the Poisson mean 20.
        counts = []
        for seed in range(1000):
            events, _, _ = generate(single_pair_config(2.0 / 60.0, seed=seed))
            counts.append(len(events))
        assert abs(np.mean(counts) - 20.0) / 20.0 < 0.05

    def test_sorted_and_inside_horizon(self):
        cfg = SynthConfig(n=8, communities=2, days=2.0, seed=3,
                  profile=(RateSegment(0, 1, 0.0, DAY, 2.0),))
        events, _, _ = generate(cfg)
        times = [e.timestamp for e in events]
        assert times == sorted(times)
        assert all(0.0 <= t < cfg.horizon for t in times)
        assert all(0 <= e.origin < 8 and 0 <= e.destination < 8 for e in events)

    @pytest.mark.parametrize("cfg, count, sha256", [
        (SynthConfig(), 245_826,
         "c74cb3fd199dcfe758082f8cc85844562fb0b3a6a4b5e47daa19c9916a7077cc"),
        (SynthConfig(n=15, communities=5, days=3.0, seed=7), 26_859,
         "8abce5c3b37a0b2678b315d9e05f485c4b59b76747c61abea62d9328ac4b454f")],
        ids=["default", "five-communities"])
    def test_stream_is_pinned(self, cfg, count, sha256):
        # Digests of the streams drawn by thinning one candidate at a time:
        # thinning all candidates at once must reproduce them bit for bit.
        events, _, _ = generate(cfg)
        digest = hashlib.sha256()
        for column, dtype in (("origin", "<i8"), ("destination", "<i8"), ("timestamp", "<f8")):
            digest.update(np.array([getattr(e, column) for e in events], dtype=dtype).tobytes())
        assert len(events) == count and digest.hexdigest() == sha256

    def test_law_of_large_numbers_per_window(self):
        cfg_proto = SynthConfig(n=2, communities=1, days=1.0, day_length=3600.0,
                                base_rate=1.0 / 600.0, profile=())
        window = (600.0, 1800.0)
        expected = true_window_mean(cfg_proto, (0, 1), window)
        seeds = 400
        total = 0
        for seed in range(seeds):
            events, _, _ = generate(SynthConfig(n=2, communities=1, days=1.0,
                                                day_length=3600.0,
                                                base_rate=1.0 / 600.0, profile=(),
                                                seed=seed))
            total += sum(1 for e in events
                         if e.origin == 0 and e.destination == 1
                         and window[0] <= e.timestamp < window[1])
        sigma = np.sqrt(expected / seeds)
        assert abs(total / seeds - expected) < 3.0 * sigma

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), i=st.integers(0, 79), j=st.integers(0, 79),
           scale=st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False))
    def test_draws_match_exponential_and_uniform_bit_for_bit(self, seed, i, j, scale):
        # generate draws gaps as standard_exponential() * scale and thinning
        # draws as random(); the pinned streams were drawn with exponential(scale)
        # and uniform(), whose results these must equal bit for bit.
        def rng():
            return np.random.default_rng(np.random.SeedSequence((seed, i, j)))

        numpy_style, plain = rng(), rng()
        drawn = [(numpy_style.exponential(scale), numpy_style.uniform()) for _ in range(50)]
        fast = [(plain.standard_exponential() * scale, plain.random()) for _ in range(50)]
        assert np.array(drawn).tobytes() == np.array(fast).tobytes()

    def test_community_partition_is_balanced(self):
        cfg = SynthConfig(n=24, communities=3)
        sizes = np.bincount([cfg.community(i) for i in range(24)])
        assert list(sizes) == [8, 8, 8]


class TestRateFunction:
    def test_day_of_week_selector(self):
        profile = (RateSegment(0, 0, 0.0, DAY, 5.0, days=(2, 3)),)
        cfg = SynthConfig(n=2, communities=1, days=7.0, base_rate=1.0, profile=profile)
        rate = RateFunction(cfg)
        assert rate(0, 1, 0.5 * DAY) == 1.0          # dow 0: neutral multiplier
        assert rate(0, 1, 2.5 * DAY) == 5.0          # dow 2: painted
        assert rate(0, 1, 3.5 * DAY) == 5.0          # dow 3: painted
        assert rate(0, 1, 4.5 * DAY) == 1.0

    def test_later_segments_override(self):
        profile = (RateSegment(0, 0, 0.0, DAY, 2.0),
                   RateSegment(0, 0, 21600.0, 32400.0, 7.0))
        cfg = SynthConfig(n=1, communities=1, days=1.0, base_rate=1.0, profile=profile)
        rate = RateFunction(cfg)
        assert rate(0, 0, 1000.0) == 2.0
        assert rate(0, 0, 25000.0) == 7.0
        assert rate(0, 0, 40000.0) == 2.0


class TestTrueWindowMean:
    def test_constant_rate(self):
        cfg = single_pair_config(0.05, length=1000.0)
        assert true_window_mean(cfg, (0, 0), (100.0, 300.0)) == pytest.approx(10.0)

    def test_zero_rate(self):
        cfg = single_pair_config(0.0)
        assert true_window_mean(cfg, (0, 0), (0.0, 600.0)) == 0.0

    def test_two_piece_profile_matches_quadrature(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        profile = (RateSegment(0, 0, 0.0, 400.0, 3.0),
                   RateSegment(0, 0, 400.0, 1000.0, 0.5))
        cfg = SynthConfig(n=1, communities=1, day_length=1000.0, days=2.0,
                          base_rate=0.01, profile=profile)
        rate = RateFunction(cfg)
        for window in ((0.0, 1000.0), (350.0, 450.0), (900.0, 1100.0), (123.0, 1789.0)):
            numeric, _ = scipy_integrate.quad(
                lambda t: rate(0, 0, t), window[0], window[1],
                points=[400.0, 1000.0, 1400.0], limit=200)
            assert true_window_mean(cfg, (0, 0), window) == pytest.approx(numeric,
                                                                          abs=1e-9)

    def test_rejects_windows_outside_horizon(self):
        cfg = single_pair_config(1.0)
        with pytest.raises(ValueError):
            true_window_mean(cfg, (0, 0), (0.0, 601.0))

    def test_integral_matches_generated_mean_roughly(self):
        cfg = SynthConfig(n=4, communities=2, days=3.0, seed=11,
                  profile=(RateSegment(0, 1, 0.0, DAY, 1.5),
                           RateSegment(1, 0, 21600.0, 64800.0, 0.4)))
        events, _, rate = generate(cfg)
        window = (0.0, cfg.horizon)
        for pair in ((0, 1), (2, 3), (1, 2)):
            expected = rate.integral(pair[0], pair[1], *window)
            observed = sum(1 for e in events
                           if (e.origin, e.destination) == pair)
            assert abs(observed - expected) < 5.0 * np.sqrt(max(expected, 1.0))


class TestDefaultProfile:
    def test_weekday_weekend_structure(self):
        cfg = SynthConfig()
        rate = RateFunction(cfg)
        noon = 12 * 3600.0
        biz = 9  # a business-community node
        # Business traffic collapses on weekends (day 2 is a Saturday).
        weekday = rate(biz, biz, 0 * DAY + noon)
        weekend = rate(biz, biz, 2 * DAY + noon)
        assert weekend < 0.25 * weekday

    def test_commute_peak_is_directional(self):
        cfg = SynthConfig()
        rate = RateFunction(cfg)
        morning = 8 * 3600.0
        res, biz = 0, 9
        assert rate(res, biz, morning) > 4.0 * rate(biz, res, morning)

    def test_validation_of_bad_segments(self):
        with pytest.raises(ValueError):
            RateSegment(0, 0, 10.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            RateSegment(0, 0, 0.0, 10.0, -1.0)
        with pytest.raises(ValueError):
            SynthConfig(n=4, communities=2,
                        profile=(RateSegment(0, 3, 0.0, 10.0, 1.0),))
