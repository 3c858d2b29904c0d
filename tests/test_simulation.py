import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pppt import fixed_rate, ian, simulation
from pppt.model import DecodingRule, NetworkConfig, ThroughputValue
from pppt.simulation import (
    _INTERFERENCE_MODES,
    SimulationEstimate,
    _collect_stats,
    _rates_from_stats,
    _rng,
    _views,
    estimate_cognitive,
    estimate_fixed_rate,
    tightness_report,
)

CFG = NetworkConfig(1.0, 1.0, 4.0)
IAN, OPT = DecodingRule.IAN, DecodingRule.OPT


def far_mean(cfg, window_radius):
    """The Campbell mean of the plane beyond the window, in d^-alpha."""
    return 2.0 * cfg.mu * (window_radius / cfg.d) ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0)


def rate(dists, rule, mode="full", cfg=CFG, far=0.0):
    """The rate law on one realization given by its interferer distances,
    split at the link distance as the window kernel splits a batch, with
    ``far`` added to the noise-set sum, read through the rule's view."""
    r2 = np.asarray(dists, dtype=float) ** 2
    p = r2 ** (-cfg.alpha / 2.0)
    dec = r2 < cfg.d * cfg.d
    s_far, r2_far = np.array([p[~dec].sum() + far]), np.array([r2[~dec].min(initial=np.inf)])
    views = _views(np.array([dec.sum()]),
                   (np.array([p[dec].sum()]), np.array([r2[dec].min(initial=np.inf)])),
                   (s_far, r2_far))
    return float(_rates_from_stats(cfg, views[rule], mode)[0])


# strategy: small sets of interferer distances at sane values
radii = st.lists(st.floats(0.05, 30.0), min_size=1, max_size=25)


class TestPerRealizationRates:
    def test_single_interferer_value(self):
        assert rate([2.0], IAN) == pytest.approx(math.log2(17.0), rel=1e-12)

    def test_single_interferer_modes_agree(self):
        assert rate([2.0], IAN, "full") == pytest.approx(
            rate([2.0], IAN, "closest"), rel=1e-12)

    def test_full_never_exceeds_closest(self):
        stats = _collect_stats(CFG, 20.0, seed=0, n_realizations=30)
        full = _rates_from_stats(CFG, stats[IAN], "full")
        closest = _rates_from_stats(CFG, stats[IAN], "closest")
        assert np.all(full <= closest + 1e-12)

    def test_empty_window_capped(self):
        assert rate([], IAN) == math.inf
        assert rate([], OPT) == math.inf

    def test_finite_rate_above_cap_kept(self):
        # a rate above 30 bits is kept as it is: a lone interferer at 1000 d
        # leaves SIR 1e12, about 39.9 bits
        assert rate([1000.0], IAN) == pytest.approx(math.log2(1.0 + 1e12), rel=1e-12)
        assert rate([0.5, 1000.0], OPT) == pytest.approx(
            0.5 * math.log2(1.0 + 2e12), rel=1e-12)

    def test_opt_worked_example(self):
        assert rate([0.5, 2.0], OPT) == pytest.approx(0.5 * math.log2(33.0), rel=1e-12)

    def test_opt_closest_only_uses_nearest_noise_interferer(self):
        assert rate([0.5, 2.0, 3.0], OPT, "closest") == pytest.approx(
            0.5 * math.log2(33.0), rel=1e-12)

    def test_opt_empty_noise_set_capped(self):
        assert rate([0.5], OPT) == math.inf

    @pytest.mark.parametrize("alpha", [2.05, 4.0, 60.0])
    @pytest.mark.parametrize("mu", [1e-9, 1.0, 1e3])
    def test_default_window_rates_finite(self, mu, alpha):
        # at the corners of the domain the far mean or a point in the window
        # reaches every realization of the default window: no rate is inf
        cfg = NetworkConfig(mu / math.pi, 1.0, alpha)
        stats = _collect_stats(cfg, simulation.default_window_radius(cfg), seed=1,
                               n_realizations=100)
        for rule in DecodingRule:
            for mode in _INTERFERENCE_MODES:
                assert np.all(np.isfinite(_rates_from_stats(cfg, stats[rule], mode)))

    def test_tie_goes_to_noise_set(self):
        # an interferer exactly at the link distance is treated as noise
        assert rate([1.0], OPT) == pytest.approx(1.0, rel=1e-12)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            estimate_cognitive(CFG, IAN, mode="sideways", n_realizations=100)

    @given(cloud=radii, extra=st.floats(0.05, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_interference_any_position(self, cloud, extra):
        # an added interferer, decoded or noise, can only reduce the rate
        added = cloud + [extra]
        for rule in (IAN, OPT):
            assert rate(added, rule) <= rate(cloud, rule) + 1e-12

    @given(cloud=radii)
    @example(cloud=[0.5, 1.5])
    @settings(max_examples=60, deadline=None)
    def test_joint_rate_below_genie_rate(self, cloud):
        # decoding interferers cannot beat a genie that removes them: the
        # link alone against the noise set carries log2(1 + 1/N); counting
        # the decoded powers as they are, under the full-set constraint
        # alone, can exceed it (3.22 against 2.60 bits at [0.5, 1.5])
        noise = sum(r ** -CFG.alpha for r in cloud if r >= CFG.d)
        genie = math.log2(1.0 + 1.0 / noise) if noise else math.inf
        assert rate(cloud, OPT) <= genie + 1e-12


class TestEstimateCognitive:
    def test_reproducible(self):
        a = estimate_cognitive(CFG, DecodingRule.IAN, n_realizations=300, seed=5)
        b = estimate_cognitive(CFG, DecodingRule.IAN, n_realizations=300, seed=5)
        assert a == b

    def test_last_pass_reused_for_equal_arguments_only(self, monkeypatch):
        simulation._sample.cache_clear()
        passes = []
        real = simulation._collect_stats

        def counting(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(simulation, "_collect_stats", counting)
        ian_est = estimate_cognitive(CFG, IAN, n_realizations=300, seed=5)
        opt_est = estimate_cognitive(CFG, OPT, n_realizations=300, seed=5)
        assert len(passes) == 1
        estimate_cognitive(CFG, OPT, n_realizations=300, seed=6)
        estimate_cognitive(CFG, OPT, n_realizations=400, seed=6)
        assert len(passes) == 3
        # the reused pass gives the numbers of a fresh draw
        for rule, est in ((IAN, ian_est), (OPT, opt_est)):
            simulation._sample.cache_clear()
            assert estimate_cognitive(CFG, rule, n_realizations=300, seed=5) == est
        assert len(passes) == 5
        # the key is the draw: modes and the estimator only read the pass
        sol = fixed_rate.highest_throughput(CFG, OPT)
        simulation._sample.cache_clear()
        passes.clear()
        estimate_cognitive(CFG, OPT, mode="full", n_realizations=300, seed=7)
        estimate_cognitive(CFG, OPT, mode="closest", n_realizations=300, seed=7)
        estimate_fixed_rate(CFG, sol, n_realizations=300, seed=7)
        assert len(passes) == 1

    def test_chunking_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_POINTS", 500)
        tiny = _collect_stats(CFG, 100.0, seed=9, n_realizations=200)
        monkeypatch.setattr(simulation, "_CHUNK_POINTS", 10_000_000)
        big = _collect_stats(CFG, 100.0, seed=9, n_realizations=200)
        for rule in DecodingRule:
            for got, want in zip(tiny[rule], big[rule]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk_points", [None, 50],
                             ids=["default-chunks", "sub-realization-chunks"])
    def test_prefix_stable(self, chunk_points, monkeypatch):
        # realization i is the same in every run of at least i + 1
        # realizations; about 200 points per realization and 39% empty decode
        # sets, so 50-point chunks each hold a single realization
        cfg = NetworkConfig(0.3, 1.0, 4.0)
        w = simulation.default_window_radius(cfg)
        if chunk_points is not None:
            monkeypatch.setattr(simulation, "_CHUNK_POINTS", chunk_points)
        short = _collect_stats(cfg, w, seed=8, n_realizations=150)
        long = _collect_stats(cfg, w, seed=8, n_realizations=400)
        assert np.any(short[OPT].n == 0) and np.all(np.isfinite(short[IAN].r2_noise))
        for rule in DecodingRule:
            for got, want in zip(short[rule], long[rule]):
                np.testing.assert_array_equal(got, want[:150])

    def test_run_ending_in_empty_windows(self):
        # a run whose last realization has no points: in each field the last
        # realization with points (here the one before, with at least two)
        # still reduces over all of its own points
        cfg = NetworkConfig(0.02, 2.0, 3.0)
        ring = (5.0 / cfg.d) ** 2 - 1.0
        counts = _rng(11, 0).poisson([cfg.mu, cfg.mu * ring], (1000, 2))
        n = next(i for i in range(2, 1000)
                 if not counts[i - 1].any() and np.all(counts[i - 2] >= 2))
        got = _collect_stats(cfg, 5.0, seed=11, n_realizations=n)
        self.assert_views_match(got, self.oracle_stats(cfg, 5.0, seed=11, n_realizations=n))

    @staticmethod
    def assert_views_match(got, want):
        """The kernel's per-rule views against the oracle's five statistics:
        counts and distances exactly, power sums to 1e-13.  The noise rule
        decodes nothing, so both fields are its noise."""
        for view, n, s, r2 in ((got[IAN], 0.0, want["s_dec"] + want["s_far"], want["r2_min"]),
                               (got[OPT], want["n_dec"], want["s_far"], want["r2_far_min"])):
            np.testing.assert_array_equal(view.n, n)
            np.testing.assert_array_equal(view.r2_noise, r2)
            np.testing.assert_allclose(view.noise, s, rtol=1e-13, atol=0)

    @staticmethod
    def oracle_stats(cfg, window_radius, seed, n_realizations):
        """The five statistics, one realization at a time, from the same draws:
        each (disc, ring) count pair in turn from stream (seed, 0), each
        realization's disc radii in turn from stream (seed, 1) and its ring
        radii from stream (seed, 2), and the far mean added to each noise-set
        sum.  Drawn in metres and split at d, reported as the kernel reports
        them, in units of d: squared radii over d^2, powers times d^alpha."""
        counts, disc, ring = (_rng(seed, k) for k in range(3))
        d2, d_alpha = cfg.d * cfg.d, cfg.d ** cfg.alpha
        w2 = window_radius * window_radius
        rows = []
        for _ in range(n_realizations):
            n_disc, n_ring = counts.poisson([cfg.lam * math.pi * d2, cfg.lam * math.pi * (w2 - d2)])
            r2 = np.concatenate([d2 * disc.random(n_disc), d2 + (w2 - d2) * ring.random(n_ring)])
            dec = r2 < d2
            p = r2 ** (-cfg.alpha / 2.0)
            rows.append((p[dec].sum() * d_alpha,
                         p[~dec].sum() * d_alpha + far_mean(cfg, window_radius), dec.sum(),
                         r2.min(initial=np.inf) / d2, r2[~dec].min(initial=np.inf) / d2))
        return dict(zip(("s_dec", "s_far", "n_dec", "r2_min", "r2_far_min"),
                        np.array(rows, dtype=float).T))

    @pytest.mark.parametrize("lam,d,alpha,window,n,chunk_points", [
        (10.0, 1.0, 4.0, None, 3, None),
        (0.3, 1.0, 4.0, None, 100, None),
        (0.02, 2.0, 3.0, 5.0, 300, 4),
    ], ids=["dense", "empty-decode-sets", "empty-windows-in-chunk"])
    def test_kernel_matches_per_realization_oracle(self, lam, d, alpha, window, n, chunk_points,
                                                   monkeypatch):
        cfg = NetworkConfig(lam, d, alpha)
        w = simulation.default_window_radius(cfg) if window is None else window
        if chunk_points is not None:
            monkeypatch.setattr(simulation, "_CHUNK_POINTS", chunk_points)
        got = _collect_stats(cfg, w, seed=11, n_realizations=n)
        want = self.oracle_stats(cfg, w, seed=11, n_realizations=n)
        self.assert_views_match(got, want)
        if lam < 1:  # the cases the ids promise are really in the data
            assert np.any(want["n_dec"] == 0) and np.any(want["n_dec"] > 0)
        if chunk_points is not None:  # empty windows, and decode sets with nothing beyond
            assert np.any(np.isinf(want["r2_min"]))
            assert np.any(np.isinf(want["r2_far_min"]) & (want["n_dec"] > 0))

    def test_kernel_memory_is_chunk_sized(self):
        # 100 dense realizations of a radius-100 window hold 31M points; the
        # kernel may keep only a chunk of them alive at once (numpy reports
        # its buffers to tracemalloc)
        cfg = NetworkConfig(10.0, 1.0, 4.0)
        tracemalloc.start()
        try:
            _collect_stats(cfg, 100.0, seed=0, n_realizations=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_kernel_holds_one_chunk_buffer(self):
        # each realization's ring here holds about 3.1e5 points, more than a
        # chunk, so a chunk is one realization; its powers overwrite its
        # radii, so the peak is one float64 per point of the largest ring
        # (two if the powers take an array of their own)
        cfg = NetworkConfig(10.0, 1.0, 4.0)
        ring = 100.0 ** 2 - 1.0
        largest = _rng(0, 0).poisson([cfg.mu, cfg.mu * ring], (100, 2))[:, 1].max()
        assert largest > simulation._CHUNK_POINTS
        tracemalloc.start()
        try:
            _collect_stats(cfg, 100.0, seed=0, n_realizations=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * largest

    def test_wide_window_reproduces_frozen_draws(self):
        # the five statistics of a radius-100 window drawn exactly, frozen
        # from the kernel's output when the runs moved to drawing the decode
        # disc and the noise ring as two fields, one radii stream each; the
        # power sums carry the last-digit latitude of numpy's pow
        cfg = NetworkConfig(0.3, 1.0, 4.0)
        got = _collect_stats(cfg, 100.0, seed=5, n_realizations=4)
        # the decode counts stay the integers drawn
        assert got[IAN].n.dtype.kind == got[OPT].n.dtype.kind == "i"
        np.testing.assert_array_equal(got[IAN].n, 0.0)
        np.testing.assert_array_equal(got[OPT].n, [2.0, 0.0, 0.0, 3.0])
        np.testing.assert_array_equal(got[IAN].r2_noise, [0.47072268318809307, 1.04194881055316,
                                                          4.01965247947016, 0.537936929104719])
        np.testing.assert_array_equal(got[OPT].r2_noise, [1.041282705635711, 1.04194881055316,
                                                          4.01965247947016, 2.2230233912325943])
        s_dec = np.array([6.181402815624666, 0.0, 0.0, 7.020610435980172])
        s_far = np.array([1.8223158452360533, 2.4357768386872434,
                          0.289754620205274, 0.5392499707795229]) + far_mean(cfg, 100.0)
        np.testing.assert_allclose(got[IAN].noise, s_dec + s_far, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got[OPT].noise, s_far, rtol=1e-13, atol=0)

    def test_far_mean_alone_without_noise_set_points(self):
        # a window just past d leaves most realizations without a noise-set
        # point: their far-field sum is the plane's mean beyond the window,
        # and only that
        ring = _collect_stats(CFG, 1.01, seed=1, n_realizations=200)[OPT]
        empty = np.isinf(ring.r2_noise)
        assert 0 < np.count_nonzero(empty) < len(empty)
        assert np.all(ring.noise[empty] == far_mean(CFG, 1.01))
        assert np.all(ring.noise[~empty] > far_mean(CFG, 1.01))

    @pytest.mark.parametrize("window", [1.3, 3.0])
    def test_ring_contact_law(self, window):
        # the nearest noise-set interferer of the joint rule: past d the
        # field is Poisson, so r2_far_min - 1 is Exp(mu) truncated at the
        # window, W^2/d^2 - 1 (an 11% chance of an empty ring at W = 1.3 d);
        # Kolmogorov-Smirnov distance of 1e5 realizations below 0.01
        cfg = NetworkConfig(1.0, 1.0, 4.0)
        r2_far = _collect_stats(cfg, window, seed=0, n_realizations=100_000)[OPT].r2_noise
        t = np.sort(r2_far[np.isfinite(r2_far)] - 1.0)
        model = np.expm1(-cfg.mu * t) / np.expm1(-cfg.mu * (window * window - 1.0))
        n = len(t)
        ks = max(np.max(np.arange(1, n + 1) / n - model), np.max(model - np.arange(0, n) / n))
        assert ks < 0.01

    def test_requires_enough_realizations(self):
        with pytest.raises(ValueError):
            estimate_cognitive(CFG, DecodingRule.IAN, n_realizations=50, seed=0)

    def test_closest_only_matches_analytic(self):
        cfg = NetworkConfig(0.1, 1.0, 4.0)
        est = estimate_cognitive(cfg, DecodingRule.IAN, mode="closest",
                                 n_realizations=3000, seed=17)
        analytic = ian.cognitive_throughput(cfg).value
        assert abs(est.mean - analytic) < 4.0 * est.stderr

    def test_closest_only_matches_analytic_at_sparse_density(self):
        # mu = 3.1e-5: an isolated link's rate often exceeds 30 bits, and a
        # cap there would pull the estimate about 28 sigma low
        cfg = NetworkConfig(1e-5, 1.0, 4.0)
        est = estimate_cognitive(cfg, DecodingRule.IAN, mode="closest",
                                 n_realizations=20_000, seed=19)
        analytic = ian.cognitive_throughput(cfg).value
        assert abs(est.mean - analytic) < 4.0 * est.stderr

    def test_full_below_closest_on_average(self):
        cfg = NetworkConfig(0.3, 1.0, 4.0)
        full = estimate_cognitive(cfg, DecodingRule.IAN, mode="full", n_realizations=2000, seed=3)
        clo = estimate_cognitive(cfg, DecodingRule.IAN, mode="closest", n_realizations=2000, seed=3)
        assert full.mean <= clo.mean

    def test_stderr_scales_with_realizations(self):
        small = estimate_cognitive(CFG, DecodingRule.IAN, n_realizations=400, seed=21)
        large = estimate_cognitive(CFG, DecodingRule.IAN, n_realizations=800, seed=22)
        ratio = small.stderr / large.stderr
        assert math.sqrt(2.0) * 0.8 <= ratio <= math.sqrt(2.0) * 1.2

    def test_window_sufficiency(self):
        # same realizations drawn to twice the default window: replacing the
        # ring between the two by its mean moves the estimate by far less
        # than one standard error
        cfg = NetworkConfig(1.0, 1.0, 4.0)
        w = simulation.default_window_radius(cfg)
        rates_big, rates_small = [], []
        for seed in range(300):
            # one realization of the plane within 2w per seed: a Poisson
            # count, then uniform squared radii
            count = _rng(seed, 0).poisson(cfg.lam * math.pi * 4.0 * w * w)
            r = 2.0 * w * np.sqrt(_rng(seed, 1).random(count))
            rates_big.append(rate(r, IAN, cfg=cfg, far=far_mean(cfg, 2.0 * w)))
            rates_small.append(rate(r[r <= w], IAN, cfg=cfg, far=far_mean(cfg, w)))
        gap = cfg.lam * abs(np.mean(rates_big) - np.mean(rates_small))
        stderr = cfg.lam * np.std(rates_big, ddof=1) / math.sqrt(len(rates_big))
        assert gap < stderr


class TestScaleInvariance:
    """The kernel works in units of d, so the rates depend on (lam, d) only
    through mu: at (lam/s^2, s*d) every estimate is s^-2 times the one at
    (lam, d), also where d^-alpha or s^-2 leaves the double range."""

    @staticmethod
    def estimates(cfg):
        out = []
        for rule in DecodingRule:
            for mode in _INTERFERENCE_MODES:
                out.append(estimate_cognitive(cfg, rule, mode, 200, 3))
            sol = fixed_rate.highest_throughput(cfg, rule)
            out.append(estimate_fixed_rate(cfg, sol, 200, 3))
        return out

    @pytest.mark.parametrize("s", [1e-100, 1e100])
    @pytest.mark.parametrize("lam,alpha", [(1.0, 4.0), (0.3183, 60.0)])
    def test_estimates_depend_on_mu_only(self, lam, alpha, s):
        want = self.estimates(NetworkConfig(lam, 1.0, alpha))
        got = self.estimates(NetworkConfig(lam / s**2, s, alpha))
        assert any(w.mean > 0 for w in want)
        for g, w in zip(got, want):
            assert g.mean == pytest.approx(w.mean / s**2, rel=1e-12, abs=0.0)
            assert g.stderr == pytest.approx(w.stderr / s**2, rel=1e-12, abs=0.0)


class TestEstimateFixedRate:
    def test_closest_only_matches_analytic(self):
        cfg = NetworkConfig(0.1, 1.0, 4.0)
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.IAN)
        est = estimate_fixed_rate(cfg, sol, n_realizations=3000,
                                  seed=29, mode="closest")
        assert abs(est.mean - sol.throughput.value) < 4.0 * est.stderr

    def test_rate_above_cap_is_achievable(self):
        # at lam = 1e-7 the optimal fixed rate is 35.9 bits; a cap at 30 bits
        # on finite rates would make every realization an outage
        cfg = NetworkConfig(1e-7, 1.0, 4.0)
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.IAN)
        assert sol.rates[0] > 30.0
        est = estimate_fixed_rate(cfg, sol, n_realizations=20_000,
                                  seed=23, mode="closest")
        assert abs(est.mean - sol.throughput.value) < 4.0 * est.stderr

    def test_full_below_closest(self):
        cfg = NetworkConfig(0.3, 1.0, 4.0)
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.IAN)
        full = estimate_fixed_rate(cfg, sol, 2000, seed=4, mode="full")
        clo = estimate_fixed_rate(cfg, sol, 2000, seed=4, mode="closest")
        assert full.mean <= clo.mean

    def test_unreachable_threshold_gives_zero(self):
        huge = fixed_rate.FixedRateSolution(
            rule=DecodingRule.IAN,
            sir_thresholds=np.array([1e9]),
            rates=np.array([math.log2(1.0 + 1e9)]),
            throughput=ThroughputValue(0.0),
            at_boundary=np.array([False]),
        )
        est = estimate_fixed_rate(CFG, huge, 500, seed=1)
        assert est.mean == 0.0

    def test_count_past_table_is_outage(self):
        # a window just past d leaves most realizations without a noise-set
        # interferer, so their closest-only rate is inf; a decode count past
        # the one-entry table is an outage all the same
        sol = fixed_rate.FixedRateSolution(
            rule=DecodingRule.OPT,
            sir_thresholds=np.array([math.sqrt(2.0) - 1.0]),
            rates=np.array([0.5]),
            throughput=ThroughputValue(0.0),
            at_boundary=np.array([False]),
        )
        est = estimate_fixed_rate(CFG, sol, n_realizations=200, seed=1, mode="closest",
                                  window_radius=1.01)
        view = simulation._sample(CFG, 200, 1, 1.01)[OPT]
        rates = _rates_from_stats(CFG, view, "closest")
        assert np.any((view.n > 0) & np.isinf(rates))
        # only a count of 0 has a table entry, met where the rate reaches it
        contrib = np.where((view.n == 0) & (rates >= 0.5), 0.5, 0.0)
        assert est.mean > 0
        assert est.mean == pytest.approx(CFG.lam * contrib.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(CFG.lam * contrib.std(ddof=1) / math.sqrt(200),
                                           rel=1e-12)

    def test_opt_consistency(self):
        cfg = NetworkConfig(0.2, 1.0, 4.0)
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.OPT)
        est = estimate_fixed_rate(cfg, sol, n_realizations=3000,
                                  seed=31, mode="closest")
        assert abs(est.mean - sol.throughput.value) < 4.0 * est.stderr


class TestEstimateTypes:
    @pytest.mark.parametrize("window", [0.0, 0.5, -5.0, math.nan])
    def test_window_must_exceed_link_distance(self, window):
        # a window not above d leaves the noise set empty or cut short, and a
        # negative radius would be squared into a valid-looking one
        cfg = NetworkConfig(1.0, 1.0, 4.0)
        sol = fixed_rate.highest_throughput(cfg, DecodingRule.IAN)
        with pytest.raises(ValueError, match="window_radius"):
            estimate_cognitive(cfg, DecodingRule.IAN, n_realizations=100, window_radius=window)
        with pytest.raises(ValueError, match="window_radius"):
            estimate_fixed_rate(cfg, sol, n_realizations=100,
                                window_radius=window)
        with pytest.raises(ValueError, match="window_radius"):
            tightness_report([cfg], n_realizations=100, window_radius=window)

    def test_overflowed_window_is_numerical_failure(self):
        # the default window's (W/d)^2 = 64*pi/mu overflows below mu ~ 1.1e-306:
        # valid input the sampler cannot draw, not a usage error
        cfg = NetworkConfig(3e-307, 1.0, 2.05)
        with pytest.raises(ArithmeticError, match=r"\(W/d\)\^2 overflows .* mu = 9.42"):
            estimate_cognitive(cfg, IAN, n_realizations=100)

    def test_rule_value_reads_as_its_rule(self):
        # "ian" is the noise rule, not whatever rule is not the joint one
        by_value = estimate_cognitive(CFG, "ian", n_realizations=200)
        assert by_value == estimate_cognitive(CFG, IAN, n_realizations=200)
        assert by_value.mean < estimate_cognitive(CFG, OPT, n_realizations=200).mean

    def test_unknown_rule_is_value_error(self):
        sol = fixed_rate.highest_throughput(CFG, OPT)
        bogus = fixed_rate.FixedRateSolution("bogus", sol.sir_thresholds, sol.rates,
                                             sol.throughput, sol.at_boundary)
        with pytest.raises(ValueError, match="bogus"):
            estimate_cognitive(CFG, "bogus", n_realizations=200)
        with pytest.raises(ValueError, match="bogus"):
            estimate_fixed_rate(CFG, bogus, n_realizations=200)

    def test_bad_input_raises_before_the_draw(self, monkeypatch):
        # a bad rule or mode costs no pass: 20 000 dense realizations would
        # take about half a second to draw before the error
        def no_draw(*args, **kwargs):
            raise AssertionError("a pass was drawn")

        simulation._sample.cache_clear()  # a kept pass would hide a draw
        monkeypatch.setattr(simulation, "_collect_stats", no_draw)
        cfg = NetworkConfig(30.0, 1.0, 4.0)
        sol = fixed_rate.highest_throughput(cfg, IAN)
        bogus = fixed_rate.FixedRateSolution("bogus", sol.sir_thresholds, sol.rates,
                                             sol.throughput, sol.at_boundary)
        n = 20_000
        with pytest.raises(ValueError, match="'closest_only'"):
            estimate_cognitive(cfg, IAN, mode="closest_only", n_realizations=n)
        with pytest.raises(ValueError, match="bogus"):
            estimate_cognitive(cfg, "bogus", n_realizations=n)
        with pytest.raises(ValueError, match="'closest_only'"):
            estimate_fixed_rate(cfg, sol, n_realizations=n, mode="closest_only")
        with pytest.raises(ValueError, match="bogus"):
            estimate_fixed_rate(cfg, bogus, n_realizations=n)
        # the report reads both rules in full-interference mode; what it is
        # given, the window and the realization count, is checked first too
        with pytest.raises(ValueError, match="window_radius"):
            tightness_report([cfg], n_realizations=n, window_radius=0.5)
        with pytest.raises(ValueError, match="realizations"):
            tightness_report([cfg], n_realizations=50)

    def test_estimate_validation(self):
        for bad in (-1.0, math.nan, math.inf):
            # a value past the double range is a failed computation, not bad input
            error = ValueError if math.isfinite(bad) else ArithmeticError
            with pytest.raises(error, match="mean"):
                SimulationEstimate(bad, 0.0)
            with pytest.raises(error, match="stderr"):
                SimulationEstimate(1.0, bad)


class TestTightnessReport:
    def test_small_grid(self):
        cfgs = [NetworkConfig(lam, 1.0, 4.0) for lam in (0.02, 0.2)]
        rows = tightness_report(cfgs, n_realizations=400, seed=13)
        assert [r["lam"] for r in rows] == [0.02, 0.2]
        for r in rows:
            assert r["c_opt_simulated"] >= r["c_ian_simulated"]
            assert r["c_ian_simulated"] <= r["c_ian_analytic"]
            assert r["ratio_simulated"] == pytest.approx(
                r["c_ian_simulated"] / r["c_opt_simulated"], rel=1e-12)
            assert r["c_ian_stderr"] > 0 and r["c_opt_stderr"] > 0

    def test_columns_are_the_cognitive_estimates(self):
        # one power accounting: the report's simulated columns are what
        # estimate_cognitive returns at the same draw
        cfg = NetworkConfig(0.3183, 1.0, 4.0)
        row, = tightness_report([cfg], n_realizations=400, seed=13)
        for name, rule in (("ian", IAN), ("opt", OPT)):
            est = estimate_cognitive(cfg, rule, n_realizations=400, seed=13)
            assert (est.mean, est.stderr) == (row[f"c_{name}_simulated"], row[f"c_{name}_stderr"])


# the 200-node Gauss-Legendre rule, moved to (0, pi)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(200)
_THETA, _THETA_W = np.pi / 2.0 * (_NODES + 1.0), np.pi / 2.0 * _WEIGHTS


def _zolotarev_a(theta, delta):
    return ((np.sin(delta * theta) / np.sin(theta)) ** (1.0 / (1.0 - delta))
            * np.sin((1.0 - delta) * theta) / np.sin(delta * theta))


def stable_cdf(x, delta):
    """P[S <= x] of the positive delta-stable S with E[exp(-s*S)] =
    exp(-s^delta), by Zolotarev's integral (1/pi) * int_0^pi
    exp(-x^(-delta/(1-delta)) * A(theta)) dtheta (Zolotarev, One-dimensional
    Stable Distributions, AMS 1986; Kanter, Ann. Probab. 3(4), 1975)."""
    t = np.asarray(x, dtype=float) ** (-delta / (1.0 - delta))
    return np.exp(-np.multiply.outer(t, _zolotarev_a(_THETA, delta))) @ _THETA_W / np.pi


def full_sir_ccdf(cfg, b):
    """P[SIR >= b] of the noise rule under full interference: in units of
    d^-alpha the interference is (mu*Gamma(1-delta))^(1/delta) * S, delta = 2/alpha."""
    delta = 2.0 / cfg.alpha
    scale = (cfg.mu * math.gamma(1.0 - delta)) ** (1.0 / delta)
    return stable_cdf(1.0 / (np.asarray(b, dtype=float) * scale), delta)


def test_stable_cdf_oracle():
    # the Levy law at delta = 1/2 ...
    x = np.geomspace(0.01, 1e4, 7)
    err = np.abs(stable_cdf(x, 0.5) - [math.erfc(1.0 / (2.0 * math.sqrt(v))) for v in x])
    # ... to 1e-12 up to x = 100; past it the integrand's layer at theta = pi,
    # about x^-1/2 wide, thins toward the rule's node spacing there (2.8e-11
    # at x = 1e3, 3.6e-9 at 1e4), still far inside the laws' tests
    assert np.all(err[x <= 100.0] < 1e-12) and np.all(err < 1e-8)
    # ... and adaptive quadrature of the same integral elsewhere
    for delta in (0.8, 1.0 / 3.0, 0.1):
        for v in (0.05, 0.3, 1.0, 3.0):
            t = v ** (-delta / (1.0 - delta))
            ref = quad(lambda th: math.exp(-t * _zolotarev_a(th, delta)), 0.0, math.pi,
                       epsabs=0.0, epsrel=1e-12, limit=200)[0] / math.pi
            assert abs(stable_cdf(v, delta) - ref) < 1e-12, (delta, v)


class TestNoiseRuleExactLaw:
    """The noise rule's full-plane interference, in units of d^-alpha, is
    (mu*Gamma(1-delta))^(1/delta) times a positive delta-stable variable,
    delta = 2/alpha (Haenggi & Ganti, FnT 2009, sec. 3), so full_sir_ccdf
    gives P[SIR >= b] and P[R <= x] = 1 - P[SIR >= 2^x - 1]; at alpha = 4
    this is the Levy law.  Both tests read one pass of 20 000 realizations
    per cell, seed 37; the plane beyond the window enters as its mean, far
    below either test's resolution."""

    N, SEED = 20_000, 37

    @pytest.fixture(scope="class", params=[2.5, 4.0, 6.0, 20.0], ids="alpha{}".format)
    def alpha(self, request):
        return request.param

    @pytest.fixture(scope="class", params=[0.01, 0.3183, 3.0], ids="lam{}".format)
    def cfg(self, request, alpha):
        # class scope runs both tests at one cell in turn, so the second
        # reads the pass the first drew
        return NetworkConfig(request.param, 1.0, alpha)

    def test_rate_law(self, cfg):
        # Kolmogorov-Smirnov distance below 1.63/sqrt(n), the 1% critical value
        view = simulation._sample(cfg, self.N, self.SEED, None)[IAN]
        x = np.sort(_rates_from_stats(cfg, view, "full"))
        model = 1.0 - full_sir_ccdf(cfg, np.expm1(x * math.log(2.0)))  # SIR = 2^x - 1
        n = len(x)
        ks = max(np.max(np.arange(1, n + 1) / n - model), np.max(model - np.arange(0, n) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_fixed_rate_success_law(self, cfg):
        # the full-interference estimate at the optimal threshold b of the
        # closest-interferer model, against lam*log2(1 + b)*P[SIR >= b]
        sol = fixed_rate.highest_throughput(cfg, IAN)
        b = sol.sir_thresholds[0]
        est = estimate_fixed_rate(cfg, sol, self.N, self.SEED, "full")
        success = float(full_sir_ccdf(cfg, b))
        if est.mean == 0.0:
            # no realization succeeds: the law must make that near certain
            assert self.N * success < 1e-3
        else:
            exact = cfg.lam * math.log2(1.0 + b) * success
            assert abs(est.mean - exact) <= 4.0 * est.stderr
