import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, poisson

from superpose_net import (
    Degenerate,
    GenConfig,
    HypothesisViolation,
    LayerTypeDistribution,
    LimitParams,
    MemoryBudgetExceeded,
    Pmf,
    RateUnderflow,
    bidegree_distribution,
    edge_mass,
    generate_graph,
    kendall,
    limit_values,
    limiting_degree_pmf,
    limiting_laws,
    limiting_moments,
    pearson_correlation,
    size_biased,
    spearman,
    tail_prediction,
)
from superpose_net import limits as limits_mod
from superpose_net.limits import _binomial_windows, _degree_law, _own_layer
from superpose_net.pmf import pmf_to_csv

from laws import marginal, moment, random_tabular, reference_increment


def brute_force_cpoi(lam, g, j_max=None):
    """Oracle: sum_j Poi(lam)(j) * g^{*j} by explicit convolution powers."""
    if j_max is None:
        j_max = int(poisson.isf(1e-16, lam)) + 2
    width = (len(g) - 1) * j_max + 1
    out = np.zeros(width)
    conv = np.zeros(width)
    conv[0] = 1.0  # g^{*0}
    for j in range(j_max + 1):
        out += poisson.pmf(j, lam) * conv
        conv = np.convolve(conv, g)[:width]
    return out


def list_degree_law(nu, m, tail_epsilon=1e-10):
    """Reference: the degree recursion on the own-layer law m, with f kept in a list."""
    f = [math.exp(-nu * float(m @ (1.0 / np.arange(1, len(m) + 1))))]
    acc = f[0]
    s = 0
    while 1.0 - acc >= tail_epsilon:
        s += 1
        lo = max(0, s - len(m))
        val = (nu / s) * float(m[: s - lo] @ np.asarray(f[lo:s][::-1]))
        f.append(val)
        acc += val
    return np.array(f), max(0.0, 1.0 - math.fsum(f))


def own_layer_marginal(dist):
    """m', the law of the extra degree an edge's own layer gives one endpoint."""
    return _own_layer(dist, joint=False)[0]


TWO_FOUR = LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)])


def dense_rows(trials, y):
    """Rows of P(Bin(trials[i], y) = k) over k = 0..trials[i] from the windowed
    kernel, zero outside each window."""
    out = np.zeros((len(trials), int(trials.max()) + 1))
    for row, k, value in _binomial_windows(trials, np.full(len(trials), y)):
        out[row, k] = value
    return out


def kernel_at(trials, y, k):
    """The windowed kernel's P(Bin(trials[i], y) = k[i]), zero outside the window."""
    out = np.zeros(len(trials))
    for row, kk, value in _binomial_windows(trials, np.full(len(trials), y)):
        hit = kk == k[row]
        out[row[hit]] = value[hit]
    return out


@pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
def test_limit_params_need_a_finite_positive_mu(mu):
    with pytest.raises(ValueError, match="mu must be positive"):
        LimitParams(mu, TWO_FOUR)


class TestBinomialKernel:
    """The windowed binomial pmf of the limit engine against scipy's."""

    STRENGTHS = (0.0, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.99, 1.0)

    @pytest.mark.parametrize("y", STRENGTHS)
    def test_every_k_up_to_2000_trials(self, y):
        for first in range(0, 2001, 500):
            trials = np.arange(first, min(first + 500, 2001))
            got = dense_rows(trials, y)
            k = np.arange(got.shape[1])
            assert np.abs(got - binom.pmf(k, trials[:, None], y)).max() <= 1e-14

    def test_relative_accuracy_at_the_mode(self):
        n = np.array([1, 2, 3, 7, 16, 100, 1000, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9])
        for y in self.STRENGTHS:
            k = np.minimum(((n + 1) * y).astype(np.int64), n)
            assert np.abs(kernel_at(n, y, k) / binom.pmf(k, n, y) - 1).max() <= 1e-12


class TestIncrementPmf:
    """The own-layer law m', which stands in for the increment law: the
    Bin(x-2, y) mixture under the edge-biased weights (x)_2 y P(x, y) / P_21."""

    def test_constant_2_1(self):
        assert own_layer_marginal(LayerTypeDistribution.constant(2, 1.0)) == pytest.approx([1.0])

    def test_constant_3_half(self):
        assert own_layer_marginal(LayerTypeDistribution.constant(3, 0.5)) == pytest.approx([0.5, 0.5])

    def test_two_atom_mixture(self):
        # edge-biased weights 2 * 1/2 and 12 * 1/2: 1/7 on Bin(0, 1), 6/7 on Bin(2, 1)
        assert own_layer_marginal(TWO_FOUR) == pytest.approx([1 / 7, 0.0, 6 / 7])


class TestCompoundPoisson:
    """The degree law is compound Poisson with rate mu * P_10 and the
    increment law; the engine reaches it by the recursion on m'."""

    def test_poisson_special_case(self):
        # m' = [1]: every own layer has two nodes, so f(s) = (nu / s) f(s - 1)
        f = _degree_law(1.0, np.array([1.0]), 1e-10)
        assert f.probs[0] == pytest.approx(math.exp(-1))
        assert f.probs[: 8] == pytest.approx(poisson.pmf(np.arange(8), 1.0), abs=1e-12)

    def test_zero_increments(self):
        # the rate mu * P_10 is 3, but layers of one node add nothing to any degree
        f = limiting_degree_pmf(LimitParams(3.0, LayerTypeDistribution.constant(1, 0.5)))
        assert f.probs.tolist() == [1.0] and f.mass_defect == 0.0

    def test_thinning_identity(self):
        # rate mu * P_10 = 2 with Bernoulli(1/2) increments is Poisson(1)
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.constant(2, 0.5)))
        oracle = brute_force_cpoi(2.0, np.array([0.5, 0.5]))
        assert np.max(np.abs(f.probs - oracle[: len(f.probs)])) < 1e-12
        assert f.probs[:8] == pytest.approx(poisson.pmf(np.arange(8), 1.0), abs=1e-12)

    def test_brute_force_agreement(self, rng):
        for lam in (0.3, 1.7, 5.0):
            dist = random_tabular(rng, max_size=12)
            p10 = dist.sizes @ dist.probs
            f = limiting_degree_pmf(LimitParams(lam / p10, dist))
            oracle = brute_force_cpoi(lam, reference_increment(dist))
            width = min(len(f.probs), len(oracle))
            assert np.max(np.abs(f.probs[:width] - oracle[:width])) < 1e-10

    @pytest.mark.parametrize("mu, dist", [
        (1.3, TWO_FOUR),
        (1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 1000)),
        (1e-5, LayerTypeDistribution.constant(2000, 0.5)),
    ], ids=["two_four", "power_law_1000", "long_constant_2000"])
    def test_equals_the_list_recursion(self, mu, dist):
        params = LimitParams(mu, dist)
        m = own_layer_marginal(dist)
        f = limiting_degree_pmf(params)
        want, defect = list_degree_law(mu * edge_mass(dist), m)
        assert np.array_equal(f.probs, want)
        assert f.mass_defect == defect

    def test_long_increment_law_is_fast(self):
        params = LimitParams(1e-5, LayerTypeDistribution.constant(10_000, 0.5))
        start = time.perf_counter()
        limiting_degree_pmf(params)
        assert time.perf_counter() - start < 1.0

    def test_rate_overflowing_a_double_is_rate_underflow(self):
        # nu = mu * P_21 = 6e308 is inf, so f(0) = exp(-nu / 2) is 0
        with pytest.raises(RateUnderflow, match="nu = inf"):
            limiting_degree_pmf(LimitParams(1e308, LayerTypeDistribution.constant(3, 1.0)))

    def test_truncation_defect_recorded(self):
        f = _degree_law(2.0, np.array([1.0]), tail_epsilon=1e-4)
        assert 0 < f.mass_defect < 1e-4


class TestLimitingDegree:
    def test_poisson_case(self):
        f = limiting_degree_pmf(LimitParams(0.5, LayerTypeDistribution.constant(2, 1.0)))
        assert f.probs[:10] == pytest.approx(poisson.pmf(np.arange(10), 1.0), abs=1e-12)

    def test_zero_strength_is_delta0(self):
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.constant(5, 0.0)))
        assert f.probs.tolist() == [1.0]

    def test_empty_layers_are_delta0(self):
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.constant(0, 0.5)))
        assert f.probs.tolist() == [1.0] and f.mass_defect == 0.0

    def test_layers_with_nodes_but_no_edges_are_delta0(self):
        """P_10 > 0 and P_21 = 0, as in test_zero_increments: layers hold nodes but link none."""
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.tabular([(1, 0.5, 0.5), (4, 0.0, 0.5)])))
        assert f.probs.tolist() == [1.0] and f.mass_defect == 0.0

    def test_mean_is_mu_p21(self):
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.constant(3, 0.5)))
        assert moment(f, 1) == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("dist, eps", [
        (LayerTypeDistribution.constant(50, 0.3), 1e-15), (LayerTypeDistribution.constant(3, 0.5), 2.2e-16),
        (LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)]), 2.2e-16),
    ], ids=["constant_50_at_1e-15", "constant_3_at_2.2e-16", "two_atom_at_2.2e-16"])
    def test_a_tail_epsilon_below_rounding_stops_where_the_tail_is_small(self, dist, eps):
        """Rounding leaves 1 - sum f about 1e-14 above the law's true tail,
        so below that the law stops where its tail is provably at most
        eps, far short of the support cap, and records its sum's defect."""
        start = time.perf_counter()
        f = limiting_degree_pmf(LimitParams(1.0, dist, eps))
        assert time.perf_counter() - start < 0.5
        assert len(f.probs) < 10_000
        longer = limiting_degree_pmf(LimitParams(1.0, dist, 1e-300))
        assert longer.probs[: len(f.probs)].tolist() == f.probs.tolist()
        assert longer.probs[len(f.probs) :].sum() <= eps
        assert f.mass_defect == max(0.0, 1.0 - math.fsum(f.probs.tolist())) < 1e-13


class TestRateUnderflow:
    def test_underflowing_zero_mass_raises_quickly(self):
        # nu = mu * P_21 = 499500 and sum_j m'(j) / (j + 1) is about 1/500, so f(0) is exp(-999) = 0.0
        params = LimitParams(1.0, LayerTypeDistribution.constant(1000, 0.5))
        start = time.perf_counter()
        with pytest.raises(RateUnderflow):
            limiting_degree_pmf(params)
        assert time.perf_counter() - start < 1.0

    def test_largest_representable_rate_still_works(self):
        # nu = mu * P_21 = 700 with m' = [1], so f(0) = exp(-700)
        f = limiting_degree_pmf(LimitParams(350.0, LayerTypeDistribution.constant(2, 1.0)))
        assert f.probs[0] > 0
        assert moment(f, 1) == pytest.approx(700.0, rel=1e-8)


def fprime2(dist):
    """F'_2, the joint law of the two extra degrees an edge's own layer gives."""
    return _own_layer(dist, joint=True)[1]


class TestFprime2:
    def test_constant_3_unit(self):
        assert fprime2(LayerTypeDistribution.constant(3, 1.0))[1, 1] == pytest.approx(1.0)

    def test_constant_4_half(self):
        assert fprime2(LayerTypeDistribution.constant(4, 0.5))[1, 1] == pytest.approx(0.25)

    def test_size_two_is_delta00(self):
        assert fprime2(LayerTypeDistribution.constant(2, 0.7))[0, 0] == pytest.approx(1.0)

    def test_symmetry(self, rng):
        f = fprime2(random_tabular(rng))
        assert np.array_equal(f, f.T)


class TestLimitingBidegree:
    def test_poisson_product_case(self):
        f = limiting_laws(LimitParams(0.5, LayerTypeDistribution.constant(2, 1.0)))[1]
        assert f.probs[1, 1] == pytest.approx(math.exp(-2), abs=1e-10)

    def test_is_exactly_symmetric(self, rng):
        """The two endpoints of an edge are exchangeable, so f2 equals its
        transpose bit for bit, as the empirical law of a sampled graph does."""
        for dist in (random_tabular(rng), LayerTypeDistribution.constant(4, 0.5),
                     LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 300)):
            f2 = limiting_laws(LimitParams(1.0, dist))[1]
            assert np.array_equal(f2.probs, f2.probs.T)
        g = generate_graph(GenConfig(n=300, mu=1.0, seed=5), LayerTypeDistribution.constant(4, 0.5))
        f2 = bidegree_distribution(g)
        assert np.array_equal(f2.probs, f2.probs.T)

    def test_support_minimum_is_one_one(self, rng):
        d = random_tabular(rng)
        f = limiting_laws(LimitParams(1.0, d))[1]
        assert np.all(f.probs[0, :] == 0)
        assert np.all(f.probs[:, 0] == 0)

    def test_marginal_consistency(self, rng):
        for _ in range(5):
            d = random_tabular(rng, max_size=6)
            params = LimitParams(float(rng.uniform(0.3, 2.0)), d, tail_epsilon=1e-12)
            f2 = limiting_laws(params)[1]
            sb = size_biased(limiting_degree_pmf(params))
            marg = marginal(f2, 0)
            width = max(len(sb.probs), len(marg.probs))
            a = np.zeros(width); a[: len(sb.probs)] = sb.probs
            b = np.zeros(width); b[: len(marg.probs)] = marg.probs
            # the size-biased route renormalizes a truncated pmf, so allow
            # truncation error from both routes, not just f2's defect
            assert np.max(np.abs(a - b)) <= f2.mass_defect + 100 * params.tail_epsilon

    def test_windowed_law_at_x_max_1e4(self):
        params = LimitParams(1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 10_000))
        f1, f2 = limiting_laws(params)
        assert f2.probs.shape == (411, 411)
        marg = marginal(f2, 0).probs
        sb = np.zeros(len(marg))
        sb[: len(f1.probs)] = size_biased(f1).probs
        assert np.max(np.abs(sb - marg)) <= f2.mass_defect + 100 * params.tail_epsilon


class TestBidegreeMemoryBudget:
    def test_oversized_law_raises_before_allocating(self):
        d = LayerTypeDistribution.power_law(3.0, 0.0, 0.5, 1, 20_000)
        start = time.perf_counter()
        with pytest.raises(MemoryBudgetExceeded):
            limiting_laws(LimitParams(1.0, d))
        assert time.perf_counter() - start < 2.0

    def test_degree_law_alone_needs_no_bidegree_budget(self):
        """f1 is read off m', whose windows take 8 bytes a point, so the
        degree law of a layer law whose bidegree law is refused still runs."""
        f1 = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.power_law(3.0, 0.0, 0.5, 1, 20_000)))
        assert len(f1.probs) == 16_368


class TestTracedMemory:
    """Peak bytes that tracemalloc sees on the theory side, on constant(3,
    1/2) at mu = 300: K = 2, and f2 is 1147 x 1147, 10.5 MB."""

    PARAMS = LimitParams(300.0, LayerTypeDistribution.constant(3, 0.5))

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_limiting_laws_stays_within_its_budget_count(self, monkeypatch):
        """The check counts the arrays of K x width and width x width
        entries; what it leaves out, the degree law and other arrays of
        O(width) entries, stays under 1% of that."""
        counted = []
        monkeypatch.setattr(limits_mod, "check_memory", lambda need, what: counted.append(need))
        limiting_laws(self.PARAMS)  # builds the layer law's cached arrays outside the trace
        counted.clear()
        peak = self.traced_peak(lambda: limiting_laws(self.PARAMS))
        assert peak <= 1.01 * max(counted)

    @pytest.mark.parametrize("functional, copies", [(kendall, 1.3), (spearman, 1.1), (pearson_correlation, 1.1)],
                             ids=["kendall", "spearman", "pearson"])
    def test_rank_correlations_hold_a_few_copies_of_the_law(self, functional, copies):
        """Each functional holds one copy of the law, the normalised
        occupied support; kendall adds a block of rows' sums."""
        f2 = limiting_laws(self.PARAMS)[1]
        peak = self.traced_peak(lambda: functional(f2))
        assert peak <= copies * f2.probs.nbytes

    def test_rank_correlations_stay_within_the_budget_count(self, monkeypatch):
        """The laws' check counts f2 and one more array of its size, which
        is room for the one copy each rank correlation holds."""
        counted = []
        monkeypatch.setattr(limits_mod, "check_memory", lambda need, what: counted.append(need))
        limit_values(self.PARAMS, ("kendall", "spearman"))  # builds the layer law's cached arrays outside the trace
        counted.clear()
        peak = self.traced_peak(lambda: limit_values(self.PARAMS, ("kendall", "spearman")))
        assert peak <= 1.15 * max(counted)

    def test_theory_metrics_on_a_wide_own_layer_law_stay_within_the_budget_count(self, monkeypatch):
        """On power_law(3.5, 0, 1/2, 1, 2000) at mu = 1, F'_2 is 1231 x 1231
        and f2 2462 x 2462.  The peak of limit_values for theory's three
        metrics is limiting_laws' own: f2's product and its transposed sum
        beside T and F'_2, 127.3 MiB against a count of 150.3."""
        counted = []
        monkeypatch.setattr(limits_mod, "check_memory", lambda need, what: counted.append(need))
        params = LimitParams(1.0, LayerTypeDistribution.power_law(3.5, 0.0, 0.5, 1, 2000))
        peak = self.traced_peak(lambda: limit_values(params, ("assortativity", "kendall", "spearman")))
        assert peak <= max(counted)

    def test_pmf_to_csv_holds_under_twice_the_law(self, tmp_path):
        f2 = limiting_laws(self.PARAMS)[1]
        peak = self.traced_peak(lambda: pmf_to_csv(f2, tmp_path / "f2.csv"))
        assert peak <= 2 * f2.probs.nbytes


class TestAssortativity:
    @pytest.mark.parametrize("size,strength", [(3, 0.5), (4, 0.5), (5, 0.5), (3, 1.0), (4, 1.0), (5, 1.0)])
    def test_degenerate_layer_law_gives_zero(self, size, strength):
        d = LayerTypeDistribution.constant(size, strength)
        assert limiting_moments(LimitParams(1.0, d)).assortativity == pytest.approx(0.0, abs=1e-12)

    def test_worked_two_atom_value(self):
        assert limiting_moments(LimitParams(1.0, TWO_FOUR)).assortativity == pytest.approx(24 / 955, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(200):
            d = random_tabular(rng)
            try:
                val = limiting_moments(LimitParams(float(rng.uniform(0.1, 3.0)), d)).assortativity
            except Degenerate:
                continue
            assert val >= -1e-12

    def test_pearson_consistency(self):
        params = LimitParams(1.0, TWO_FOUR, tail_epsilon=1e-12)
        f2 = limiting_laws(params)[1]
        assert pearson_correlation(f2) == pytest.approx(limiting_moments(params).assortativity, abs=1e-6)

    def test_rank_correlations_settle_as_the_tail_grows(self):
        """power_law(3, 1/2, 1, 1, x_max) at mu = 1 for x_max = 1e3, 1e4,
        1e5: the closed-form assortativity keeps rising, while each step of
        Kendall's tau and of Spearman's rho is at most half the step before,
        so the rank correlations settle below 1."""
        ladder = []
        for x_max in (10**3, 10**4, 10**5):
            params = LimitParams(1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, x_max))
            f2 = limiting_laws(params)[1]
            ladder.append((limiting_moments(params).assortativity, kendall(f2), spearman(f2)))
        pearson, tau, rho = (np.array(column) for column in zip(*ladder))
        assert pearson == pytest.approx([0.7710, 0.9073, 0.9648], abs=1e-4)
        assert tau == pytest.approx([0.5321, 0.5644, 0.5745], abs=1e-4)
        assert rho == pytest.approx([0.6639, 0.6959, 0.7056], abs=1e-4)
        assert np.all(np.diff(pearson) > 0)
        for values in (tau, rho):
            steps = np.diff(values)
            assert 0 < steps[1] <= steps[0] / 2


class TestMoments:
    def test_mean_extra_degree(self):
        m = limiting_moments(LimitParams(1.0, LayerTypeDistribution.constant(3, 0.5)))
        assert m.e_dprime == pytest.approx(0.5)

    def test_size_two_no_extra_degree(self):
        m = limiting_moments(LimitParams(1.0, LayerTypeDistribution.constant(2, 1.0)))
        assert m.var_dprime == pytest.approx(0.0)

    def test_two_atom_covariance(self):
        m = limiting_moments(LimitParams(1.0, TWO_FOUR))
        assert m.cov_dprime == pytest.approx(24 / 49)

    def test_against_compound_poisson_pmf(self, rng):
        d = random_tabular(rng, max_size=6)
        params = LimitParams(1.3, d, tail_epsilon=1e-13)
        m = limiting_moments(params)
        f = limiting_degree_pmf(params)
        assert moment(f, 1) == pytest.approx(m.e_d, abs=1e-7)
        assert moment(f, 2) - moment(f, 1) ** 2 == pytest.approx(m.var_d, abs=1e-6)
        assert moment(f, 3) == pytest.approx(m.e_dstar3, rel=1e-6)

    def test_size_biased_second_moment_identity(self):
        params = LimitParams(1.0, TWO_FOUR, tail_epsilon=1e-13)
        f = limiting_degree_pmf(params)
        sb = size_biased(f)
        assert moment(sb, 2) == pytest.approx(moment(f, 3) / moment(f, 1), rel=1e-9)


class TestRankCorrelations:
    def test_product_case_is_zero(self):
        f2 = limiting_laws(LimitParams(1.0, LayerTypeDistribution.constant(2, 1.0)))[1]
        assert kendall(f2) == pytest.approx(0.0, abs=1e-9)
        assert spearman(f2) == pytest.approx(0.0, abs=1e-9)

    def test_two_atom_positive(self):
        f2 = limiting_laws(LimitParams(1.0, TWO_FOUR))[1]
        assert 0 < kendall(f2) < 1
        assert 0 < spearman(f2) < 1

    def test_truncation_stability(self):
        eps = 1e-10
        a = limiting_laws(LimitParams(1.0, TWO_FOUR, tail_epsilon=eps))[1]
        b = limiting_laws(LimitParams(1.0, TWO_FOUR, tail_epsilon=eps / 2))[1]
        assert abs(kendall(a) - kendall(b)) < 10 * eps
        assert abs(spearman(a) - spearman(b)) < 10 * eps


class TestTailPrediction:
    def test_exponent_examples(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 100)
        assert tail_prediction(1.0, d)["marginal_exponent"] == pytest.approx(2.0)
        d2 = LayerTypeDistribution.power_law(2.5, 0.6, 1.0, 1, 100)
        assert tail_prediction(1.0, d2)["marginal_exponent"] == pytest.approx(1.25)

    def test_hypothesis_violation(self):
        d = LayerTypeDistribution.power_law(2.5, 0.4, 1.0, 1, 100)
        with pytest.raises(HypothesisViolation):
            tail_prediction(1.0, d)

    def test_all_violations_reported(self):
        d = LayerTypeDistribution.power_law(2.5, 0.0, 2.0, 1, 100)
        with pytest.raises(HypothesisViolation) as exc:
            tail_prediction(1.0, d)
        assert str(exc.value) == "alpha + beta > 3 fails (alpha + beta = 2.5); b < 1 required when beta = 0 (b = 2.0)"

    def test_constants_positive(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 2000)
        pred = tail_prediction(1.0, d)
        assert pred["c_prime"] > 0 and pred["c_double_prime"] > 0

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_mu_rejected(self, mu):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 100)
        with pytest.raises(ValueError, match="mu must be positive"):
            tail_prediction(mu, d)

    def test_edgeless_law_is_zero_edge_mass(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 1)  # every layer has one node
        with pytest.raises(Degenerate):
            tail_prediction(1.0, d)

    def test_overflowing_constants_rejected(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1e308, 1, 100)
        with pytest.raises(ValueError, match="overflow"):
            tail_prediction(1.0, d)
        # mu * a**2 is inf, not an OverflowError
        with pytest.raises(ValueError, match="overflow"):
            tail_prediction(1e308, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 100))

    def test_tabular_law_rejected(self):
        with pytest.raises(ValueError, match="power_law"):
            tail_prediction(1.0, TWO_FOUR)


class TestTailValidityWindow:
    """The power-law slope of the limiting size-biased degree law matches
    the predicted exponent inside the window where layer sizes can still
    produce such degrees (t below roughly sqrt(x_max) for beta = 1/2)."""

    def test_exact_slope_with_large_size_cap(self):
        from superpose_net.study import tail_slope_fit

        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 100_000)
        params = LimitParams(1.0, d, tail_epsilon=1e-7)
        f1 = limiting_degree_pmf(params)
        sb = size_biased(Pmf(f1.probs / f1.probs.sum()))
        slope, _ = tail_slope_fit(sb, (20, 200))
        pred = tail_prediction(1.0, d)
        assert abs(slope - pred["marginal_exponent"]) < 0.15
