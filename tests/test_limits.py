import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, poisson

from superpose_net import (
    GenConfig,
    HypothesisViolation,
    InvalidLambda,
    LayerTypeDistribution,
    LimitParams,
    MemoryBudgetExceeded,
    Pmf1D,
    RateUnderflow,
    ZeroEdgeMass,
    bidegree_distribution,
    compound_poisson_pmf,
    fprime2_pmf,
    generate_graph,
    increment_pmf,
    kendall,
    limiting_degree_pmf,
    limiting_laws,
    limiting_moments,
    pearson_correlation,
    size_biased,
    spearman,
    tail_prediction,
)
from superpose_net import limits as limits_mod
from superpose_net.limits import _binomial_windows
from superpose_net.pmf import pmf_to_csv

from laws import marginal, moment, random_tabular


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


def list_cpoi(lam, g, tail_epsilon=1e-10):
    """Reference: the compound Poisson recursion with f kept in a list."""
    gk = np.trim_zeros(g, "b")
    kk = np.arange(len(gk)) * gk
    f = [math.exp(-lam * (1.0 - gk[0]))]
    acc = f[0]
    s = 0
    while 1.0 - acc >= tail_epsilon:
        s += 1
        lo = max(0, s - len(gk) + 1)
        val = (lam / s) * float(kk[1 : s - lo + 1] @ np.asarray(f[lo:s][::-1]))
        f.append(val)
        acc += val
    return np.array(f), max(0.0, 1.0 - math.fsum(f))


TWO_FOUR = LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)])


def dense_rows(trials, y):
    """Rows of P(Bin(trials[i], y) = k) over k = 0..trials[i] from the windowed
    kernel, zero outside each window."""
    out = np.zeros((len(trials), int(trials.max()) + 1))
    for row, k, value in _binomial_windows(trials, np.full(len(trials), y), np.ones(len(trials))):
        out[row, k] = value
    return out


def kernel_at(trials, y, k):
    """The windowed kernel's P(Bin(trials[i], y) = k[i]), zero outside the window."""
    out = np.zeros(len(trials))
    for row, kk, value in _binomial_windows(trials, np.full(len(trials), y), np.ones(len(trials))):
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
    def test_constant_2_1(self):
        g = increment_pmf(LimitParams(1.0, LayerTypeDistribution.constant(2, 1.0)))
        assert g.probs == pytest.approx([0.0, 1.0])

    def test_constant_3_half(self):
        g = increment_pmf(LimitParams(1.0, LayerTypeDistribution.constant(3, 0.5)))
        assert g.probs == pytest.approx([0.25, 0.5, 0.25])

    def test_two_atom_mixture(self):
        g = increment_pmf(LimitParams(1.0, TWO_FOUR))
        assert g.probs == pytest.approx([0.0, 1 / 3, 0.0, 2 / 3])


class TestCompoundPoisson:
    def test_poisson_special_case(self):
        f = compound_poisson_pmf(1.0, Pmf1D(np.array([0.0, 1.0])))
        assert f.probs[0] == pytest.approx(math.exp(-1))
        assert f.probs[: 8] == pytest.approx(poisson.pmf(np.arange(8), 1.0), abs=1e-12)

    def test_zero_increments(self):
        f = compound_poisson_pmf(3.0, Pmf1D(np.array([1.0])))
        assert f.probs.tolist() == [1.0]

    def test_thinning_identity(self):
        # rate 2 with Bernoulli(1/2) increments is Poisson(1)
        f = compound_poisson_pmf(2.0, Pmf1D(np.array([0.5, 0.5])))
        oracle = brute_force_cpoi(2.0, np.array([0.5, 0.5]))
        assert np.max(np.abs(f.probs - oracle[: len(f.probs)])) < 1e-12
        assert f.probs[:8] == pytest.approx(poisson.pmf(np.arange(8), 1.0), abs=1e-12)

    def test_brute_force_agreement(self, rng):
        for lam in (0.3, 1.7, 5.0):
            w = rng.random(rng.integers(2, 12))
            g = w / w.sum()
            f = compound_poisson_pmf(lam, Pmf1D(g))
            oracle = brute_force_cpoi(lam, g)
            width = min(len(f.probs), len(oracle))
            assert np.max(np.abs(f.probs[:width] - oracle[:width])) < 1e-10

    @pytest.mark.parametrize("mu, dist", [
        (1.3, TWO_FOUR),
        (1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 1000)),
        (1e-5, LayerTypeDistribution.constant(2000, 0.5)),
    ], ids=["two_four", "power_law_1000", "long_constant_2000"])
    def test_equals_the_list_recursion(self, mu, dist):
        params = LimitParams(mu, dist)
        g = increment_pmf(params)
        lam = mu * dist.sizes @ dist.probs
        f = compound_poisson_pmf(lam, g)
        want, defect = list_cpoi(lam, g.probs)
        assert np.array_equal(f.probs, want)
        assert f.mass_defect == defect

    def test_long_increment_law_is_fast(self):
        params = LimitParams(1e-5, LayerTypeDistribution.constant(10_000, 0.5))
        start = time.perf_counter()
        limiting_degree_pmf(params)
        assert time.perf_counter() - start < 1.0

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            compound_poisson_pmf(0.0, Pmf1D(np.array([0.5, 0.5])))

    def test_truncation_defect_recorded(self):
        f = compound_poisson_pmf(2.0, Pmf1D(np.array([0.0, 1.0])), tail_epsilon=1e-4)
        assert 0 < f.mass_defect < 1e-4


class TestLimitingDegree:
    def test_poisson_case(self):
        f = limiting_degree_pmf(LimitParams(0.5, LayerTypeDistribution.constant(2, 1.0)))
        assert f.probs[:10] == pytest.approx(poisson.pmf(np.arange(10), 1.0), abs=1e-12)

    def test_zero_strength_is_delta0(self):
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.constant(5, 0.0)))
        assert f.probs.tolist() == [1.0]

    def test_empty_layers_are_delta0(self):
        params = LimitParams(1.0, LayerTypeDistribution.constant(0, 0.5))
        f = limiting_degree_pmf(params)
        assert f.probs.tolist() == [1.0] and f.mass_defect == 0.0
        with pytest.raises(ValueError, match="mean layer size is zero"):
            increment_pmf(params)

    def test_mean_is_mu_p21(self):
        f = limiting_degree_pmf(LimitParams(1.0, LayerTypeDistribution.constant(3, 0.5)))
        assert moment(f, 1) == pytest.approx(3.0, abs=1e-8)


class TestRateUnderflow:
    def test_underflowing_zero_mass_raises_quickly(self):
        # lambda = mu * P_10 = 1000, so exp(-lambda (1 - g(0))) is 0.0
        params = LimitParams(1.0, LayerTypeDistribution.constant(1000, 0.5))
        start = time.perf_counter()
        with pytest.raises(RateUnderflow):
            limiting_degree_pmf(params)
        assert time.perf_counter() - start < 1.0

    def test_largest_representable_rate_still_works(self):
        f = compound_poisson_pmf(700.0, Pmf1D(np.array([0.0, 1.0])))
        assert f.probs[0] > 0
        assert moment(f, 1) == pytest.approx(700.0, rel=1e-8)


class TestFprime2:
    def test_constant_3_unit(self):
        f = fprime2_pmf(LimitParams(1.0, LayerTypeDistribution.constant(3, 1.0)))
        assert f.probs[1, 1] == pytest.approx(1.0)

    def test_constant_4_half(self):
        f = fprime2_pmf(LimitParams(1.0, LayerTypeDistribution.constant(4, 0.5)))
        assert f.probs[1, 1] == pytest.approx(0.25)

    def test_size_two_is_delta00(self):
        f = fprime2_pmf(LimitParams(1.0, LayerTypeDistribution.constant(2, 0.7)))
        assert f.probs[0, 0] == pytest.approx(1.0)

    def test_symmetry(self, rng):
        d = random_tabular(rng)
        f = fprime2_pmf(LimitParams(1.0, d))
        assert np.array_equal(f.probs, f.probs.T)


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

    @pytest.mark.parametrize("functional, copies", [(kendall, 3.1), (spearman, 1.1)], ids=["kendall", "spearman"])
    def test_rank_correlations_hold_a_few_copies_of_the_law(self, functional, copies):
        """kendall's three arrays the size of the law are what its budget
        check counts; spearman holds one, the normalised occupied law."""
        f2 = limiting_laws(self.PARAMS)[1]
        peak = self.traced_peak(lambda: functional(f2))
        assert peak <= copies * f2.probs.nbytes

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
            except ZeroEdgeMass:
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
        assert tail_prediction(1.0, d).marginal_exponent == pytest.approx(2.0)
        d2 = LayerTypeDistribution.power_law(2.5, 0.6, 1.0, 1, 100)
        assert tail_prediction(1.0, d2).marginal_exponent == pytest.approx(1.25)

    def test_hypothesis_violation(self):
        d = LayerTypeDistribution.power_law(2.5, 0.4, 1.0, 1, 100)
        with pytest.raises(HypothesisViolation):
            tail_prediction(1.0, d)

    def test_all_violations_reported(self):
        d = LayerTypeDistribution.power_law(2.5, 0.0, 2.0, 1, 100)
        with pytest.raises(HypothesisViolation) as exc:
            tail_prediction(1.0, d)
        assert len(exc.value.violations) == 2  # alpha+beta, b

    def test_constants_positive(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 2000)
        pred = tail_prediction(1.0, d)
        assert pred.c_prime > 0 and pred.c_double_prime > 0

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_mu_rejected(self, mu):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 100)
        with pytest.raises(ValueError, match="mu must be positive"):
            tail_prediction(mu, d)

    def test_edgeless_law_is_zero_edge_mass(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 1)  # every layer has one node
        with pytest.raises(ZeroEdgeMass):
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
        sb = size_biased(Pmf1D(f1.probs / f1.probs.sum()))
        slope, _ = tail_slope_fit(sb, (20, 200))
        pred = tail_prediction(1.0, d)
        assert abs(slope - pred.marginal_exponent) < 0.15
