import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpose_net import (
    GenConfig,
    LayerTypeDistribution,
    ZeroEdgeMass,
    cross_moment,
    edge_biased_distribution,
    generate_graph,
)

from laws import atoms


def tabular_dists():
    atom = st.tuples(
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    def normalize(atoms):
        total = sum(a[2] for a in atoms)
        return LayerTypeDistribution.tabular((x, y, w / total) for x, y, w in atoms)
    return st.lists(atom, min_size=1, max_size=6).map(normalize)


def loop_cross_moment(dist, r, s):
    """cross_moment as a loop over the atoms with exact integer (x)_r."""
    return math.fsum(math.prod(range(x - r + 1, x + 1)) * y**s * p
                     for x, y, p in atoms(dist) if x >= r and p > 0)


def loop_edge_biased(dist):
    """edge_biased_distribution as a loop through the tabular family."""
    p21 = loop_cross_moment(dist, 2, 1)
    return LayerTypeDistribution.tabular(
        (x, y, x * (x - 1) * y * p / p21) for x, y, p in atoms(dist) if x >= 2 and y > 0 and p > 0)


def wide_dists():
    """Tabular laws with sizes up to 9.4e7, where (x)_2 is still exact in a
    double, and power laws."""
    atom = st.tuples(st.integers(0, 94_000_000), st.floats(0.0, 1.0), st.floats(1e-3, 1.0))
    tabular = st.lists(atom, min_size=1, max_size=40).map(
        lambda atoms: LayerTypeDistribution.tabular(
            (x, y, w / math.fsum(a[2] for a in atoms)) for x, y, w in atoms))
    power_law = st.builds(LayerTypeDistribution.power_law, st.floats(2.1, 4.0), st.floats(0.0, 0.9),
                          st.floats(0.1, 2.0), st.just(1), st.integers(1, 3000))
    return st.one_of(tabular, power_law)


class TestAtoms:
    def test_rejects_bad_atom(self):
        """Both constructors check each atom's size and strength."""
        bad = [((3.5, 0.5), "layer size must be an integer >= 0, got 3.5"),
               ((-1, 0.5), "layer size must be an integer >= 0, got -1"),
               ((3, 1.5), "layer strength must be in [0,1], got 1.5")]
        for (x, y), message in bad:
            for build in (lambda: LayerTypeDistribution.constant(x, y),
                          lambda: LayerTypeDistribution.tabular([(x, y, 1.0)])):
                with pytest.raises(ValueError, match=re.escape(message)):
                    build()

    def test_constant_is_one_tabular_atom(self):
        c = LayerTypeDistribution.constant(4, 0.5)
        t = LayerTypeDistribution.tabular([(4, 0.5, 1)])
        assert c.family == "constant" and c.params == t.params
        for name in ("sizes", "strengths", "probs"):
            a, b = getattr(c, name), getattr(t, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


class TestCrossMoment:
    def test_constant(self):
        d = LayerTypeDistribution.constant(3, 1.0)
        assert cross_moment(d, 2, 1) == 6.0

    def test_tabular_two_atoms(self):
        d = LayerTypeDistribution.tabular([(2, 0.5, 0.5), (4, 0.25, 0.5)])
        # (2)_2*0.5*0.5 + (4)_2*0.25*0.5
        assert cross_moment(d, 2, 1) == pytest.approx(2.0, abs=1e-14)

    def test_vanishes_beyond_max_size(self):
        d = LayerTypeDistribution.tabular([(2, 0.9, 0.7), (3, 0.1, 0.3)])
        assert cross_moment(d, 4, 0) == 0.0
        assert cross_moment(d, 4, 2) == 0.0

    @given(tabular_dists(), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_strength_power(self, d, r, s):
        assert cross_moment(d, r, s + 1) <= cross_moment(d, r, s) + 1e-12

    @given(tabular_dists())
    @settings(max_examples=300, deadline=None)
    def test_bivariate_moment_inequality(self, d):
        lhs = cross_moment(d, 3, 2) ** 2
        rhs = cross_moment(d, 2, 1) * (cross_moment(d, 4, 3) + cross_moment(d, 3, 3))
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def record_types(dist, n, layers, seed):
    """The (size, strength) atom of every layer of one sampled graph, from its table."""
    t = generate_graph(GenConfig(n=n, layers=layers, seed=seed, keep_layer_records=True), dist).layer_records
    return list(zip(t.size.tolist(), t.strength.tolist()))


class TestSampling:
    """The layer types the sampler draws, as its records show them."""

    def test_constant_is_degenerate(self):
        d = LayerTypeDistribution.constant(3, 0.5)
        assert record_types(d, 20, 10, seed=1) == [(3, 0.5)] * 10

    def test_single_atom_tabular(self):
        d = LayerTypeDistribution.tabular([(5, 0.2, 1.0)])
        assert record_types(d, 20, 1, seed=1) == [(5, 0.2)]

    def test_power_law_frequencies_match_normalization(self):
        d = LayerTypeDistribution.power_law(2.5, 0.5, 1.0, 1, 1000)
        draws = 200_000
        seen = np.bincount([x for x, _ in record_types(d, 1000, draws, seed=2)], minlength=1001)
        # exact truncated-zeta normalization as oracle
        for x in (1, 2, 3, 5, 10):
            p = d.probs[int(np.searchsorted(d.sizes, x))]
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(seen[x] / draws - p) < 3 * se + 1e-12

    def test_power_law_strengths(self):
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 100)
        i = int(np.searchsorted(d.sizes, 4))
        assert d.strengths[i] == pytest.approx(0.5)
        assert d.strengths[0] == 1.0


class TestEdgeBiased:
    def test_constant_invariant(self):
        d = LayerTypeDistribution.constant(4, 0.5)
        biased = edge_biased_distribution(d)
        assert atoms(biased) == [(4, 0.5, 1.0)]

    def test_two_atom_reweighting(self):
        d = LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)])
        biased = edge_biased_distribution(d)
        probs = {(x, y): p for x, y, p in atoms(biased)}
        assert probs[(2, 1.0)] == pytest.approx(1 / 7)
        assert probs[(4, 1.0)] == pytest.approx(6 / 7)

    def test_zero_edge_mass(self):
        d = LayerTypeDistribution.tabular([(1, 0.9, 1.0)])
        with pytest.raises(ZeroEdgeMass):
            edge_biased_distribution(d)

    @given(tabular_dists())
    @settings(max_examples=200, deadline=None)
    def test_output_normalized_without_small_atoms(self, d):
        try:
            biased = edge_biased_distribution(d)
        except ZeroEdgeMass:
            return
        assert math.fsum(p for _, _, p in atoms(biased)) == pytest.approx(1.0, abs=1e-12)
        assert all(x >= 2 for x, _, _ in atoms(biased))


class TestConstruction:
    def test_duplicate_atoms_merged(self):
        d = LayerTypeDistribution.tabular([(3, 0.5, 0.25), (3, 0.5, 0.25), (2, 0.1, 0.5)])
        assert len(d.probs) == 2
        assert cross_moment(d, 1, 0) == pytest.approx(3 * 0.5 + 2 * 0.5)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LayerTypeDistribution.tabular([(3, 0.5, 0.6)])

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            LayerTypeDistribution.power_law(2.0, 0.5, 1.0, 1, 100)
        with pytest.raises(ValueError):
            LayerTypeDistribution.power_law(2.5, 1.0, 1.0, 1, 100)
        with pytest.raises(ValueError):
            LayerTypeDistribution.power_law(2.5, 0.5, 1.0, 5, 4)

    @given(wide_dists())
    @settings(max_examples=150, deadline=None)
    def test_vectorised_moments_equal_the_atom_loop(self, d):
        for r in range(1, 5):
            for s in range(4):
                assert cross_moment(d, r, s) == loop_cross_moment(d, r, s)
        if loop_cross_moment(d, 2, 1) > 0:
            biased, reference = edge_biased_distribution(d), loop_edge_biased(d)
            for name in ("sizes", "strengths", "probs"):
                assert np.array_equal(getattr(biased, name), getattr(reference, name))
