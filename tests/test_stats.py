import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, spearmanr

from superpose_net import (
    Degenerate,
    GenConfig,
    GraphSample,
    LayerTypeDistribution,
    Pmf,
    bidegree_counts,
    bidegree_distribution,
    degree_distribution,
    generate_graph,
    kendall,
    layer_subgraph_counts,
    pearson_correlation,
    size_biased,
    spearman,
)
from superpose_net import errors, generate, pmf
from superpose_net.generate import LayerTable
from superpose_net.pmf import FUNCTIONALS, functionals, pmf1d_from_csv, pmf_to_csv

from laws import marginal


def path3():
    return GraphSample(n=3, edges=np.array([[1, 2], [2, 3]]))


def k4():
    return GraphSample(n=4, edges=np.array(
        [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]))


def complete(n):
    i, j = np.triu_indices(n, 1)
    return GraphSample(n=n, edges=np.column_stack([i + 1, j + 1]))


def star(leaves):
    return GraphSample(n=leaves + 1, edges=np.column_stack([np.ones(leaves, dtype=np.int64), np.arange(2, leaves + 2)]))


def pmf2(entries):
    s_max = max(k[0] for k in entries)
    t_max = max(k[1] for k in entries)
    probs = np.zeros((s_max + 1, t_max + 1))
    for (s, t), p in entries.items():
        probs[s, t] = p
    return Pmf(probs)


def product_pmf(f, g):
    joint = np.outer(f.probs, g.probs)
    defect = 1.0 - (1.0 - f.mass_defect) * (1.0 - g.mass_defect)
    return Pmf(joint, defect)


def pmf2d_from_csv(path):
    entries = {}
    defect = 0.0
    with open(path) as fh:
        next(fh)
        for line in fh:
            line = line.strip()
            if line.startswith("# mass_defect="):
                defect = float(line.split("=", 1)[1])
            elif line:
                s, t, p = line.split(",")
                entries[(int(s), int(t))] = float(p)
    s_max = max(k[0] for k in entries) if entries else 0
    t_max = max(k[1] for k in entries) if entries else 0
    probs = np.zeros((s_max + 1, t_max + 1))
    for (s, t), p in entries.items():
        probs[s, t] = p
    return Pmf(probs, defect)


def joint_pmfs(max_val=4):
    cell = st.floats(min_value=0.0, max_value=1.0)
    def normalize(flat):
        arr = np.array(flat).reshape(max_val + 1, max_val + 1)
        if arr.sum() == 0:
            arr[0, 0] = 1.0
        return Pmf(arr / arr.sum())
    return st.lists(cell, min_size=(max_val + 1) ** 2, max_size=(max_val + 1) ** 2).map(normalize)


class TestDegreeDistribution:
    def test_empty_graph_is_delta0(self):
        g = GraphSample(n=5, edges=np.empty((0, 2), dtype=np.int64))
        assert degree_distribution(g).probs.tolist() == [1.0]

    def test_path(self):
        f = degree_distribution(path3())
        assert f.probs == pytest.approx([0.0, 2 / 3, 1 / 3])

    def test_complete(self):
        f = degree_distribution(k4())
        assert f.probs.tolist() == [0, 0, 0, 1.0]


class TestBidegreeDistribution:
    def test_path(self):
        f = bidegree_distribution(path3())
        assert f.probs[1, 2] == pytest.approx(0.5)
        assert f.probs[2, 1] == pytest.approx(0.5)
        assert f.probs.sum() == pytest.approx(1.0)

    def test_complete(self):
        f = bidegree_distribution(k4())
        assert f.probs[3, 3] == pytest.approx(1.0)

    def test_single_edge(self):
        g = GraphSample(n=2, edges=np.array([[1, 2]]))
        f = bidegree_distribution(g)
        assert f.probs[1, 1] == pytest.approx(1.0)

    def test_empty_raises(self):
        g = GraphSample(n=3, edges=np.empty((0, 2), dtype=np.int64))
        with pytest.raises(Degenerate):
            bidegree_distribution(g)

    def test_symmetry_and_marginals(self):
        d = LayerTypeDistribution.tabular([(3, 0.8, 0.6), (6, 0.3, 0.4)])
        g = generate_graph(GenConfig(n=200, mu=1.0, seed=4), d)
        f2 = bidegree_distribution(g)
        assert np.allclose(f2.probs, f2.probs.T)
        sb = size_biased(degree_distribution(g))
        marg = marginal(f2, 0)
        width = max(len(sb.probs), len(marg.probs))
        a = np.zeros(width); a[: len(sb.probs)] = sb.probs
        b = np.zeros(width); b[: len(marg.probs)] = marg.probs
        assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("graph", [
        lambda: complete(1000),
        lambda: star(2000),
        lambda: generate_graph(GenConfig(n=2000, layers=400, seed=1), LayerTypeDistribution.constant(200, 0.5)),
        lambda: generate_graph(GenConfig(n=100_000, mu=1.0, seed=1),
                               LayerTypeDistribution.power_law(3, 0.5, 1, 1, 2000)),
    ], ids=["complete_1000", "star_2000_leaves", "constant_200_half_seed_1", "sparse_power_law_seed_1"])
    def test_peak_is_within_the_counted_bytes(self, monkeypatch, graph):
        """With the degrees already read, the bytes tracemalloc sees at the
        peak of bidegree_counts stay under what it counts, and the count is
        at most twice the peak: the table and its symmetric sum on dense
        graphs (K_1000, a 2000-leaf star, 1.73 M edges on degrees up to
        1932), and the codes of 49 823 edges on degrees up to 31."""
        g = graph()
        g.degrees
        counted = []
        monkeypatch.setattr(generate, "check_memory", lambda need, what: counted.append(need))
        tracemalloc.start()
        try:
            bidegree_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[0] <= 2 * peak


class TestSizeBiased:
    def test_point_mass_fixed(self):
        assert size_biased(Pmf(np.array([0, 0, 0, 1.0]))).probs[3] == 1.0

    def test_two_point(self):
        f = Pmf(np.array([0.0, 2 / 3, 1 / 3]))
        assert size_biased(f).probs == pytest.approx([0, 0.5, 0.5])

    def test_delta0_raises(self):
        with pytest.raises(Degenerate):
            size_biased(Pmf(np.array([1.0])))

    def test_negative_mass_is_refused(self):
        with pytest.raises(ValueError, match="negative probability mass"):
            Pmf(np.array([1.5, -0.5]))


class TestPearson:
    def test_path_is_minus_one(self):
        assert pearson_correlation(bidegree_distribution(path3())) == pytest.approx(-1.0)

    def test_regular_graph_degenerate(self):
        with pytest.raises(Degenerate):
            pearson_correlation(bidegree_distribution(k4()))

    def test_product_is_zero(self):
        g = Pmf(np.array([0.3, 0.5, 0.2]))
        assert pearson_correlation(product_pmf(g, g)) == pytest.approx(0.0, abs=1e-14)

    @given(joint_pmfs())
    @settings(max_examples=150, deadline=None)
    def test_transpose_invariance_and_range(self, f):
        try:
            rho = pearson_correlation(f)
        except Degenerate:
            return
        assert -1 - 1e-9 <= rho <= 1 + 1e-9
        assert pearson_correlation(Pmf(f.probs.T)) == pytest.approx(rho, abs=1e-12)


class TestKendall:
    def test_comonotone(self):
        assert kendall(pmf2({(0, 0): 0.5, (1, 1): 0.5})) == pytest.approx(1.0)

    def test_antimonotone(self):
        assert kendall(pmf2({(0, 1): 0.5, (1, 0): 0.5})) == pytest.approx(-1.0)

    def test_product_is_zero(self):
        g = Pmf(np.array([0.2, 0.3, 0.5]))
        assert kendall(product_pmf(g, g)) == pytest.approx(0.0, abs=1e-14)

    @staticmethod
    def by_enumeration(probs) -> float:
        """Brute force over all ((u1,u2),(z1,z2)) support pairs."""
        rows, cols = probs.shape
        num = 0.0
        for u1 in range(rows):
            for u2 in range(cols):
                for z1 in range(rows):
                    for z2 in range(cols):
                        num += probs[u1, u2] * probs[z1, z2] * np.sign(u1 - z1) * np.sign(u2 - z2)
        m1, m2 = probs.sum(axis=1), probs.sum(axis=0)
        return num / np.sqrt((1 - m1 @ m1) * (1 - m2 @ m2))

    def test_exhaustive_enumeration_oracle(self, rng):
        probs = rng.random((4, 4))
        f = Pmf(probs / probs.sum())
        assert kendall(f) == pytest.approx(self.by_enumeration(f.probs), abs=1e-12)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_block_seams_match_the_oracle(self, rng, monkeypatch, rows_per_block):
        """Blocks of 1 to 3 rows carry the column sums across every seam,
        past tied rows, all-zero rows and repeated values alike."""
        for _ in range(12):
            probs = rng.integers(0, 4, size=rng.integers(4, 8, size=2)).astype(float)
            probs[rng.integers(len(probs))] = probs[0]  # a tied row
            probs[rng.integers(len(probs))] = 0.0  # an all-zero row
            f = Pmf(probs / probs.sum())
            occupied_cols = np.count_nonzero(f.probs.sum(axis=0))
            monkeypatch.setattr(pmf, "_BLOCK_CELLS", rows_per_block * occupied_cols)
            assert kendall(f) == pytest.approx(self.by_enumeration(f.probs), abs=1e-12)

    @given(joint_pmfs())
    @settings(max_examples=150, deadline=None)
    def test_range(self, f):
        try:
            tau = kendall(f)
        except Degenerate:
            return
        assert -1 - 1e-9 <= tau <= 1 + 1e-9


class TestSpearman:
    def test_comonotone(self):
        assert spearman(pmf2({(0, 0): 0.5, (1, 1): 0.5})) == pytest.approx(1.0)

    def test_antimonotone(self):
        assert spearman(pmf2({(0, 1): 0.5, (1, 0): 0.5})) == pytest.approx(-1.0)

    def test_product_is_zero(self):
        g = Pmf(np.array([0.1, 0.4, 0.5]))
        assert spearman(product_pmf(g, g)) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            spearman(pmf2({(1, 0): 0.5, (1, 1): 0.5}))


class TestFunctionals:
    def test_point_mass_is_none_with_a_reason(self):
        got = functionals(pmf2({(2, 2): 1.0}), FUNCTIONALS)
        assert got == {
            "assortativity": None, "assortativity_degenerate": "marginal variance is zero",
            "kendall": None, "kendall_degenerate": "a marginal is a point mass",
            "spearman": None, "spearman_degenerate": "a marginal is a point mass",
        }

    def test_law_without_mass_is_none_with_a_reason(self):
        got = functionals(Pmf(np.zeros((2, 2)), mass_defect=1.0), FUNCTIONALS)
        reason = "pmf carries no mass on its support"
        assert got == {name: None for name in FUNCTIONALS} | {f"{name}_degenerate": reason for name in FUNCTIONALS}

    def test_regular_law_is_bit_equal_to_the_table(self):
        f = pmf2({(0, 0): 0.2, (1, 1): 0.3, (1, 2): 0.1, (2, 1): 0.1, (3, 3): 0.3})
        assert functionals(f, FUNCTIONALS) == {name: fn(f) for name, fn in FUNCTIONALS.items()}

    @given(joint_pmfs(), st.lists(st.integers(0, 5), max_size=8), st.lists(st.integers(0, 5), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_rank_functionals_ignore_empty_rows_and_columns(self, f, rows, cols):
        padded = Pmf(np.insert(np.insert(f.probs, rows, 0.0, axis=0), cols, 0.0, axis=1))
        for rank in (kendall, spearman):
            try:
                want = rank(f)
            except Degenerate:
                continue
            assert rank(padded) == pytest.approx(want, abs=1e-14)

    def test_a_hub_costs_only_its_occupied_support(self, monkeypatch):
        """A star's bidegree law is dense up to the hub's degree but holds
        mass on two rows and two columns; the functionals allocate, and
        check against the budget, for those alone."""
        leaves = 2000
        edges = np.column_stack([np.ones(leaves, dtype=np.int64), np.arange(2, leaves + 2)])
        f2 = bidegree_distribution(GraphSample(n=leaves + 1, edges=edges))
        monkeypatch.setattr(errors, "MEMORY_BUDGET", f2.probs.nbytes)
        tracemalloc.start()
        try:
            got = functionals(f2, FUNCTIONALS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx({"assortativity": -1.0, "kendall": -1.0, "spearman": -1.0}, abs=1e-12)
        assert peak < 1 << 20


def pair_functionals(s, t):
    """Pearson, Kendall tau-b and Spearman over both orientations of each
    edge: an independent route to the pmf functionals."""
    x, y = np.concatenate([s, t]), np.concatenate([t, s])
    return np.corrcoef(x, y)[0, 1], kendalltau(x, y, variant="b").statistic, spearmanr(x, y).statistic


def sampled_graph():
    """A graph's bidegree law and the endpoint degrees of its edges."""
    d = LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)])
    g = generate_graph(GenConfig(n=2000, mu=1.0, seed=77), d)
    deg = g.degrees
    return bidegree_distribution(g), deg[g.edges[:, 0] - 1], deg[g.edges[:, 1] - 1]


def sparse_support():
    """Pairs over eight values scattered in 0..59, and their law over both
    orientations: all-zero rows and columns lie between the occupied ones."""
    rng = np.random.default_rng(13)
    values = np.sort(rng.choice(60, size=8, replace=False))
    s, t = values[rng.integers(0, 8, size=(2, 300))]
    probs = np.zeros((60, 60))
    np.add.at(probs, (np.concatenate([s, t]), np.concatenate([t, s])), 1.0 / 600)
    return Pmf(probs), s, t


class TestStreamingAgreement:
    @pytest.mark.parametrize("case", [sampled_graph, sparse_support])
    def test_pmf_and_pair_routes_agree(self, case):
        f2, s, t = case()
        rho, tau, rs = pair_functionals(s, t)
        assert pearson_correlation(f2) == pytest.approx(rho, abs=1e-12)
        assert kendall(f2) == pytest.approx(tau, abs=1e-12)
        assert spearman(f2) == pytest.approx(rs, abs=1e-12)


def one_layer(nodes, edges) -> LayerTable:
    return LayerTable(size=np.array([len(nodes)]), strength=np.array([1.0]), links=np.array([len(edges)]),
                      nodes=np.array(nodes), edges=np.array(edges))


class TestLayerSubgraphCounts:
    def test_triangle(self):
        sc = layer_subgraph_counts(one_layer([1, 2, 3], [[1, 2], [1, 3], [2, 3]]))
        assert (sc["links"], sc["two_stars"], sc["three_stars"]) == (3, 3, 0)

    def test_three_star(self):
        sc = layer_subgraph_counts(one_layer([1, 2, 3, 4], [[1, 2], [1, 3], [1, 4]]))
        assert (sc["links"], sc["two_stars"], sc["three_stars"]) == (3, 3, 1)

    def test_complete_layers_exact(self):
        d = LayerTypeDistribution.constant(4, 1.0)
        g = generate_graph(GenConfig(n=50, layers=200, seed=6, keep_layer_records=True), d)
        sc = layer_subgraph_counts(g.layer_records)
        assert (sc["links"], sc["two_stars"], sc["three_stars"]) == (6.0, 12.0, 4.0)

    @pytest.mark.parametrize("dist, n", [
        (LayerTypeDistribution.power_law(3, 0.5, 1, 1, 300), 2_000),
        (LayerTypeDistribution.tabular([(1, 0.5, 0.2), (5, 0.0, 0.2), (7, 0.6, 0.3), (80, 0.9, 0.3)]), 300),
        (LayerTypeDistribution.tabular([(3, 0.7, 0.5), (500, 0.02, 0.5)]), 200),
    ], ids=["power_law", "edgeless_atoms", "size_above_n"])
    def test_equals_the_per_layer_loop(self, dist, n):
        table = generate_graph(GenConfig(n=n, mu=1.0, seed=4, keep_layer_records=True), dist).layer_records
        links, two, three = [], [], []
        for edges in np.split(table.edges, np.cumsum(table.links)[:-1]):
            deg = np.bincount(edges.ravel()).astype(float)
            links.append(len(edges))
            two.append(float(np.sum(deg * (deg - 1) / 2)))
            three.append(float(np.sum(deg * (deg - 1) * (deg - 2) / 6)))
        sc = layer_subgraph_counts(table)
        assert (sc["links"], sc["two_stars"], sc["three_stars"]) == (np.mean(links), np.mean(two), np.mean(three))

    def test_missing_records(self):
        from superpose_net import MissingRecords

        with pytest.raises(MissingRecords):
            layer_subgraph_counts(None)


class TestCsv:
    def test_pmf1d_round_trip(self, tmp_path):
        f = Pmf(np.array([0.25, 0.5, 0.125]), mass_defect=0.125)
        path = tmp_path / "f.csv"
        pmf_to_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,prob"
        assert lines[-1].startswith("# mass_defect=")
        back = pmf1d_from_csv(path)
        assert np.array_equal(back.probs, f.probs)
        assert back.mass_defect == f.mass_defect

    def test_pmf2d_round_trip(self, tmp_path):
        f = Pmf(np.array([[0.5, 0.25], [0.25, 0.0]]))
        path = tmp_path / "f2.csv"
        pmf_to_csv(f, path)
        assert path.read_text().splitlines()[0] == "s,t,prob"
        back = pmf2d_from_csv(path)
        assert np.array_equal(back.probs, f.probs)
