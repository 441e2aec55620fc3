import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import binom, chi2

from superpose_net import (
    GenConfig,
    InvalidEdgeList,
    LayerTypeDistribution,
    cross_moment,
    generate_graph,
    read_edge_list,
    write_edge_list,
)
from superpose_net import generate
from superpose_net.generate import _DENSE_STRENGTH, _unrank_pairs

from laws import SMALL_GRAPH_LAWS, edge_set_law


def layer_table(n, x, y, layers, seed):
    """The layer table of a constant-(x, y) graph of the given number of layers."""
    cfg = GenConfig(n=n, layers=layers, seed=seed, keep_layer_records=True)
    return generate_graph(cfg, LayerTypeDistribution.constant(x, y)).layer_records


class TestGenerateLayer:
    """One layer as the sampler records it."""

    def test_full_strength_full_size_is_complete(self):
        n = 8
        t = layer_table(n, n, 1.0, 1, seed=0)
        assert t.nodes.tolist() == list(range(1, n + 1))
        assert t.links.tolist() == [len(t.edges)] == [n * (n - 1) // 2]
        assert len({tuple(e) for e in t.edges.tolist()}) == len(t.edges)

    def test_zero_strength_is_empty(self):
        t = layer_table(20, 5, 0.0, 1, seed=0)
        assert len(t.nodes) == 5
        assert len(t.edges) == 0 and t.links.tolist() == [0]

    def test_mean_edge_count(self):
        reps = 20_000
        total = len(layer_table(50, 4, 0.5, reps, seed=7).edges)
        mean = total / reps
        se = math.sqrt(6 * 0.25 / reps)
        assert abs(mean - 3.0) < 3 * se

    def test_size_clamped_to_n(self):
        t = layer_table(5, 100, 0.3, 1, seed=0)
        assert t.nodes.tolist() == [1, 2, 3, 4, 5]
        assert t.size.tolist() == [5]

    def test_node_inclusion_uniform(self):
        n, x, reps = 20, 6, 20_000
        hits = np.bincount(layer_table(n, x, 0.0, reps, seed=3).nodes - 1, minlength=n)
        p = x / n
        se = math.sqrt(p * (1 - p) / reps)
        assert np.all(np.abs(hits / reps - p) < 4 * se)

    def test_edge_probability_identity(self):
        # chance that a fixed pair is linked by one layer: P_21 / (n)_2
        n, reps = 30, 40_000
        e = layer_table(n, 5, 0.6, reps, seed=11).edges
        hits = np.count_nonzero((e[:, 0] == 1) & (e[:, 1] == 2))  # a layer's edges are distinct
        p = 5 * 4 * 0.6 / (n * (n - 1))
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(hits / reps - p) < 3 * se

    @pytest.mark.parametrize("x", [3, 4])
    def test_every_subset_equally_likely(self, x):
        # x = 3 redraws repeated slots; x = 4 > 7 / 2 draws the complement
        n, reps = 7, 7000
        subsets = list(combinations(range(1, n + 1), x))
        counts = dict.fromkeys(subsets, 0)
        for nodes in layer_table(n, x, 0.0, reps, seed=17).nodes.reshape(reps, x).tolist():
            counts[tuple(nodes)] += 1
        assert sum(counts.values()) == reps
        expected = reps / len(subsets)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.999, len(subsets) - 1)

    @pytest.mark.parametrize("y", [0.1, 0.5])
    def test_edge_count_is_binomial(self, y):
        # one walk runs over the pairs of many layers back to back: a bias at
        # a layer's first or last pair would skew the per-layer counts
        assert (y > _DENSE_STRENGTH) == (y == 0.5)
        x, reps = 60, 5000
        npairs = x * (x - 1) // 2
        t = layer_table(100, x, y, reps, seed=23)
        # each endpoint's place among its layer's sorted nodes, from node
        # keys that sort layer by layer
        width = 101
        layer = np.repeat(np.arange(reps), t.links)[:, None]
        i, j = (np.searchsorted(np.arange(reps).repeat(x) * width + t.nodes, layer * width + t.edges) - layer * x).T
        pair = i * (2 * x - i - 1) // 2 + j - i - 1
        first_last = np.array([np.count_nonzero(pair == 0), np.count_nonzero(pair == npairs - 1)])
        assert np.all(np.abs(first_last - reps * y) < 4 * math.sqrt(reps * y * (1 - y)))
        counts = np.bincount(t.links, minlength=npairs + 1)
        pmf = binom.pmf(np.arange(npairs + 1), npairs, y)
        # pool the tails until every cell expects at least 5 layers
        lo, hi = binom.ppf([5 / reps, 1 - 5 / reps], npairs, y).astype(int)
        observed = np.concatenate([[counts[:lo].sum()], counts[lo:hi], [counts[hi:].sum()]])
        expected = reps * np.concatenate([[pmf[:lo].sum()], pmf[lo:hi], [pmf[hi:].sum()]])
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, len(observed) - 1)


class TestUnrankPairs:
    @pytest.mark.parametrize("x", [300_000_000, 1_000_000_000])
    def test_exact_at_row_boundaries(self, x):
        # first and last pair of 2e5 rows spread over the whole triangle
        rows = np.unique(np.linspace(0, x - 2, 200_000).astype(np.int64))
        first = rows * (2 * x - rows - 1) // 2
        r, c = _unrank_pairs(np.concatenate([first, first + x - rows - 2]), x)
        assert np.array_equal(r, np.concatenate([rows, rows]))
        assert np.array_equal(c, np.concatenate([rows + 1, np.full(len(rows), x - 1)]))

    def test_small_triangle_in_order(self):
        x = 7
        r, c = _unrank_pairs(np.arange(x * (x - 1) // 2), x)
        assert list(zip(r.tolist(), c.tolist())) == [(i, j) for i in range(x) for j in range(i + 1, x)]


class TestGenerateGraph:
    def test_single_complete_layer(self):
        d = LayerTypeDistribution.constant(6, 1.0)
        g = generate_graph(GenConfig(n=6, layers=1, seed=1), d)
        assert g.edge_count == 15

    def test_zero_strength_empty(self):
        d = LayerTypeDistribution.constant(4, 0.0)
        g = generate_graph(GenConfig(n=50, layers=100, seed=1), d)
        assert g.edge_count == 0

    def test_tiny_strength_draws_no_edges(self):
        # a geometric skip of 2^63 - 1 once overflowed the walk over the pairs
        d = LayerTypeDistribution.constant(100, 1e-300)
        assert generate_graph(GenConfig(n=100, layers=100, seed=7), d).edge_count == 0

    def test_per_layer_link_draw_mean(self):
        # mean raw (multiplicity) edge draws per layer -> P_21 / 2
        d = LayerTypeDistribution.constant(3, 0.5)
        cfg = GenConfig(n=1000, layers=1000, seed=5, keep_layer_records=True)
        g = generate_graph(cfg, d)
        draws = g.layer_records.links.astype(float)
        target = cross_moment(d, 2, 1) / 2
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - target) < 3 * se

    def test_per_layer_link_draw_mean_mixed_sizes(self):
        # a small dense atom and a large sparse one
        d = LayerTypeDistribution.tabular([(3, 0.7, 0.5), (144, 0.1, 0.5)])
        cfg = GenConfig(n=1000, layers=4000, seed=8, keep_layer_records=True)
        g = generate_graph(cfg, d)
        draws = g.layer_records.links.astype(float)
        assert set(g.layer_records.size.tolist()) == {3, 144}
        target = cross_moment(d, 2, 1) / 2
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - target) < 3 * se

    def test_handshake(self):
        d = LayerTypeDistribution.tabular([(3, 0.7, 0.5), (6, 0.2, 0.5)])
        g = generate_graph(GenConfig(n=300, mu=1.5, seed=9), d)
        assert g.degrees.sum() == 2 * g.edge_count

    def test_edges_sorted_dedup_in_range(self):
        d = LayerTypeDistribution.tabular([(4, 0.9, 0.5), (8, 0.5, 0.5)])
        g = generate_graph(GenConfig(n=60, layers=200, seed=2), d)
        e = g.edges
        assert np.all(e[:, 0] < e[:, 1])
        assert np.all((e >= 1) & (e <= g.n))
        codes = (e[:, 0] - 1) * g.n + e[:, 1] - 1
        assert np.all(np.diff(codes) > 0)

    def test_union_of_layer_records_equals_edges(self):
        d = LayerTypeDistribution.tabular([(3, 0.8, 0.5), (5, 0.4, 0.5)])
        g = generate_graph(GenConfig(n=40, layers=150, seed=3, keep_layer_records=True), d)
        union = set(map(tuple, g.layer_records.edges.tolist()))
        assert union == set(map(tuple, g.edges.tolist()))

    def test_every_size_from_zero_to_n(self):
        # sizes above n / 2 draw the complement of their node subset
        n = 12
        d = LayerTypeDistribution.tabular([(x, 0.5, 1 / (n + 1)) for x in range(n + 1)])
        g = generate_graph(GenConfig(n=n, layers=400, seed=4, keep_layer_records=True), d)
        t = g.layer_records
        assert len(t.nodes) == t.size.sum() and len(t.edges) == t.links.sum()
        for nodes, edges in zip(np.split(t.nodes, np.cumsum(t.size)[:-1]), np.split(t.edges, np.cumsum(t.links)[:-1])):
            assert np.all(np.diff(nodes) > 0) and np.all((nodes >= 1) & (nodes <= n))
            assert np.all(np.isin(edges, nodes)) and np.all(edges[:, 0] < edges[:, 1])
        assert set(t.size.tolist()) == set(range(n + 1))
        assert set(map(tuple, t.edges.tolist())) == set(map(tuple, g.edges.tolist()))

    def test_records_are_not_grouped_by_atom(self):
        # in an iid sequence of two equally likely types, each neighbour
        # pair differs with chance 1/2
        d = LayerTypeDistribution.tabular([(3, 0.5, 0.5), (4, 0.0, 0.5)])
        g = generate_graph(GenConfig(n=30, layers=2001, seed=13, keep_layer_records=True), d)
        changes = np.count_nonzero(np.diff(g.layer_records.size))
        assert abs(changes - 1000) < 4 * math.sqrt(2000 / 4)

    def test_edges_do_not_depend_on_records(self):
        # layers of size 0 or 1 and of strength 0 draw nodes only when recorded
        d = LayerTypeDistribution.tabular(
            [(0, 0.5, 0.1), (1, 0.5, 0.2), (6, 0.0, 0.3), (4, 0.6, 0.2), (9, 0.2, 0.2)])
        plain, kept = (generate_graph(GenConfig(n=50, layers=500, seed=31, keep_layer_records=keep), d)
                       for keep in (False, True))
        assert kept.edges.tobytes() == plain.edges.tobytes()
        assert len(kept.layer_records.size) == 500
        assert set(kept.layer_records.size.tolist()) == {0, 1, 4, 6, 9}

    def test_records_peak_is_within_the_sampler_budget(self, monkeypatch):
        """The bytes tracemalloc sees at the peak of generate_graph on a
        mid-size power law stay under what check_sampler_budget counts, and
        so do the bytes that keeping the layer table adds."""
        d = LayerTypeDistribution.power_law(3, 0.5, 1, 1, 10_000)
        counted = []
        monkeypatch.setattr(generate, "check_memory", lambda need, what: counted.append(need))
        peaks = []
        for keep in (False, True):
            tracemalloc.start()
            try:
                generate_graph(GenConfig(n=200_000, mu=1.0, seed=1, keep_layer_records=keep), d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= counted[1]
        assert peaks[1] - peaks[0] <= counted[1] - counted[0]

    @pytest.mark.parametrize("d, n, m, seed", [
        (LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)]), 2_000_000, 2_000_000, 1),
        (LayerTypeDistribution.constant(50, 0.1), 1000, 20_000, 1),
        (LayerTypeDistribution.constant(50, 0.01), 1000, 20_000, 1),
        (LayerTypeDistribution.constant(900, 0.001), 1000, 20_000, 1),
        (LayerTypeDistribution.constant(900, 0.001), 1000, 20_000, 2),
        (LayerTypeDistribution.constant(3000, 0.001), 1_000_000, 20, 1),
        (LayerTypeDistribution.constant(3000, 0.001), 1_000_000, 20, 2),
    ], ids=["two_atom_n_2e6", "constant_50_on_1000_nodes", "sparse_constant_50_on_1000_nodes",
            "2000_blocks_seed_1", "2000_blocks_seed_2", "20_blocks_on_1e6_nodes_seed_1",
            "20_blocks_on_1e6_nodes_seed_2"])
    def test_peak_is_within_the_sampler_budget(self, monkeypatch, d, n, m, seed):
        """Without records, the bytes tracemalloc sees at the peak of
        generate_graph stay under what check_sampler_budget counts: one
        block of dense layers as it codes its pairs, the union of codes
        that mostly differ (n = 2e6) or mostly repeat (n = 1000), a
        block drawn while the one before it is still held (sparse), the
        array objects of 2000 blocks as they are joined, and more codes
        than their mean (seed 1 of both constant(x, 0.001) laws)."""
        counted = []
        monkeypatch.setattr(generate, "check_memory", lambda need, what: counted.append(need))
        tracemalloc.start()
        try:
            generate_graph(GenConfig(n=n, layers=m, seed=seed), d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[0]

    def test_each_atom_sampled_once(self, monkeypatch):
        # one group per atom that draws edges, however many layers there are
        d = LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 200)
        cfg = GenConfig(n=1000, layers=(1 << 16) + 5000, seed=19)
        calls = []
        real = generate._sample_group

        def counted(n, x, y, *args):
            calls.append((x, y))
            return real(n, x, y, *args)

        monkeypatch.setattr(generate, "_sample_group", counted)
        generate_graph(cfg, d)
        monkeypatch.undo()
        kept = generate_graph(GenConfig(n=cfg.n, layers=cfg.layers, seed=cfg.seed, keep_layer_records=True), d)
        types = set(zip(kept.layer_records.size.tolist(), kept.layer_records.strength.tolist()))
        assert len(calls) == len(set(calls))
        assert set(calls) == {(x, y) for x, y in types if x >= 2 and y > 0}

    def test_mu_resolution(self):
        cfg = GenConfig(n=100, mu=1.0, seed=7)
        assert cfg.m == 100
        with pytest.raises(ValueError):
            GenConfig(n=100, layers=10, mu=1.0, seed=0)
        with pytest.raises(ValueError):
            GenConfig(n=100, seed=0)


class TestFiniteNOracles:
    """The merged graph against exact finite-n means over 400 seeds, each
    within 3 standard errors.  A pair is an edge unless every layer misses
    it, and a node is isolated unless some layer links it, with each layer
    size clamped to n; so these check the union, the deduplication and the
    clamp, and hold for any random stream."""

    LAWS = [
        (LayerTypeDistribution.tabular([(10, 1.0, 0.5), (4, 0.5, 0.5)]), 20, 3),
        (LayerTypeDistribution.tabular([(2, 1.0, 0.7), (500, 0.1, 0.3)]), 10, 4),  # 500 > n
        (LayerTypeDistribution.power_law(3, 0.5, 1, 1, 300), 200, 100),
    ]

    @staticmethod
    def samples(d, n, m):
        for seed in range(400):
            yield generate_graph(GenConfig(n=n, layers=m, seed=seed), d)

    @staticmethod
    def within_3_se(values, target):
        values = np.asarray(values, dtype=float)
        assert abs(values.mean() - target) <= 3 * values.std(ddof=1) / math.sqrt(len(values))

    @pytest.mark.parametrize("d, n, m", LAWS, ids=["overlapping", "size_above_n", "power_law"])
    def test_mean_merged_edge_count(self, d, n, m):
        x = np.minimum(d.sizes, n).astype(float)
        q = float(np.sum(d.probs * x * (x - 1) * d.strengths)) / (n * (n - 1))  # a layer links a given pair
        self.within_3_se([g.edge_count for g in self.samples(d, n, m)], n * (n - 1) / 2 * (1 - (1 - q) ** m))

    @pytest.mark.parametrize("d, n, m", LAWS, ids=["overlapping", "size_above_n", "power_law"])
    def test_isolated_node_fraction(self, d, n, m):
        x = np.minimum(d.sizes, n).astype(float)
        r = float(np.sum(d.probs * (x / n) * (1 - (1 - d.strengths) ** (x - 1))))  # a layer links a given node
        target = (1 - r) ** m
        assert target > 0.2
        self.within_3_se([np.mean(g.degrees == 0) for g in self.samples(d, n, m)], target)


class TestWholeGraphLaw:
    """The law of the whole graph at n = 4 and 5 against exact enumeration
    (laws.edge_set_law).  A layer's edge set is one of the 2^(n(n-1)/2)
    subsets of the pairs, and a graph of three layers is the OR of three
    iid layers.  Consecutive triples of one sample's records serve as the
    graphs, so this also checks that the table's layers come in iid order."""

    LAYERS, GRAPHS = 3, 20_000
    P_BOUND = 1e-3  # fixed before the seed was chosen

    @classmethod
    def p_value(cls, dist, n, seed) -> float:
        """The G-test's p-value for GRAPHS graphs on n nodes from one sample's records."""
        pairs = list(combinations(range(n), 2))
        bit = np.full((n, n), -1)  # the bit of pair (i, j), 0-based; -1 off the pairs
        bit[tuple(zip(*pairs))] = range(len(pairs))
        cfg = GenConfig(n=n, layers=cls.LAYERS * cls.GRAPHS, seed=seed, keep_layer_records=True)
        table = generate_graph(cfg, dist).layer_records
        edges = table.edges - 1
        bits = bit[edges[:, 0], edges[:, 1]]
        assert np.all(bits >= 0)
        masks = np.zeros(len(table.links), dtype=np.int64)
        np.bitwise_or.at(masks, np.repeat(np.arange(len(table.links)), table.links), 1 << bits)
        expected = cls.GRAPHS * edge_set_law(dist, n, cls.LAYERS)
        observed = np.bincount(np.bitwise_or.reduce(masks.reshape(-1, cls.LAYERS), axis=1), minlength=len(expected))
        small = expected < 5
        if small.any():  # pool the cells that expect fewer than 5 graphs into one
            observed = np.append(observed[~small], observed[small].sum())
            expected = np.append(expected[~small], expected[small].sum())
        seen = observed > 0
        g = 2 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
        return float(chi2.sf(g, len(observed) - 1))

    @pytest.mark.parametrize("dist, n", [
        pytest.param(dist, n, id=name if n == 4 else f"{name}-n{n}")
        for n in (4, 5) for name, dist in SMALL_GRAPH_LAWS.items()
    ])
    def test_g_test_against_exact_enumeration(self, dist, n):
        assert self.p_value(dist, n, seed=0) > self.P_BOUND


class TestGoldenStream:
    """Pin the random stream: a change to these hashes changes every
    sampled graph, and needs a version bump and a CHANGES.md entry."""

    @pytest.mark.parametrize("dist, cfg, edge_count, digest", [
        (LayerTypeDistribution.tabular([(3, 0.7, 0.5), (60, 0.1, 0.5)]),
         GenConfig(n=500, layers=300, seed=2024), 23883,
         "fab0a936892e6a92329b80a454a566d714d208529fba3cafb0730a4d77337900"),
        (LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 30),
         GenConfig(n=1000, mu=1.0, seed=7), 458,
         "d6c57b4a4a0fa14a88c041e1c6f37ed714ece0d6b214bec69bcc4d2fbf87e2c0"),
    ], ids=["mixed_sizes", "power_law"])
    def test_edges_hash(self, dist, cfg, edge_count, digest):
        g = generate_graph(cfg, dist)
        assert g.edge_count == edge_count
        edges = np.ascontiguousarray(g.edges, dtype="<i8")
        assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


class TestDegrees:
    def test_complete_graph(self):
        g = generate_graph(GenConfig(n=4, layers=1, seed=0), LayerTypeDistribution.constant(4, 1.0))
        assert g.degrees.tolist() == [3, 3, 3, 3]

    def test_empty_graph(self):
        g = generate_graph(GenConfig(n=5, layers=1, seed=0), LayerTypeDistribution.constant(3, 0.0))
        assert g.degrees.tolist() == [0] * 5

    def test_path(self):
        from superpose_net import GraphSample

        g = GraphSample(n=3, edges=np.array([[1, 2], [2, 3]]))
        assert g.degrees.tolist() == [1, 2, 1]

    def test_computed_once_and_read_only(self):
        g = generate_graph(GenConfig(n=50, layers=40, seed=1), LayerTypeDistribution.constant(4, 0.5))
        d = g.degrees
        assert g.degrees is d
        with pytest.raises(ValueError):
            d[0] = 7


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        d = LayerTypeDistribution.tabular([(4, 0.8, 1.0)])
        g = generate_graph(GenConfig(n=30, layers=40, seed=13), d)
        path = tmp_path / "g.edgelist"
        write_edge_list(g, path)
        first = path.read_text().splitlines()[0]
        assert first == f"# superpose-net n=30 m=40 seed=13"
        back = read_edge_list(path)
        assert back.n == g.n and back.m == g.m and back.seed == g.seed
        assert np.array_equal(back.edges, g.edges)

    def test_merges_orientations_and_repeats(self, tmp_path):
        path = tmp_path / "g.edgelist"
        path.write_text("\n# superpose-net n=5 m=None seed=None\n3 1\n1 3\n\n4 2\n1 3\n")
        g = read_edge_list(path)
        assert (g.n, g.m, g.seed) == (5, None, None)
        assert g.edges.tolist() == [[1, 3], [2, 4]]

    @pytest.mark.parametrize("rows", [7, 1 << 16])
    def test_writer_matches_the_line_by_line_writer(self, tmp_path, monkeypatch, rows):
        """Blocks of 7 rows leave a short last block; 2^16 is one block."""
        monkeypatch.setattr(generate, "_WRITE_ROWS", rows)
        d = LayerTypeDistribution.tabular([(3, 0.7, 0.5), (60, 0.1, 0.5)])
        empty = generate_graph(GenConfig(n=5, layers=1, seed=0), LayerTypeDistribution.constant(3, 0.0))
        for g in (generate_graph(GenConfig(n=500, layers=300, seed=2024), d), empty):
            write_edge_list(g, tmp_path / "new.edgelist")
            with open(tmp_path / "old.edgelist", "w") as fh:
                fh.write(f"# superpose-net n={g.n} m={g.m} seed={g.seed}\n")
                for i, j in g.edges.tolist():
                    fh.write(f"{i} {j}\n")
            assert (tmp_path / "new.edgelist").read_bytes() == (tmp_path / "old.edgelist").read_bytes()

    @pytest.mark.parametrize("body", ["1 1\n", "2 5\n", "0 2\n", "1 x\n"])
    def test_rejects_invalid_lines(self, tmp_path, body):
        path = tmp_path / "g.edgelist"
        path.write_text("# superpose-net n=3 m=1 seed=0\n1 2\n" + body)
        with pytest.raises(InvalidEdgeList):
            read_edge_list(path)
