import csv
import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest

from superpose_net import (
    Degenerate,
    GenConfig,
    GraphSample,
    LayerTypeDistribution,
    LimitParams,
    Pmf,
    StudySpec,
    bidegree_counts,
    generate_graph,
    kendall,
    limiting_degree_pmf,
    limiting_laws,
    limiting_moments,
    pearson_correlation,
    run_study,
    spearman,
    tail_slope_fit,
    tv_distance_1d,
)
from superpose_net.cli import main
from superpose_net.study import ALL_METRICS, _cell_seed, _tail_fit

from laws import SMALL_GRAPH_LAWS, edge_set_law


def delta1d(k):
    p = np.zeros(k + 1)
    p[k] = 1.0
    return Pmf(p)


class TestTvDistance:
    def test_identical_is_zero(self):
        f = Pmf(np.array([0.5, 0.5]))
        assert tv_distance_1d(f, f) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance_1d(delta1d(0), delta1d(1)) == 1.0

    def test_half(self):
        assert tv_distance_1d(Pmf(np.array([0.5, 0.5])), delta1d(0)) == pytest.approx(0.5)

    def test_mass_defect_counts(self):
        f = Pmf(np.array([0.9]), mass_defect=0.1)
        g = Pmf(np.array([0.9]), mass_defect=0.1)
        assert tv_distance_1d(f, g) == pytest.approx(0.1)

    def test_2d(self):
        a = Pmf(np.array([[1.0]]))
        b = Pmf(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert tv_distance_1d(a, a) == 0.0
        assert tv_distance_1d(a, b) == 1.0


class TestTailSlopeFit:
    def _power_pmf(self, exponent, lo=1, hi=500):
        t = np.arange(hi + 1, dtype=float)
        p = np.zeros(hi + 1)
        p[lo:] = t[lo:] ** -exponent
        return Pmf(p / p.sum())

    def test_exact_power_law_slope_two(self):
        slope, stderr = tail_slope_fit(self._power_pmf(2.0), (10, 500))
        assert slope == pytest.approx(2.0, abs=0.01)
        assert stderr < 0.01

    def test_exact_power_law_slope_125(self):
        slope, _ = tail_slope_fit(self._power_pmf(1.25), (10, 500))
        assert slope == pytest.approx(1.25, abs=0.01)

    def test_insufficient_support(self):
        with pytest.raises(Degenerate):
            tail_slope_fit(self._power_pmf(2.0, hi=12), (10, 500))

    @pytest.mark.parametrize("counts", [[40, 30, 20], [40, 60, 20]])
    def test_empty_default_window_names_its_rule(self, counts):
        """The default window runs from 10 to the largest degree that 50
        nodes hold; when that degree is below 10 the rule is reported, not
        an inverted range."""
        with pytest.raises(Degenerate, match=r"^no degree of at least 10 is held by 50 nodes, "):
            _tail_fit(np.array(counts), None)


class TestRunStudy:
    SPEC = dict(
        dist=LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)]),
        mu=1.0,
        n_grid=(200, 500),
        replications=3,
        seed=99,
        metrics=("tv1", "tv2", "assortativity", "kendall", "spearman"),
    )

    def test_deterministic(self):
        a = run_study(StudySpec(**self.SPEC))
        b = run_study(StudySpec(**self.SPEC))
        assert a.rows == b.rows
        assert a.summary == b.summary
        assert a.theory == b.theory

    def test_theory_row_matches_limit_module_bitwise(self):
        report = run_study(StudySpec(**self.SPEC))
        params = LimitParams(self.SPEC["mu"], self.SPEC["dist"], 1e-10)
        f2 = limiting_laws(params)[1]
        assert report.theory["assortativity"] == limiting_moments(params).assortativity
        assert report.theory["kendall"] == kendall(f2)
        assert report.theory["spearman"] == spearman(f2)

    def test_theory_row_holds_only_the_named_rank_correlations(self, monkeypatch):
        import superpose_net.pmf as pmf_mod

        def never(f):
            raise AssertionError("spearman was evaluated but not named")

        monkeypatch.setitem(pmf_mod.FUNCTIONALS, "spearman", never)
        report = run_study(StudySpec(**{**self.SPEC, "n_grid": (200,), "metrics": ("kendall",)}))
        assert sorted(report.theory) == ["bidegree_mass_defect", "kendall"]
        assert report.theory["kendall"] == kendall(limiting_laws(LimitParams(self.SPEC["mu"], self.SPEC["dist"]))[1])

    def test_bidegree_law_is_evaluated_once(self, monkeypatch):
        import superpose_net.limits as limits_mod

        calls = []
        for name in ("limiting_degree_pmf", "limiting_laws", "_own_layer", "_degree_law"):
            real = getattr(limits_mod, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(limits_mod, name, counted)
        report = run_study(StudySpec(
            dist=LayerTypeDistribution.tabular([(2, 1.0, 0.5), (4, 1.0, 0.5)]), mu=1.0,
            n_grid=(200,), replications=1, seed=5, metrics=("kendall", "spearman"),
        ))
        # one binomial pass and one degree recursion, both inside limiting_laws
        assert sorted(calls) == ["_degree_law", "_own_layer", "limiting_laws"]
        assert 0 < report.theory["kendall"] < 1

    def test_each_replication_computes_its_degrees_once(self, degree_passes):
        spec = StudySpec(**{**self.SPEC, "metrics": ("tv1", "tv2", "assortativity", "tail_slope")})
        run_study(spec)
        assert len(degree_passes) == len(spec.n_grid) * spec.replications
        assert len({id(g) for g in degree_passes}) == len(degree_passes)

    def test_rows_have_standard_errors(self):
        report = run_study(StudySpec(**self.SPEC))
        for n in self.SPEC["n_grid"]:
            agg = report.summary[str(n)]
            assert agg["tv1"]["count"] == 3
            assert agg["tv1"]["se"] is not None

    def test_subgraph_metric(self):
        spec = StudySpec(
            dist=LayerTypeDistribution.constant(4, 1.0), mu=0.5,
            n_grid=(100,), replications=2, seed=1, metrics=("subgraph_counts",),
        )
        report = run_study(spec)
        agg = report.summary["100"]
        assert agg["links"]["mean"] == 6.0
        assert agg["two_stars"]["mean"] == 12.0
        assert agg["three_stars"]["mean"] == 4.0
        assert report.theory["links"] == 6.0

    def test_report_serialization(self, tmp_path):
        report = run_study(StudySpec(**self.SPEC))
        report.to_csv(tmp_path / "r.csv")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == "n,replication,metric,value,note"

    def test_csv_note_with_a_comma_stays_one_field(self, tmp_path):
        report = run_study(StudySpec(
            dist=LayerTypeDistribution.constant(2, 1.0), mu=1.0, n_grid=(100,),
            replications=2, seed=0, metrics=("tail_slope",),
        ))
        report.to_csv(tmp_path / "r.csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            ["100", str(rep), "tail_slope", "",
             "degenerate: no degree of at least 10 is held by 50 nodes, so the default fit window is empty"]
            for rep in range(2)
        ]

    def test_default_fit_range_counts_nodes_exactly(self, monkeypatch):
        """50 of 161 nodes at degree 12 reach the 50-node bar; rebuilt from
        their fraction, 50 / 161 * 161, they would fall just short of it."""
        import superpose_net.study as study_mod

        ring = np.repeat(np.arange(50), 6)
        edges = np.sort(np.column_stack([ring, (ring + np.tile(np.arange(1, 7), 50)) % 50]), axis=1)
        graph = GraphSample(n=161, edges=edges + 1)  # a 12-regular circulant and 111 isolated nodes
        monkeypatch.setattr(study_mod, "generate_graph", lambda cfg, dist: graph)
        report = run_study(StudySpec(
            dist=LayerTypeDistribution.constant(2, 1.0), mu=1.0, n_grid=(161,),
            replications=1, seed=0, metrics=("tail_slope",),
        ))
        assert report.rows[0]["note"] == "degenerate: only 1 positive-mass points in [10, 12]"

    def test_pooled_law_sums_the_integer_pair_counts(self):
        """The pooled law divides the replications' summed directed-pair
        counts by their sum.  Counts rebuilt from each replication's law,
        probs * 2E, are not whole numbers, and move this value by an ulp."""
        dist = LayerTypeDistribution.power_law(3, 0.5, 1, 1, 2000)
        spec = StudySpec(dist=dist, mu=1.0, n_grid=(20000, 100000), replications=4, seed=1,
                         metrics=("assortativity",))
        report = run_study(spec)
        for ni, n in enumerate(spec.n_grid):
            tables = [bidegree_counts(generate_graph(GenConfig(n=n, mu=1.0, seed=_cell_seed(1, ni, rep)), dist))
                      for rep in range(spec.replications)]
            width = max(len(t) for t in tables)
            total = sum(np.pad(t, (0, width - len(t))) for t in tables)
            assert report.summary[str(n)]["assortativity_pooled"] == pearson_correlation(Pmf(total / total.sum()))

    def test_summary_keeps_a_metric_degenerate_in_every_replication(self):
        # one layer of two nodes: every bidegree is (1, 1), a point mass
        report = run_study(StudySpec(
            dist=LayerTypeDistribution.constant(2, 1.0), mu=0.25, n_grid=(4,),
            replications=3, seed=0,
        ))
        agg = report.summary["4"]
        for metric in ("kendall", "spearman"):
            assert agg[metric] == {"mean": None, "count": 0, "se": None, "degenerate": 3,
                                   "degenerate_reason": "a marginal is a point mass"}
        assert agg["assortativity"]["count"] == 0 and agg["assortativity"]["degenerate"] == 3
        assert agg["tv1"]["count"] == 3 and agg["tv1"]["degenerate"] == 0
        assert agg["tv1"]["degenerate_reason"] is None

    @pytest.mark.parametrize("dist, metrics", [
        (LayerTypeDistribution.constant(2, 0.0), ("tail_slope",)),
        (LayerTypeDistribution.constant(1, 1.0), ("tail_slope",)),
        # edges in the limit, but none at these n
        (LayerTypeDistribution.constant(2, 1e-9), ("tv2", "assortativity", "kendall", "spearman", "tail_slope")),
    ], ids=["strength_0", "size_1", "strength_1e-9"])
    def test_edgeless_replications_leave_the_tail_slope_degenerate(self, dist, metrics):
        """Every row, every per-n entry and every pooled value of a study
        without edges is degenerate, and each says why."""
        report = run_study(StudySpec(
            dist=dist, mu=0.5, n_grid=(8, 20), replications=4, seed=3, metrics=metrics,
        ))
        assert [row["note"] for row in report.rows] == ["degenerate: no edges"] * 8 * len(metrics)
        for agg in report.summary.values():
            for metric in metrics:
                assert agg[metric]["degenerate"] == 4
                assert agg[metric]["degenerate_reason"] == "no edges"
                assert agg[f"{metric}_pooled"] is None
                assert agg[f"{metric}_degenerate_pooled"] == "no edges"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StudySpec(dist=self.SPEC["dist"], mu=1.0, n_grid=(500, 200),
                      replications=1, seed=0)
        with pytest.raises(ValueError):
            StudySpec(dist=self.SPEC["dist"], mu=1.0, n_grid=(200,),
                      replications=1, seed=0, metrics=("bogus",))

    def test_list_n_grid_is_stored_as_the_tuple(self):
        listed = StudySpec(**{**self.SPEC, "n_grid": [200, 500]})
        assert listed.n_grid == (200, 500)

    @pytest.mark.parametrize("changes", [
        {"n_grid": (1, 200)}, {"mu": 0.0}, {"mu": 0.001}, {"seed": -1}, {"tail_epsilon": 0.0},
        {"n_grid": (200, 4_000_000_000)}, {"n_grid": (200, 200)},
    ], ids=["n_is_1", "mu_0", "no_layers_at_n", "seed_negative", "tail_epsilon_0", "n_overflows_edge_codes",
            "n_repeated"])
    def test_spec_rejects_values_that_fail_in_a_cell(self, changes):
        # each of these used to pass the spec and fail inside run_study
        with pytest.raises(ValueError):
            StudySpec(**{**self.SPEC, **changes})


class TestStudyFiles:
    """Pin the bytes of converge's study CSV and JSON: a change to these
    hashes changes what a study reports, and needs a CHANGES.md entry."""

    @pytest.mark.parametrize("dist, study, digests", [
        ({"family": "power_law", "alpha": 3, "beta": 0.5, "b": 1, "x_min": 1, "x_max": 2000},
         {"mu": 1, "n_grid": [20000, 40000], "replications": 3, "seed": 1, "metrics": list(ALL_METRICS)},
         ("e3c3b85d797c1b1061284a3ec40dc5c364c5c7192a6dba772be9960917add919",
          "62fd60f2f706384b1d49f8153ce36f6b2524f6d5b780a6ba2c63ba561f358aba")),
        ({"family": "constant", "size": 2, "strength": 1},
         {"mu": 0.25, "n_grid": [4, 8], "replications": 3, "seed": 1},
         ("418c59ba14392beaa01c3fc33c5f40deb961dae0502bb02d3f0fdffd06db96fc",
          "ca60eea9bbf35492eef058592aab3d28d37319e9d208489bbeefbb5a21154c79")),
    ], ids=["power_law_all_metrics", "one_layer_of_two_nodes"])
    def test_study_file_hashes(self, tmp_path, dist, study, digests):
        doc = {"layer_distribution": dist, "study": study}
        assert main(["converge", "--config", json.dumps(doc), "--out", str(tmp_path)]) == 0
        files = [next(tmp_path.glob(f"study_seed1_*.{ext}")) for ext in ("csv", "json")]
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in files) == digests


class TestExactFiniteN:
    """run_study at n = 4 and m = 3 layers (mu = 0.75) against exact
    enumeration of the 64 edge sets (laws.edge_set_law).  Each graph's tv1
    and assortativity are computed here from its edges alone: the TV
    distance of its degree fractions to the limit f1, and np.corrcoef of
    its 2E directed endpoint-degree pairs, or degenerate."""

    N, MU, REPS = 4, 0.75, 2000
    Z_BOUND = 4.0  # fixed before the seed was chosen
    PAIRS = list(combinations(range(N), 2))
    # E[tv1], E[assortativity | defined] and P(defined), from an independent probe
    PROBE = {"five_atoms": (0.7113, -0.7693, 0.5729), "size_0_and_strength_1": (0.4319, -0.8467, 0.5391)}

    @classmethod
    def exact(cls, dist):
        """E[tv1], E[assortativity | defined] and P(defined) over the law of the graph."""
        law = edge_set_law(dist, cls.N, round(cls.MU * cls.N))
        f1 = limiting_degree_pmf(LimitParams(cls.MU, dist))
        tv, r, defined = np.zeros(len(law)), np.zeros(len(law)), np.zeros(len(law), dtype=bool)
        for mask in range(len(law)):
            edges = np.array([pair for k, pair in enumerate(cls.PAIRS) if mask >> k & 1], dtype=int).reshape(-1, 2)
            deg = np.bincount(edges.ravel(), minlength=cls.N)
            share = np.bincount(deg, minlength=len(f1.probs)) / cls.N
            limit = np.pad(f1.probs, (0, len(share) - len(f1.probs)))
            tv[mask] = 0.5 * (np.abs(share - limit).sum() + f1.mass_defect)
            ends = deg[edges]
            x, y = np.concatenate([ends[:, 0], ends[:, 1]]), np.concatenate([ends[:, 1], ends[:, 0]])
            if len(x) and x.var() > 0:
                defined[mask] = True
                r[mask] = np.corrcoef(x, y)[0, 1]
        p_defined = float(law @ defined)
        return float(law @ tv), float(law @ (r * defined)) / p_defined, p_defined

    @pytest.mark.parametrize("name", list(SMALL_GRAPH_LAWS))
    def test_study_means_match_exact_enumeration(self, name):
        dist = SMALL_GRAPH_LAWS[name]
        e_tv, e_r, p_defined = self.exact(dist)
        assert (e_tv, e_r, p_defined) == pytest.approx(self.PROBE[name], abs=5e-5)
        spec = StudySpec(dist, self.MU, (self.N,), self.REPS, seed=0, metrics=("tv1", "assortativity"))
        agg = run_study(spec).summary[str(self.N)]
        tv1, r = agg["tv1"], agg["assortativity"]
        z = {"tv1": (tv1["mean"] - e_tv) / tv1["se"], "assortativity": (r["mean"] - e_r) / r["se"],
             "degenerate": (r["degenerate"] - self.REPS * (1 - p_defined))
             / math.sqrt(self.REPS * p_defined * (1 - p_defined))}
        assert all(abs(v) <= self.Z_BOUND for v in z.values()), z
