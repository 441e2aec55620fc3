"""The binomial-mixture kernel of limits.py against the direct route.

The references below evaluate the own-layer law m' and the increment law
with one binom.pmf call per atom over its full support, the limiting
degree law by the compound Poisson recursion on that increment law, and
the limiting bidegree law from dense outer products of full-support
Bin(x-2, y) rows plus a shift-and-add 2-D convolution.  This direct route
shares no binomial or recursion code with the engine's, which makes one
windowed pass for m' and F'_2 and reads f1 off m'.  The own-layer laws are also checked against
the closed-form moments of limiting_moments.  The pmf CSV writer is
checked byte for byte against writers that emit one line per entry.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from superpose_net import (
    Degenerate,
    GenConfig,
    LayerTypeDistribution,
    LimitParams,
    bidegree_distribution,
    cross_moment,
    edge_biased_distribution,
    generate_graph,
    kendall,
    limiting_degree_pmf,
    limiting_laws,
    limiting_moments,
    pearson_correlation,
    spearman,
)
from superpose_net import pmf
from superpose_net.limits import _own_layer, _windows
from superpose_net.pmf import Pmf, pmf_to_csv

from laws import atoms, random_tabular, reference_increment


def reference_compound_poisson(lam, g, tail_epsilon):
    """The compound Poisson law of rate lam and increment law g by the
    standard recursion f(s) = (lam / s) * sum_k k g(k) f(s - k), truncated
    as the engine truncates the degree law."""
    g = np.trim_zeros(g, "b")
    kg = np.arange(len(g)) * g
    f = [math.exp(-lam * (1.0 - g[0]))]
    acc = f[0]
    while 1.0 - acc >= tail_epsilon:
        s = len(f)
        f.append(lam / s * sum(kg[k] * f[s - k] for k in range(1, min(s, len(g) - 1) + 1)))
        acc += f[-1]
    return Pmf(np.array(f), mass_defect=max(0.0, 1.0 - math.fsum(f)))


def reference_degree(params):
    g = reference_increment(params.dist)
    return reference_compound_poisson(params.mu * cross_moment(params.dist, 1, 0), g, params.tail_epsilon)


def reference_own_layer(dist):
    """m' and F'_2: Bin(x-2, y) rows under the edge-biased weights."""
    biased = edge_biased_distribution(dist)
    support = np.arange(max(int(biased.sizes.max(initial=0)) - 2, 0) + 1)
    m = np.zeros(len(support))
    fp2 = np.zeros((len(support), len(support)))
    for x, y, p in atoms(biased):
        row = binom.pmf(support, x - 2, y)
        m += p * row
        fp2 += p * np.outer(row, row)
    return m, fp2


def reference_bidegree(params):
    fp2 = reference_own_layer(params.dist)[1]
    top = len(fp2) - 1
    f1 = reference_degree(params)
    base = np.outer(f1.probs, f1.probs)
    conv = np.zeros((base.shape[0] + top, base.shape[1] + top))
    for u, v in np.argwhere(fp2 > 0):
        conv[u : u + base.shape[0], v : v + base.shape[1]] += fp2[u, v] * base
    shifted = np.zeros((conv.shape[0] + 1, conv.shape[1] + 1))
    shifted[1:, 1:] = conv
    return Pmf(shifted, mass_defect=max(0.0, 1.0 - math.fsum(shifted.ravel().tolist())))


def _functionals(f2):
    out = {}
    for name, fn in (("pearson", pearson_correlation), ("kendall", kendall), ("spearman", spearman)):
        try:
            out[name] = fn(f2)
        except Degenerate:
            out[name] = None
    return out


def _laws():
    rng = np.random.default_rng(4401)
    laws = [
        LimitParams(float(rng.uniform(0.3, 2.0)), random_tabular(rng, max_size=12))
        for _ in range(20)
    ]
    laws.append(LimitParams(1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 300)))
    return laws


LAW_IDS = [f"law{i}" for i in range(20)] + ["power_law_300"]


@pytest.mark.parametrize("params", _laws(), ids=LAW_IDS)
def test_kernel_matches_direct_route(params):
    m, want_m = _own_layer(params.dist, joint=False)[0], reference_own_layer(params.dist)[0]
    assert len(m) <= len(want_m)
    assert want_m[len(m):].sum() <= 1e-15
    assert np.max(np.abs(np.pad(m, (0, len(want_m) - len(m))) - want_m)) <= 1e-15

    f1, want_f1 = limiting_degree_pmf(params), reference_degree(params)
    assert len(f1.probs) == len(want_f1.probs)
    assert np.max(np.abs(f1.probs - want_f1.probs)) <= 1e-15

    got = limiting_laws(params)[1]
    want = reference_bidegree(params)
    n = len(got.probs)
    assert n <= len(want.probs)
    assert want.probs[n:, :].sum() + want.probs[:n, n:].sum() <= 1e-15
    padded = np.zeros_like(want.probs)
    padded[:n, :n] = got.probs
    assert np.all(got.probs >= 0)
    assert np.max(np.abs(padded - want.probs)) <= 1e-15
    assert got.mass_defect == pytest.approx(want.mass_defect, abs=1e-14)

    a, b = _functionals(got), _functionals(want)
    for name in a:
        if b[name] is None:
            assert a[name] is None
        else:
            assert a[name] == pytest.approx(b[name], abs=1e-11)


@pytest.mark.parametrize("params", _laws(), ids=LAW_IDS)
def test_degree_law_does_not_depend_on_the_route(params):
    """f1 alone and f1 beside f2 are the same law bit for bit, so a tv1
    value does not depend on whether tv2 was asked for too."""
    alone, beside = limiting_degree_pmf(params), limiting_laws(params)[0]
    assert np.array_equal(alone.probs, beside.probs)
    assert alone.mass_defect == beside.mass_defect


@pytest.mark.parametrize(
    "params",
    _laws()[:20] + [LimitParams(1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 10_000))],
    ids=[f"law{i}" for i in range(20)] + ["power_law_1e4"],
)
def test_fprime2_moments_match_closed_form(params):
    m, f = _own_layer(params.dist, joint=True)
    assert np.array_equal(f, f.T)
    u = np.arange(len(f), dtype=float)
    want = limiting_moments(params)
    for marginal in (f.sum(axis=1), m):
        mean = u @ marginal
        assert mean == pytest.approx(want.e_dprime, rel=1e-10)
        assert u**2 @ marginal == pytest.approx(want.e_dprime2, rel=1e-10)
    assert u @ f @ u - (u @ m) ** 2 == pytest.approx(want.cov_dprime, rel=1e-10)


def test_windows_hold_all_the_mass():
    """Each binomial window leaves out at most 2^-53 of its row's mass, also
    at the two points where a pad of 5 left out 8.2e-14 and 8.4e-14."""
    grid_n, grid_y = np.meshgrid(
        np.unique(np.geomspace(1, 1e7, 60).astype(np.int64)),
        np.concatenate([np.geomspace(1e-9, 0.5, 40), 1 - np.geomspace(1e-9, 0.5, 40)]),
    )
    trials = np.concatenate([[1483, 212_288], grid_n.ravel()])
    strengths = np.concatenate([[1e-4, 1.07e-6], grid_y.ravel()])
    lo, length = _windows(trials, strengths)
    left_out = binom.sf(lo + length - 1, trials, strengths) + binom.cdf(lo - 1, trials, strengths)
    assert left_out.max() <= 2.0**-53


# -- CSV writer -------------------------------------------------------------

def reference_pmf1d_to_csv(f, path):
    with open(path, "w") as fh:
        fh.write("s,prob\n")
        for s, p in enumerate(f.probs.tolist()):
            if p > 0:
                fh.write(f"{s},{float(p)!r}\n")
        fh.write(f"# mass_defect={float(f.mass_defect)!r}\n")


def reference_pmf2d_to_csv(f, path):
    with open(path, "w") as fh:
        fh.write("s,t,prob\n")
        for s, t in np.argwhere(f.probs > 0).tolist():
            fh.write(f"{s},{t},{float(f.probs[s, t])!r}\n")
        fh.write(f"# mass_defect={float(f.mass_defect)!r}\n")


def test_csv_writers_match_the_line_by_line_writer(tmp_path, monkeypatch):
    """The writer formats each distinct value of a block once; laws whose
    values repeat, or that have one positive entry or none, come out the
    same, whether a block holds the whole law or one row of a 2-D law."""
    params = _laws()[-1]
    f1, f2 = limiting_laws(params)
    g = generate_graph(GenConfig(n=500, mu=1.0, seed=2), LayerTypeDistribution.tabular([(3, 0.6, 0.5), (8, 0.2, 0.5)]))
    for law, reference in (
        (f1, reference_pmf1d_to_csv),
        (f2, reference_pmf2d_to_csv),
        (Pmf(np.array([0.0, 0.5, 0.0, 0.5])), reference_pmf1d_to_csv),
        (bidegree_distribution(g), reference_pmf2d_to_csv),
        (Pmf(np.array([[0.0, 0.25, 0.25], [0.25, 0.0, 0.25]])), reference_pmf2d_to_csv),
        (Pmf(np.array([[0.0, 0.0], [0.0, 1.0]])), reference_pmf2d_to_csv),
        (Pmf(np.array([0.2, 0.1, 0.4, 0.0, 0.2, 0.1])), reference_pmf1d_to_csv),
        (Pmf(np.zeros(3), mass_defect=1.0), reference_pmf1d_to_csv),
    ):
        reference(law, tmp_path / "old.csv")
        for cells in (pmf._BLOCK_CELLS, 1):
            monkeypatch.setattr(pmf, "_BLOCK_CELLS", cells)
            pmf_to_csv(law, tmp_path / "new.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
