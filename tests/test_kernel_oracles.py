"""The binomial-mixture kernel of limits.py against the direct route.

The references below evaluate the increment law with one binom.pmf call
per atom over its full support, and the limiting bidegree law from dense
outer products of full-support Bin(x-2, y) rows plus a shift-and-add 2-D
convolution.  The own-layer law fprime2_pmf, the core of the bidegree law,
is checked against the closed-form moments of limiting_moments.  The pmf
CSV writer is checked byte for byte against writers that emit one line
per entry.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from superpose_net import (
    DegenerateMarginal,
    GenConfig,
    LayerTypeDistribution,
    LimitParams,
    bidegree_distribution,
    compound_poisson_pmf,
    cross_moment,
    edge_biased_distribution,
    fprime2_pmf,
    generate_graph,
    increment_pmf,
    kendall,
    limiting_laws,
    limiting_moments,
    pearson_correlation,
    spearman,
)
from superpose_net import pmf
from superpose_net.limits import _windows
from superpose_net.pmf import Pmf1D, Pmf2D, pmf_to_csv

from laws import atoms, random_tabular


def reference_increment(dist):
    p10 = cross_moment(dist, 1, 0)
    out = np.zeros(max(int(dist.sizes.max(initial=0)) - 1, 0) + 1)
    for x, y, p in atoms(dist):
        if x == 0 or p == 0:
            continue
        out[:x] += x * p / p10 * binom.pmf(np.arange(x), x - 1, y)
    return out


def reference_bidegree(params):
    biased = edge_biased_distribution(params.dist)
    top = max(int(biased.sizes.max(initial=0)) - 2, 0)
    fp2 = np.zeros((top + 1, top + 1))
    support = np.arange(top + 1)
    for x, y, p in atoms(biased):
        row = binom.pmf(support, x - 2, y)
        fp2 += p * np.outer(row, row)
    g = Pmf1D(reference_increment(params.dist))
    f1 = compound_poisson_pmf(params.mu * cross_moment(params.dist, 1, 0), g, params.tail_epsilon)
    base = np.outer(f1.probs, f1.probs)
    conv = np.zeros((base.shape[0] + top, base.shape[1] + top))
    for u, v in np.argwhere(fp2 > 0):
        conv[u : u + base.shape[0], v : v + base.shape[1]] += fp2[u, v] * base
    shifted = np.zeros((conv.shape[0] + 1, conv.shape[1] + 1))
    shifted[1:, 1:] = conv
    return Pmf2D(shifted, mass_defect=max(0.0, 1.0 - math.fsum(shifted.ravel().tolist())))


def _functionals(f2):
    out = {}
    for name, fn in (("pearson", pearson_correlation), ("kendall", kendall), ("spearman", spearman)):
        try:
            out[name] = fn(f2)
        except DegenerateMarginal:
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


@pytest.mark.parametrize("params", _laws(), ids=[f"law{i}" for i in range(20)] + ["power_law_300"])
def test_kernel_matches_direct_route(params):
    g, want_g = increment_pmf(params).probs, reference_increment(params.dist)
    assert len(g) <= len(want_g)
    assert want_g[len(g):].sum() <= 1e-15
    assert np.max(np.abs(np.pad(g, (0, len(want_g) - len(g))) - want_g)) <= 1e-15

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


@pytest.mark.parametrize(
    "params",
    _laws()[:20] + [LimitParams(1.0, LayerTypeDistribution.power_law(3.0, 0.5, 1.0, 1, 10_000))],
    ids=[f"law{i}" for i in range(20)] + ["power_law_1e4"],
)
def test_fprime2_moments_match_closed_form(params):
    f = fprime2_pmf(params).probs
    u = np.arange(len(f), dtype=float)
    marginal = f.sum(axis=1)
    mean = u @ marginal
    want = limiting_moments(params)
    assert mean == pytest.approx(want.e_dprime, rel=1e-10)
    assert u**2 @ marginal == pytest.approx(want.e_dprime2, rel=1e-10)
    assert u @ f @ u - mean**2 == pytest.approx(want.cov_dprime, rel=1e-10)


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
        (Pmf1D(np.array([0.0, 0.5, 0.0, 0.5])), reference_pmf1d_to_csv),
        (bidegree_distribution(g), reference_pmf2d_to_csv),
        (Pmf2D(np.array([[0.0, 0.25, 0.25], [0.25, 0.0, 0.25]])), reference_pmf2d_to_csv),
        (Pmf2D(np.array([[0.0, 0.0], [0.0, 1.0]])), reference_pmf2d_to_csv),
        (Pmf1D(np.array([0.2, 0.1, 0.4, 0.0, 0.2, 0.1])), reference_pmf1d_to_csv),
        (Pmf1D(np.zeros(3), mass_defect=1.0), reference_pmf1d_to_csv),
    ):
        reference(law, tmp_path / "old.csv")
        for cells in (pmf._BLOCK_CELLS, 1):
            monkeypatch.setattr(pmf, "_BLOCK_CELLS", cells)
            pmf_to_csv(law, tmp_path / "new.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
