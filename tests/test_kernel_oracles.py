"""The binomial-mixture kernel of limits.py against the direct route.

The references below evaluate the increment law with one binom.pmf call
per atom, and the limiting bidegree law from dense outer products of
full-support Bin(x-2, y) rows plus a shift-and-add 2-D convolution.  The
own-layer law fprime2_pmf, the core of the bidegree law, is checked
against the closed-form moments of limiting_moments.  The pmf CSV writers
are checked byte for byte against a writer that emits one line per entry.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from superpose_net import (
    DegenerateMarginal,
    LayerTypeDistribution,
    LimitParams,
    compound_poisson_pmf,
    cross_moment,
    edge_biased_distribution,
    fprime2_pmf,
    increment_pmf,
    kendall,
    limiting_bidegree_pmf,
    limiting_degree_pmf,
    limiting_moments,
    pearson_correlation,
    spearman,
)
from superpose_net.pmf import Pmf1D, Pmf2D, pmf1d_to_csv, pmf2d_to_csv

from conftest import random_tabular


def reference_increment(dist):
    p10 = cross_moment(dist, 1, 0)
    out = np.zeros(max(dist.max_size - 1, 0) + 1)
    for x, y, p in dist.atoms():
        if x == 0 or p == 0:
            continue
        trials = x - 1
        weight = x * p / p10
        if trials == 0:
            out[0] += weight
            continue
        sd = math.sqrt(trials * y * (1.0 - y))
        lo = max(0, int(trials * y - 10 * sd - 5))
        hi = min(trials, int(trials * y + 10 * sd + 5))
        ks = np.arange(lo, hi + 1)
        out[lo : hi + 1] += weight * binom.pmf(ks, trials, y)
    return out


def reference_bidegree(params):
    biased = edge_biased_distribution(params.dist)
    top = max(biased.max_size - 2, 0)
    fp2 = np.zeros((top + 1, top + 1))
    support = np.arange(top + 1)
    for x, y, p in biased.atoms():
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
    assert np.max(np.abs(increment_pmf(params).probs - reference_increment(params.dist))) <= 1e-15

    got = limiting_bidegree_pmf(params)
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


def test_passing_the_degree_law_changes_nothing():
    params = _laws()[-1]
    f1 = limiting_degree_pmf(params)
    assert np.array_equal(limiting_bidegree_pmf(params, f1).probs, limiting_bidegree_pmf(params).probs)


# -- CSV writers ------------------------------------------------------------

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


def test_csv_writers_match_the_line_by_line_writer(tmp_path):
    params = _laws()[-1]
    f1 = limiting_degree_pmf(params)
    f2 = limiting_bidegree_pmf(params, f1)
    for law, write, reference in (
        (f1, pmf1d_to_csv, reference_pmf1d_to_csv),
        (f2, pmf2d_to_csv, reference_pmf2d_to_csv),
        (Pmf1D(np.array([0.0, 0.5, 0.0, 0.5])), pmf1d_to_csv, reference_pmf1d_to_csv),
    ):
        write(law, tmp_path / "new.csv")
        reference(law, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
