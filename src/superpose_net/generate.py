"""Sampling of the multilayer superposition graph.

Each layer picks a uniform node subset of its sampled size and links its
pairs independently with its sampled strength; the graph is the union of
all layer edge sets.  The layers are independent, so the graph depends on
their types only through how many layers each atom gets: one multinomial
draw, from one Philox stream keyed by the seed, so the output depends only
on (seed, config, distribution).  The layers of one atom (one size, one
strength) are then sampled a block at a time: node subsets as rows, and
edges by one walk over the block's pairs.  Kept layers form a LayerTable, put
in iid order by one gather; a GraphSample computes its degrees on first read.
The module also writes and reads a sample's edge-list and layer-record files,
and measures a sample: its degree law, its bidegree law and the subgraph
counts of its layers.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Degenerate, InvalidEdgeList, MissingRecords, check_memory
from .layers import LayerTypeDistribution
from .pmf import Pmf

_DRAW_BUDGET = 1 << 22  # random draws per block of an atom group
# dense Bernoulli over all pairs above this strength, geometric skips below
_DENSE_STRENGTH = 0.25
_CODE_SDS = 5  # standard deviations above its mean at which the budget counts the edge codes drawn
_ARRAY_BYTES = 256  # an array object beside its data, and its slot in a list
_WRITE_ROWS = 1 << 16  # edges, or layers, formatted per block; bounds the text held at once
# largest n whose edge codes i * n + j fit in an int64
_MAX_NODES = math.isqrt(2**63 - 1)


@dataclass(frozen=True)
class GenConfig:
    n: int
    layers: Optional[int] = None
    mu: Optional[float] = None
    seed: int = 0
    keep_layer_records: bool = False

    def __post_init__(self):
        if not 2 <= self.n <= _MAX_NODES:
            raise ValueError(f"need 2 <= n <= {_MAX_NODES}, got {self.n}")
        if (self.layers is None) == (self.mu is None):
            raise ValueError("exactly one of layers / mu must be given")
        if self.mu is not None and not math.isfinite(self.mu * self.n):
            raise ValueError(f"mu * n must be finite, got mu = {self.mu}")
        if self.m < 1:
            raise ValueError("derived layer count must be >= 1")

    @property
    def m(self) -> int:
        if self.layers is not None:
            return int(self.layers)
        return int(round(self.mu * self.n))


@dataclass(frozen=True)
class LayerTable:
    """A sample's layers in iid order: layer k's size[k] nodes and links[k] edges follow those of 0..k-1."""
    size: np.ndarray  # clamped to n
    strength: np.ndarray
    links: np.ndarray
    nodes: np.ndarray  # 1-based
    edges: np.ndarray  # shape (E, 2), 1-based, i < j


@dataclass(frozen=True)
class GraphSample:
    """Deduplicated undirected graph on nodes 1..n."""

    n: int
    edges: np.ndarray  # shape (E, 2), 1-based, i < j, lexicographically sorted
    m: Optional[int] = None
    seed: Optional[int] = None
    raw_edges: Optional[int] = None  # layer edges before the union
    layer_records: Optional[LayerTable] = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Distinct-neighbor counts per node, computed on first read; read-only."""
        check_memory(8 * (self.n + 1), "degree arrays")
        d = np.bincount(self.edges.ravel(), minlength=self.n + 1)[1:]
        d.flags.writeable = False
        return d


def _pair_indices(npairs: int, y: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in range(npairs), each selected independently with chance y."""
    if npairs == 0 or y <= 0.0:
        return np.empty(0, dtype=np.int64)
    if y >= 1.0:
        return np.arange(npairs, dtype=np.int64)
    if y > _DENSE_STRENGTH:
        return np.nonzero(rng.random(npairs) < y)[0]
    # geometric skip-sampling: expected cost proportional to edge count
    hits = []
    pos = -1
    est = max(8, int(npairs * y * 1.3) + 4)
    while True:
        # a skip past the end stops the walk alike at any length; capping it
        # keeps the cumulative sum from overflowing at tiny y
        skips = np.minimum(rng.geometric(y, size=est), npairs + 1)
        steps = pos + np.cumsum(skips)
        over = np.searchsorted(steps, npairs)
        hits.append(steps[:over])
        if over < len(steps):
            break
        pos = int(steps[-1])
    return np.concatenate(hits) if len(hits) > 1 else hits[0]


def _unrank_pairs(e: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Map lexicographic pair indices to (row, col) with row < col < x."""
    # row r occupies indices [r*(2x-r-1)/2, ...); invert the triangular offset
    t = x * (x - 1) // 2 - 1 - e
    k = ((np.sqrt(8.0 * t + 1) - 1) // 2).astype(np.int64)
    # the float root can be one off once 8t+1 is not exact in a double;
    # settle k as the largest integer with k(k+1)/2 <= t, testing
    # (k+1)(k+2)/2 <= t as k(k+3)/2 < t so that one temporary does
    k -= k * (k + 1) // 2 > t
    k += k * (k + 3) // 2 < t
    del t
    r = np.subtract(x - 2, k, out=k)
    return r, e + r + 1 - r * (2 * x - r - 1) // 2


def _subsets(n: int, rows: int, x: int, rng: np.random.Generator) -> np.ndarray:
    """(rows, x) array of sorted uniform x-subsets of range(n), x <= n.

    A row of sorted iid draws redraws only the slots that repeat a value:
    the rule treats all labels alike, so each row ends uniform over the
    subsets.  Above n / 2 the complement is drawn, to keep repeats rare.
    """
    k = min(x, n - x)
    out = np.sort(rng.integers(0, n, size=(rows, k)), axis=1)
    bad = np.flatnonzero((out[:, 1:] == out[:, :-1]).any(axis=1))
    while len(bad):
        sub = out[bad]
        repeat = sub[:, 1:] == sub[:, :-1]
        sub[:, 1:][repeat] = rng.integers(0, n, size=int(repeat.sum()))
        sub.sort(axis=1)
        out[bad] = sub
        bad = bad[(sub[:, 1:] == sub[:, :-1]).any(axis=1)]
    if k == x:
        return out
    mask = np.ones((rows, n), dtype=bool)
    mask[np.arange(rows)[:, None], out] = False
    return np.nonzero(mask)[1].reshape(rows, x)


def _sample_group(n, x, y, count, rng, blocks):
    """Edge codes of count layers of one atom of size x <= n and strength
    y, sampled in blocks of at most _DRAW_BUDGET draws.  Appends each
    block's node rows and edges per layer to blocks unless it is None."""
    npairs = x * (x - 1) // 2
    step = max(1, _DRAW_BUDGET // max(npairs, x, 1))
    codes = []
    for lo in range(0, count, step):
        layers = min(step, count - lo)
        nodes = _subsets(n, layers, x, rng)
        # one Bernoulli(y) walk over the block's pairs, layer after layer
        row, pair = np.divmod(_pair_indices(layers * npairs, y, rng), max(npairs, 1))
        if blocks is not None:
            blocks.append((nodes.ravel() + 1, np.bincount(row, minlength=layers)))
        # a pair table takes about a fifth of the time per pair that
        # unranking takes per edge; its size stays within the draw budget
        if npairs <= min(4 * len(pair), _DRAW_BUDGET):
            r, c = (t[pair] for t in np.triu_indices(x, 1))
        else:
            r, c = _unrank_pairs(pair, x)
        row *= x  # each endpoint as its flat position in nodes.ravel()
        r += row
        c += row
        del row, pair  # each index is freed once it is used
        code = nodes.ravel()[r]
        del r
        code *= n
        code += nodes.ravel()[c]
        codes.append(code)
        del nodes, c, code  # so that the next block draws without them
    return codes


def check_sampler_budget(config: GenConfig, dist: LayerTypeDistribution) -> None:
    """Raise MemoryBudgetExceeded if sampling the graph would not fit."""
    x = np.minimum(dist.sizes, config.n).astype(float)  # the sampler clamps sizes to n
    pairs = x * (x - 1) / 2
    per_layer = pairs * dist.strengths  # mean edge codes a layer of each atom draws, Bin(pairs, strength)
    # a layer's variance, plus that of its mean across atoms, as the layer types are one multinomial draw
    var = float(dist.probs @ (per_layer * (1 - dist.strengths) + per_layer**2)) - float(dist.probs @ per_layer) ** 2
    codes = config.m * float(dist.probs @ per_layer) + _CODE_SDS * math.sqrt(config.m * max(var, 0.0))
    # a word a layer (the permutation of kept layers), and the largest of three peaks: sampling holds
    # the codes so far and one block of an atom's layers (no more than the Bin(m, prob) layers it gets,
    # taken like the codes and at least 1), at 26 bytes a label as it draws the subsets,
    # then 8 a label, 9 a pair at a dense strength and 40 an edge, and 18 a pair of one layer where
    # the block decodes from a pair table; joining the codes holds 16 bytes a code; the union 9 a code
    # and 16 a distinct edge.  Until the join, each block's codes are one more array in a list.  Kept
    # layers add 11 words a layer, 4 a node and 5 an edge as they are reordered
    dense = (dist.strengths > _DENSE_STRENGTH) & (dist.strengths < 1)
    layers = np.minimum(config.m, np.maximum(1, _DRAW_BUDGET // np.maximum(np.maximum(pairs, x), 1)))
    got = config.m * dist.probs + _CODE_SDS * np.sqrt(config.m * dist.probs * (1 - dist.probs))
    held = np.minimum(layers, np.maximum(got, dist.probs > 0))
    table = pairs <= np.minimum(4 * held * pairs * dist.strengths, _DRAW_BUDGET)  # as _sample_group decides
    block = held * np.maximum(26 * x, 8 * x + pairs * (9 * dense + 40 * dist.strengths)) + 18 * pairs * table
    # at most one part-filled block per atom besides the full ones
    arrays = _ARRAY_BYTES * (config.m * float(dist.probs @ (1 / layers)) + min(config.m, len(x)))
    edges = min(codes, config.n * (config.n - 1) / 2)
    need = 8 * config.m + max(8 * codes + float(np.max(block, initial=0)) + arrays, 16 * codes + arrays,
                              9 * codes + 16 * edges)
    if config.keep_layer_records:
        need += config.m * (88 + 32 * float(dist.probs @ x)) + 40 * codes
    check_memory(need, "sampled layers")


def generate_graph(config: GenConfig, dist: LayerTypeDistribution) -> GraphSample:
    """Sample the full superposition graph.

    Output is a pure function of (seed, config, dist).
    """
    check_sampler_budget(config, dist)
    n, m = config.n, config.m
    rng = np.random.Generator(np.random.Philox(key=config.seed & 0xFFFFFFFFFFFFFFFF))
    counts = rng.multinomial(m, dist.probs)
    sizes = np.minimum(dist.sizes, n)
    edged = (sizes >= 2) & (dist.strengths > 0)
    blocks = [] if config.keep_layer_records else None
    # layers that draw no edge draw their nodes only for records, and last,
    # so the edges do not depend on whether records are kept
    atoms = np.concatenate([np.flatnonzero((counts > 0) & ok) for ok in (edged, ~edged & config.keep_layer_records)])
    codes = [np.empty(0, dtype=np.int64)]
    for atom in atoms.tolist():
        codes += _sample_group(n, int(sizes[atom]), float(dist.strengths[atom]), int(counts[atom]), rng, blocks)
    codes = np.concatenate(codes)
    table = None
    if blocks is not None:
        # grouped by atom until here; in a uniform order the layers are an
        # iid sequence.  Group g's nodes are one (layers, x[g]) array, so
        # layer j in sampling order starts at node first[g] + j * x[g]
        per, x = counts[atoms], sizes[atoms]
        first = np.cumsum(per * x) - per * x - (np.cumsum(per) - per) * x
        nodes, links = (np.concatenate(column) for column in zip(*blocks))
        edge_start = np.cumsum(links) - links
        order = rng.permutation(m)
        group, links = np.take(np.repeat(np.arange(len(atoms)), per), order), np.take(links, order)
        size, linked = x[group], np.flatnonzero(links)
        kept = _runs(codes, edge_start[order[linked]], links[linked])
        table = LayerTable(size, dist.strengths[atoms][group], links, _runs(nodes, first[group] + order * size, size),
                           np.stack([kept // n + 1, kept % n + 1], axis=1))
    return GraphSample(n=n, edges=_edges_from_codes(codes, n), m=m, seed=config.seed, raw_edges=len(codes),
                       layer_records=table)


def _runs(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """values[s : s + k] for each s and k of starts and lengths, end to end."""
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(len(index))
    return np.take(values, index)


def _edges_from_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct (E, 2) 1-based edges from codes i * n + j, 0-based;
    sorts and compacts codes in place, so it holds a flag a code besides."""
    codes.sort()  # then drop repeats: np.unique's hash pass is many times slower
    distinct = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
    kept = np.count_nonzero(distinct)
    codes[:kept] = codes[distinct]
    edges = np.empty((kept, 2), dtype=np.int64)
    np.divmod(codes[:kept], n, out=(edges[:, 0], edges[:, 1]))
    edges += 1
    return edges


# -- edge-list files ------------------------------------------------------

def write_edge_list(g: GraphSample, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# superpose-net n={g.n} m={g.m} seed={g.seed}\n")
        for first in range(0, len(g.edges), _WRITE_ROWS):
            block = g.edges[first : first + _WRITE_ROWS]
            fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


def read_edge_list(path) -> GraphSample:
    """Graph of a file of "i j" lines, below "# key=value" header lines.

    Only the header's n is read (default: the largest id), and is checked
    as an integer; other "key=value" comments are ignored, so m and seed
    are None.  Repeated edges and both orientations merge into one edge.
    Raises InvalidEdgeList for a line that is not two integers, a node id
    outside 1..n, or a self-loop.
    """
    meta = {}
    try:
        with open(path) as fh:  # a byte that is not UTF-8 raises UnicodeDecodeError, a ValueError
            for line in fh:
                text = line.strip()
                if text and not text.startswith("#"):
                    break
                meta.update(tok.split("=", 1) for tok in text[1:].split() if "=" in tok)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # raised for a file without edges
            ids = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
        n = int(meta["n"]) if meta.get("n", "None") != "None" else None
    except ValueError as exc:
        raise InvalidEdgeList(f"{path}: {exc}") from None
    if ids.size == 0:
        ids = ids.reshape(0, 2)
    if ids.shape[1] != 2:
        raise InvalidEdgeList(f"{path}: lines hold {ids.shape[1]} node ids, not 2")
    lo, hi = ids.min(axis=1), ids.max(axis=1)
    if n is None:
        n = int(hi.max(initial=0))
    if not 0 <= n <= _MAX_NODES:
        raise InvalidEdgeList(f"{path}: n = {n} is outside 0..{_MAX_NODES}")
    if len(ids) and (lo.min() < 1 or hi.max() > n):
        raise InvalidEdgeList(f"{path}: a node id lies outside 1..{n}")
    if np.any(lo == hi):
        raise InvalidEdgeList(f"{path}: self-loop at node {int(lo[lo == hi][0])}")
    edges = _edges_from_codes((lo - 1) * n + hi - 1, n)
    return GraphSample(n=n, edges=edges)


def write_layer_records(g: GraphSample, path) -> None:
    t = g.layer_records
    if t is None:
        raise MissingRecords("sample was generated without keep_layer_records")
    a = b = 0
    with open(path, "w") as fh:
        for first in range(0, len(t.size), _WRITE_ROWS):
            for x, y, k in zip(*(col[first : first + _WRITE_ROWS].tolist() for col in (t.size, t.strength, t.links))):
                # json.dumps's text for these ints, lists and finite floats, at twice its speed
                fh.write(f'{{"size": {x}, "strength": {y!r}, "nodes": {t.nodes[a : a + x].tolist()}, '
                         f'"edges": {t.edges[b : b + k].tolist()}}}\n')
                a, b = a + x, b + k


# -- measurements of a sample --------------------------------------------

def degree_distribution(g: GraphSample) -> Pmf:
    """Fraction of nodes at each degree."""
    if g.n < 1:
        raise Degenerate("degree distribution needs at least one node")
    counts = np.bincount(g.degrees)
    return Pmf(counts / g.n)


def bidegree_counts(g: GraphSample) -> np.ndarray:
    """Directed adjacent pairs at each (degree, degree): a symmetric
    integer table that sums to twice the edge count."""
    if g.edge_count == 0:
        raise Degenerate("bidegree distribution needs at least one edge")
    deg = g.degrees
    width = int(deg.max()) + 1
    # the larger of two peaks, 24 bytes an edge as the codes are built and 16 a cell as the table
    # and its symmetric sum are, plus the 64 KiB buffer that numpy takes for the transposed operand
    # and the array objects; counting holds 8 bytes an edge and 8 a cell, at most 5/6 of the larger
    check_memory(max(24 * g.edge_count, 16 * width * width) + (1 << 16) + 4 * _ARRAY_BYTES,
                 "empirical bidegree law")
    codes = deg[g.edges[:, 0] - 1] * width
    codes += deg[g.edges[:, 1] - 1]
    table = np.bincount(codes, minlength=width * width).reshape(width, width)
    del codes
    return table + table.T


def bidegree_distribution(g: GraphSample) -> Pmf:
    """Joint degree law of a uniform directed adjacent pair; symmetric."""
    return Pmf(bidegree_counts(g) / (2.0 * g.edge_count))


def layer_subgraph_counts(records) -> dict:
    """Mean links, 2-stars, and 3-stars per layer graph of a LayerTable, from the degrees
    within each layer: every endpoint keyed by (layer, node), in one pass."""
    if records is None:
        raise MissingRecords("no layer records available")
    m, edges = len(records.links), records.edges
    width = int(edges.max(initial=0)) + 1
    d = np.unique(edges + (np.repeat(np.arange(m), records.links) * width)[:, None], return_counts=True)[1]
    d = d.astype(float)  # integer sums below 2**53, so exact
    return {"links": len(edges) / m, "two_stars": float(np.sum(d * (d - 1) / 2)) / m,
            "three_stars": float(np.sum(d * (d - 1) * (d - 2) / 6)) / m}
