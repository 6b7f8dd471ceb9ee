"""Bernoulli realization of the missing adjacency blocks.

The recovered structure keeps the observed graph untouched and stores the
sampled block, the edges with at least one recovered endpoint, once: a
read-only (k, 2) array of edges (u, v), u < v, sorted by (u, v). Its
prefix with u < N is the bipartite block Z1 (observed x recovered), the
rest the block Z2 among recovered nodes; `z1` and `z2` are read-only
views of those two parts. Recovered nodes are addressed by full-graph ids
N .. N+M-1 under their fixed internal order. Candidate graphs and degrees
are assembled in numpy from the base graph's edge arrays and the
recovered block's edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .graph import Graph, neighbour_arrays, relabelled, unique_pairs
from .kron import KroneckerModel, NodeMapping, _check_placement, sample_missing_block


def _edge_rows(pairs: np.ndarray | Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """The distinct unordered pairs of ids in [0, n) as a read-only (k, 2)
    intp array of rows (u, v), u < v, sorted by (u, v)."""
    rows = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
    rows = rows.reshape(len(rows), 2)
    if rows.size and not (rows.dtype.kind in "iu" and rows.min() >= 0 and rows.max() < n):
        raise ValueError(f"a recovered-block edge is not a pair of ids in [0, N + M = {n})")
    rows = np.column_stack(unique_pairs(n, *rows.astype(np.intp).T))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class RecoveredGraph:
    """The observed graph plus the realized missing block. `edges` takes
    any iterable of pairs and is stored as an `_edge_rows` array; a pair
    outside the block raises ValueError."""

    base: Graph
    m: int
    edges: np.ndarray  # rows (u, v), u < v, with v in [N, N+M)

    def __post_init__(self):
        n = self.base.n
        if self.m < 0:
            raise ValueError(f"the recovered node count m must be >= 0, got m={self.m}")
        edges = _edge_rows(self.edges, n + self.m)
        if edges.size and not (edges[:, 1].min() >= n and np.all(edges[:, 0] < edges[:, 1])):
            raise ValueError(f"a recovered-block edge must join two distinct ids, the larger >= N = {n}")
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, RecoveredGraph) and self.m == other.m and self.base == other.base):
            return False
        return np.array_equal(self.edges, other.edges)

    @property
    def z1(self) -> np.ndarray:
        """The rows (u, r) with u in [0, N), r in [N, N+M): a prefix of `edges`."""
        return self.edges[:np.searchsorted(self.edges[:, 0], self.base.n)]

    @property
    def z2(self) -> np.ndarray:
        """The rows (r1, r2) with N <= r1 < r2 < N+M: the rest of `edges`."""
        return self.edges[np.searchsorted(self.edges[:, 0], self.base.n):]

    def degrees(self) -> np.ndarray:
        """Degree of every node of the fully recovered graph (N + M nodes)."""
        deg = np.bincount(self.edges.ravel(), minlength=self.base.n + self.m)
        deg[:self.base.n] += np.diff(neighbour_arrays(self.base)[0])
        return deg

    def write(self, sink: TextIO) -> None:
        sink.write("#BASE\n")
        for u, v in self.base.edges():
            sink.write(f"{u} {v}\n")
        for header, rows in (("#Z1", self.z1), ("#Z2", self.z2)):
            sink.write(f"{header}\n")
            for u, v in rows.tolist():
                sink.write(f"{u} {v}\n")


def realize_missing(
    g_obs: Graph,
    model: KroneckerModel,
    mapping: NodeMapping,
    m: int,
    seed: int,
) -> RecoveredGraph:
    """Sample the missing blocks by independent Bernoulli trials.

    Each unordered pair (u, v), u < v, with at least one endpoint among
    the M missing positions is drawn with probability
    kron_entry(model, sigma(u), sigma(v)). Pairs are enumerated row-major
    (by sample_missing_block, the sampler the E-step uses) so
    realizations are reproducible per seed. The N + m positions are first
    checked by kron's _check_placement (mapping length, index space, every
    index in [0, n0^k)), for m = 0 too.
    """
    _check_placement(g_obs.n + m, mapping, model)
    rng = np.random.default_rng(seed)
    edges = np.column_stack(sample_missing_block(model, mapping.sigma, g_obs.n, rng))
    return RecoveredGraph(base=g_obs, m=m, edges=edges)


def as_graph(rg: RecoveredGraph, i: int, order: Sequence[int] | None = None) -> Graph:
    """Graph on N+i nodes: the base plus the recovered-block edges whose
    recovered endpoints are all among the first i nodes of `order`.

    `order` lists distinct recovered-node ids (full-graph indexing); the
    selected nodes are reindexed to N, N+1, ... in order. Defaults to the
    internal recovered order.
    """
    n = rg.base.n
    if order is None:
        order = range(n, n + rg.m)
    if not (0 <= i <= len(order)):
        raise ValueError(f"i={i} exceeds the {len(order)} listed recovered nodes")
    chosen = list(order[:i])
    if len(set(chosen)) != len(chosen):
        raise ValueError("order contains duplicate recovered-node ids")
    for r in chosen:
        if not (n <= r < n + rg.m):
            raise ValueError(f"{r} is not a recovered-node id")
    # Full-graph id -> candidate id: observed nodes keep theirs, chosen
    # recovered nodes take N, N+1, ... in order, the rest -1.
    new_id = np.full(n + rg.m, -1, dtype=np.intp)
    new_id[:n] = np.arange(n)
    new_id[np.array(chosen, dtype=np.intp)] = np.arange(n, n + i)
    ru, rv = rg.edges.T
    eu, ev = neighbour_arrays(rg.base)[2:]
    return relabelled(n + i, new_id, np.concatenate([eu, ru]), np.concatenate([ev, rv]))
