"""Bernoulli realization of the missing adjacency blocks.

The recovered structure keeps the observed graph untouched and stores the
sampled bipartite block (observed x recovered) and the block among
recovered nodes separately, each as a read-only (k, 2) array of edges
sorted by (u, v). Recovered nodes are addressed by full-graph ids
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
    """The observed graph plus the realized missing block. `z1` and `z2`
    take any iterable of pairs and are stored as `_edge_rows` arrays; a
    pair outside its block raises ValueError."""

    base: Graph
    m: int
    z1: np.ndarray  # rows (u, r) with u in [0, N), r in [N, N+M)
    z2: np.ndarray  # rows (r1, r2) with N <= r1 < r2 < N+M

    def __post_init__(self):
        n = self.base.n
        z1, z2 = _edge_rows(self.z1, n + self.m), _edge_rows(self.z2, n + self.m)
        if z1.size and not z1[:, 0].max() < n <= z1[:, 1].min():
            raise ValueError(f"a Z1 edge must join an observed id < N = {n} to a recovered id >= N")
        if z2.size and not (z2[:, 0].min() >= n and np.all(z2[:, 0] < z2[:, 1])):
            raise ValueError(f"a Z2 edge must join two distinct recovered ids >= N = {n}")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, RecoveredGraph) and self.m == other.m and self.base == other.base):
            return False
        return np.array_equal(self.z1, other.z1) and np.array_equal(self.z2, other.z2)

    @property
    def n_observed(self) -> int:
        return self.base.n

    @property
    def recovered_ids(self) -> list[int]:
        return list(range(self.base.n, self.base.n + self.m))

    def block_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (u, v) of the recovered-block edges, z1 then z2."""
        pairs = np.concatenate([self.z1, self.z2])
        return pairs[:, 0], pairs[:, 1]

    def degrees(self) -> np.ndarray:
        """Degree of every node of the fully recovered graph (N + M nodes)."""
        deg = np.bincount(np.concatenate(self.block_edges()), minlength=self.base.n + self.m)
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
    us, vs = sample_missing_block(model, mapping.sigma, g_obs.n, rng)
    pairs = np.column_stack([us, vs])
    observed = us < g_obs.n
    return RecoveredGraph(base=g_obs, m=m, z1=pairs[observed], z2=pairs[~observed])


def as_graph(rg: RecoveredGraph, i: int, order: Sequence[int] | None = None) -> Graph:
    """Graph on N+i nodes: the base plus the recovered-block edges whose
    recovered endpoints are all among the first i nodes of `order`.

    `order` lists distinct recovered-node ids (full-graph indexing); the
    selected nodes are reindexed to N, N+1, ... in order. Defaults to the
    internal recovered order.
    """
    n = rg.base.n
    if order is None:
        order = rg.recovered_ids
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
    ru, rv = rg.block_edges()
    eu, ev = neighbour_arrays(rg.base)[2:]
    return relabelled(n + i, new_id, np.concatenate([eu, ru]), np.concatenate([ev, rv]))
