"""Bernoulli realization of the missing adjacency blocks.

The recovered structure keeps the observed graph untouched and stores the
sampled bipartite block (observed x recovered) and the block among
recovered nodes separately. Recovered nodes are addressed by full-graph
ids N .. N+M-1 under their fixed internal order. Candidate graphs and
degrees are assembled in numpy from the base graph's edge arrays and the
recovered block's edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .graph import Graph, neighbour_arrays
from .kron import KroneckerModel, NodeMapping, sample_missing_block


@dataclass(frozen=True)
class RecoveredGraph:
    base: Graph
    m: int
    z1: frozenset  # (u, r) with u in [0, N), r in [N, N+M)
    z2: frozenset  # (r1, r2) with N <= r1 < r2 < N+M

    @property
    def n_observed(self) -> int:
        return self.base.n

    @property
    def recovered_ids(self) -> list[int]:
        return list(range(self.base.n, self.base.n + self.m))

    def block_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (u, v) of the recovered-block edges, z1 then z2."""
        pairs = np.array([*self.z1, *self.z2], dtype=np.intp).reshape(-1, 2)
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
        sink.write("#Z1\n")
        for u, r in sorted(self.z1):
            sink.write(f"{u} {r}\n")
        sink.write("#Z2\n")
        for r1, r2 in sorted(self.z2):
            sink.write(f"{r1} {r2}\n")

    @classmethod
    def read(cls, source, n_observed: int, m: int) -> "RecoveredGraph":
        section = None
        base_edges, z1, z2 = [], set(), set()
        for raw in source:
            line = raw.strip()
            if not line:
                continue
            if line in ("#BASE", "#Z1", "#Z2"):
                section = line
                continue
            u, v = (int(t) for t in line.split())
            if section == "#BASE":
                base_edges.append((u, v))
            elif section == "#Z1":
                z1.add((u, v))
            elif section == "#Z2":
                z2.add((min(u, v), max(u, v)))
            else:
                raise ValueError("edge line before a section header")
        return cls(
            base=Graph(n_observed, base_edges),
            m=m,
            z1=frozenset(z1),
            z2=frozenset(z2),
        )


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
    realizations are reproducible per seed.
    """
    n = g_obs.n + m
    if len(mapping) != n:
        raise ValueError("mapping must cover N + m positions")
    sigma = mapping.sigma
    if m and not (0 <= sigma.min() and sigma.max() < model.num_indices):
        raise ValueError(f"index out of range for n0^k={model.num_indices}")
    rng = np.random.default_rng(seed)
    us, vs = sample_missing_block(model, sigma, g_obs.n, rng)
    observed = us < g_obs.n
    z1 = zip(us[observed].tolist(), vs[observed].tolist())
    z2 = zip(us[~observed].tolist(), vs[~observed].tolist())
    return RecoveredGraph(base=g_obs, m=m, z1=frozenset(z1), z2=frozenset(z2))


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
    ru, rv = (new_id[x] for x in rg.block_edges())
    inside = (ru >= 0) & (rv >= 0)
    ru, rv = ru[inside], rv[inside]
    eu, ev = neighbour_arrays(rg.base)[2:]
    eu = np.concatenate([eu, np.minimum(ru, rv)])
    ev = np.concatenate([ev, np.maximum(ru, rv)])
    return Graph.from_arrays(n + i, eu, ev)
