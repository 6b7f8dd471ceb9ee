"""Bernoulli realization of the missing adjacency blocks.

The recovered structure keeps the observed graph untouched and stores the
sampled bipartite block (observed x recovered) and the block among
recovered nodes separately. Recovered nodes are addressed by full-graph
ids N .. N+M-1 under their fixed internal order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .graph import Graph
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
    new_id = {r: n + j for j, r in enumerate(chosen)}
    edges = list(rg.base.edges())
    for u, r in rg.z1:
        if r in new_id:
            edges.append((u, new_id[r]))
    for r1, r2 in rg.z2:
        if r1 in new_id and r2 in new_id:
            edges.append((new_id[r1], new_id[r2]))
    return Graph(n + i, edges)
