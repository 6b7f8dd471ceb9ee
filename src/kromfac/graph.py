"""Sparse undirected graph representation and edge-list ingestion.

Graphs are simple (no self-loops, no parallel edges) and use dense
0-based integer node ids internally. External ids from input files are
preserved through a :class:`NodeIdMap`.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, TextIO

import numpy as np

logger = logging.getLogger(__name__)


class EdgeListParseError(ValueError):
    """Raised when an edge-list line cannot be parsed."""

    def __init__(self, line_no: int, line: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: expected two tokens, got {line!r}")


@dataclass(frozen=True)
class NodeIdMap:
    """Bijection between external node labels and dense internal ids."""

    to_internal: dict
    to_external: list

    def external(self, internal_id: int):
        return self.to_external[internal_id]

    def internal(self, external_id) -> int:
        return self.to_internal[external_id]


class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adjacency", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adjacency = [sorted(s) for s in adj]
        self.edge_count = sum(len(a) for a in self.adjacency) // 2

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adjacency[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, sorted by (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def neighbour_arrays(g: Graph) -> tuple[np.ndarray, ...]:
    """CSR neighbour slices of g (the neighbours of u are
    indices[indptr[u]:indptr[u+1]]) and the endpoints (eu, ev) of each
    edge once, u < v, sorted by (u, v)."""
    indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum([len(a) for a in g.adjacency], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=int(indptr[-1]))
    eu = np.repeat(np.arange(g.n, dtype=np.intp), np.diff(indptr))
    keep = eu < indices
    return indptr, indices, eu[keep], indices[keep]


def load_edge_list(source: Iterable[str] | TextIO) -> tuple[Graph, NodeIdMap]:
    """Parse an edge list: one edge per line, two whitespace-separated
    tokens, '#' lines are comments.

    Duplicate edges collapse, self-loops are dropped (with a counted
    warning). External node labels are remapped to dense 0-based ids in
    first-seen order.
    """
    to_internal: dict = {}
    to_external: list = []
    edges: set[tuple[int, int]] = set()
    dropped_loops = 0

    def intern(token):
        if token not in to_internal:
            to_internal[token] = len(to_external)
            to_external.append(token)
        return to_internal[token]

    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, raw.rstrip("\n"))
        u, v = intern(tokens[0]), intern(tokens[1])
        if u == v:
            dropped_loops += 1
            continue
        edges.add((min(u, v), max(u, v)))

    if dropped_loops:
        logger.warning("dropped %d self-loop(s) during edge-list ingestion", dropped_loops)
    g = Graph(len(to_external), edges)
    return g, NodeIdMap(to_internal, to_external)


def write_edge_list(g: Graph, sink: TextIO, id_map: NodeIdMap | None = None) -> None:
    """Emit the graph in edge-list form, one edge per line sorted by (u, v)."""
    for u, v in g.edges():
        if id_map is not None:
            sink.write(f"{id_map.external(u)} {id_map.external(v)}\n")
        else:
            sink.write(f"{u} {v}\n")


def induced_subgraph(g: Graph, keep: set[int]) -> tuple[Graph, NodeIdMap]:
    """Subgraph on `keep`, reindexed densely; the id map records original ids."""
    for u in keep:
        if not (0 <= u < g.n):
            raise ValueError(f"node {u} out of range for n={g.n}")
    kept = sorted(keep)
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges()
        if u in remap and v in remap
    ]
    return Graph(len(kept), edges), NodeIdMap(remap, kept)
