"""Sparse undirected graph representation and edge-list ingestion.

Graphs are simple (no self-loops, no parallel edges) and use dense
0-based integer node ids internally. External ids from input files are
preserved through a :class:`NodeIdMap`.

A graph is held in one of two forms and builds the other only when it is
read: sorted per-node neighbour lists (`Graph(n, edges)` from tuples, as
`load_edge_list` makes) or numpy CSR arrays (`Graph.from_arrays`, as the
EM state and the candidate search make). `neighbour_arrays` returns the
CSR, built at most once per graph; the pipeline hands graphs from stage
to stage in that form.
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
    """Immutable simple undirected graph.

    Built from tuples, it holds sorted adjacency lists and computes its
    CSR arrays on the first `neighbour_arrays` call. Built by
    `from_arrays`, it holds the CSR arrays (read-only) and computes the
    lists on the first read of `adjacency`. Either way each form is built
    at most once, and both give the same `adjacency`, `edges()`,
    `degrees()` and `neighbour_arrays`.
    """

    __slots__ = ("n", "edge_count", "_adjacency", "_arrays")

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
        self._adjacency = [sorted(s) for s in adj]
        self.edge_count = sum(len(a) for a in self._adjacency) // 2
        self._arrays = None

    @classmethod
    def from_arrays(cls, n: int, eu: np.ndarray, ev: np.ndarray) -> "Graph":
        """The graph on n nodes with edges (eu[j], ev[j]), eu < ev, each
        edge listed once, in any order."""
        if n < 0:
            raise ValueError("node count must be nonnegative")
        eu = np.asarray(eu, dtype=np.intp)
        ev = np.asarray(ev, dtype=np.intp)
        if eu.shape != ev.shape or eu.ndim != 1:
            raise ValueError("eu and ev must be 1-d arrays of one length")
        if eu.size and not (eu.min() >= 0 and ev.max() < n and np.all(eu < ev)):
            raise ValueError(f"need 0 <= eu < ev < n={n} for every edge")
        # Each edge in both directions as the key w * n + x. Sorted, the keys
        # list every node's neighbours in ascending order, and those with
        # w < x list the edges sorted by (u, v).
        keys = np.sort(np.concatenate([eu * n + ev, ev * n + eu]))
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("an edge is listed more than once")
        src, indices = keys // n, keys % n
        upper = src < indices
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        g = object.__new__(cls)
        g.n = n
        g.edge_count = int(eu.size)
        g._adjacency = None
        g._arrays = _frozen(indptr, indices, src[upper], indices[upper])
        return g

    @property
    def adjacency(self) -> list[list[int]]:
        """Sorted neighbour list of each node."""
        if self._adjacency is None:
            indptr, indices = self._arrays[:2]
            flat, ends = indices.tolist(), indptr.tolist()
            self._adjacency = [flat[a:b] for a, b in zip(ends, ends[1:])]
        return self._adjacency

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adjacency[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, sorted by (u, v) with u < v."""
        eu, ev = neighbour_arrays(self)[2:]
        return zip(eu.tolist(), ev.tolist())

    def degrees(self) -> list[int]:
        return np.diff(neighbour_arrays(self)[0]).tolist()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not (isinstance(other, Graph) and self.n == other.n):
            return False
        mine, theirs = neighbour_arrays(self), neighbour_arrays(other)
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(mine[1], theirs[1])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def neighbour_arrays(g: Graph) -> tuple[np.ndarray, ...]:
    """CSR neighbour slices of g (the neighbours of u are
    indices[indptr[u]:indptr[u+1]]) and the endpoints (eu, ev) of each
    edge once, u < v, sorted by (u, v).

    Built at most once per graph and shared: the arrays are read-only."""
    if g._arrays is None:
        adjacency = g._adjacency
        indptr = np.zeros(g.n + 1, dtype=np.intp)
        np.cumsum([len(a) for a in adjacency], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.intp, count=int(indptr[-1]))
        eu = np.repeat(np.arange(g.n, dtype=np.intp), np.diff(indptr))
        keep = eu < indices
        g._arrays = _frozen(indptr, indices, eu[keep], indices[keep])
    return g._arrays


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
