"""Sparse undirected graph representation and edge-list ingestion.

Graphs are simple (no self-loops, no parallel edges) and use dense
0-based integer node ids internally. External ids from input files are
preserved through a :class:`NodeIdMap`.

A graph is stored in one form only: read-only numpy CSR arrays, built
when the graph is constructed (`Graph(n, edges)` from pairs, as
`load_edge_list` makes it, or `Graph.from_arrays`, as the EM state and
the candidate search make it). `neighbour_arrays` returns them, and the
pipeline hands graphs from stage to stage in that form. The sorted
neighbour lists of `adjacency` are derived from the CSR on first read.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

logger = logging.getLogger(__name__)

# Rows drawn together by bernoulli_pairs: O(_ROW_BLOCK * n) numbers at a
# time, never n x n.
_ROW_BLOCK = 256


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

    It holds its CSR arrays (read-only, see `neighbour_arrays`) and
    nothing else of its edges; `adjacency` is a list view derived from
    them on first read and cached.
    """

    __slots__ = ("n", "edge_count", "_adjacency", "_arrays")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """The graph on n nodes with the (u, v) pairs; reversed and repeated pairs collapse."""
        edges = list(edges)
        pairs = np.array(edges).reshape(len(edges), 2)
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError(f"node ids must be integers, got {pairs.dtype}")
        u, v = pairs.astype(np.intp).T
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        if bad.any():
            a, b = edges[int(np.argmax(bad))]
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            raise ValueError(f"self-loop at node {a}")
        self._build(n, *unique_pairs(n, u, v))

    @classmethod
    def from_arrays(cls, n: int, eu: np.ndarray, ev: np.ndarray) -> "Graph":
        """The graph on n nodes with edges (eu[j], ev[j]), eu < ev, each
        edge listed once, in any order."""
        eu = np.asarray(eu, dtype=np.intp)
        ev = np.asarray(ev, dtype=np.intp)
        if eu.shape != ev.shape or eu.ndim != 1:
            raise ValueError("eu and ev must be 1-d arrays of one length")
        if eu.size and not (eu.min() >= 0 and ev.max() < n and np.all(eu < ev)):
            raise ValueError(f"need 0 <= eu < ev < n={n} for every edge")
        g = object.__new__(cls)
        g._build(n, eu, ev)
        return g

    def _build(self, n: int, eu: np.ndarray, ev: np.ndarray) -> None:
        """Store the CSR of the edges (eu[j], ev[j]), 0 <= eu < ev < n."""
        if n < 0:
            raise ValueError("node count must be nonnegative")
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
        self.n = n
        self.edge_count = int(eu.size)
        self._arrays = (indptr, indices, src[upper], indices[upper])
        for a in self._arrays:
            a.flags.writeable = False
        self._adjacency = None

    @property
    def adjacency(self) -> list[list[int]]:
        """Sorted neighbour list of each node."""
        if self._adjacency is None:
            flat, ends = self._arrays[1].tolist(), self._arrays[0].tolist()
            self._adjacency = [flat[a:b] for a, b in zip(ends, ends[1:])]
        return self._adjacency

    def degree(self, u: int) -> int:
        return int(self._arrays[0][u + 1] - self._arrays[0][u])

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adjacency[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, sorted by (u, v) with u < v."""
        eu, ev = self._arrays[2:]
        return zip(eu.tolist(), ev.tolist())

    def degrees(self) -> list[int]:
        return np.diff(self._arrays[0]).tolist()

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Graph) and self.n == other.n):
            return False
        mine, theirs = self._arrays, other._arrays
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(mine[1], theirs[1])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def unique_pairs(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs {u[j], v[j]} (u != v, both in [0, n))
    as edge arrays (eu, ev), eu < ev, sorted by (u, v)."""
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys >= 0: the first is kept
    return keys // n, keys % n


def bernoulli_pairs(
    n: int, first: int, prob: Callable[[np.ndarray], np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One Bernoulli draw per pair u < v < n with v >= first: the sampler of
    the Kronecker E-step, of realize_missing and of agm_generate.

    prob(rows) gives the probabilities of a block of rows against the
    columns first..n-1, shape (len(rows), n - first). Pairs are visited in
    row-major order, with one sized rng.random draw per block of _ROW_BLOCK
    rows: the same stream, and the same outcomes, as one scalar draw per
    pair. Returns the joined pairs (eu, ev), row-major.
    """
    cols = np.arange(first, n)
    eu, ev = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for r0 in range(0, n - 1 if cols.size else 0, _ROW_BLOCK):
        rows = np.arange(r0, min(r0 + _ROW_BLOCK, n - 1))
        p = prob(rows)
        upper = rows[:, None] < cols
        draw = np.zeros(p.shape)
        draw[upper] = rng.random(np.count_nonzero(upper))
        hit_r, hit_c = np.nonzero(upper & (draw < p))
        del p, draw  # free this block before the next one is built
        eu.append(rows[hit_r])
        ev.append(cols[hit_c])
    return np.concatenate(eu), np.concatenate(ev)


def neighbour_arrays(g: Graph) -> tuple[np.ndarray, ...]:
    """CSR neighbour slices of g (the neighbours of u are
    indices[indptr[u]:indptr[u+1]]) and the endpoints (eu, ev) of each
    edge once, u < v, sorted by (u, v).

    These are the graph's stored arrays, shared by every caller: they are
    read-only."""
    return g._arrays


def load_edge_list(source: Iterable[str] | TextIO) -> tuple[Graph, NodeIdMap]:
    """Parse an edge list: one edge per line, two whitespace-separated
    tokens, '#' lines are comments.

    Duplicate edges collapse, self-loops are dropped (with a counted
    warning). External node labels are remapped to dense 0-based ids in
    first-seen order.
    """
    to_internal: dict = {}
    us: list[int] = []
    vs: list[int] = []
    dropped_loops = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, raw.rstrip("\n"))
        u, v = (to_internal.setdefault(t, len(to_internal)) for t in tokens)
        if u == v:
            dropped_loops += 1
            continue
        us.append(u)
        vs.append(v)

    if dropped_loops:
        logger.warning("dropped %d self-loop(s) during edge-list ingestion", dropped_loops)
    n = len(to_internal)
    eu, ev = unique_pairs(n, np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp))
    return Graph.from_arrays(n, eu, ev), NodeIdMap(to_internal, list(to_internal))


def write_edge_list(g: Graph, sink: TextIO, id_map: NodeIdMap | None = None) -> None:
    """Emit the graph in edge-list form, one edge per line sorted by (u, v)."""
    for u, v in g.edges():
        if id_map is not None:
            sink.write(f"{id_map.external(u)} {id_map.external(v)}\n")
        else:
            sink.write(f"{u} {v}\n")


def relabelled(n: int, new_id: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> Graph:
    """The graph on n nodes with an edge (new_id[eu[j]], new_id[ev[j]]) for
    each j whose two ends map into [0, n); the other nodes map to -1."""
    ru, rv = new_id[eu], new_id[ev]
    inside = (ru >= 0) & (rv >= 0)
    ru, rv = ru[inside], rv[inside]
    return Graph.from_arrays(n, np.minimum(ru, rv), np.maximum(ru, rv))


def induced_subgraph(g: Graph, keep: set[int]) -> tuple[Graph, NodeIdMap]:
    """Subgraph on `keep`, reindexed densely; the id map records original ids."""
    for u in keep:
        if not (0 <= u < g.n):
            raise ValueError(f"node {u} out of range for n={g.n}")
    kept = sorted(keep)
    # Original id -> new id: kept nodes in ascending order, the rest -1.
    new_id = np.full(g.n, -1, dtype=np.intp)
    new_id[np.array(kept, dtype=np.intp)] = np.arange(len(kept))
    remap = {old: new for new, old in enumerate(kept)}
    return relabelled(len(kept), new_id, *neighbour_arrays(g)[2:]), NodeIdMap(remap, kept)
