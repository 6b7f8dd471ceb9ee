"""Degree-centrality ranking of recovered nodes."""
from __future__ import annotations

from dataclasses import dataclass

from .completion import RecoveredGraph
from .graph import Graph


@dataclass(frozen=True)
class Ranking:
    h: int
    order: tuple[int, ...]  # recovered-node ids, descending centrality
    epsilon: float


def degree_centrality(g: Graph, u: int) -> int:
    """Number of incident edges of node u."""
    if not (0 <= u < g.n):
        raise ValueError(f"node {u} out of range for n={g.n}")
    return g.degree(u)


def select_influential(rg: RecoveredGraph, epsilon: float) -> Ranking:
    """Rank the recovered nodes by degree in the fully recovered graph and
    keep those meeting the threshold.

    Ties break by ascending node id so the ranking is deterministic.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cen = dict(zip(rg.recovered_ids, rg.degrees()[rg.n_observed:].tolist()))
    kept = sorted(
        (u for u, c in cen.items() if c >= epsilon),
        key=lambda u: (-cen[u], u),
    )
    return Ranking(h=len(kept), order=tuple(kept), epsilon=epsilon)


def default_epsilon(rg: RecoveredGraph) -> float:
    """Half the maximum degree over the fully recovered graph."""
    deg = rg.degrees()
    if deg.size == 0:
        raise ValueError("recovered graph is empty")
    return int(deg.max()) / 2.0
