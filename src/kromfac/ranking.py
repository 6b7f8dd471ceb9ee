"""Degree-centrality ranking of recovered nodes."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .completion import RecoveredGraph


@dataclass(frozen=True)
class Ranking:
    order: tuple[int, ...]  # recovered-node ids, descending centrality

    @property
    def h(self) -> int:
        return len(self.order)


def select_influential(rg: RecoveredGraph, epsilon: float) -> Ranking:
    """Rank the recovered nodes by degree in the fully recovered graph and
    keep those meeting the threshold.

    Ties break by ascending node id so the ranking is deterministic.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    n = rg.base.n
    cen = dict(zip(range(n, n + rg.m), rg.degrees()[n:].tolist()))
    kept = sorted(
        (u for u, c in cen.items() if c >= epsilon),
        key=lambda u: (-cen[u], u),
    )
    return Ranking(tuple(kept))


def default_epsilon(rg: RecoveredGraph) -> float:
    """Half the maximum degree over the fully recovered graph."""
    deg = rg.degrees()
    if deg.size == 0:
        raise ValueError("recovered graph is empty")
    return int(deg.max()) / 2.0
