"""Affiliation-model likelihood and NMF community detection.

Edge probability between nodes u, v with nonnegative membership rows
F_u, F_v is 1 - exp(-<F_u, F_v>). Detection maximizes the graph
log-likelihood over F by block coordinate gradient ascent, one row at a
time, with projection onto the nonnegative orthant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Graph, neighbour_arrays

# Inner products are floored inside log(1 - exp(-.)) so degenerate
# memberships cannot produce -inf.
DOT_FLOOR = 1e-10
DELTA_FLOOR = 1e-6


@dataclass(frozen=True)
class DetectConfig:
    eta_detect: float | None = None  # None -> 1e-4 * (1 + |loss|) per pass
    max_iters: int = 200
    step_init: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.eta_detect is not None and self.eta_detect <= 0:
            raise ValueError("eta_detect must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Cover:
    """Possibly overlapping communities over a node universe [0, universe)."""

    communities: tuple[frozenset, ...]
    universe: int

    def __post_init__(self):
        for com in self.communities:
            for u in com:
                if not (0 <= u < self.universe):
                    raise ValueError(f"member {u} outside universe {self.universe}")

    def restrict(self, limit: int) -> "Cover":
        """Drop members with id >= limit (and shrink the universe)."""
        return Cover(
            tuple(frozenset(u for u in com if u < limit) for com in self.communities),
            min(self.universe, limit),
        )

    @classmethod
    def read(cls, source: Iterable[str], id_map=None, universe: int | None = None) -> "Cover":
        communities = []
        seen = set()
        for raw in source:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            members = line.split()
            if id_map is not None:
                ids = frozenset(id_map.internal(tok) for tok in members)
            else:
                ids = frozenset(int(tok) for tok in members)
            communities.append(ids)
            seen |= ids
        if universe is None:
            universe = max(seen) + 1 if seen else 0
        return cls(tuple(communities), universe)


@dataclass(frozen=True)
class DetectResult:
    loss: float
    f: np.ndarray
    converged: bool
    passes: int


def agm_edge_prob(fu: np.ndarray, fv: np.ndarray) -> float:
    """1 - exp(-<fu, fv>) for nonnegative membership rows."""
    fu = np.asarray(fu, dtype=float)
    fv = np.asarray(fv, dtype=float)
    if np.any(fu < 0) or np.any(fv < 0):
        raise ValueError("membership rows must be nonnegative")
    return float(-np.expm1(-float(fu @ fv)))


def _log1mexp(s: np.ndarray) -> np.ndarray:
    """log(1 - exp(-s)) with the documented floor on s."""
    return np.log(-np.expm1(-np.maximum(s, DOT_FLOOR)))


def _log_likelihood(f: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> float:
    """agm_log_likelihood from the edge endpoints of neighbour_arrays."""
    edge_dots = np.einsum("ij,ij->i", f[eu], f[ev])
    edge_term = float(np.sum(_log1mexp(edge_dots)))
    total = np.sum(f, axis=0)
    all_pairs = (float(total @ total) - float(np.sum(f * f))) / 2.0
    nonedge_sum = all_pairs - float(np.sum(edge_dots))
    return edge_term - nonedge_sum


def agm_log_likelihood(g: Graph, f: np.ndarray) -> float:
    """Graph log-likelihood under the affiliation model.

    Sum over unordered edge pairs of log(1 - exp(-<F_u, F_v>)) minus the
    sum over unordered non-edge pairs of <F_u, F_v>. The non-edge sum is
    evaluated through the aggregate identity
        sum_{non-edge u<v} <F_u,F_v>
          = (|sum_u F_u|^2 - sum_u |F_u|^2) / 2 - sum_{edge u<v} <F_u,F_v>
    so the cost stays O(|E| + n C^2).
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != g.n:
        raise ValueError("F row count must match node count")
    return _log_likelihood(f, *neighbour_arrays(g)[2:])


def loss(g: Graph, f: np.ndarray) -> float:
    """Negative log-likelihood of the graph given F."""
    return -agm_log_likelihood(g, f)


def _gradient(s: np.ndarray, nbr_rows: np.ndarray, total_other: np.ndarray) -> np.ndarray:
    """Row gradient from the neighbour dots s = nbr_rows @ F_u.

    Each weight is formed as e / (1 - e) + 1, the same arithmetic as the
    per-neighbour reference in the tests: the line-search trajectory is
    sensitive to its last bits, and 1 / -expm1(-s) moved a detection loss
    by 1e-9 relative on the benchmark inputs."""
    e = np.exp(-np.maximum(s, DOT_FLOOR))
    return (e / (1.0 - e) + 1.0) @ nbr_rows - total_other


def row_gradient(f: np.ndarray, u: int, neighbors: Iterable[int], total: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood w.r.t. row F_u.

    `total` is the current column-sum aggregate of F.
    """
    nbr_rows = f[np.fromiter(neighbors, dtype=np.intp)]
    return _gradient(nbr_rows @ f[u], nbr_rows, total - f[u])


def default_delta(g: Graph) -> float:
    """Membership threshold matched to the background edge density.

    A shared membership of strength delta yields edge probability equal
    to the graph's density 2|E| / (n(n-1)).
    """
    if g.n < 2:
        raise ValueError("need at least two nodes")
    p_bg = 2.0 * g.edge_count / (g.n * (g.n - 1))
    p_bg = min(p_bg, 1.0 - 1e-9)
    return max(math.sqrt(-math.log1p(-p_bg)), DELTA_FLOOR)


def init_affiliations(g: Graph, c: int, seed: int) -> np.ndarray:
    """Random nonnegative initialization scaled to the detection threshold."""
    rng = np.random.default_rng(seed)
    try:
        hi = math.sqrt(default_delta(g)) / c
    except ValueError:
        hi = 0.1 / c
    return rng.uniform(0.0, hi, size=(g.n, c))


def commun_det(g: Graph, c: int, cfg: DetectConfig = DetectConfig()) -> DetectResult:
    """Block coordinate gradient ascent on the affiliation likelihood.

    Rows update in ascending node order. Each row step is a projected
    (F >= 0) gradient step on the row's local objective with a line search
    over step_init, step_init / 2, ..., step_init / 2**9: the row itself and
    all 10 trial points are evaluated together in one matrix product, and
    the first trial that does not lower the objective is taken (none: the
    row stays). That is the step sequential backtracking would accept.
    Stops when the loss improvement over a full pass falls below
    eta_detect.
    """
    if c < 1 or g.n < 1:
        raise ValueError("need c >= 1 and a nonempty graph")
    f = init_affiliations(g, c, cfg.seed)
    indptr, indices, eu, ev = neighbour_arrays(g)
    total = np.sum(f, axis=0)
    prev_loss = -_log_likelihood(f, eu, ev)
    steps = np.concatenate([[0.0], np.ldexp(cfg.step_init, -np.arange(10))])
    converged = False
    passes = 0
    for passes in range(1, cfg.max_iters + 1):
        for u in range(g.n):
            fu = f[u]
            nbr_rows = f[indices[indptr[u]:indptr[u + 1]]]
            total_other = total - fu
            s = nbr_rows @ fu
            grad = _gradient(s, nbr_rows, total_other)
            # Row 0 is fu itself (step 0) and its dots are s, the bits the
            # gradient used; rows 1..10 are the halvings.
            cands = np.maximum(fu + steps[:, None] * grad, 0.0)
            dots = cands @ nbr_rows.T
            dots[0] = s
            obj = _log1mexp(dots).sum(axis=1) + dots.sum(axis=1) - cands @ total_other
            accepted = obj >= obj[0]
            accepted[0] = False
            j = accepted.argmax()
            if accepted[j]:
                cand = cands[j]
                total += cand - fu
                fu[:] = cand
        cur_loss = -_log_likelihood(f, eu, ev)
        eta = cfg.eta_detect
        if eta is None:
            eta = 1e-4 * (1.0 + abs(cur_loss))
        if prev_loss - cur_loss < eta:
            prev_loss = min(prev_loss, cur_loss)
            converged = True
            break
        prev_loss = cur_loss
    return DetectResult(loss=prev_loss, f=f, converged=converged, passes=passes)


def hard_decision(f: np.ndarray, delta: float) -> Cover:
    """Threshold the affiliation matrix into a cover: u joins community c
    iff F[u, c] >= delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    f = np.asarray(f, dtype=float)
    communities = tuple(
        frozenset(np.flatnonzero(f[:, c] >= delta).tolist())
        for c in range(f.shape[1])
    )
    return Cover(communities, universe=f.shape[0])
