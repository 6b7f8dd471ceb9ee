"""Affiliation-model likelihood and NMF community detection.

Edge probability between nodes u, v with nonnegative membership rows
F_u, F_v is 1 - exp(-<F_u, F_v>). Detection maximizes the graph
log-likelihood over F by block coordinate gradient ascent, one row at a
time, with projection onto the nonnegative orthant.

`commun_det_prefixes` runs detection on several prefixes of one graph
(the induced subgraphs on its first n_b nodes) in one shared row loop;
`commun_det` is its one-prefix call, so there is one row-update path.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        # `not x > 0` also rejects NaN, which never converges as eta_detect
        # and freezes every row as step_init; an infinite step_init
        # overflows every trial and freezes the rows too.
        if self.eta_detect is not None and not self.eta_detect > 0:
            raise ValueError(f"eta_detect must be positive, got {self.eta_detect}")
        if not 0 < self.step_init < math.inf:
            raise ValueError(f"step_init must be positive and finite, got {self.step_init}")
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


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly in index order (x is overwritten).

    Appended zeros then leave every bit unchanged, which np.sum's pairwise
    blocks and BLAS kernels (whose order also follows memory alignment) do
    not promise: it is what lets `commun_det_prefixes` pad a candidate's
    neighbour list with zero rows and still match the candidate run
    alone."""
    if x.shape[-1] == 0:
        return x.sum(axis=-1)
    return np.add.accumulate(x, axis=-1, out=x)[..., -1]


def _gradient(s: np.ndarray, nbr_rows: np.ndarray, total_other: np.ndarray) -> np.ndarray:
    """Row gradient from the neighbour dots s = nbr_rows @ F_u, for one row
    or a stack of rows (leading axes of s, nbr_rows and total_other).

    Each weight is formed as e / (1 - e) + 1, the same arithmetic as the
    per-neighbour reference in the tests: the line-search trajectory is
    sensitive to its last bits, and 1 / -expm1(-s) moved a detection loss
    by 1e-9 relative on the benchmark inputs."""
    e = np.exp(-np.maximum(s, DOT_FLOOR))
    return _sum_in_order(nbr_rows.mT * (e / (1.0 - e) + 1.0)[..., None, :]) - total_other


def density_delta(n: int, edge_count: int) -> float:
    """default_delta of a graph with n >= 2 nodes and edge_count edges."""
    p_bg = 2.0 * edge_count / (n * (n - 1))
    p_bg = min(p_bg, 1.0 - 1e-9)
    return max(math.sqrt(-math.log1p(-p_bg)), DELTA_FLOOR)


def default_delta(g: Graph) -> float:
    """Membership threshold matched to the background edge density.

    A shared membership of strength delta yields edge probability equal
    to the graph's density 2|E| / (n(n-1)).
    """
    if g.n < 2:
        raise ValueError("need at least two nodes")
    return density_delta(g.n, g.edge_count)


def _init_rows(n: int, edge_count: int, c: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hi = math.sqrt(density_delta(n, edge_count)) / c if n >= 2 else 0.1 / c
    return rng.uniform(0.0, hi, size=(n, c))


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

    This is the one-candidate call of `commun_det_prefixes`.
    """
    return commun_det_prefixes(g, [g.n], c, cfg, [cfg.seed])[0]


def commun_det_prefixes(
    g: Graph, sizes: Sequence[int], c: int, cfg: DetectConfig, seeds: Sequence[int]
) -> list[DetectResult]:
    """`commun_det` on the induced subgraphs of g on its first sizes[b]
    nodes, candidate b seeded by seeds[b] (cfg.seed is not used), all
    advanced in one shared row loop.

    `sizes` is ascending. Each candidate keeps its own init (drawn at its
    own size and edge count), pass count, convergence test and result, as
    if run alone. A neighbour outside a candidate's prefix has a zero row
    in its stack, so it adds nothing to the candidate's dots and gradient,
    and it is masked out of the log term; the sums over neighbours run in
    index order, so these trailing zeros leave them bit for bit unchanged.
    What can still differ from a run alone, in the last bits, is a BLAS
    dot product over the c columns, whose kernel may depend on the row
    count and alignment of the call. Memory is O(len(sizes) * g.n * c)
    for the stacked affiliations plus one row's neighbour block per
    candidate; no candidate-by-node-by-degree table is built.
    """
    sizes = [int(n) for n in sizes]
    if c < 1:
        raise ValueError(f"need c >= 1 communities, got {c}")
    if not sizes or sizes[0] < 1:
        raise ValueError("cannot detect communities on an empty graph (0 nodes)")
    if sizes[-1] > g.n or sizes != sorted(sizes) or len(seeds) != len(sizes):
        raise ValueError("need ascending sizes of at most g.n nodes, one seed each")
    indptr, indices, eu, ev = neighbour_arrays(g)
    f = np.zeros((len(sizes), g.n, c))  # rows past a candidate's prefix stay 0
    edges, prev = [], []
    for b, (n, seed) in enumerate(zip(sizes, seeds)):
        inside = ev < n  # eu < ev, and the (u, v) order is kept
        edges.append((eu[inside], ev[inside]))
        f[b, :n] = _init_rows(n, int(np.count_nonzero(inside)), c, seed)
        prev.append(-_log_likelihood(f[b, :n], *edges[b]))
    total = np.stack([f[b, :n].sum(axis=0) for b, n in enumerate(sizes)])
    steps = np.concatenate([[0.0], np.ldexp(cfg.step_init, -np.arange(10))])[:, None]
    # last[u] is u's largest neighbour, -1 without any.
    last = np.full(g.n, -1, dtype=np.intp)
    has_nbr = indptr[1:] > indptr[:-1]
    last[has_nbr] = indices[indptr[1:][has_nbr] - 1]
    last, indptr = last.tolist(), indptr.tolist()
    live = list(range(len(sizes)))  # the stack f holds these candidates, in order
    results: list[DetectResult | None] = [None] * len(sizes)
    for passes in range(1, cfg.max_iters + 1):
        _lockstep_pass(f, total, [sizes[b] for b in live], indptr, indices, last, steps)
        keep = []
        for j, b in enumerate(live):
            cur_loss = -_log_likelihood(f[j, :sizes[b]], *edges[b])
            eta = cfg.eta_detect
            if eta is None:
                eta = 1e-4 * (1.0 + abs(cur_loss))
            if prev[b] - cur_loss < eta:
                loss_b, converged = min(prev[b], cur_loss), True
            elif passes == cfg.max_iters:
                loss_b, converged = cur_loss, False
            else:
                prev[b] = cur_loss
                keep.append(j)
                continue
            results[b] = DetectResult(loss_b, f[j, :sizes[b]].copy(), converged, passes)
        if not keep:
            break
        if len(keep) < len(live):
            f, total, live = f[keep], total[keep], [live[j] for j in keep]
    return results


def _lockstep_pass(
    f: np.ndarray,
    total: np.ndarray,
    sizes: list[int],
    indptr: list[int],
    indices: np.ndarray,
    last: list[int],
    steps: np.ndarray,
) -> None:
    """One pass of row updates, in place, for the stacked candidates f
    (ascending `sizes`) with column sums `total`.

    Row u updates every candidate with more than u nodes at once, from one
    gathered neighbour block rows[b] = f[b, nbr]. Only when u's largest
    neighbour last[u] lies outside the smallest such candidate are
    neighbours masked, in the log term, where a zero dot is floored
    rather than zero.
    """
    smallest = 0
    for u in range(sizes[-1]):
        if u == smallest:
            # The active set shrinks to the candidates with more than u nodes.
            k = bisect_right(sizes, u)
            smallest = sizes[k]
            if k == len(sizes) - 1:
                # One candidate: views without the stack axis, so the same
                # lines below run as plain matrix-vector products, which
                # numpy dispatches faster than one-item stacks.
                fa, ta, size_col, stack_index = f[k], total[k], smallest, ()
            else:
                fa, ta = f[k:], total[k:]
                size_col = np.array(sizes[k:])[:, None]
                stack_index = (np.arange(len(sizes) - k),)
        nbr = indices[indptr[u]:indptr[u + 1]]
        fu = fa[..., u, :]
        rows = fa[..., nbr, :]
        total_other = ta - fu
        s = np.matvec(rows, fu)
        grad = _gradient(s, rows, total_other)
        # Trial 0 is fu itself (step 0) and its dots are s, the bits the
        # gradient used; trials 1..10 are the halvings.
        cands = np.maximum(fu[..., None, :] + steps * grad[..., None, :], 0.0)
        dots = cands @ rows.mT
        dots[..., 0, :] = s
        log_term = _log1mexp(dots)
        if last[u] >= smallest:
            log_term *= (nbr < size_col)[..., None, :]
        # Row objective: sum over neighbours of log(1 - e^-dot) + dot, minus
        # the trial's dot with total_other.
        log_term += dots
        obj = _sum_in_order(log_term) - np.matvec(cands, total_other)
        accepted = obj >= obj[..., :1]
        accepted[..., 0] = False
        # With no trial accepted, argmax picks trial 0: the row stays.
        new = cands[stack_index + (accepted.argmax(axis=-1),)]
        ta += new - fu
        fu[...] = new


def hard_decision(f: np.ndarray, delta: float) -> Cover:
    """Threshold the affiliation matrix into a cover: u joins community c
    iff F[u, c] >= delta."""
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    f = np.asarray(f, dtype=float)
    communities = tuple(
        frozenset(np.flatnonzero(f[:, c] >= delta).tolist())
        for c in range(f.shape[1])
    )
    return Cover(communities, universe=f.shape[0])
