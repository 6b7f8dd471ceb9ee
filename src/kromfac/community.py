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
# The row loop's scalar operands as 0-d arrays: numpy converts a Python
# float on every ufunc call, which costs more than the call's arithmetic
# on these small operands. Same values, so the same bits.
_DOT_FLOOR, _ZERO, _ONE = np.array(DOT_FLOOR), np.array(0.0), np.array(1.0)
# The line search's first step; its trials are STEP_INIT / 2**j, j < 10.
STEP_INIT = 0.05


@dataclass(frozen=True)
class DetectConfig:
    eta_detect: float | None = None  # None -> 1e-4 * (1 + |loss|) per pass
    max_iters: int = 200

    def __post_init__(self):
        # The range test also rejects NaN (never converges) and inf (stops
        # after one pass).
        if self.eta_detect is not None and not 0 < self.eta_detect < math.inf:
            raise ValueError(f"eta_detect must be positive and finite, got {self.eta_detect}")
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


def _log1mexp(s: np.ndarray, floor: np.ndarray = _DOT_FLOOR) -> np.ndarray:
    """log(1 - exp(-s)) with s floored at `floor`, in one new array.

    The floor is DOT_FLOOR, or an array of it broadcast against s: an
    entry floored at +inf gives log(1 - 0) = 0 exactly."""
    out = np.maximum(s, floor)
    np.negative(out, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return np.log(out, out=out)


def _loss_runs(sizes: Sequence[int], eu: np.ndarray, ev: np.ndarray, c: int) -> list[tuple]:
    """How `_log_likelihoods` reads a node-major stack of candidates: runs
    of consecutive candidates j0..j1-1, with the flat row ids u * stack
    size + j of their edge endpoints (concatenated) and each candidate's
    offsets into them.

    Candidate j reads its first sizes[j] rows and the edges (eu, ev) with
    ev < sizes[j], in their (u, v) order. A run grows while the numbers it
    copies, squares and gathers, 2 * c * (run length * largest size + edge
    count), stay within numpy's ufunc buffer size (np.getbufsize(), 8,192
    by default); a candidate larger than that runs alone. So many small
    candidates share numpy calls, and large ones hold no more than their
    own arrays at a time, as one evaluation per candidate did."""
    budget = np.getbufsize()
    inside = [ev < n for n in sizes]
    counts = [int(np.count_nonzero(m)) for m in inside]
    runs, j0 = [], 0
    for j1 in range(1, len(sizes) + 1):
        if j1 < len(sizes) and 2 * c * ((j1 + 1 - j0) * sizes[j1] + sum(counts[j0:j1 + 1])) <= budget:
            continue
        run = range(j0, j1)
        ends = np.cumsum([0] + counts[j0:j1]).tolist()
        iu = np.concatenate([eu[inside[j]] * len(sizes) + j for j in run])
        iv = np.concatenate([ev[inside[j]] * len(sizes) + j for j in run])
        runs.append((j0, j1, iu, iv, ends))
        j0 = j1
    return runs


def _log_likelihoods(f: np.ndarray, sizes: Sequence[int], runs: list[tuple]) -> list[float]:
    """agm_log_likelihood of each candidate j of the node-major stack f
    (f[u, j] is row u of candidate j) on its first sizes[j] rows, read as
    `_loss_runs` lays out, one run (j0, j1, iu, iv, ends) at a time.

    A run shares one gather, one einsum, one _log1mexp and one copy of its
    rows in candidate order. Each candidate then takes only np.add.reduce
    calls, over its own contiguous slices of the run's arrays: the same
    elements in the same order as an evaluation of that candidate alone,
    so the same bits. A run's arrays are freed before the next run gathers."""
    flat = f.reshape(-1, f.shape[-1])
    out = []
    for j0, j1, iu, iv, ends in runs:
        edge_dots = np.einsum("ij,ij->i", flat.take(iu, axis=0), flat.take(iv, axis=0))
        edge_logs = _log1mexp(edge_dots)
        own = f[:sizes[j1 - 1], j0:j1].swapaxes(0, 1).copy()
        squares = np.square(own)
        run_sizes = sizes[j0:j1]
        totals = np.empty((j1 - j0, f.shape[-1]))
        for r, n in enumerate(run_sizes):
            np.add.reduce(own[r, :n], axis=0, out=totals[r])
        total_sq = np.vecdot(totals, totals).tolist()
        for r, n in enumerate(run_sizes):
            lo, hi = ends[r], ends[r + 1]
            edge_term = float(np.add.reduce(edge_logs[lo:hi]))
            all_pairs = (total_sq[r] - float(np.add.reduce(squares[r, :n], axis=None))) / 2.0
            nonedge_sum = all_pairs - float(np.add.reduce(edge_dots[lo:hi]))
            out.append(edge_term - nonedge_sum)
        del edge_dots, edge_logs, own, squares
    return out


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
    eu, ev = neighbour_arrays(g)[2:]
    return _log_likelihoods(f[:, None], [g.n], _loss_runs([g.n], eu, ev, f.shape[1]))[0]


def _sum_nbrs(x: np.ndarray) -> np.ndarray:
    """Sum of x over its neighbour axis (0), strictly in index order.

    np.add.reduce adds along that axis one slice x[i] at a time, in order,
    when a slice has more than one element. With one element (c = 1 and
    one candidate) numpy drops the other axes from the loop and the reduce
    turns pairwise, so that shape is summed by accumulation. In-order sums
    are what let `commun_det_prefixes` pad a candidate's neighbour block
    with zero rows and still match the candidate run alone."""
    if x.size == len(x) > 1:
        return np.add.accumulate(x, axis=0)[-1]
    return np.add.reduce(x, axis=0)


def _gradient(s: np.ndarray, nbr_rows: np.ndarray, total_other: np.ndarray) -> np.ndarray:
    """Row gradient from the neighbour dots s = nbr_rows @ F_u, for one row
    or a stack of rows: the neighbour axis leads s and nbr_rows, the stack
    axes, if any, follow it there and lead total_other.

    Each weight is formed as e / (1 - e) + 1, the same arithmetic as the
    per-neighbour reference in the tests: the line-search trajectory is
    sensitive to its last bits, and 1 / -expm1(-s) moved a detection loss
    by 1e-9 relative on the benchmark inputs."""
    e = np.maximum(s, _DOT_FLOOR)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.divide(e, np.subtract(_ONE, e), out=e)
    e += _ONE
    grad = _sum_nbrs(nbr_rows * e[..., None])
    grad -= total_other
    return grad


def density_delta(n: int, edge_count: int) -> float:
    """Membership threshold matched to the background edge density of a
    graph with n >= 2 nodes and edge_count edges: a shared membership of
    strength delta yields edge probability equal to the density
    2|E| / (n(n-1)), floored at DELTA_FLOOR."""
    p_bg = 2.0 * edge_count / (n * (n - 1))
    p_bg = min(p_bg, 1.0 - 1e-9)
    return max(math.sqrt(-math.log1p(-p_bg)), DELTA_FLOOR)


def _init_rows(n: int, edge_count: int, c: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hi = math.sqrt(density_delta(n, edge_count)) / c if n >= 2 else 0.1 / c
    return rng.uniform(0.0, hi, size=(n, c))


def commun_det(
    g: Graph, c: int, cfg: DetectConfig = DetectConfig(), seed: int = 0
) -> DetectResult:
    """Block coordinate gradient ascent on the affiliation likelihood.

    Rows update in ascending node order. Each row step is a projected
    (F >= 0) gradient step on the row's local objective with a line search
    over STEP_INIT, STEP_INIT / 2, ..., STEP_INIT / 2**9: the 10 trial
    points and, last, the row itself are evaluated together in one matrix
    product, and the first trial that does not lower the objective is
    taken (none: the row stays). That is the step sequential backtracking
    would accept. Stops when the loss improvement over a full pass falls
    below eta_detect.

    This is the one-candidate call of `commun_det_prefixes`, seeded by `seed`.
    """
    return commun_det_prefixes(g, [g.n], c, cfg, [seed])[0]


def commun_det_prefixes(
    g: Graph, sizes: Sequence[int], c: int, cfg: DetectConfig, seeds: Sequence[int]
) -> list[DetectResult]:
    """`commun_det` on the induced subgraphs of g on its first sizes[b]
    nodes, candidate b seeded by seeds[b], all in one shared row loop.

    `sizes` is ascending. Each candidate keeps its own init (drawn at its
    own size and edge count), pass count, convergence test and result, as
    if run alone. A neighbour outside a candidate's prefix has a zero row
    in its stack, so it adds nothing to the candidate's dots and gradient,
    and it is masked out of the log term: its dots are floored at +inf
    there, which makes its log term exactly 0. Every sum over neighbours
    runs in index order (`_sum_nbrs`: a reduce over the neighbour axis, an
    accumulation when c = 1), so these trailing zeros leave it bit for bit
    unchanged. The per-pass losses of the live candidates are evaluated
    together (`_log_likelihoods`), each candidate's terms added as in an
    evaluation of it alone. What can still differ from a run alone, in the last
    bits, is a BLAS dot product over the c columns, whose kernel may
    depend on the row count and alignment of the call. Memory is
    O(len(sizes) * g.n * c) for the stacked affiliations plus one row's
    neighbour block per candidate, and for the losses at most
    np.getbufsize() numbers per run of candidates or one candidate's own
    edge gather; no candidate-by-node-by-degree table is built. The
    masked rows' floors are built at their first update and kept until
    the live set shrinks: at most one number per masked row's neighbour
    slot per live candidate, so at most 2 * g.edge_count * len(sizes)
    numbers; a row is masked only when it has a neighbour outside the
    smallest live prefix that holds it.
    """
    sizes = [int(n) for n in sizes]
    if c < 1:
        raise ValueError(f"need c >= 1 communities, got {c}")
    if not sizes or sizes[0] < 1:
        raise ValueError("cannot detect communities on an empty graph (0 nodes)")
    if sizes[-1] > g.n or sizes != sorted(sizes) or len(seeds) != len(sizes):
        raise ValueError("need ascending sizes of at most g.n nodes, one seed each")
    indptr, indices, eu, ev = neighbour_arrays(g)
    # Node-major: f[u, b] is row u of candidate b, and rows past a
    # candidate's prefix stay 0.
    f = np.zeros((g.n, len(sizes), c))
    total = np.empty((len(sizes), c))
    for b, (n, seed) in enumerate(zip(sizes, seeds)):
        f[:n, b] = init = _init_rows(n, int(np.count_nonzero(ev < n)), c, seed)
        total[b] = init.sum(axis=0)
    del init
    live_sizes, runs = sizes, _loss_runs(sizes, eu, ev, c)
    prev = [-ll for ll in _log_likelihoods(f, sizes, runs)]
    # The halvings, then the row itself (step 0).
    steps = np.append(np.ldexp(STEP_INIT, -np.arange(10)), 0.0)[:, None]
    # last[u] is u's largest neighbour, -1 without any.
    last = np.full(g.n, -1, dtype=np.intp)
    has_nbr = indptr[1:] > indptr[:-1]
    last[has_nbr] = indices[indptr[1:][has_nbr] - 1]
    last, indptr = last.tolist(), indptr.tolist()
    live = list(range(len(sizes)))  # the stack f holds these candidates, in order
    floors = [None] * g.n  # the masked rows' log-term floors, per live set
    results: list[DetectResult | None] = [None] * len(sizes)
    for passes in range(1, cfg.max_iters + 1):
        _lockstep_pass(f, total, live_sizes, indptr, indices, last, steps, floors)
        keep = []
        for j, (b, ll) in enumerate(zip(live, _log_likelihoods(f, live_sizes, runs))):
            cur_loss = -ll
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
            results[b] = DetectResult(loss_b, f[:sizes[b], j].copy(), converged, passes)
        if not keep:
            break
        if len(keep) < len(live):
            f, total, live = f.take(keep, axis=1), total[keep], [live[j] for j in keep]
            live_sizes = [sizes[b] for b in live]
            runs = _loss_runs(live_sizes, eu, ev, c)
            floors = [None] * g.n
    return results


def _lockstep_pass(
    f: np.ndarray,
    total: np.ndarray,
    sizes: list[int],
    indptr: list[int],
    indices: np.ndarray,
    last: list[int],
    steps: np.ndarray,
    floors: list[np.ndarray | None],
) -> None:
    """One pass of row updates, in place, for the node-major stack f
    (f[u, b] is row u of candidate b, `sizes` ascending) with column sums
    total[b].

    Row u updates every candidate with more than u nodes at once, from one
    gathered neighbour block rows = f[nbr], neighbour axis first. Its 11
    trials are built in `steps` order: the 10 halvings, then the row
    itself, whose dots are replaced by s, the bits the gradient used. The
    row itself always passes the acceptance test, so argmax picks the
    first accepted halving, or the row when none is. The dots s and the
    trial dots come out neighbour axis first, so the objective's sum over
    neighbours, like the gradient's, is a reduce over axis 0 that adds one
    neighbour's slice for all candidates and trials at a time, in index
    order. The one block numpy would add pairwise instead, a gradient's
    (d, 1) with c = 1 and one candidate, is accumulated (`_sum_nbrs`).

    Only when u's largest neighbour last[u] lies outside the smallest such
    candidate are neighbours masked out of the log term, where a zero dot
    is floored rather than zero: the row's floor, floors[u], is DOT_FLOOR
    for a neighbour inside a candidate's prefix and +inf outside it, so a
    masked log term is exactly 0. floors[u] depends only on u's neighbours
    and the live candidates' sizes; it is built at the row's first masked
    update and kept while the caller keeps the list, which it renews when
    the live set shrinks. Each floor holds one number per neighbour per
    candidate the row updates.
    """
    matvec, matmul, empty, add_reduce = np.matvec, np.matmul, np.empty, np.add.reduce
    dots_tail = (len(steps),)
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
                fa, ta, trial_steps = f[:, k], total[k], steps
                active_sizes, stack_index = smallest, ()
            else:
                fa, ta, trial_steps = f[:, k:], total[k:], steps[..., None]
                active_sizes = np.array(sizes[k:])
                stack_index = (np.arange(len(sizes) - k),)
        nbr = indices[indptr[u]:indptr[u + 1]]
        fu = fa[u]
        rows = fa.take(nbr, axis=0)
        # swapaxes(0, -2) moves the stack axis, if any, first.
        by_cand = rows.swapaxes(0, -2)
        total_other = ta - fu
        s = empty(rows.shape[:-1])
        matvec(by_cand, fu, out=s.T)
        grad = _gradient(s, rows, total_other)
        cands = trial_steps * grad
        cands += fu
        np.maximum(cands, _ZERO, out=cands)
        cands = cands.swapaxes(0, -2)
        dots = empty(rows.shape[:-1] + dots_tail)
        matmul(by_cand, cands.mT, out=dots.swapaxes(0, -2))
        dots[..., -1] = s
        if last[u] < smallest:
            log_term = _log1mexp(dots)
        else:
            floor = floors[u]
            if floor is None:
                inside = np.less.outer(nbr, active_sizes)[..., None]
                floor = floors[u] = np.where(inside, _DOT_FLOOR, np.inf)
            log_term = _log1mexp(dots, floor)
        # Row objective: sum over neighbours of log(1 - e^-dot) + dot, minus
        # the trial's dot with total_other.
        log_term += dots
        obj = add_reduce(log_term, axis=0)
        obj -= matvec(cands, total_other)
        new = cands[stack_index + ((obj >= obj[..., -1:]).argmax(axis=-1),)]
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
