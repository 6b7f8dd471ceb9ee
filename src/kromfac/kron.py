"""Kronecker generative graph model and EM fitting.

The model is a small parameter matrix theta (entries in (0,1)) whose
K-fold Kronecker power gives an edge-probability matrix over n0**k
indices. Entries are always evaluated lazily from base-n0 digits; the
power is never materialized except in tests.

The exact likelihood groups node pairs by type: the multiset of digit
pairs (a, b) of sigma(u), sigma(v) over the k digits. Every pair of one
type has the same probability prod theta_ab, so the sum over all u < v
pairs becomes a sum over the occupied types (a few hundred for n0=2 at
n≈2000), counted in row blocks without any n x n array. Where the type
codes fit a dense tally (n0=2), a block holds at most _ROW_BLOCK**2
pairs, so it takes the same memory at any n. The tally does not depend
on theta, so an M-step counts it once and every likelihood and gradient
evaluation of that step reuses it.

The E-step state is three arrays: the placement sigma, the observed
edges, and the missing edges of the last Gibbs resample as the sampler
returns them. Each EM iteration builds the sampled graph once from the
two edge lists; Metropolis-Hastings over sigma reads its neighbour lists
and the M-step fits on it. An MH proposal's delta costs O(deg): up to
n0**k = _MH_TABLE_LIMIT from full tables of log1p(-P) and
log P - log1p(-P) built once per E-step, above it from the few entries
it needs. Every proposal's position, target and uniform are drawn up
front, so the random stream does not depend on any delta. The Gibbs
resample and `realize_missing` share one sampler, `sample_missing_block`,
which draws the missing pairs with `graph.bernoulli_pairs`: one uniform
per pair, in row-major order, one block of rows at a time.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import _ROW_BLOCK, Graph, bernoulli_pairs, neighbour_arrays

THETA_FLOOR = 1e-4
THETA_CEIL = 1.0 - 1e-4

# Exact all-pairs summation is used when the Kronecker power has at most
# this many indices; above it, the zero-sum falls back to a second-order
# expansion with an explicit sum-over-edges correction.
EXACT_PAIR_LIMIT = 4096

# Up to this many indices (n0**k), the MH deltas read two full
# n0**k x n0**k float tables built once per E-step, 16 MB at the limit.
# Above it, each proposal computes only the entries its delta needs.
_MH_TABLE_LIMIT = 1024

# An M-step trial is accepted unless it lowers the likelihood by more.
_MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class KroneckerModel:
    """n0 x n0 parameter matrix plus Kronecker power k."""

    n0: int
    theta: np.ndarray
    k: int

    def __post_init__(self):
        if self.n0 < 2:
            raise ValueError("n0 must be at least 2")
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.n0, self.n0):
            raise ValueError(f"theta must be {self.n0}x{self.n0}")
        if not np.all((theta > 0.0) & (theta < 1.0)):  # NaN fails both
            raise ValueError("theta entries must lie strictly inside (0,1)")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        object.__setattr__(self, "theta", theta)

    @property
    def num_indices(self) -> int:
        return self.n0**self.k

    def to_json(self) -> str:
        return json.dumps(
            {"n0": self.n0, "k": self.k, "theta": self.theta.tolist()}
        )


@dataclass(frozen=True)
class NodeMapping:
    """Injective placement of N+M node positions into theta^k indices.

    Positions 0..N-1 are observed nodes, the rest are missing nodes.
    """

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.int64)
        if len(set(sigma.tolist())) != sigma.size:
            raise ValueError("sigma must be injective")
        object.__setattr__(self, "sigma", sigma)

    def __len__(self) -> int:
        return int(self.sigma.size)

    def to_json(self) -> str:
        return json.dumps(self.sigma.tolist())


@dataclass(frozen=True)
class EmConfig:
    em_iters: int = 30
    mcmc_samples: int | None = None  # None -> 10 * (N + M)
    grad_steps: int = 50
    learning_rate: float = 1e-5

    def __post_init__(self):
        if self.em_iters < 1 or self.grad_steps < 0:
            raise ValueError("iteration counts must be nonnegative (em_iters >= 1)")
        if self.mcmc_samples is not None and self.mcmc_samples < 0:
            raise ValueError("mcmc_samples must be nonnegative")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")


def smallest_power(n0: int, size: int) -> int:
    """Smallest k with n0**k >= size."""
    if n0 < 2:
        raise ValueError("n0 must be at least 2")
    k = 1
    while n0**k < size:
        k += 1
    return k


def index_digits(indices: np.ndarray, n0: int, k: int) -> np.ndarray:
    """Base-n0 digits of each index, least significant first; shape (len, k)."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty((idx.size, k), dtype=np.int64)
    rem = idx.copy()
    for d in range(k):
        out[:, d] = rem % n0
        rem //= n0
    return out


def kron_entry(model: KroneckerModel, a: int, b: int) -> float:
    """Entry (a, b) of the K-fold Kronecker power of theta."""
    nk = model.num_indices
    if not (0 <= a < nk and 0 <= b < nk):
        raise ValueError(f"index out of range for n0^k={nk}")
    p = 1.0
    ra, rb = a, b
    for _ in range(model.k):
        p *= model.theta[ra % model.n0, rb % model.n0]
        ra //= model.n0
        rb //= model.n0
    return p


def _row_entries(theta: np.ndarray, row_digits: np.ndarray, col_codes: np.ndarray) -> np.ndarray:
    """Entries [theta^k](a_i, b_v) of r row indices and n column indices.

    row_digits (r x k) holds the base-n0 digits of each a_i, and col_codes
    (k x n) holds d * n0 + (digit d of b_v), least significant digit
    first. Row i takes its k factors from a k * n0 table of theta rows in
    one gather and multiplies them in digit order, which gives the bits
    kron_entry gives (1.0 * theta_0 = theta_0 exactly).
    """
    table = theta[row_digits].reshape(len(row_digits), -1)
    return np.multiply.reduce(np.take(table, col_codes, axis=1), axis=1)


def _col_codes(digits: np.ndarray, n0: int) -> np.ndarray:
    """col_codes for _row_entries from digits of shape (n, k): k x n."""
    return np.ascontiguousarray((digits + n0 * np.arange(digits.shape[1])).T)


def _pair_count(n: int) -> float:
    return n * (n - 1) / 2.0


def _pair_types(a_full, sigma: np.ndarray, n0: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupied pair types of the graph placed by sigma.

    Returns (entries, pairs, edges). Row t of `entries` holds the flat theta
    indices a*n0 + b of type t, one per digit, so each pair of that type has
    probability prod(theta.flat[entries[t]]); pairs[t] and edges[t] count
    the u < v node pairs and the edges of type t.

    A code space no larger than the pair count is counted into one array
    of that length by bincount, in blocks of _ROW_BLOCK**2 // n rows: at
    most _ROW_BLOCK**2 codes per block whatever n, so besides the
    O(n * k * n0) digits and weights the tally holds
    O(_ROW_BLOCK**2 + space) numbers at a time. A larger space is tallied
    by np.unique in blocks of _ROW_BLOCK rows, whose occupied codes are
    merged at the end.
    """
    n, q = sigma.size, n0 * n0
    dg = index_digits(sigma, n0, k)
    count_code = (q - 1) * math.log2(k + 1) <= 53
    if count_code:
        # Each digit pair (a, b) adds (k+1)**(a*n0 + b) to the code, the last
        # one nothing (its count is k minus the rest). Codes stay below 2**53,
        # so the float64 product of a block's one-hot digits x and weights y
        # is exact.
        space = (k + 1) ** (q - 1)
        w = np.append((k + 1.0) ** np.arange(q - 1), 0.0).reshape(n0, n0)
        y = w.T[dg].reshape(n, k * n0)  # y[v, d*n0 + a] = w[a, dg[v, d]]
    else:
        # The k entries a*n0 + b in ascending order, read in base q: below
        # q**k = (n0**k)**2, which int64 holds wherever the exact path runs.
        space = q**k
    dense = space <= _pair_count(n)
    if dense:
        tally = np.zeros(space, dtype=np.int64)
    us, vs = neighbour_arrays(a_full)[2:]  # sorted by u, with u < v
    type_codes, type_pairs, edge_codes = [], [], []
    # np.unique shrinks a block only as far as the block repeats its types,
    # so small blocks leave it more codes to merge at the end (slower at
    # n0 = 3 and 4 near the cut-over): its tally keeps _ROW_BLOCK rows.
    rows = max(1, _ROW_BLOCK**2 // n) if dense else _ROW_BLOCK
    for r0 in range(0, n - 1, rows):
        r1 = min(r0 + rows, n)
        if count_code:
            # x[u, d*n0 + a] = (dg[u, d] == a), one row per node of the block
            x = (dg[r0:r1, :, None] == np.arange(n0)).reshape(r1 - r0, k * n0)
            codes = (x @ y[r0:].T).astype(np.int64)
        else:
            codes = np.sort(dg[r0:r1, None, :] * n0 + dg[None, r0:, :], axis=2) @ q ** np.arange(k)
        e0, e1 = np.searchsorted(us, [r0, r1])
        edge_codes.append(codes[us[e0:e1] - r0, vs[e0:e1] - r0])
        # The block's pairs u < v: the strict upper triangle of its diagonal
        # square, and the whole rectangle to the right of the square.
        b = r1 - r0
        parts = (codes[:, :b][np.arange(b)[:, None] < np.arange(b)], codes[:, b:].ravel())
        del codes  # free this block before the next one is built
        for part in parts:
            if dense:
                tally += np.bincount(part, minlength=space)
            else:
                occupied, counts = np.unique(part, return_counts=True)
                type_codes.append(occupied)
                type_pairs.append(counts)
        del parts, part
    if dense:
        types = np.flatnonzero(tally)
        pairs = tally[types].astype(float)
    else:
        types, inverse = np.unique(np.concatenate(type_codes), return_inverse=True)
        pairs = np.bincount(inverse, weights=np.concatenate(type_pairs))
    edges = np.bincount(np.searchsorted(types, np.concatenate(edge_codes)), minlength=types.size)
    if count_code:
        counts = types[:, None] // (k + 1) ** np.arange(q - 1) % (k + 1)
        counts = np.column_stack([counts, k - counts.sum(axis=1)])
        entries = np.repeat(np.tile(np.arange(q), types.size), counts.ravel()).reshape(-1, k)
    else:
        entries = types[:, None] // q ** np.arange(k) % q
    return entries, pairs, edges


def _check_placement(n: int, mapping: NodeMapping, model: KroneckerModel) -> None:
    """The one check that `mapping` places n nodes in the model's index
    space: one index per node, at least n indices, and every index in
    [0, n0^k). Each rule raises ValueError, in that order."""
    nk = model.num_indices
    if len(mapping) != n:
        raise ValueError("mapping length must equal node count")
    if nk < n:
        raise ValueError("model index space too small for graph")
    sigma = mapping.sigma
    if n and not (0 <= sigma.min() and sigma.max() < nk):
        raise ValueError(f"index out of range for n0^k={nk}")


def _mstep_summary(a_full, mapping: NodeMapping, model: KroneckerModel):
    """The theta-independent part of the likelihood of one graph and
    placement, and the one place that picks the likelihood's path.

    First checks the placement with _check_placement: mapping length,
    index space, then every index in [0, n0^k). Then returns None when
    n <= 1; up to EXACT_PAIR_LIMIT indices, the exact path's tally
    (entries, pairs, edges) of _pair_types; above it, the series path's
    (edge_codes, rho): the flat theta index a*n0 + b of the digit pair of
    every edge u < v and digit d (k x edges), and the share rho of the
    index pairs that the mapped nodes occupy.
    """
    n, nk = a_full.n, model.num_indices
    _check_placement(n, mapping, model)
    if n <= 1:
        return None
    n0, k, sigma = model.n0, model.k, mapping.sigma
    if nk <= EXACT_PAIR_LIMIT:
        return _pair_types(a_full, sigma, n0, k)
    us, vs = neighbour_arrays(a_full)[2:]
    edge_codes = (index_digits(sigma[us], n0, k) * n0 + index_digits(sigma[vs], n0, k)).T
    return edge_codes, _pair_count(n) / _pair_count(nk)


def kron_log_likelihood(a_full, mapping: NodeMapping, model: KroneckerModel, *, _summary=None) -> float:
    """Log-likelihood of the adjacency under the permuted Kronecker model.

    Sums over unordered node pairs u < v:
        a_uv * log p + (1 - a_uv) * log(1 - p),  p = [theta^k]_{sigma(u), sigma(v)}.

    `_summary` is _mstep_summary(a_full, mapping, model), passed in by
    ascend_theta so that it is built, and the placement checked, once per
    M-step; without it, _check_placement (mapping length, index space,
    every index in [0, n0^k)) runs here. The summary's form picks the
    path. On the exact tally, p depends only on the pair's type t (the
    multiset of digit pairs of sigma(u), sigma(v)):
        sum_t E_t * log p_t + (A_t - E_t) * log(1 - p_t)
    over the occupied types, with A_t pairs and E_t edges of type t. On the
    series path the zero-sum is -(S1 + S2/2), S_j the closed-form
    off-diagonal sum of (theta^k)**j scaled by rho, corrected by an exact
    sum over the edge pairs.
    """
    summary = _mstep_summary(a_full, mapping, model) if _summary is None else _summary
    if summary is None:
        return 0.0
    th, k = model.theta, model.k
    if len(summary) == 3:
        entries, pairs, edges = summary
        p = th.ravel()[entries].prod(axis=1)
        return float(np.sum(edges * np.log(p) + (pairs - edges) * np.log1p(-p)))
    edge_codes, rho = summary
    pe = np.multiply.reduce(th.ravel()[edge_codes], axis=0)
    edge_log = float(np.sum(np.log(pe)))
    edge_taylor = float(np.sum(pe + 0.5 * pe**2))
    s1 = rho * ((th.sum() ** k - np.trace(th) ** k) / 2.0)
    s2 = rho * (((th**2).sum() ** k - np.trace(th**2) ** k) / 2.0)
    zero_sum = -(s1 + 0.5 * s2) + edge_taylor
    return edge_log + zero_sum


def kron_ll_gradient(a_full, mapping: NodeMapping, model: KroneckerModel, *, _summary=None) -> np.ndarray:
    """Gradient of kron_log_likelihood w.r.t. each theta entry (raw,
    unsymmetrized, matching the u < v pair orientation). `_summary` is as
    in kron_log_likelihood."""
    summary = _mstep_summary(a_full, mapping, model) if _summary is None else _summary
    th, n0, k = model.theta, model.n0, model.k
    if summary is None:
        return np.zeros_like(th)
    if len(summary) == 3:
        entries, pairs, edges = summary
        p = th.ravel()[entries].prod(axis=1)
        # Per-type weight on d log(p)/d theta: 1 per edge, -p/(1-p) per non-edge.
        w = edges - (pairs - edges) * p / (1.0 - p)
        grad = np.bincount(entries.ravel(), weights=np.repeat(w, k), minlength=n0 * n0)
        return grad.reshape(n0, n0) / th
    edge_codes, rho = summary
    pe = np.multiply.reduce(th.ravel()[edge_codes], axis=0)
    # Edge terms: d/dtheta_ij [log p + p + p^2/2] = (1 + p + p^2) c_ij / theta_ij.
    we = 1.0 + pe + pe**2
    grad = np.bincount(edge_codes.ravel(), weights=np.tile(we, k), minlength=n0 * n0)
    grad = grad.reshape(n0, n0) / th
    # Approximated zero-sum: -(rho * (S1_full + S2_full / 2)).
    s1_grad = (k * th.sum() ** (k - 1)) * np.ones_like(th)
    s1_grad -= np.diag(np.full(n0, k * np.trace(th) ** (k - 1)))
    s2_grad = (k * (th**2).sum() ** (k - 1)) * 2.0 * th
    s2_grad -= np.diag(np.diag(2.0 * th) * (k * np.trace(th**2) ** (k - 1)))
    grad -= rho * (s1_grad + 0.5 * s2_grad) / 2.0
    return grad


def _clamp(theta: np.ndarray) -> np.ndarray:
    return np.clip(theta, THETA_FLOOR, THETA_CEIL)


def _symmetrize(theta: np.ndarray) -> np.ndarray:
    return (theta + theta.T) / 2.0


def ascend_theta(
    a_full,
    mapping: NodeMapping,
    model: KroneckerModel,
    steps: int,
    learning_rate: float,
) -> KroneckerModel:
    """Projected gradient ascent on the log-likelihood with backtracking.

    The gradient is projected onto symmetric matrices so theta stays
    symmetric throughout; each accepted step never decreases the
    likelihood by more than `_MONOTONE_TOL`. The graph and placement are
    fixed, so their theta-independent summary is built once and passed to
    every likelihood and gradient evaluation.
    """
    theta = model.theta.copy()
    summary = _mstep_summary(a_full, mapping, model)
    cur = kron_log_likelihood(a_full, mapping, model, _summary=summary)
    for _ in range(steps):
        g = kron_ll_gradient(a_full, mapping, replace(model, theta=theta), _summary=summary)
        g = _symmetrize(g)
        step = learning_rate
        for _ in range(20):
            cand = _clamp(theta + step * g)
            cand_ll = kron_log_likelihood(
                a_full, mapping, replace(model, theta=cand), _summary=summary
            )
            if cand_ll >= cur - _MONOTONE_TOL:
                theta, cur = cand, cand_ll
                break
            step /= 2.0
        else:
            break
    return replace(model, theta=_symmetrize(theta))


def sample_missing_block(
    model: KroneckerModel, sigma: np.ndarray, n_obs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One Bernoulli draw per position pair u < v with v >= n_obs, joined
    with probability kron_entry(model, sigma[u], sigma[v]).

    The draws come from graph.bernoulli_pairs: one uniform per pair, in
    row-major order, one block of rows at a time, so at most
    O(k * _ROW_BLOCK * M) numbers are held at once. Returns the joined
    pairs (us, vs), row-major.
    """
    n0, k = model.n0, model.k
    col_codes = _col_codes(index_digits(sigma[n_obs:], n0, k), n0)

    def entries(rows):
        return _row_entries(model.theta, index_digits(sigma[rows], n0, k), col_codes)

    return bernoulli_pairs(sigma.size, n_obs, entries, rng)


class _MhTables:
    """MH deltas for n0**k <= _MH_TABLE_LIMIT, from full tables.

    With P = theta^k, the tables are L1P = log1p(-P) and W = log P - L1P
    over the whole index space, and L(i) = sum_v L1P[i, sigma_v] over all
    positions v. `sigma` is _mcmc_sigma's list, read here and changed only
    there, and a delta is a loop over Python scalars. The deltas read L and
    the tables through flat memoryviews of the same arrays (entry [a, b] at
    a * n0**k + b), whose items are Python floats: the same doubles in the
    same subtractions as numpy scalars, without boxing each read, and no
    second copy of a table. Only an accepted move changes L, in place.
    """

    def __init__(self, sigma: list[int], graph: Graph, model: KroneckerModel):
        p = np.ones((1, 1))
        while p.shape[0] < model.num_indices:
            p = np.kron(p, model.theta)
        w = np.log(p)
        self.l1p = np.log1p(np.negative(p, out=p), out=p)
        w -= self.l1p
        occupied = np.zeros(model.num_indices)
        occupied[sigma] = 1.0
        self.ll = self.l1p @ occupied
        self.nk = model.num_indices
        flat = (memoryview(a.reshape(-1)) for a in (w, self.l1p, self.ll))
        self.w_flat, self.l1p_flat, self.ll_flat = flat
        self.sigma = sigma
        self.nbrs = graph.adjacency

    def _w_gain(self, x: int, skip: int, new: int, old: int) -> float:
        """Sum over v in N(x), v != skip, of W[new, sigma_v] - W[old, sigma_v]."""
        sigma, w, d = self.sigma, self.w_flat, 0.0
        new, old = new * self.nk, old * self.nk
        for v in self.nbrs[x]:
            if v != skip:
                s = sigma[v]
                d += w[new + s] - w[old + s]
        return d

    def move_delta(self, x: int, t: int) -> float:
        sx, ll, l1p, nk = self.sigma[x], self.ll_flat, self.l1p_flat, self.nk
        return (ll[t] - ll[sx]) - (l1p[t * nk + sx] - l1p[sx * nk + sx]) + self._w_gain(x, -1, t, sx)

    def swap_delta(self, x: int, y: int) -> float:
        sx, t = self.sigma[x], self.sigma[y]
        return self._w_gain(x, y, t, sx) + self._w_gain(y, x, sx, t)

    def accept(self, x: int, t: int, y: int) -> None:
        """Called before x takes index t from its holder y (-1: none)."""
        if y < 0:  # a swap keeps the occupied indices, and so L
            self.ll += self.l1p[t] - self.l1p[self.sigma[x]]  # P is symmetric: row = column


class _MhRows:
    """MH deltas above _MH_TABLE_LIMIT, with no n0**k x n0**k table.

    A move computes its two rows of P against every position through
    _row_entries; a swap only the columns of its neighbours. `digits` is
    the digit table of the whole index space (n0**k x k), and the column
    codes of _row_entries follow _mcmc_sigma's list `sigma`.
    """

    def __init__(self, sigma: list[int], graph: Graph, model: KroneckerModel):
        self.theta = model.theta
        self.digits = index_digits(np.arange(model.num_indices), model.n0, model.k)
        self.sigma = sigma
        self.col_codes = _col_codes(self.digits[sigma], model.n0)
        self.indptr, self.indices = neighbour_arrays(graph)[:2]

    def _neighbours(self, x: int) -> np.ndarray:
        return self.indices[self.indptr[x]:self.indptr[x + 1]]

    def move_delta(self, x: int, t: int) -> float:
        sx = self.sigma[x]
        rows = _row_entries(self.theta, self.digits[[sx, t]], self.col_codes)
        l1 = np.log1p(-rows)
        nb = self._neighbours(x)
        w = np.log(rows[:, nb]) - l1[:, nb]
        d = l1[1] - l1[0]  # column x holds sx itself, and drops out
        return float(d.sum() - d[x] + (w[1] - w[0]).sum())

    def swap_delta(self, x: int, y: int) -> float:
        nx, ny = self._neighbours(x), self._neighbours(y)
        nx, ny = nx[nx != y], ny[ny != x]
        rows = self.digits[[self.sigma[x], self.sigma[y]]]
        p = _row_entries(self.theta, rows, self.col_codes[:, np.concatenate([nx, ny])])
        w = np.log(p) - np.log1p(-p)
        d = w[1] - w[0]
        return float(d[:nx.size].sum() - d[nx.size:].sum())

    def accept(self, x: int, t: int, y: int) -> None:
        """Called before x takes index t from its holder y (-1: none)."""
        if y < 0:
            self.col_codes[:, x] += self.digits[t] - self.digits[self.sigma[x]]
        else:
            self.col_codes[:, [x, y]] = self.col_codes[:, [y, x]]


def _place(sigma: list[int], holders: list[int], x: int, t: int) -> None:
    """Put position x at index t; t's holder, if any, takes x's index."""
    sx, y = sigma[x], holders[t]
    sigma[x], holders[t], holders[sx] = t, x, y
    if y >= 0:
        sigma[y] = sx


def _mcmc_sigma(
    sigma: np.ndarray,
    graph: Graph,
    model: KroneckerModel,
    proposals: int,
    rng: np.random.Generator,
) -> None:
    """Metropolis-Hastings over the placement sigma, on the sampled graph;
    updates sigma in place.

    Proposals are uniform transpositions: a random position x is paired
    with a random target index t in the full theta^k space; if t is held
    by another position y the two swap, otherwise x moves to the unused
    index. The positions, targets and one uniform u per proposal are drawn
    up front (rng.integers(n), rng.integers(n0**k), rng.random(), each of
    size `proposals`), and a proposal is accepted iff u < exp(min(delta, 0)).

    With P = theta^k, L1P = log1p(-P), W = log P - L1P and
    L(i) = sum_v L1P[i, sigma_v] over all positions v, the log-likelihood
    delta of moving x from sx to t is

        L(t) - L1P[t, sx] - L(sx) + L1P[sx, sx] + sum_{v in N(x)} (W[t, sigma_v] - W[sx, sigma_v])

    and that of swapping x with y is

        sum_{v in N(x), v != y} (W[t, sigma_v] - W[sx, sigma_v])
        + sum_{v in N(y), v != x} (W[sx, sigma_v] - W[t, sigma_v]):

    the L terms and the (x, y) pair cancel because theta, and so P, is
    symmetric. Up to n0**k = _MH_TABLE_LIMIT the deltas read full tables
    (_MhTables), above it only the entries they need (_MhRows). Either
    path reads the one list of sigma kept here, with `holders` mapping each
    index to its position (-1: free), and follows an accepted proposal
    through its `accept` hook.
    """
    n, nk = sigma.size, model.num_indices
    xs = rng.integers(n, size=proposals).tolist()
    ts = rng.integers(nk, size=proposals).tolist()
    us = rng.random(proposals).tolist()
    placed = sigma.tolist()
    holders = [-1] * nk
    for x, s in enumerate(placed):
        holders[s] = x
    mh = (_MhTables if nk <= _MH_TABLE_LIMIT else _MhRows)(placed, graph, model)
    for x, t, u in zip(xs, ts, us):
        y = holders[t]
        if y == x:
            continue
        delta = mh.move_delta(x, t) if y < 0 else mh.swap_delta(x, y)
        if u < math.exp(min(delta, 0.0)):
            mh.accept(x, t, y)
            _place(placed, holders, x, t)
    sigma[:] = placed


def random_theta_init(n0: int, rng: np.random.Generator) -> np.ndarray:
    """Default random initialization: entries uniform on [0.25, 0.75]."""
    return _symmetrize(rng.uniform(0.25, 0.75, size=(n0, n0)))


def kronem_fit(
    g_obs,
    m_missing: int,
    n0: int = 2,
    theta_init: np.ndarray | None = None,
    cfg: EmConfig = EmConfig(),
    seed: int = 0,
) -> tuple[KroneckerModel, NodeMapping]:
    """Fit theta and the node placement by EM on the observed graph.

    E-step: Gibbs resample of the missing edges with sample_missing_block,
    then MH over sigma (_mcmc_sigma) on the graph of the observed and the
    resampled edges (hard EM: the last sample is retained). M-step:
    projected gradient ascent (ascend_theta) on that graph's
    log-likelihood. Deterministic per seed.
    """
    if m_missing < 0:
        raise ValueError("m_missing must be nonnegative")
    n = g_obs.n + m_missing
    if n < 1:
        raise ValueError("empty model: need at least one node")
    rng = np.random.default_rng(seed)
    k = smallest_power(n0, n)
    if theta_init is None:
        theta_init = random_theta_init(n0, rng)
    # The MH swap delta assumes a symmetric theta (its L terms and the
    # (x, y) pair cancel only then); a symmetric init is kept bit for bit.
    theta = _clamp(_symmetrize(np.asarray(theta_init, dtype=float)))
    model = KroneckerModel(n0=n0, theta=theta, k=k)

    eu, ev = neighbour_arrays(g_obs)[2:]
    sigma = np.arange(n, dtype=np.int64)
    proposals = cfg.mcmc_samples if cfg.mcmc_samples is not None else 10 * n
    for _ in range(cfg.em_iters):
        mu, mv = sample_missing_block(model, sigma, g_obs.n, rng)
        a_full = Graph.from_arrays(n, np.concatenate([eu, mu]), np.concatenate([ev, mv]))
        _mcmc_sigma(sigma, a_full, model, proposals, rng)
        mapping = NodeMapping(sigma=sigma.copy())
        model = ascend_theta(a_full, mapping, model, cfg.grad_steps, cfg.learning_rate)
    return model, mapping
