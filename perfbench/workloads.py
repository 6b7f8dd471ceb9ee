"""Seeded workload inputs for the kromfac benchmark.

Every generator here is self-contained (numpy only) on purpose: the
library's own generators and samplers in ``kromfac.evaluation`` may be
optimised later, and that must not silently change what is measured.
The same seed always yields the same edge list.
"""
from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One generated input: the observed edge list as text, the number of
    deleted nodes, and the planted communities over external labels."""

    edge_text: str
    m: int
    truth: tuple[tuple[str, ...], ...]

    def fingerprint(self, n_observed: int, edges: int) -> dict:
        return {
            "N": n_observed,
            "M": self.m,
            "E": edges,
            "sha256": hashlib.sha256(self.edge_text.encode()).hexdigest(),
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    c: int
    kind: str  # "planted" or "sparse"
    params: dict
    em: dict = field(default_factory=dict)  # EmConfig overrides
    detect: dict = field(default_factory=dict)  # DetectConfig overrides
    epsilon: float | None = None  # None -> the library default
    instances: int = 1  # distinct inputs per seed; a run averages their medians


def planted_memberships(n: int, c: int, strength: float, overlap: float) -> np.ndarray:
    """Contiguous blocks of n // c nodes, each extended into the next block
    by overlap * (n // c) nodes, all with the same membership strength."""
    f = np.zeros((n, c))
    size = n // c
    extra = int(size * overlap)
    for j in range(c):
        f[j * size : min(n, (j + 1) * size + extra), j] = strength
    return f


def agm_edges(f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Affiliation-model graph: pair (u, v) is an edge with probability
    1 - exp(-<F_u, F_v>), one uniform draw per pair in row-major order."""
    n = f.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    p = -np.expm1(-np.einsum("ij,ij->i", f[iu], f[iv]))
    hit = rng.random(iu.size) < p
    return np.stack([iu[hit], iv[hit]], axis=1)


def uniform_keep(n: int, delete_frac: float, rng: np.random.Generator) -> np.ndarray:
    """Delete round(delete_frac * n) nodes chosen uniformly; return the kept ids."""
    deleted = int(round(delete_frac * n))
    return np.sort(rng.permutation(n)[: n - deleted])


def forest_fire_keep(
    n: int, edges: np.ndarray, delete_frac: float, p_forward: float, rng: np.random.Generator
) -> np.ndarray:
    """Forest-fire sample: burn from uniformly chosen seeds, each burning
    node igniting a geometric number (mean 1 / (1 - p_forward)) of its
    unburned neighbours, until n - round(delete_frac * n) nodes burned.
    The burned nodes are kept; the rest are deleted."""
    target = n - int(round(delete_frac * n))
    adj = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    burned = np.zeros(n, dtype=bool)
    count = 0
    while count < target:
        seed = int(rng.choice(np.flatnonzero(~burned)))
        burned[seed] = True
        count += 1
        frontier = [seed]
        while frontier and count < target:
            u = frontier.pop(0)
            fresh = [v for v in adj[u] if not burned[v]]
            if not fresh:
                continue
            k = min(int(rng.geometric(1.0 - p_forward)), len(fresh), target - count)
            for j in sorted(rng.choice(len(fresh), size=k, replace=False).tolist()):
                burned[fresh[j]] = True
                frontier.append(fresh[j])
            count += k
    return np.flatnonzero(burned)


def sparse_edges(n: int, n_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random sparse graph on n nodes with exactly n_edges distinct
    edges: a random perfect matching first, so no node is isolated and all
    n nodes are observed, then edges drawn uniformly until the count."""
    perm = rng.permutation(n)
    chosen = {(min(u, v), max(u, v)) for u, v in zip(perm[0::2].tolist(), perm[1::2].tolist())}
    while len(chosen) < n_edges:
        batch = 2 * (n_edges - len(chosen))
        for u, v in zip(rng.integers(0, n, size=batch).tolist(), rng.integers(0, n, size=batch).tolist()):
            if u != v:
                chosen.add((min(u, v), max(u, v)))
                if len(chosen) == n_edges:
                    break
    return np.array(sorted(chosen), dtype=np.int64)


def _edge_text(edges: np.ndarray, rng: np.random.Generator) -> str:
    """Edge list with lines in a seeded random order, so the library's
    first-seen relabelling is not aligned with the planted blocks."""
    rows = edges[rng.permutation(len(edges))]
    return "".join(f"{u} {v}\n" for u, v in rows.tolist())


def make_instance(wl: Workload, seed: int) -> Instance:
    """Generate the observed edge list, M and the truth for one seed."""
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    p = wl.params
    if wl.kind == "planted":
        n = p["n"]
        f = planted_memberships(n, wl.c, p["strength"], p["overlap"])
        edges = agm_edges(f, rng)
        if p["deletion"] == "uniform":
            kept = uniform_keep(n, p["delete_frac"], rng)
        else:
            kept = forest_fire_keep(n, edges, p["delete_frac"], p["p_forward"], rng)
        keep = np.zeros(n, dtype=bool)
        keep[kept] = True
        obs = edges[keep[edges[:, 0]] & keep[edges[:, 1]]]
        m = n - kept.size
        blocks = [np.flatnonzero(f[:, j] > 0) for j in range(wl.c)]
        truth_nodes = [b[keep[b]] for b in blocks]
    elif wl.kind == "sparse":
        obs = sparse_edges(p["n"], p["edges"], rng)
        m = p["m"]
        truth_nodes = []
    else:
        raise ValueError(f"unknown workload kind {wl.kind!r}")
    truth = tuple(tuple(str(u) for u in b.tolist()) for b in truth_nodes)
    return Instance(edge_text=_edge_text(obs, rng), m=m, truth=truth)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="planted-em",
            why="default EmConfig on a planted AGM graph with 30% of nodes deleted uniformly: "
                "the E-step (Gibbs + MH over sigma) dominates, detection is light",
            c=3,
            kind="planted",
            params={"n": 40, "strength": 1.0, "overlap": 0.3, "deletion": "uniform",
                    "delete_frac": 0.3},
            instances=6,
        ),
        Workload(
            name="ff-search",
            why="forest-fire deletion of 40%, epsilon pinned so H = M, fixed detection passes: "
                "the per-candidate as_graph + commun_det search dominates, EM is light",
            c=4,
            kind="planted",
            params={"n": 60, "strength": 0.8, "overlap": 0.3, "deletion": "forest-fire",
                    "delete_frac": 0.4, "p_forward": 0.7},
            em={"em_iters": 6, "grad_steps": 15, "mcmc_samples": 300},
            detect={"max_iters": 20, "eta_detect": 1e-12},
            epsilon=1.0,
            instances=8,
        ),
        Workload(
            name="sparse-cutover",
            why="random sparse graph with N + M just above 2048, so n0^k = EXACT_PAIR_LIMIT: "
                "the largest dense-likelihood M-step, plus detection on a few large graphs",
            c=2,
            kind="sparse",
            params={"n": 2048, "edges": 8192, "m": 4},
            em={"em_iters": 1, "grad_steps": 1, "mcmc_samples": 64},
            detect={"max_iters": 2},
            epsilon=1.0,
        ),
    )
}
