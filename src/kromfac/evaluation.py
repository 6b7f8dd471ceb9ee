"""Cover scoring, graph sampling, synthetic generation, and the
experiment harness. `agm_generate` draws its edges with the E-step's
sampler, `graph.bernoulli_pairs`: one uniform per pair, in row-major
order. `ff_sample` burns over the graph's CSR arrays with a boolean mask.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .community import Cover, hard_decision
from .graph import Graph, NodeIdMap, bernoulli_pairs, induced_subgraph, neighbour_arrays
from .pipeline import KromfacConfig, SearchTrace, baseline2, sample_seed, search, select

PLANTED_DELTA = 0.5


@dataclass(frozen=True)
class SampleSpec:
    strategy: str  # "rn" or "ff"
    fraction: float = 0.7
    p_forward: float = 0.7

    def __post_init__(self):
        if self.strategy not in ("rn", "ff"):
            raise ValueError("strategy must be 'rn' or 'ff'")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        if not (0.0 < self.p_forward < 1.0):
            raise ValueError("p_forward must be in (0, 1)")


def _entropy_terms(*probs: float) -> float:
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def _membership_counts(x: frozenset, y: frozenset, n: int) -> tuple[int, int, int, int]:
    both = len(x & y)
    only_x = len(x) - both
    only_y = len(y) - both
    neither = n - both - only_x - only_y
    return neither, only_y, only_x, both


def _cond_entropy(x: frozenset, y: frozenset, n: int) -> float | None:
    """H(X_k | Y_l) for binary membership variables; None if the pairing
    fails the non-informative-match admissibility rule."""
    a, b, c, d = (cnt / n for cnt in _membership_counts(x, y, n))
    if _entropy_terms(a) + _entropy_terms(d) < _entropy_terms(b) + _entropy_terms(c):
        return None
    joint = _entropy_terms(a, b, c, d)
    h_y = _entropy_terms(a + c, b + d)
    return joint - h_y


def _side_score(x_cover: Cover, y_cover: Cover) -> float:
    """Mean over X's communities of H(X_k|Y) / H(X_k)."""
    n = x_cover.universe
    if not x_cover.communities:
        return 0.0 if not y_cover.communities else 1.0
    ratios = []
    for xk in x_cover.communities:
        p = len(xk) / n if n else 0.0
        h_x = _entropy_terms(p, 1.0 - p)
        if h_x == 0.0:
            # Zero-entropy community: exact match in Y scores 0, else 1.
            ratios.append(0.0 if xk in y_cover.communities else 1.0)
            continue
        best = h_x
        for yl in y_cover.communities:
            ce = _cond_entropy(xk, yl, n)
            if ce is not None and ce < best:
                best = ce
        ratios.append(min(best / h_x, 1.0))
    return float(np.mean(ratios))


def nmi(x: Cover, y: Cover) -> float:
    """Overlapping-cover normalized mutual information in [0, 1].

    Each community is treated as a binary node-membership variable;
    conditional entropies take the best admissible match on the other
    side, with non-informative matches replaced by the marginal entropy.
    """
    if x.universe != y.universe:
        raise ValueError("covers must share the same node universe")
    score = 1.0 - 0.5 * (_side_score(x, y) + _side_score(y, x))
    return min(max(score, 0.0), 1.0)


def rn_sample(g: Graph, spec: SampleSpec, seed: int = 0) -> tuple[Graph, NodeIdMap]:
    """Keep ceil(fraction * n) nodes drawn from `seed` uniformly without
    replacement. Returns the induced subgraph and its id map to g's ids."""
    if spec.strategy != "rn":
        raise ValueError("spec.strategy must be 'rn'")
    rng = np.random.default_rng(seed)
    target = math.ceil(spec.fraction * g.n)
    return induced_subgraph(g, set(rng.choice(g.n, size=target, replace=False).tolist()))


def ff_sample(g: Graph, spec: SampleSpec, seed: int = 0) -> tuple[Graph, NodeIdMap]:
    """Forest-fire sampling, drawn from `seed`: burn from uniform unburned
    seeds until ceil(fraction * n) nodes burn. Each frontier node, first in
    first out, burns a geometric number (mean 1 / (1 - p_forward)) of its
    unburned CSR neighbours, chosen uniformly and burned in ascending order.
    Returns the induced subgraph on the burned nodes and its id map to g's ids.
    """
    if spec.strategy != "ff":
        raise ValueError("spec.strategy must be 'ff'")
    rng = np.random.default_rng(seed)
    indptr, indices = neighbour_arrays(g)[:2]
    burned = np.zeros(g.n, dtype=bool)
    left = math.ceil(spec.fraction * g.n)
    while left:
        frontier = deque([int(rng.choice(np.flatnonzero(~burned)))])
        burned[frontier[0]] = True
        left -= 1
        while frontier and left:
            u = frontier.popleft()
            nbr = indices[indptr[u] : indptr[u + 1]]
            fresh = nbr[~burned[nbr]]
            if not fresh.size:
                continue
            count = min(int(rng.geometric(1.0 - spec.p_forward)), fresh.size)
            picks = fresh[np.sort(rng.choice(fresh.size, size=count, replace=False))][:left]
            burned[picks] = True
            frontier.extend(picks.tolist())
            left -= picks.size
    return induced_subgraph(g, set(np.flatnonzero(burned).tolist()))


def agm_generate(f_true: np.ndarray, seed: int) -> tuple[Graph, Cover]:
    """Sample a graph from the affiliation model and return it with the
    planted ground-truth cover (threshold 0.5). Pair u < v joins with
    probability 1 - exp(-<F_u, F_v>), drawn by graph.bernoulli_pairs: one
    uniform per pair, in row-major order.
    """
    f_true = np.asarray(f_true, dtype=float)
    if not np.all(np.isfinite(f_true) & (f_true >= 0)):
        raise ValueError("membership matrix must be nonnegative and finite")
    rng = np.random.default_rng(seed)
    n = f_true.shape[0]
    eu, ev = bernoulli_pairs(n, 0, lambda rows: -np.expm1(-(f_true[rows] @ f_true.T)), rng)
    return Graph.from_arrays(n, eu, ev), hard_decision(f_true, PLANTED_DELTA)


@dataclass(frozen=True)
class ExperimentReport:
    scores: dict[str, float]
    trace: SearchTrace
    timing: dict[str, float]
    config: dict
    fingerprint: dict
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        # Timing is deliberately left out so the artifact is byte-stable
        # across reruns with the same seed. The empty "metadata" object is
        # part of report.json's layout, which readers and its pin rely on.
        return json.dumps(
            {
                "scores": self.scores,
                "trace": json.loads(self.trace.to_json()),
                "config": self.config,
                "fingerprint": self.fingerprint,
                "notes": list(self.notes),
                "metadata": {},
            },
            indent=2,
            sort_keys=True,
        )


def graph_fingerprint(g: Graph) -> dict:
    digest = hashlib.sha256()
    for u, v in g.edges():
        digest.update(f"{u},{v};".encode())
    return {"nodes": g.n, "edges": g.edge_count, "sha256": digest.hexdigest()}


def restrict_truth(truth: Cover, kept: NodeIdMap) -> tuple[Cover, list[str]]:
    """Reindex the ground truth onto the kept nodes, a sampler's id map,
    dropping communities emptied by the deletion."""
    remap = kept.to_internal
    notes = []
    communities = []
    for idx, com in enumerate(truth.communities):
        surviving = frozenset(remap[u] for u in com if u in remap)
        if com and not surviving:
            notes.append(f"community {idx} emptied by sampling; dropped from truth")
            continue
        communities.append(surviving)
    return Cover(tuple(communities), len(kept.to_external)), notes


def run_experiment(
    g_true: Graph,
    truth: Cover,
    spec: SampleSpec,
    cfg: KromfacConfig,
) -> ExperimentReport:
    """Sample the observable graph, run KroMFac and both baselines, and
    score each against the (restricted) ground truth over observed nodes.
    One `search` gives KroMFac's cover and baseline 1's, its i = 0
    candidate, and its recovered graph is reused by baseline2. The
    sampler's seed is `sample_seed(cfg.seed)`."""
    if truth.universe != g_true.n:
        raise ValueError("ground-truth cover must be defined on the dataset's nodes")
    sampler = rn_sample if spec.strategy == "rn" else ff_sample
    g_obs, kept = sampler(g_true, spec, sample_seed(cfg.seed))
    truth_obs, notes = restrict_truth(truth, kept)
    cfg = replace(cfg, m=g_true.n - g_obs.n)
    lam = cfg.resolve_lambda(g_obs.n)  # an overflowing lambda fails here, before the fit

    timing = {}
    t0 = time.perf_counter()
    found = search(g_obs, cfg)
    trace = select(found, lam, cfg.include_i0)
    cover_k, cover_b1 = found.cover(trace.i_hat, cfg.delta), found.cover(0, cfg.delta)
    timing["search"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cover_b2 = baseline2(g_obs, cfg, found.rg)
    timing["baseline2"] = time.perf_counter() - t0

    n_obs = g_obs.n
    scores = {
        "kromfac": nmi(truth_obs, cover_k.restrict(n_obs)),
        "baseline1": nmi(truth_obs, cover_b1.restrict(n_obs)),
        "baseline2": nmi(truth_obs, cover_b2.restrict(n_obs)),
    }
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("em", "detect")}
    echo["sample"] = {**asdict(spec), "seed": sample_seed(cfg.seed)}
    return ExperimentReport(
        scores=scores,
        trace=trace,
        timing=timing,
        config=echo,
        fingerprint=graph_fingerprint(g_true),
        notes=tuple(notes),
    )
