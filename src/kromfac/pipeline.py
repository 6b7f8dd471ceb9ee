"""KroMFac driver and the two baselines.

The pipeline has three stages: `complete` (fit the Kronecker model by EM
and realize the missing part), rank (degree ranking of the recovered
nodes), then search (detection on N+i nodes for each candidate i).
`search` runs the first two stages and the detections: candidate i's
graph is the induced subgraph of the largest candidate's on its first
N+i nodes, so the detections are one `commun_det_prefixes` call over that
one graph. `select` then picks i by regularized loss, and `kromfac` is
search, select and the chosen candidate's cover. Candidate 0 is
detection on the observed graph alone, so `search` also gives baseline
1's cover; `baseline1` runs that detection by itself. `baseline2` reuses
`complete`, or a search's recovered graph.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .community import (
    Cover, DetectConfig, DetectResult, commun_det, commun_det_prefixes, density_delta, hard_decision,
)
from .completion import RecoveredGraph, as_graph, realize_missing
from .graph import Graph, neighbour_arrays
from .kron import EmConfig, KroneckerModel, NodeMapping, kronem_fit, random_theta_init
from .ranking import Ranking, default_epsilon, select_influential

AUTO = "auto"

# Labels for sub-seed derivation from the master seed.
_SEED_EM = 1
_SEED_REALIZE = 2
_SEED_THETA_INIT = 3
_SEED_SAMPLE = 50  # the sampler of `run_experiment`
_SEED_DETECT_BASE = 100


def subseed(master: int, label: int) -> int:
    """Deterministic sub-seed stream keyed by a fixed integer label."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=(label,)).generate_state(1)[0])


def detect_seed(master: int, i: int) -> int:
    """Seed used for the detection run at candidate i."""
    return subseed(master, _SEED_DETECT_BASE + i)


def sample_seed(master: int) -> int:
    """Seed of the sampler that `run_experiment` draws the observed graph with."""
    return subseed(master, _SEED_SAMPLE)


@dataclass(frozen=True)
class KromfacConfig:
    m: int
    c: int
    n0: int = 2
    lambda_coef: float = 10.0
    lambda_abs: float | None = None  # overrides lambda_coef * N when set
    epsilon: float | str = AUTO
    delta: float | str = AUTO
    em: EmConfig = field(default_factory=EmConfig)
    detect: DetectConfig = field(default_factory=DetectConfig)
    include_i0: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lambda_coef < math.inf:
            raise ValueError(f"lambda_coef must be positive and finite, got {self.lambda_coef}")
        if self.lambda_abs is not None and not 0 < self.lambda_abs < math.inf:
            raise ValueError(f"lambda_abs must be positive and finite, got {self.lambda_abs}")
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if value != AUTO and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite or '{AUTO}', got {value}")

    def resolve_lambda(self, n_observed: int) -> float:
        if self.lambda_abs is not None:
            return self.lambda_abs
        lam = self.lambda_coef * n_observed
        if lam == math.inf:
            raise ValueError(
                f"lambda_coef must be positive and finite in lambda = lambda_coef * N, "
                f"got lambda_coef={self.lambda_coef} and N={n_observed}"
            )
        return lam


@dataclass(frozen=True)
class TraceEntry:
    i: int
    loss: float
    reg_loss: float
    converged: bool


@dataclass(frozen=True)
class SearchTrace:
    lambda_value: float
    h: int
    entries: tuple[TraceEntry, ...]
    i_hat: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda": self.lambda_value,
                "h": self.h,
                "trace": [asdict(e) for e in self.entries],
                "i_hat": self.i_hat,
            }
        )


def regularized_loss(d: float, i: int, lam: float) -> float:
    """Detection loss minus the node-count reward: d - lam * log(i + 1)."""
    if i < 0 or not 0 < lam < math.inf:
        raise ValueError(f"need i >= 0 and 0 < lam < inf, got i={i}, lam={lam}")
    return d - lam * math.log(i + 1)


@dataclass(frozen=True)
class SearchResult:
    """What `search` found: the recovered graph, its ranking, the search
    graph (the largest candidate's) and, as results[i], candidate i's
    detection on its first N+i nodes, for every i = 0..H."""

    rg: RecoveredGraph
    ranking: Ranking
    graph: Graph
    results: tuple[DetectResult, ...]

    def cover(self, i: int, delta: float | str) -> Cover:
        """Candidate i's cover, at `delta` resolved on its N+i nodes."""
        return _cover(self.results[i].f, delta, self.graph)


def search(g_obs: Graph, cfg: KromfacConfig) -> SearchResult:
    """Recover g_obs's missing part, rank the recovered nodes and run one
    detection per candidate i = 0..H, all in one lockstep
    `commun_det_prefixes` call over the largest candidate's graph.
    Candidate 0 is detection on g_obs alone, baseline 1's."""
    rg = _recovered(g_obs, cfg)
    eps = default_epsilon(rg) if cfg.epsilon == AUTO else cfg.epsilon
    # An edgeless recovered graph gives eps = 0: no node can qualify.
    ranking = Ranking(h=0, order=()) if eps <= 0 else select_influential(rg, eps)
    g_search = as_graph(rg, ranking.h, ranking.order)
    candidates = range(ranking.h + 1)
    results = commun_det_prefixes(
        g_search,
        [g_obs.n + i for i in candidates],
        cfg.c,
        cfg.detect,
        [detect_seed(cfg.seed, i) for i in candidates],
    )
    return SearchResult(rg, ranking, g_search, tuple(results))


def select(found: SearchResult, lam: float, include_i0: bool) -> SearchTrace:
    """The trace of `found` at regularization `lam`, over candidates 0..H,
    or 1..H without i = 0; i_hat is the first candidate of least
    regularized loss."""
    first = 0 if include_i0 else 1
    if first > found.ranking.h:
        raise ValueError(
            "no candidates to select: H=0 and i=0 excluded (drop --no-i0 or set include_i0=True)"
        )
    entries = tuple(
        TraceEntry(i, res.loss, regularized_loss(res.loss, i, lam), res.converged)
        for i, res in enumerate(found.results[first:], first)
    )
    i_hat = min(entries, key=lambda e: e.reg_loss).i
    return SearchTrace(lambda_value=lam, h=found.ranking.h, entries=entries, i_hat=i_hat)


def kromfac(g_obs: Graph, cfg: KromfacConfig) -> tuple[Cover, SearchTrace]:
    """Run the full pipeline: `search`, `select` i by regularized loss, and
    the chosen candidate's cover."""
    lam = cfg.resolve_lambda(g_obs.n)
    found = search(g_obs, cfg)
    trace = select(found, lam, cfg.include_i0)
    return found.cover(trace.i_hat, cfg.delta), trace


def _cover(f: np.ndarray, delta: float | str, g: Graph) -> Cover:
    """The cover of f, a detection's rows on g's first len(f) nodes, at `delta` resolved on them."""
    return hard_decision(f, resolve_delta(delta, g, len(f)))


def resolve_delta(delta: float | str, g: Graph, n: int | None = None) -> float:
    """The membership threshold for a cover of g's first n nodes (all by
    default): `delta` itself, or for AUTO the density_delta of the induced
    subgraph on them, falling back to 1.0 below two nodes. The subgraph's
    edges are counted from g's edge arrays; it is not built."""
    if delta != AUTO:
        return delta
    n = g.n if n is None else n
    if n < 2:
        return 1.0
    return density_delta(n, int(np.count_nonzero(neighbour_arrays(g)[3] < n)))


def complete(
    g_obs: Graph, m: int, n0: int, em: EmConfig, seed: int
) -> tuple[KroneckerModel, NodeMapping, RecoveredGraph]:
    """Fit the Kronecker model to g_obs with m missing nodes and realize
    the missing part; every random draw comes from a sub-seed of `seed`."""
    if g_obs.n == 0:
        raise ValueError("cannot complete an empty observed graph (0 nodes)")
    theta_init = random_theta_init(n0, np.random.default_rng(subseed(seed, _SEED_THETA_INIT)))
    model, mapping = kronem_fit(g_obs, m, n0, theta_init, em, subseed(seed, _SEED_EM))
    rg = realize_missing(g_obs, model, mapping, m, subseed(seed, _SEED_REALIZE))
    return model, mapping, rg


def _recovered(g_obs: Graph, cfg: KromfacConfig, rg: RecoveredGraph | None = None) -> RecoveredGraph:
    """`rg` checked against g_obs and cfg.m, or a fresh `complete` run."""
    if g_obs.n == 0:
        raise ValueError("cannot detect communities on an empty graph (0 nodes)")
    if rg is None:
        return complete(g_obs, cfg.m, cfg.n0, cfg.em, cfg.seed)[2]
    if rg.m != cfg.m or rg.base != g_obs:
        raise ValueError("recovered graph does not extend g_obs by cfg.m nodes")
    return rg


def baseline1(
    g_obs: Graph,
    c: int,
    delta: float | str = AUTO,
    detect: DetectConfig = DetectConfig(),
    seed: int = 0,
) -> Cover:
    """Detection on the observed graph only, seeded by `seed`: no completion or search."""
    return _cover(commun_det(g_obs, c, detect, seed).f, delta, g_obs)


def baseline2(g_obs: Graph, cfg: KromfacConfig, rg: RecoveredGraph | None = None) -> Cover:
    """Detection on the fully completed graph (i = M, no selection).

    `rg` is a precomputed `complete(g_obs, cfg.m, cfg.n0, cfg.em,
    cfg.seed)` result, such as `search`'s; None runs `complete`."""
    g_full = as_graph(_recovered(g_obs, cfg, rg), cfg.m)
    res = commun_det(g_full, cfg.c, cfg.detect, detect_seed(cfg.seed, cfg.m))
    return _cover(res.f, cfg.delta, g_full)
