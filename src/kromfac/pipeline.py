"""KroMFac driver and the two baselines.

The pipeline has three stages: `complete` (fit the Kronecker model by EM
and realize the missing part), rank (degree ranking of the recovered
nodes), then search (detection on N+i nodes for each candidate i, picked
by regularized loss). Candidate i's graph is the induced subgraph of the
largest candidate's on its first N+i nodes, so the search is one
`commun_det_prefixes` call over that one graph. `baseline2` reuses
`complete`; `baseline1` detects on the observed graph alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .community import Cover, DetectConfig, commun_det, commun_det_prefixes, density_delta, hard_decision
from .completion import RecoveredGraph, as_graph, realize_missing
from .graph import Graph, neighbour_arrays
from .kron import EmConfig, KroneckerModel, NodeMapping, kronem_fit, random_theta_init
from .ranking import Ranking, default_epsilon, select_influential

AUTO = "auto"

# Labels for sub-seed derivation from the master seed.
_SEED_EM = 1
_SEED_REALIZE = 2
_SEED_THETA_INIT = 3
_SEED_DETECT_BASE = 100


def subseed(master: int, label: int) -> int:
    """Deterministic sub-seed stream keyed by a fixed integer label."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=(label,)).generate_state(1)[0])


def detect_seed(master: int, i: int) -> int:
    """Seed used for the detection run at candidate i."""
    return subseed(master, _SEED_DETECT_BASE + i)


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
        if self.m < 0 or self.c < 1:
            raise ValueError("need m >= 0 and c >= 1")
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
        return self.lambda_coef * n_observed


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
                "trace": [
                    {
                        "i": e.i,
                        "loss": e.loss,
                        "reg_loss": e.reg_loss,
                        "converged": e.converged,
                    }
                    for e in self.entries
                ],
                "i_hat": self.i_hat,
            }
        )


def regularized_loss(d: float, i: int, lam: float) -> float:
    """Detection loss minus the node-count reward: d - lam * log(i + 1)."""
    if i < 0 or lam <= 0:
        raise ValueError("need i >= 0 and lam > 0")
    return d - lam * math.log(i + 1)


def kromfac(
    g_obs: Graph, cfg: KromfacConfig, rg: RecoveredGraph | None = None
) -> tuple[Cover, SearchTrace]:
    """Run the full pipeline: fit the Kronecker model, realize the missing
    part, rank influential nodes, search i by regularized loss, and
    hard-decide the cover from the best affiliation matrix.

    `rg` is a precomputed `complete(g_obs, cfg.m, cfg.n0, cfg.em,
    cfg.seed)` result; None runs `complete`."""
    lam = cfg.resolve_lambda(g_obs.n)
    rg, ranking = _recover_and_rank(g_obs, cfg, rg)
    candidates = ([0] if cfg.include_i0 else []) + list(range(1, ranking.h + 1))
    if not candidates:
        raise ValueError(
            "no candidates to search: H=0 and i=0 excluded (set include_i0)"
        )

    g_search = as_graph(rg, candidates[-1], ranking.order)
    results = commun_det_prefixes(
        g_search,
        [g_obs.n + i for i in candidates],
        cfg.c,
        cfg.detect,
        [detect_seed(cfg.seed, i) for i in candidates],
    )
    entries = []
    best = None
    for i, res in zip(candidates, results):
        reg = regularized_loss(res.loss, i, lam)
        entries.append(TraceEntry(i=i, loss=res.loss, reg_loss=reg, converged=res.converged))
        if best is None or reg < best[0]:
            best = (reg, i, res)

    _, i_hat, res_hat = best
    cover = hard_decision(res_hat.f, resolve_delta(cfg.delta, g_search, g_obs.n + i_hat))
    trace = SearchTrace(
        lambda_value=lam,
        h=ranking.h,
        entries=tuple(entries),
        i_hat=i_hat,
    )
    return cover, trace


def resolve_delta(delta: float | str, g: Graph, n: int | None = None) -> float:
    """The membership threshold for a cover of g's first n nodes (all by
    default): `delta` itself, or for AUTO the default_delta of the induced
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
    the missing part; every random draw comes from a sub-seed of `seed`
    (em.seed is replaced)."""
    if g_obs.n == 0:
        raise ValueError("cannot complete an empty observed graph (0 nodes)")
    theta_init = random_theta_init(n0, np.random.default_rng(subseed(seed, _SEED_THETA_INIT)))
    em = replace(em, seed=subseed(seed, _SEED_EM))
    model, mapping = kronem_fit(g_obs, m, n0, theta_init, em)
    rg = realize_missing(g_obs, model, mapping, m, subseed(seed, _SEED_REALIZE))
    return model, mapping, rg


def _recovered(g_obs: Graph, cfg: KromfacConfig, rg: RecoveredGraph | None) -> RecoveredGraph:
    """`rg` checked against g_obs and cfg.m, or a fresh `complete` run."""
    if g_obs.n == 0:
        raise ValueError("cannot detect communities on an empty graph (0 nodes)")
    if rg is None:
        return complete(g_obs, cfg.m, cfg.n0, cfg.em, cfg.seed)[2]
    if rg.m != cfg.m or rg.base != g_obs:
        raise ValueError("recovered graph does not extend g_obs by cfg.m nodes")
    return rg


def _recover_and_rank(
    g_obs: Graph, cfg: KromfacConfig, rg: RecoveredGraph | None = None
) -> tuple[RecoveredGraph, Ranking]:
    rg = _recovered(g_obs, cfg, rg)
    eps = default_epsilon(rg) if cfg.epsilon == AUTO else cfg.epsilon
    if eps <= 0:
        # Edgeless recovered graph: no node can qualify.
        ranking = Ranking(h=0, order=(), epsilon=eps)
    else:
        ranking = select_influential(rg, eps)
    return rg, ranking


def baseline1(
    g_obs: Graph,
    c: int,
    delta: float | str = AUTO,
    detect: DetectConfig = DetectConfig(),
) -> Cover:
    """Detection on the observed graph only: no completion, no search."""
    res = commun_det(g_obs, c, detect)
    return hard_decision(res.f, resolve_delta(delta, g_obs))


def baseline2(g_obs: Graph, cfg: KromfacConfig, rg: RecoveredGraph | None = None) -> Cover:
    """Detection on the fully completed graph (i = M, no selection).

    `rg` is as in `kromfac`."""
    g_full = as_graph(_recovered(g_obs, cfg, rg), cfg.m)
    res = commun_det(g_full, cfg.c, replace(cfg.detect, seed=detect_seed(cfg.seed, cfg.m)))
    return hard_decision(res.f, resolve_delta(cfg.delta, g_full))
