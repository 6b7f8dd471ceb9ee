import json
from dataclasses import replace

import numpy as np
import pytest

from kromfac import kron as kron_mod
from kromfac.community import Cover, DetectConfig, commun_det, density_delta, hard_decision
from kromfac.completion import as_graph
from kromfac.graph import Graph, induced_subgraph, neighbour_arrays
from kromfac.kron import EmConfig
from kromfac.pipeline import (
    AUTO,
    KromfacConfig,
    baseline1,
    baseline2,
    complete,
    detect_seed,
    kromfac,
    regularized_loss,
    resolve_delta,
    search,
    select,
)

FAST_EM = EmConfig(em_iters=3, grad_steps=5, mcmc_samples=50)


def small_cfg(m, c, seed=0, **kw):
    return KromfacConfig(
        m=m, c=c, em=FAST_EM, detect=DetectConfig(max_iters=60), seed=seed, **kw
    )


def two_cliques(size=4):
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges += [(u, v) for u in range(size, 2 * size) for v in range(u + 1, 2 * size)]
    return Graph(2 * size, edges)


def community_graph(seed=0, n=30, c=2, p_in=0.5, p_out=0.02):
    rng = np.random.default_rng(seed)
    block = n // c
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            same = u // block == v // block
            p = p_in if same else p_out
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges)


class TestRegularizedLoss:
    def test_i_zero(self):
        assert regularized_loss(5.0, 0, 10.0) == 5.0

    def test_log_two(self):
        assert regularized_loss(5.0, 1, 10.0) == pytest.approx(5.0 - 10.0 * np.log(2))

    def test_lambda_scaling(self):
        # lambda = coef * N resolution at the config level.
        cfg = KromfacConfig(m=1, c=1, lambda_coef=10.0)
        assert cfg.resolve_lambda(10_000) == 100_000

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            regularized_loss(1.0, -1, 10.0)
        for lam in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                regularized_loss(1.0, 0, lam)


class TestKromfac:
    def test_m_zero_equals_baseline1(self):
        g = two_cliques()
        cfg = small_cfg(0, 2, seed=3)
        cover, trace = kromfac(g, cfg)
        b1 = baseline1(g, 2, cfg.delta, cfg.detect, detect_seed(cfg.seed, 0))
        assert cover == b1
        assert trace.i_hat == 0
        assert [e.i for e in trace.entries] == [0]

    def test_selection_minimizes_recorded_reg_loss(self):
        g = community_graph(1)
        cover, trace = kromfac(g, small_cfg(6, 2, seed=4))
        best = min(trace.entries, key=lambda e: e.reg_loss)
        assert trace.i_hat == best.i
        assert cover.universe == g.n + trace.i_hat

    def test_lambda_zero_override_reduces_to_loss_min(self):
        g = community_graph(2)
        cfg = small_cfg(6, 2, seed=5, lambda_abs=1e-12)
        _, trace = kromfac(g, cfg)
        chosen = next(e for e in trace.entries if e.i == trace.i_hat)
        assert all(chosen.loss <= e.loss + 1e-6 for e in trace.entries)

    def test_end_to_end_determinism(self):
        g = community_graph(3)
        cfg = small_cfg(5, 2, seed=6)
        c1, t1 = kromfac(g, cfg)
        c2, t2 = kromfac(g, cfg)
        assert c1 == c2
        assert t1 == t2

    def test_h_zero_without_i0_is_an_error(self):
        g = two_cliques()
        cfg = small_cfg(0, 2, include_i0=False)
        with pytest.raises(ValueError, match="no candidates"):
            kromfac(g, cfg)

    def test_h_zero_without_i0_is_raised_by_select(self):
        # The search always detects i = 0; only select reads include_i0.
        found = search(two_cliques(), small_cfg(0, 2))
        assert len(found.results) == 1
        with pytest.raises(ValueError, match=r"no candidates.*drop --no-i0 or set include_i0=True\)$"):
            select(found, 10.0, False)
        assert [e.i for e in select(found, 10.0, True).entries] == [0]

    def test_rejects_negative_seed(self):
        # numpy's own message for it, "expected non-negative integer",
        # would not name the seed.
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            KromfacConfig(m=1, c=1, seed=-1)

    @pytest.mark.parametrize("m, c, message", [
        (-1, 1, r"^m must be >= 0, got -1$"),
        (1, 0, r"^c must be >= 1, got 0$"),
    ])
    def test_rejects_bad_counts_by_name(self, m, c, message):
        with pytest.raises(ValueError, match=message):
            KromfacConfig(m=m, c=c)

    def test_h_zero_flags_degenerate_trace(self):
        g = two_cliques()
        _, trace = kromfac(g, small_cfg(0, 2, seed=8))
        assert trace.h == 0 and trace.i_hat == 0

    def test_trace_json_round_trip(self):
        g = community_graph(5)
        _, trace = kromfac(g, small_cfg(4, 2, seed=9))
        d = json.loads(trace.to_json())
        assert d["i_hat"] == trace.i_hat
        assert len(d["trace"]) == len(trace.entries)
        assert d["h"] == trace.h


class TestSearch:
    def test_trace_matches_candidate_runs_alone(self):
        # The lockstep search against the loop it replaced: detection on
        # as_graph(rg, i, order) for each candidate, one at a time. The
        # acceptance study reads each candidate's cover from the search, so
        # the covers are compared too, and kromfac() is search, then select,
        # then the chosen candidate's cover.
        g = community_graph(4)
        cfg = small_cfg(6, 2, seed=12, epsilon=1.0)
        cover, trace = kromfac(g, cfg)
        found = search(g, cfg)
        assert trace == select(found, cfg.resolve_lambda(g.n), cfg.include_i0)
        assert trace.h == found.ranking.h > 2 and len(found.results) == trace.h + 1
        for entry, res in zip(trace.entries, found.results, strict=True):
            gi = as_graph(found.rg, entry.i, found.ranking.order)
            alone = commun_det(gi, cfg.c, cfg.detect, detect_seed(cfg.seed, entry.i))
            assert entry.converged == alone.converged
            assert abs(entry.loss - alone.loss) <= 1e-12 * abs(alone.loss)
            cover_i = found.cover(entry.i, cfg.delta)
            assert cover_i == hard_decision(res.f, resolve_delta(cfg.delta, found.graph, len(res.f)))
            assert cover_i == hard_decision(alone.f, density_delta(gi.n, gi.edge_count))
            assert (cover_i == cover) == (entry.i == trace.i_hat)

    # (graph seed, m, seed): H >= 2 at epsilon = 1.0, and each search graph
    # has an edge from an observed node to a ranked recovered one, so some
    # of candidate 0's rows are masked in the stacked search.
    @pytest.mark.parametrize("graph_seed, m, seed", [(4, 6, 12), (1, 6, 4), (2, 6, 5), (8, 6, 21)])
    def test_candidate_zero_is_baseline1(self, graph_seed, m, seed):
        g = community_graph(graph_seed)
        cfg = small_cfg(m, 2, seed=seed, epsilon=1.0)
        found = search(g, cfg)
        eu, ev = neighbour_arrays(found.graph)[2:]
        assert found.ranking.h >= 2 and np.any((eu < g.n) & (ev >= g.n))
        for delta in (AUTO, 0.3):
            b1 = baseline1(g, cfg.c, delta, cfg.detect, detect_seed(cfg.seed, 0))
            assert found.cover(0, delta) == b1

    def test_precomputed_recovery_gives_the_same_results(self):
        g = community_graph(5)
        cfg = small_cfg(4, 2, seed=13)
        _, _, rg = complete(g, cfg.m, cfg.n0, cfg.em, cfg.seed)
        assert search(g, cfg).rg == rg
        assert baseline2(g, cfg, rg) == baseline2(g, cfg)

    def test_rejects_recovery_of_another_graph(self):
        g = community_graph(5)
        cfg = small_cfg(4, 2, seed=13)
        _, _, rg = complete(g, cfg.m, cfg.n0, cfg.em, cfg.seed)
        with pytest.raises(ValueError, match="does not extend"):
            baseline2(community_graph(6), cfg, rg)
        with pytest.raises(ValueError, match="does not extend"):
            baseline2(g, replace(cfg, m=3), rg)


# kromfac() on two planted two-block graphs (24 nodes, 0.7 inside a block,
# 0.03 across): graph seed, config, EXACT_PAIR_LIMIT override, then the
# cover, i_hat and the trace losses. "h_equals_m" pins epsilon so every
# recovered node is ranked, in an order that is not the identity;
# "approximate" runs the M-step above EXACT_PAIR_LIMIT. Each chosen cover
# has every F entry at least 4% (relative) away from its threshold, so
# last-bit BLAS differences cannot move a member. Re-pinned when MH over
# sigma took one up-front uniform per proposal, which forked the EM
# stream: the recovered graphs, and so the rankings, moved with it.
GOLDEN_RUNS = {
    "h_equals_m": (
        27,
        KromfacConfig(m=4, c=2, em=FAST_EM, detect=DetectConfig(max_iters=100), seed=27, epsilon=0.5),
        None,
        (27, 24, 26, 25),
        [[12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23], [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11]],
        4,
        [96.32458726830319, 101.72386689634226, 107.11871714010404, 115.96343798381528, 119.20444530632324],
    ),
    "approximate": (
        4,
        KromfacConfig(
            m=6, c=2, em=EmConfig(em_iters=4, grad_steps=20, mcmc_samples=60, learning_rate=1e-3),
            detect=DetectConfig(max_iters=100), seed=4,
        ),
        1,
        (27, 24, 25, 29, 26),
        [[12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24], [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11]],
        5,
        [82.07228391354953, 99.44477468986237, 114.0210907386635, 132.3676777482007, 149.0975669017043,
         166.823575375257],
    ),
}


class TestGoldenPipeline:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_golden_pipeline(self, monkeypatch, name):
        # A change to these values forks the EM sample path or the search:
        # update them only together with a note on why the outputs moved.
        graph_seed, cfg, limit, order, communities, i_hat, losses = GOLDEN_RUNS[name]
        if limit is not None:
            monkeypatch.setattr(kron_mod, "EXACT_PAIR_LIMIT", limit)
        g = community_graph(graph_seed, n=24, p_in=0.7, p_out=0.03)
        cover, trace = kromfac(g, cfg)
        assert search(g, cfg).ranking.order == order
        assert [sorted(com) for com in cover.communities] == communities
        assert cover.universe == g.n + i_hat
        assert trace.i_hat == i_hat and trace.h == len(order)
        np.testing.assert_allclose([e.loss for e in trace.entries], losses, rtol=1e-9, atol=0)


class TestBaselines:
    def test_baseline1_recovers_cliques(self):
        g = two_cliques()
        planted = {frozenset(range(4)), frozenset(range(4, 8))}
        hits = sum(
            set(baseline1(g, 2, seed=s).communities) == planted
            for s in range(10)
        )
        assert hits >= 8

    def test_baseline2_m_zero_equals_baseline1(self):
        g = two_cliques()
        cfg = small_cfg(0, 2, seed=10)
        b2 = baseline2(g, cfg)
        assert b2 == baseline1(g, 2, cfg.delta, cfg.detect, detect_seed(cfg.seed, 0))

    def test_baseline2_universe(self):
        g = community_graph(6)
        cfg = small_cfg(4, 2, seed=11)
        assert baseline2(g, cfg).universe == g.n + 4

    def test_baseline2_is_detection_on_completed_graph(self):
        g = community_graph(6)
        cfg = small_cfg(4, 2, seed=7)
        _, _, rg = complete(g, cfg.m, cfg.n0, cfg.em, cfg.seed)
        g_full = as_graph(rg, cfg.m)
        res = commun_det(g_full, cfg.c, cfg.detect, detect_seed(cfg.seed, cfg.m))
        expected = hard_decision(res.f, resolve_delta(cfg.delta, g_full))
        assert baseline2(g, cfg) == expected


class TestResolveDelta:
    def test_explicit_value_passes_through(self):
        assert resolve_delta(0.3, Graph(1, [])) == 0.3

    def test_auto_uses_default_delta(self):
        g = two_cliques()
        assert resolve_delta(AUTO, g) == density_delta(g.n, g.edge_count)

    def test_prefix_counts_only_its_own_edges(self):
        # kromfac takes i_hat's threshold from the largest candidate's graph.
        g = community_graph(8, n=12)
        for n in range(2, g.n + 1):
            prefix, _ = induced_subgraph(g, set(range(n)))
            assert resolve_delta(AUTO, g, n) == density_delta(prefix.n, prefix.edge_count)
        assert resolve_delta(AUTO, g, 1) == 1.0
        assert resolve_delta(0.3, g, 5) == 0.3

    def test_auto_below_two_nodes_is_one(self):
        assert resolve_delta(AUTO, Graph(1, [])) == 1.0
        assert resolve_delta(AUTO, Graph(0, [])) == 1.0

    def test_single_node_graph_gives_one_empty_community(self):
        g = Graph(1, [])
        empty = Cover((frozenset(),), 1)
        cfg = small_cfg(0, 1, seed=2)
        assert baseline1(g, 1) == empty
        assert baseline2(g, cfg) == empty
        cover, trace = kromfac(g, cfg)
        assert cover == empty
        assert trace.i_hat == 0
