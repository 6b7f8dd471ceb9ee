import json
import math
import tracemalloc

import numpy as np
import pytest

from kromfac import pipeline
from kromfac.community import Cover
from kromfac.evaluation import (
    SampleSpec,
    agm_generate,
    ff_sample,
    graph_fingerprint,
    nmi,
    restrict_truth,
    rn_sample,
    run_experiment,
)
from kromfac.graph import Graph, induced_subgraph
from kromfac.kron import EmConfig
from kromfac.community import DetectConfig
from kromfac.pipeline import KromfacConfig, complete
from test_community import agm_edge_prob
from test_graph import neighbours


def cover(universe, *groups):
    return Cover(tuple(frozenset(g) for g in groups), universe)


def random_cover(n, rng, max_communities=4):
    c = int(rng.integers(1, max_communities + 1))
    groups = []
    for _ in range(c):
        size = int(rng.integers(1, n))
        groups.append(rng.choice(n, size=size, replace=False).tolist())
    return cover(n, *groups)


class TestNmi:
    def test_self_agreement(self):
        x = cover(10, {0, 1, 2}, {3, 4, 5, 6})
        assert nmi(x, x) == 1.0

    def test_disjoint_halves_vs_everything(self):
        x = cover(40, set(range(20)), set(range(20, 40)))
        y = cover(40, set(range(40)))
        assert nmi(x, y) < 0.1

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            x, y = random_cover(n, rng), random_cover(n, rng)
            assert nmi(x, y) == nmi(y, x)

    def test_range_and_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            x, y = random_cover(n, rng), random_cover(n, rng)
            score = nmi(x, y)
            assert 0.0 <= score <= 1.0
            perm = tuple(reversed(y.communities))
            assert nmi(x, Cover(perm, n)) == pytest.approx(score, abs=1e-12)

    def test_degenerate_covers_never_crash(self):
        full = cover(5, set(range(5)))
        empty = cover(5, set())
        assert 0.0 <= nmi(full, empty) <= 1.0
        assert nmi(full, full) == 1.0

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            nmi(cover(5, {0}), cover(6, {0}))


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestRnSample:
    def test_fraction_one_identity(self):
        g = ring(10)
        sub, kept = rn_sample(g, SampleSpec("rn", fraction=1.0), 0)
        assert kept.to_external == list(range(10))
        assert sub == g

    def test_exact_count(self):
        g = ring(10)
        sub, kept = rn_sample(g, SampleSpec("rn", fraction=0.7), 1)
        assert len(kept.to_external) == 7 and sub.n == 7

    def test_uniformity(self):
        g = ring(20)
        counts = np.zeros(20)
        trials = 2000
        for s in range(trials):
            _, kept = rn_sample(g, SampleSpec("rn", fraction=0.7), s)
            for u in kept.to_external:
                counts[u] += 1
        p = 0.7
        se = math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) <= 3 * se)


def scalar_ff_sample(g, spec, seed):
    """Forest-fire oracle: the per-node loop over a Python set of burned
    nodes, with the unburned list rebuilt at every restart."""
    rng = np.random.default_rng(seed)
    target = math.ceil(spec.fraction * g.n)
    burned: list[int] = []
    burned_set: set[int] = set()
    while len(burned) < target:
        unburned = [u for u in range(g.n) if u not in burned_set]
        seed_node = int(rng.choice(unburned))
        frontier = [seed_node]
        burned.append(seed_node)
        burned_set.add(seed_node)
        while frontier and len(burned) < target:
            u = frontier.pop(0)
            fresh = [v for v in neighbours(g, u) if v not in burned_set]
            if not fresh:
                continue
            count = min(int(rng.geometric(1.0 - spec.p_forward)), len(fresh))
            picks = rng.choice(len(fresh), size=count, replace=False)
            for j in sorted(picks.tolist()):
                v = fresh[j]
                burned.append(v)
                burned_set.add(v)
                frontier.append(v)
                if len(burned) >= target:
                    break
    return induced_subgraph(g, set(burned))


def oracle_graphs(rng):
    """Random graphs for the sampler oracles, some of many small components."""
    graphs = [Graph(0, []), Graph(1, []), Graph(7, [])]
    graphs.append(Graph(200, [(u, u + 1) for u in range(0, 200, 2)]))  # disjoint edges
    graphs.append(Graph(60, [(u, u + 1) for u in range(60) if u % 3 != 2]))  # 3-node paths
    for _ in range(10):
        n = int(rng.integers(2, 120))
        p = float(rng.choice([0.01, 0.05, 0.2, 0.6]))
        pairs = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
        graphs.append(Graph(n, pairs.tolist()))
    return graphs


class TestFfSample:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(14)
        cases = 0
        for gi, g in enumerate(oracle_graphs(rng)):
            for fraction, p_forward in ((0.3, 0.7), (0.6, 0.2), (1.0, 0.5), (0.5, 1 - 1e-12)):
                spec = SampleSpec("ff", fraction=fraction, p_forward=p_forward)
                sub, kept = ff_sample(g, spec, gi)
                ref_sub, ref_kept = scalar_ff_sample(g, spec, gi)
                assert kept == ref_kept
                assert sub == ref_sub
                cases += 1
        assert cases == 60

    def test_fraction_one_keeps_all(self):
        g = ring(12)
        _, kept = ff_sample(g, SampleSpec("ff", fraction=1.0, p_forward=0.3), 0)
        assert kept.to_external == list(range(12))

    def test_exact_count(self):
        g = ring(10)
        sub, kept = ff_sample(g, SampleSpec("ff", fraction=0.7), 2)
        assert len(kept.to_external) == 7 and sub.n == 7

    def test_high_burn_probability_floods_component(self):
        g = ring(30)
        spec = SampleSpec("ff", fraction=0.5, p_forward=1 - 1e-12)
        sub, kept = ff_sample(g, spec, 3)
        # One seed burns contiguously around the ring: the kept set is connected.
        assert len(kept.to_external) == 15
        assert sub.edge_count >= 14

    def test_retains_more_edges_than_rn(self):
        # Burning spreads through neighborhoods, so at equal node counts a
        # forest-fire sample keeps locally dense chunks and many more edges
        # than a uniform node sample on a heavy-tailed graph.
        rng = np.random.default_rng(4)
        n = 1000
        edges = set()
        targets = list(range(5))
        for u in range(5, n):
            for v in rng.choice(len(targets), size=3, replace=False).tolist():
                edges.add((min(u, targets[v]), max(u, targets[v])))
            targets.extend([u] * 3)
        g = Graph(n, edges)

        wins = 0
        for s in range(10):
            ff_g, _ = ff_sample(g, SampleSpec("ff", fraction=0.3), s)
            rn_g, _ = rn_sample(g, SampleSpec("rn", fraction=0.3), s)
            assert ff_g.n == rn_g.n
            if ff_g.edge_count >= rn_g.edge_count:
                wins += 1
        assert wins >= 7


def scalar_agm_edges(f, seed):
    """AGM oracle: one scalar uniform per pair u < v, row-major."""
    rng = np.random.default_rng(seed)
    n = f.shape[0]
    edges = []
    for u in range(n - 1):
        for v in range(u + 1, n):
            if rng.random() < agm_edge_prob(f[u], f[v]):
                edges.append((u, v))
    return edges


def study_memberships(n=150, c=3, overlap=0.3):
    """The acceptance study's planted F: c blocks, each overlapping the next."""
    f = np.zeros((n, c))
    size = n // c
    for j in range(c):
        f[j * size : min(n, (j + 1) * size + int(size * overlap)), j] = 1.0
    return f


class TestAgmGenerate:
    @pytest.mark.parametrize("seed", [s * 31 + 5 for s in range(10)])
    def test_study_graphs_match_scalar_loop(self, seed):
        g, _ = agm_generate(study_memberships(), seed)
        assert list(g.edges()) == scalar_agm_edges(study_memberships(), seed)

    def test_random_memberships_match_scalar_loop(self):
        rng = np.random.default_rng(7)
        cases = [np.zeros((2, 1)), np.ones((2, 1)), np.zeros((30, 3)), rng.random((1, 2))]
        for _ in range(8):
            n, c = int(rng.integers(2, 200)), int(rng.integers(1, 9))
            cases.append(rng.exponential(float(rng.choice([0.05, 0.3, 1.0])), (n, c)))
        for seed, f in enumerate(cases):
            g, _ = agm_generate(f, seed)
            assert list(g.edges()) == scalar_agm_edges(f, seed)

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_bad_membership(self, bad):
        f = np.full((6, 2), 0.5)
        f[3, 1] = bad
        with pytest.raises(ValueError, match="nonnegative and finite"):
            agm_generate(f, 0)

    def test_peak_memory_is_per_block(self):
        n = 3000
        f = np.random.default_rng(0).random((n, 4)) * 0.1
        all_at_once = 2 * (n * (n - 1) // 2) * 8  # probabilities and uniforms for every pair
        tracemalloc.start()
        try:
            agm_generate(f, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_at_once / 3, f"peak {peak / 1e6:.1f} MB"

    def test_zero_f_gives_empty_graph(self):
        g, truth = agm_generate(np.zeros((10, 2)), seed=0)
        assert g.edge_count == 0
        assert all(not c for c in truth.communities)

    def test_block_calibration(self):
        f = np.zeros((40, 2))
        f[:20, 0] = 0.6
        f[20:, 1] = 0.6
        p_within = 1 - math.exp(-0.36)
        within = total_within = 0
        for s in range(15):
            g, _ = agm_generate(f, seed=s)
            for u, v in g.edges():
                assert (u < 20) == (v < 20), "cross-block edge has probability 0"
            within += g.edge_count
            total_within += 2 * (20 * 19 // 2)
        se = math.sqrt(p_within * (1 - p_within) / total_within)
        assert abs(within / total_within - p_within) <= 3 * se

    def test_overlap_nodes_have_higher_expected_degree(self):
        f = np.zeros((30, 2))
        f[:18, 0] = 0.8
        f[12:, 1] = 0.8
        degs_overlap, degs_single = [], []
        for s in range(40):
            g, _ = agm_generate(f, seed=s)
            d = g.degrees()
            degs_overlap += [d[u] for u in range(12, 18)]
            degs_single += [d[u] for u in range(0, 12)]
        assert np.mean(degs_overlap) > np.mean(degs_single)


class TestRestrictTruth:
    def test_reindex_and_drop(self):
        truth = cover(6, {0, 1, 2}, {4}, {3, 5})
        _, kept = induced_subgraph(Graph(6, []), {0, 2, 3, 5})
        restricted, notes = restrict_truth(truth, kept)
        assert restricted.universe == 4
        assert restricted.communities == (frozenset({0, 1}), frozenset({2, 3}))
        assert len(notes) == 1 and "dropped" in notes[0]


class TestRunExperiment:
    def make_cfg(self, seed=0):
        return KromfacConfig(
            m=0,
            c=2,
            em=EmConfig(em_iters=3, grad_steps=5, mcmc_samples=50),
            detect=DetectConfig(max_iters=60),
            seed=seed,
        )

    def planted_instance(self):
        f = np.zeros((40, 2))
        f[:22, 0] = 1.0
        f[18:, 1] = 1.0
        return agm_generate(f, seed=9)

    def test_no_deletion_degenerates(self):
        g, truth = self.planted_instance()
        spec = SampleSpec("rn", fraction=1.0)
        report = run_experiment(g, truth, spec, self.make_cfg())
        scores = set(report.scores.values())
        assert len(scores) == 1  # all three methods coincide when M=0

    def test_report_json_round_trip(self):
        g, truth = self.planted_instance()
        spec = SampleSpec("rn", fraction=0.8)
        report = run_experiment(g, truth, spec, self.make_cfg(1))
        text = report.to_json()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) == text
        assert set(parsed["scores"]) == {"kromfac", "baseline1", "baseline2"}
        for v in parsed["scores"].values():
            assert 0.0 <= v <= 1.0

    def test_fits_em_once(self, monkeypatch):
        # kromfac and baseline2 share one completion of the sampled graph.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return complete(*args, **kwargs)

        monkeypatch.setattr(pipeline, "complete", counting)
        g, truth = self.planted_instance()
        run_experiment(g, truth, SampleSpec("rn", fraction=0.8), self.make_cfg(1))
        assert len(calls) == 1

    def test_one_search_and_one_baseline2_detection(self, monkeypatch):
        # Baseline 1 is the search's i = 0 candidate, so the only
        # detection outside the search is baseline 2's.
        calls = {"search": [], "commun_det": []}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(pipeline, "commun_det_prefixes", counting("search", pipeline.commun_det_prefixes))
        monkeypatch.setattr(pipeline, "commun_det", counting("commun_det", pipeline.commun_det))
        g, truth = self.planted_instance()
        report = run_experiment(g, truth, SampleSpec("rn", fraction=0.8), self.make_cfg(1))
        assert len(calls["search"]) == 1 and len(calls["commun_det"]) == 1
        (g_full, *_), = calls["commun_det"]
        assert g_full.n == g.n  # baseline 2 detects on the fully completed graph
        assert calls["search"][0][1][0] == g.n - report.config["m"]  # candidate 0 is g_obs

    def test_fingerprint_stable(self):
        g, _ = self.planted_instance()
        assert graph_fingerprint(g) == graph_fingerprint(g)
