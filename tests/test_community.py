import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from kromfac import community
from kromfac.community import (
    DetectConfig,
    DetectResult,
    agm_log_likelihood,
    commun_det,
    commun_det_prefixes,
    density_delta,
    _gradient,
    _init_rows,
    _log_likelihoods,
    _loss_runs,
    _sum_nbrs,
    hard_decision,
)
from kromfac.completion import RecoveredGraph, as_graph
from kromfac.graph import Graph, neighbour_arrays
from test_graph import adjacent, neighbours


def brute_force_ll(g, f):
    """Direct all-pairs oracle for the affiliation log-likelihood."""
    total = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            s = float(f[u] @ f[v])
            if adjacent(g, u, v):
                total += math.log(-math.expm1(-max(s, 1e-10)))
            else:
                total -= s
    return total


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def agm_edge_prob(fu, fv):
    """1 - exp(-<fu, fv>) for nonnegative membership rows (scalar oracle)."""
    fu = np.asarray(fu, dtype=float)
    fv = np.asarray(fv, dtype=float)
    if np.any(fu < 0) or np.any(fv < 0):
        raise ValueError("membership rows must be nonnegative")
    return float(-np.expm1(-float(fu @ fv)))


def row_gradient(f, u, neighbors, total):
    """Gradient of the log-likelihood w.r.t. row F_u through the detector's
    own _gradient; `total` is the current column-sum aggregate of F."""
    nbr_rows = f[np.fromiter(neighbors, dtype=np.intp)]
    return _gradient(nbr_rows @ f[u], nbr_rows, total - f[u])


def init_affiliations(g, c, seed):
    """The detector's random init of a whole graph's F (its _init_rows)."""
    return _init_rows(g.n, g.edge_count, c, seed)


def reference_row_gradient(f, u, neighbors, total):
    """Per-neighbour loop form of row_gradient, kept as the oracle."""
    fu = f[u]
    grad = -(total - fu)
    for v in neighbors:
        s = max(float(fu @ f[v]), 1e-10)
        e = math.exp(-s)
        grad += f[v] * (e / (1.0 - e) + 1.0)
    return grad


def reference_ll(g, f):
    """Pairwise edge-dot form of agm_log_likelihood, kept as the oracle."""
    total = np.sum(f, axis=0)
    edge_dots = np.array([float(f[u] @ f[v]) for u, v in g.edges()])
    edge_term = (
        float(np.sum(np.log(-np.expm1(-np.maximum(edge_dots, 1e-10)))))
        if edge_dots.size
        else 0.0
    )
    all_pairs = (float(total @ total) - float(np.sum(f * f))) / 2.0
    return edge_term - (all_pairs - float(np.sum(edge_dots)))


def reference_row_objective(fu, nbr_rows, total_other):
    if nbr_rows.size:
        s = nbr_rows @ fu
        edge = float(np.sum(np.log(-np.expm1(-np.maximum(s, 1e-10))))) + float(np.sum(s))
    else:
        edge = 0.0
    return edge - float(fu @ total_other)


def reference_pass(g, f, step_init):
    """One pass of row updates in the scalar form commun_det used to take."""
    f = f.copy()
    total = np.sum(f, axis=0)
    for u in range(g.n):
        nbr = neighbours(g, u)
        nbr_rows = f[nbr] if nbr else np.empty((0, f.shape[1]))
        total_other = total - f[u]
        grad = reference_row_gradient(f, u, nbr, total)
        base = reference_row_objective(f[u], nbr_rows, total_other)
        step = step_init
        for _ in range(10):
            cand = np.maximum(f[u] + step * grad, 0.0)
            if reference_row_objective(cand, nbr_rows, total_other) >= base:
                total += cand - f[u]
                f[u] = cand
                break
            step /= 2.0
    return f


def line_search_halvings(g, f, step_init):
    """Replay reference_pass and return, per row, the number of halvings
    before the accepted step (None when all 10 trials are rejected), with
    the F the pass ends at."""
    f = f.copy()
    total = np.sum(f, axis=0)
    halvings = []
    for u in range(g.n):
        nbr = neighbours(g, u)
        nbr_rows = f[nbr] if nbr else np.empty((0, f.shape[1]))
        total_other = total - f[u]
        grad = reference_row_gradient(f, u, nbr, total)
        base = reference_row_objective(f[u], nbr_rows, total_other)
        step = step_init
        accepted = None
        for j in range(10):
            cand = np.maximum(f[u] + step * grad, 0.0)
            if reference_row_objective(cand, nbr_rows, total_other) >= base:
                total += cand - f[u]
                f[u] = cand
                accepted = j
                break
            step /= 2.0
        halvings.append(accepted)
    return halvings, f


def with_isolated_node(g):
    """g plus one node with no neighbours (an empty neighbour slice)."""
    return Graph(g.n + 1, g.edges())


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale else float(np.max(np.abs(a)))


def graph_id(g):
    """A test id without spaces, such as n15-e28."""
    return f"n{g.n}-e{g.edge_count}"


ORACLE_GRAPHS = [
    with_isolated_node(random_graph(14, 0.3, 60)),
    with_isolated_node(random_graph(25, 0.15, 61)),
    random_graph(30, 0.5, 62),
    Graph(6, []),
]


class TestVectorizedOracle:
    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=graph_id)
    def test_row_gradient_matches_loop(self, g):
        rng = np.random.default_rng(g.n)
        for c in (1, 3):
            f = rng.uniform(0.0, 1.5, size=(g.n, c))
            f[rng.random(f.shape) < 0.2] = 0.0
            total = f.sum(axis=0)
            for u in range(g.n):
                expect = reference_row_gradient(f, u, neighbours(g, u), total)
                assert rel_err(row_gradient(f, u, neighbours(g, u), total), expect) <= 1e-12

    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=graph_id)
    def test_log_likelihood_matches_pairwise(self, g):
        rng = np.random.default_rng(g.n + 1)
        for c in (1, 3):
            f = rng.uniform(0.0, 1.5, size=(g.n, c))
            assert rel_err(agm_log_likelihood(g, f), reference_ll(g, f)) <= 1e-12

    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=graph_id)
    def test_one_pass_matches_scalar_update(self, g):
        for seed in range(3):
            cfg = DetectConfig(max_iters=1)
            expect = reference_pass(g, init_affiliations(g, 3, seed), community.STEP_INIT)
            assert rel_err(commun_det(g, 3, cfg, seed).f, expect) <= 1e-10


    def test_one_pass_matches_late_and_rejected_line_searches(self, monkeypatch):
        # A large first step on a sparse graph with c=2: some rows accept
        # only after 5 or more halvings, others reject all 10 trials.
        monkeypatch.setattr(community, "STEP_INIT", 10.0)
        g = random_graph(60, 0.1, 82)
        late = rejected = 0
        for seed in range(2):
            cfg = DetectConfig(max_iters=1)
            f0 = init_affiliations(g, 2, seed)
            expect = reference_pass(g, f0, community.STEP_INIT)
            halvings, replayed = line_search_halvings(g, f0, community.STEP_INIT)
            assert np.array_equal(replayed, expect)
            late += sum(j is not None and j >= 5 for j in halvings)
            rejected += halvings.count(None)
            assert rel_err(commun_det(g, 2, cfg, seed).f, expect) <= 1e-10
        assert late > 0 and rejected > 0


class TestEdgeProb:
    def test_disjoint_memberships(self):
        assert agm_edge_prob(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_unit_overlap(self):
        assert agm_edge_prob(np.array([1.0]), np.array([1.0])) == pytest.approx(
            1 - math.exp(-1), abs=1e-12
        )

    def test_monotone_toward_one(self):
        probs = [agm_edge_prob(np.array([s]), np.array([s])) for s in (1.0, 2.0, 3.0, 4.0)]
        assert probs == sorted(probs)
        assert probs[-1] < 1.0 and probs[-1] > 0.9999

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            agm_edge_prob(np.array([-0.1]), np.array([1.0]))


class TestLogLikelihood:
    def test_one_edge(self):
        g = Graph(2, [(0, 1)])
        f = np.array([[1.0], [1.0]])
        assert agm_log_likelihood(g, f) == pytest.approx(math.log(1 - math.exp(-1)))

    def test_one_non_edge(self):
        g = Graph(2, [])
        f = np.array([[1.0], [1.0]])
        assert agm_log_likelihood(g, f) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_cached_aggregate_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(12, 0.3, seed + 50)
        f = rng.uniform(0, 1.5, size=(12, 3))
        assert agm_log_likelihood(g, f) == pytest.approx(
            brute_force_ll(g, f), abs=1e-9
        )

    def test_loss_is_negation_and_nonnegative(self):
        g = random_graph(10, 0.4, 1)
        f = np.random.default_rng(2).uniform(0, 1, size=(10, 2))
        assert -agm_log_likelihood(g, f) >= 0.0
        # A detection's loss is the negated likelihood of its F.
        res = commun_det(g, 2, DetectConfig(max_iters=3, eta_detect=1e-12), seed=2)
        assert not res.converged
        assert res.loss == pytest.approx(-agm_log_likelihood(g, res.f))

    def test_all_zero_f_with_floor_is_finite(self):
        g = random_graph(8, 0.5, 3)
        f = np.zeros((8, 2))
        val = -agm_log_likelihood(g, f)
        expect = -g.edge_count * math.log(-math.expm1(-1e-10))
        assert math.isfinite(val)
        assert val == pytest.approx(expect)


class TestRowGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(10, 0.35, seed + 10)
        f = rng.uniform(0.1, 1.0, size=(10, 3))
        total = f.sum(axis=0)
        h = 1e-6
        for _ in range(5):
            u = int(rng.integers(10))
            grad = row_gradient(f, u, neighbours(g, u), total)
            for c in range(3):
                fp = f.copy()
                fp[u, c] += h
                fm = f.copy()
                fm[u, c] -= h
                fd = (agm_log_likelihood(g, fp) - agm_log_likelihood(g, fm)) / (2 * h)
                assert grad[c] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestCommunDet:
    def two_cliques(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
        return Graph(8, edges)

    def test_recovers_disjoint_cliques(self):
        g = self.two_cliques()
        planted = {frozenset(range(4)), frozenset(range(4, 8))}
        hits = 0
        for seed in range(10):
            res = commun_det(g, 2, seed=seed)
            cover = hard_decision(res.f, density_delta(g.n, g.edge_count))
            if set(cover.communities) == planted:
                hits += 1
        assert hits >= 8

    def test_single_node(self):
        g = Graph(1, [])
        res = commun_det(g, 1, seed=0)
        assert res.loss == pytest.approx(0.0)

    def test_loss_trace_monotone(self):
        g = random_graph(20, 0.2, 7)
        # Re-run pass by pass via the public API and check the reported
        # loss never goes up as iterations are allowed to continue.
        losses = [
            commun_det(g, 3, DetectConfig(max_iters=k, eta_detect=1e-12), seed=1).loss
            for k in (1, 3, 6, 12, 25)
        ]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_nonnegative_after_updates(self):
        g = random_graph(15, 0.3, 8)
        res = commun_det(g, 3, seed=2)
        assert np.all(res.f >= 0)

    def test_deterministic(self):
        g = random_graph(12, 0.3, 9)
        r1 = commun_det(g, 2, seed=5)
        r2 = commun_det(g, 2, seed=5)
        assert np.array_equal(r1.f, r2.f) and r1.loss == r2.loss


class TestHardDecision:
    def test_direct_threshold(self):
        f = np.array([[0.9, 0.0], [0.1, 0.8]])
        cover = hard_decision(f, 0.5)
        assert cover.communities == (frozenset({0}), frozenset({1}))

    def test_all_below_threshold(self):
        cover = hard_decision(np.full((3, 2), 0.1), 0.5)
        assert all(not c for c in cover.communities)

    def test_overlap(self):
        cover = hard_decision(np.array([[0.9, 0.7]]), 0.5)
        assert cover.communities == (frozenset({0}), frozenset({0}))

    def test_monotone_in_delta(self):
        f = np.random.default_rng(3).uniform(0, 1, size=(10, 3))
        lo = hard_decision(f, 0.3)
        hi = hard_decision(f, 0.6)
        for a, b in zip(hi.communities, lo.communities):
            assert a <= b


class TestDefaultDelta:
    def test_complete_graph_clamps(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert density_delta(g.n, g.edge_count) > 3.0  # clamped log keeps it finite but large

    def test_inverse_evaluation(self):
        # density 1 - e^{-1} should invert to exactly delta = 1.
        assert math.sqrt(-math.log1p(-(1 - math.exp(-1)))) == pytest.approx(1.0)

    def test_edgeless_floor(self):
        assert density_delta(5, 0) == 1e-6


def test_scale_up_raises_every_edge_prob():
    rng = np.random.default_rng(4)
    f = rng.uniform(0.1, 1.0, size=(6, 2))
    for u in range(6):
        for v in range(u + 1, 6):
            assert agm_edge_prob(2 * f[u], 2 * f[v]) > agm_edge_prob(f[u], f[v])


def test_init_affiliations_in_range():
    g = random_graph(10, 0.3, 11)
    f = init_affiliations(g, 4, seed=0)
    assert f.shape == (10, 4)
    assert np.all(f >= 0)
    assert np.all(f <= math.sqrt(density_delta(g.n, g.edge_count)) / 4)


def recovered(base, m, z1, z2):
    return RecoveredGraph(base, m, frozenset(z1) | frozenset(z2))


def planted_recovered(seed, n_base=16, m=6, hub=None):
    """Two planted blocks on n_base observed nodes plus m recovered nodes
    with random edges; `hub` is the id of a recovered node joined to every
    observed node."""
    rng = np.random.default_rng(seed)
    half = n_base // 2
    base = Graph(n_base, [
        (u, v) for u in range(n_base) for v in range(u + 1, n_base)
        if rng.random() < (0.5 if (u < half) == (v < half) else 0.05)
    ])
    z1 = {(u, n_base + r) for r in range(m) for u in range(n_base) if rng.random() < 0.3}
    if hub is not None:
        z1 |= {(u, hub) for u in range(n_base)}
    z2 = {(n_base + a, n_base + b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.4}
    return recovered(base, m, z1, z2)


def lockstep_matches_alone(rg, order, candidates, c, cfg):
    """Run the candidates in one commun_det_prefixes call and each alone on
    as_graph(rg, i, order); check the oracle bounds and return the results."""
    n = rg.base.n
    seeds = [1000 + 7 * i for i in candidates]
    together = commun_det_prefixes(
        as_graph(rg, candidates[-1], order), [n + i for i in candidates], c, cfg, seeds
    )
    for i, seed, res in zip(candidates, seeds, together):
        alone = commun_det(as_graph(rg, i, order), c, cfg, seed)
        assert (res.passes, res.converged) == (alone.passes, alone.converged), i
        assert abs(res.loss - alone.loss) <= 1e-12 * abs(alone.loss), i
        assert res.f.shape == alone.f.shape
        assert np.max(np.abs(res.f - alone.f)) <= 1e-10, i
    return together


class TestLockstepOracle:
    def test_candidates_converge_at_different_passes(self):
        rg = planted_recovered(1)
        order = [19, 16, 21, 17, 20, 18]
        got = lockstep_matches_alone(rg, order, list(range(7)), 3, DetectConfig(max_iters=200))
        # Candidates leave the stack at different passes, and some run
        # to max_iters without converging.
        assert len({r.passes for r in got if r.converged}) > 2
        assert not all(r.converged for r in got)

    def test_without_i0(self):
        rg = planted_recovered(2)
        lockstep_matches_alone(rg, [16, 17, 18, 19, 20, 21], list(range(1, 7)), 2, DetectConfig(max_iters=40))

    def test_single_candidate(self):
        rg = planted_recovered(3)
        (res,) = lockstep_matches_alone(rg, [], [0], 3, DetectConfig(max_iters=40))
        assert res.f.shape == (16, 3)

    def test_isolated_recovered_node(self):
        rg = planted_recovered(4)
        lonely = 22
        rg = RecoveredGraph(rg.base, 7, rg.edges)  # node 22 has no edges
        order = [18, lonely, 16, 21, 17, 20, 19]
        lockstep_matches_alone(rg, order, list(range(8)), 3, DetectConfig(max_iters=40))
        assert as_graph(rg, 2, order).degree(17) == 0

    def test_hub_recovered_node(self):
        rg = planted_recovered(5, hub=18)
        for order in ([18, 16, 17, 19, 20, 21], [16, 17, 19, 20, 21, 18]):
            lockstep_matches_alone(rg, order, list(range(7)), 3, DetectConfig(max_iters=40))

    def test_long_run_with_hub(self):
        # 200 passes with a step that keeps the line search busy: rows next
        # to the hub carry up to six neighbours outside the small prefixes,
        # whose floored log terms would add a constant the size of several
        # log(1e-10) to every trial's objective if they were not masked.
        rg = planted_recovered(0, hub=16)
        order = [19, 16, 21, 17, 20, 18]
        cfg = DetectConfig(max_iters=200, eta_detect=1e-300)
        lockstep_matches_alone(rg, order, list(range(7)), 3, cfg)

    def test_rejects_bad_sizes(self):
        g = random_graph(10, 0.3, 1)
        cfg = DetectConfig()
        for sizes, seeds in (([5, 4], [0, 1]), ([0], [0]), ([11], [0]), ([4, 5], [0]), ([], [])):
            with pytest.raises(ValueError):
                commun_det_prefixes(g, sizes, 2, cfg, seeds)

    def test_memory_has_no_candidate_by_degree_table(self):
        # A star-hub input: observed node 0 and one recovered node are joined
        # to everything, so the largest degree is about n. A padded
        # neighbour table over all candidates would hold
        # len(sizes) * n * max_degree floats (about 25 MB here).
        n_base, m = 600, 8
        base = Graph(n_base, [(0, v) for v in range(1, n_base)])
        hub = n_base
        z1 = {(u, hub) for u in range(n_base)} | {(0, n_base + r) for r in range(m)}
        z2 = {(hub, n_base + r) for r in range(1, m)}
        rg = recovered(base, m, z1, z2)
        g = as_graph(rg, m)
        sizes = [n_base + i for i in range(m + 1)]
        table_bytes = len(sizes) * g.n * max(g.degrees()) * 8
        cfg = DetectConfig(max_iters=2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            commun_det_prefixes(g, sizes, 2, cfg, list(range(len(sizes))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_bytes > 20e6
        assert peak < table_bytes / 4, f"peak {peak / 1e6:.1f} MB"


def reference_sum_in_order(x):
    """Sum over the last axis strictly in index order (x is overwritten)."""
    if x.shape[-1] == 0:
        return x.sum(axis=-1)
    return np.add.accumulate(x, axis=-1, out=x)[..., -1]


def reference_log_likelihood(f, eu, ev):
    """One candidate's agm_log_likelihood from its edge endpoints."""
    edge_dots = np.einsum("ij,ij->i", f[eu], f[ev])
    edge_term = float(np.sum(np.log(-np.expm1(-np.maximum(edge_dots, 1e-10)))))
    total = np.sum(f, axis=0)
    all_pairs = (float(total @ total) - float(np.sum(f * f))) / 2.0
    return edge_term - (all_pairs - float(np.sum(edge_dots)))


def reference_lockstep_pass(f, total, sizes, indptr, indices, last, steps):
    """One pass of the candidate-major row loop: trial 0 is the row itself,
    neighbour sums accumulate along the last axis."""
    smallest = 0
    for u in range(sizes[-1]):
        if u == smallest:
            k = bisect_right(sizes, u)
            smallest = sizes[k]
            if k == len(sizes) - 1:
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
        e = np.exp(-np.maximum(s, 1e-10))
        grad = reference_sum_in_order(rows.mT * (e / (1.0 - e) + 1.0)[..., None, :]) - total_other
        cands = np.maximum(fu[..., None, :] + steps * grad[..., None, :], 0.0)
        dots = cands @ rows.mT
        dots[..., 0, :] = s
        log_term = np.log(-np.expm1(-np.maximum(dots, 1e-10)))
        if last[u] >= smallest:
            log_term *= (nbr < size_col)[..., None, :]
        log_term += dots
        obj = reference_sum_in_order(log_term) - np.matvec(cands, total_other)
        accepted = obj >= obj[..., :1]
        accepted[..., 0] = False
        new = cands[stack_index + (accepted.argmax(axis=-1),)]
        ta += new - fu
        fu[...] = new


def reference_commun_det_prefixes(g, sizes, c, cfg, seeds):
    """commun_det_prefixes with a candidate-major stack and one likelihood
    evaluation per candidate and pass, kept as the bit-identity oracle."""
    indptr, indices, eu, ev = neighbour_arrays(g)
    f = np.zeros((len(sizes), g.n, c))
    edges, prev = [], []
    for b, (n, seed) in enumerate(zip(sizes, seeds)):
        inside = ev < n
        edges.append((eu[inside], ev[inside]))
        f[b, :n] = _init_rows(n, int(np.count_nonzero(inside)), c, seed)
        prev.append(-reference_log_likelihood(f[b, :n], *edges[b]))
    total = np.stack([f[b, :n].sum(axis=0) for b, n in enumerate(sizes)])
    steps = np.concatenate([[0.0], np.ldexp(community.STEP_INIT, -np.arange(10))])[:, None]
    last = np.full(g.n, -1, dtype=np.intp)
    has_nbr = indptr[1:] > indptr[:-1]
    last[has_nbr] = indices[indptr[1:][has_nbr] - 1]
    last, indptr = last.tolist(), indptr.tolist()
    live = list(range(len(sizes)))
    results = [None] * len(sizes)
    for passes in range(1, cfg.max_iters + 1):
        reference_lockstep_pass(f, total, [sizes[b] for b in live], indptr, indices, last, steps)
        keep = []
        for j, b in enumerate(live):
            cur_loss = -reference_log_likelihood(f[j, :sizes[b]], *edges[b])
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


def hub_graph(n, p, seed):
    """A random graph on n nodes whose node n // 3 is joined to every
    other node, plus one isolated node (id n)."""
    g = random_graph(n, p, seed)
    hub = n // 3
    return Graph(n + 1, set(g.edges()) | {(min(hub, v), max(hub, v)) for v in range(n) if v != hub})


class TestStackedKernelOracle:
    """The node-major row kernel and the stacked per-pass losses give the
    candidate-major reference's bits exactly: no tolerance."""

    @staticmethod
    def assert_same(got, expect):
        for a, b in zip(got, expect, strict=True):
            assert (a.loss, a.passes, a.converged) == (b.loss, b.passes, b.converged)
            assert a.f.shape == b.f.shape and np.array_equal(a.f, b.f)

    @pytest.mark.parametrize("step_init", [0.05, 1.0, 10.0])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_prefix_stacks_match_reference(self, monkeypatch, c, step_init):
        monkeypatch.setattr(community, "STEP_INIT", step_init)
        rng = np.random.default_rng(100 * c + int(step_init))
        for count in range(1, 6):
            g = hub_graph(int(rng.integers(12, 30)), 0.2, int(rng.integers(1000)))
            cut = sorted(rng.choice(np.arange(2, g.n), size=count - 1, replace=False).tolist())
            sizes = cut + [g.n]  # the largest prefix holds the isolated node
            seeds = rng.integers(0, 1000, size=count).tolist()
            cfg = DetectConfig(max_iters=30)
            self.assert_same(
                commun_det_prefixes(g, sizes, c, cfg, seeds),
                reference_commun_det_prefixes(g, sizes, c, cfg, seeds),
            )

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_one_candidate_matches_reference(self, monkeypatch, c):
        # c = 1 with one candidate is the shape whose neighbour sums numpy
        # would add pairwise; the hub's row sums the most neighbours.
        g = hub_graph(40, 0.1, 7 + c)
        cfg = DetectConfig(max_iters=40, eta_detect=1e-12)
        for step_init in (0.05, 1.0, 10.0):
            monkeypatch.setattr(community, "STEP_INIT", step_init)
            self.assert_same([commun_det(g, c, cfg, 3)], reference_commun_det_prefixes(g, [g.n], c, cfg, [3]))

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_one_masked_candidate_matches_reference(self, monkeypatch, c):
        # One candidate on a prefix that leaves nodes out: the hub's row and
        # the rows of the left-out nodes' neighbours are masked on the
        # one-candidate path, over 200 passes. Near convergence, the floored
        # log terms of the left-out neighbours, were they not masked, would
        # flip line-search comparisons for each c.
        g, n = hub_graph(40, 0.1, 7 + c), 20
        indptr, indices, _, _ = neighbour_arrays(g)
        masked = [u for u in range(n) if indptr[u + 1] > indptr[u] and indices[indptr[u + 1] - 1] >= n]
        assert len(masked) > 1
        cfg = DetectConfig(max_iters=200, eta_detect=1e-300)
        for step_init in (0.05, 1.0, 10.0):
            monkeypatch.setattr(community, "STEP_INIT", step_init)
            self.assert_same(
                commun_det_prefixes(g, [n], c, cfg, [3]),
                reference_commun_det_prefixes(g, [n], c, cfg, [3]),
            )

    def test_recovered_prefixes_match_reference(self):
        # The pipeline's input: observed nodes first, recovered ones after,
        # one of them a hub, candidates leaving the stack at different passes.
        rg = planted_recovered(5, hub=18)
        g = as_graph(rg, 6, [18, 16, 17, 19, 20, 21])
        sizes, seeds = [16 + i for i in range(7)], [1000 + 7 * i for i in range(7)]
        for c in (1, 2, 3):
            cfg = DetectConfig(max_iters=200)
            self.assert_same(
                commun_det_prefixes(g, sizes, c, cfg, seeds),
                reference_commun_det_prefixes(g, sizes, c, cfg, seeds),
            )

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_live_set_shrinks_with_masked_rows(self, c):
        # The hub, joined to every observed node, is the last recovered
        # node, so only the largest candidate holds it and every observed
        # row is masked for the others. Candidates leave the stack at
        # different passes while smaller ones than the whole graph stay, so
        # the masked rows' floors are rebuilt for each shrunken live set.
        rg = planted_recovered(5, hub=18)
        g = as_graph(rg, 6, [16, 17, 19, 20, 21, 18])
        sizes, seeds = [16 + i for i in range(7)], [1000 + 7 * i for i in range(7)]
        cfg = DetectConfig(max_iters=200)
        got = commun_det_prefixes(g, sizes, c, cfg, seeds)
        self.assert_same(got, reference_commun_det_prefixes(g, sizes, c, cfg, seeds))
        first_out = min(r.passes for r in got)
        assert any(r.passes > first_out for r, n in zip(got, sizes) if n < g.n)


NEIGHBOUR_SUM_SHAPES = [(1,), (3,), (11,), (1, 1), (5, 1), (5, 3), (1, 11), (5, 11)]


@pytest.mark.parametrize("d", [0, 1, 2, 7, 40, 600])
@pytest.mark.parametrize("rest", NEIGHBOUR_SUM_SHAPES, ids=lambda r: "x".join(map(str, r)))
def test_neighbour_sum_is_in_index_order(d, rest):
    # rest is the shape of one neighbour's slice: (c,) for one candidate,
    # (candidates, c) for a stack, with c = 11 for the trial objectives.
    rng = np.random.default_rng(d)
    x = rng.normal(size=(d,) + rest) * rng.choice([1e-3, 1.0, 1e3], size=(d,) + rest)
    expect = np.add.accumulate(x, axis=0)[-1] if d else np.zeros(rest)
    got = _sum_nbrs(x)
    assert got.shape == rest
    assert got.tobytes() == expect.tobytes()


def test_stacked_loss_memory_is_bounded():
    # Star-hub prefixes: 41 candidates of about 1,200 edges each. Runs of
    # candidates share a gather up to numpy's buffer size, and a candidate
    # larger than that is gathered alone, so the peak stays near the budget
    # plus one candidate's own arrays, not the sum over candidates.
    n_base, m, c = 600, 40, 2
    base = Graph(n_base, [(0, v) for v in range(1, n_base)])
    hub = n_base
    z1 = {(u, hub) for u in range(n_base)} | {(0, n_base + r) for r in range(m)}
    z2 = {(hub, n_base + r) for r in range(1, m)}
    g = as_graph(recovered(base, m, z1, z2), m)
    _, _, eu, ev = neighbour_arrays(g)
    sizes = [n_base + i for i in range(m + 1)]
    edges = [(eu[ev < n], ev[ev < n]) for n in sizes]
    f = np.random.default_rng(0).uniform(0.0, 1.0, size=(g.n, len(sizes), c))
    runs = _loss_runs(sizes, eu, ev, c)
    own = max(2 * c * (n + len(eu_b)) for n, (eu_b, _) in zip(sizes, edges))
    everything = sum(2 * c * (n + len(eu_b)) for n, (eu_b, _) in zip(sizes, edges))
    # 8 bytes a number; a run's edge dots and log terms add at most half
    # of its gather.
    bound = 8 * 1.5 * (np.getbufsize() + own)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = _log_likelihoods(f, sizes, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [reference_log_likelihood(f[:n, j], *edges[j]) for j, n in enumerate(sizes)]
    assert 8 * everything > 2 * bound  # one gather of every candidate would not fit
    assert peak < bound, f"peak {peak / 1e3:.0f} kB, bound {bound / 1e3:.0f} kB"


class TestDetectConfigValidation:
    @pytest.mark.parametrize(
        "value", [-1.0, 0.0, float("nan"), float("inf")], ids=["neg", "zero", "nan", "inf"]
    )
    def test_rejects_eta_detect(self, value):
        with pytest.raises(ValueError, match="eta_detect"):
            DetectConfig(eta_detect=value)
