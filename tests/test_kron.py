import math
import tracemalloc

import numpy as np
import pytest

import kromfac.kron as kron_mod
from kromfac.graph import Graph, neighbour_arrays
from kromfac.kron import (
    EmConfig,
    KroneckerModel,
    NodeMapping,
    ascend_theta,
    index_digits,
    kron_entry,
    kron_log_likelihood,
    kron_ll_gradient,
    _clamp,
    _col_codes,
    _mcmc_sigma,
    _MhRows,
    _MhTables,
    _place,
    _row_entries,
    _symmetrize,
    kronem_fit,
    sample_missing_block,
    smallest_power,
)

THETA = np.array([[0.9, 0.5], [0.5, 0.3]])


def materialize(model):
    """Brute-force K-fold Kronecker power (test oracle)."""
    out = model.theta
    for _ in range(model.k - 1):
        out = np.kron(out, model.theta)
    return out


def identity_mapping(n):
    return NodeMapping(sigma=np.arange(n))


class TestKronEntry:
    def test_matches_materialized_k2(self):
        model = KroneckerModel(2, THETA, 2)
        full = materialize(model)
        assert kron_entry(model, 0, 0) == pytest.approx(0.81)
        assert kron_entry(model, 3, 3) == pytest.approx(0.09)
        for a in range(4):
            for b in range(4):
                assert kron_entry(model, a, b) == pytest.approx(full[a, b], abs=1e-15)

    def test_uniform_theta_power(self):
        p = 0.42
        model = KroneckerModel(2, np.full((2, 2), p), 5)
        assert kron_entry(model, 13, 27) == pytest.approx(p**5)

    def test_k3_explicit_triple_product(self):
        # 8-index setting used for the 6-observed/2-missing worked example.
        model = KroneckerModel(2, THETA, 3)
        full = np.kron(np.kron(THETA, THETA), THETA)
        for a in range(8):
            for b in range(8):
                assert kron_entry(model, a, b) == pytest.approx(full[a, b], abs=1e-15)

    def test_out_of_range(self):
        model = KroneckerModel(2, THETA, 2)
        with pytest.raises(ValueError):
            kron_entry(model, 4, 0)

    def test_exhaustive_small_powers(self):
        rng = np.random.default_rng(0)
        for k in range(1, 6):
            theta = rng.uniform(0.05, 0.95, (2, 2))
            model = KroneckerModel(2, theta, k)
            full = materialize(model)
            n = 2**k
            got = np.array([[kron_entry(model, a, b) for b in range(n)] for a in range(n)])
            assert np.allclose(got, full, atol=1e-12)


class TestLogLikelihood:
    def test_single_node(self):
        g = Graph(1, [])
        model = KroneckerModel(2, THETA, 1)
        assert kron_log_likelihood(g, identity_mapping(1), model) == 0.0

    def test_two_nodes_one_edge(self):
        g = Graph(2, [(0, 1)])
        model = KroneckerModel(2, THETA, 1)
        ll = kron_log_likelihood(g, identity_mapping(2), model)
        assert ll == pytest.approx(np.log(0.5))

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = 12
            model = KroneckerModel(2, rng.uniform(0.2, 0.8, (2, 2)), 4)
            sigma = rng.choice(16, size=n, replace=False)
            mapping = NodeMapping(sigma=sigma)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            g = Graph(n, edges)
            full = materialize(model)
            expect = 0.0
            for u in range(n):
                for v in range(u + 1, n):
                    p = full[sigma[u], sigma[v]]
                    expect += np.log(p) if g.has_edge(u, v) else np.log1p(-p)
            got = kron_log_likelihood(g, mapping, model)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_approximation_close_to_exact(self):
        # Force the approximate zero-sum path by lowering the exact limit.
        rng = np.random.default_rng(2)
        n = 64
        model = KroneckerModel(2, rng.uniform(0.2, 0.7, (2, 2)), 6)
        mapping = identity_mapping(n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05]
        g = Graph(n, edges)
        exact = kron_log_likelihood(g, mapping, model)
        old = kron_mod.EXACT_PAIR_LIMIT
        kron_mod.EXACT_PAIR_LIMIT = 1
        try:
            approx = kron_log_likelihood(g, mapping, model)
        finally:
            kron_mod.EXACT_PAIR_LIMIT = old
        assert approx == pytest.approx(exact, rel=0.01)

    def test_digit_swap_invariance(self):
        # With theta invariant under index swap, relabeling every mapped
        # index by flipping one digit leaves the likelihood unchanged.
        theta = np.array([[0.6, 0.4], [0.4, 0.6]])
        model = KroneckerModel(2, theta, 4)
        rng = np.random.default_rng(3)
        n = 10
        sigma = rng.choice(16, size=n, replace=False)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph(n, edges)
        ll1 = kron_log_likelihood(g, NodeMapping(sigma), model)
        flipped = sigma ^ 0b0010  # flip digit 1 of every index
        ll2 = kron_log_likelihood(g, NodeMapping(flipped), model)
        assert ll2 == pytest.approx(ll1, rel=1e-12)


def brute_force_terms(g, sigma, model):
    """Log-likelihood and analytic gradient summed pair by pair over u < v,
    with p read from the materialized Kronecker power (test oracle)."""
    n0, k = model.n0, model.k
    full = materialize(model)
    ll = 0.0
    grad = np.zeros((n0, n0))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            p = full[sigma[u], sigma[v]]
            a = g.has_edge(u, v)
            ll += np.log(p) if a else np.log1p(-p)
            w = 1.0 if a else -p / (1.0 - p)
            for d in range(k):
                grad[sigma[u] // n0**d % n0, sigma[v] // n0**d % n0] += w
    return ll, grad / model.theta


class TestPairTypeOracle:
    """The exact path sums over pair types; the oracle sums over pairs."""

    @pytest.mark.parametrize("n0, k, n, density", [
        (2, 4, 12, 0.3),    # partial occupancy, fewer pairs than codes
        (2, 5, 30, 0.2),    # more pairs than codes
        (2, 9, 300, 0.02),  # two row blocks, edges crossing them
        (3, 6, 300, 0.02),  # two row blocks, count codes tallied by np.unique
        (8, 3, 300, 0.02),  # two row blocks, sorted codes tallied by np.unique
        (3, 2, 9, 0.4),     # full occupancy
        (3, 4, 60, 0.1),
        (8, 2, 40, 0.2),    # (k+1)**(n0**2 - 1) overflows int64
        (8, 2, 64, 0.1),
    ])
    def test_matches_pairwise_sum(self, n0, k, n, density):
        rng = np.random.default_rng(n0 * 100 + n)
        theta = rng.uniform(0.05, 0.95, (n0, n0))  # asymmetric
        model = KroneckerModel(n0, theta, k)
        sigma = rng.choice(n0**k, size=n, replace=False)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        self.check(Graph(n, edges), sigma, model)

    @pytest.mark.parametrize("n0, k", [(2, 3), (3, 2), (8, 2)])
    @pytest.mark.parametrize("complete", [False, True])
    def test_edgeless_and_complete(self, n0, k, complete):
        rng = np.random.default_rng(n0 + k)
        n = min(n0**k, 12)
        model = KroneckerModel(n0, rng.uniform(0.05, 0.95, (n0, n0)), k)
        sigma = rng.choice(n0**k, size=n, replace=False)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)] if complete else []
        self.check(Graph(n, edges), sigma, model)

    @pytest.mark.parametrize("edges", [[], [(0, 1)]])
    def test_two_nodes(self, edges):
        model = KroneckerModel(3, np.array([[0.2, 0.7, 0.4], [0.1, 0.5, 0.9], [0.3, 0.6, 0.8]]), 2)
        self.check(Graph(2, edges), np.array([7, 2]), model)

    @staticmethod
    def check(g, sigma, model):
        mapping = NodeMapping(sigma)
        ll, grad = brute_force_terms(g, sigma, model)
        assert kron_log_likelihood(g, mapping, model) == pytest.approx(ll, rel=1e-12, abs=0)
        np.testing.assert_allclose(kron_ll_gradient(g, mapping, model), grad, rtol=1e-12, atol=0)

    def test_peak_memory_below_half_a_pair_matrix(self):
        n, k = 2048, 11
        rng = np.random.default_rng(5)
        us = rng.integers(n, size=9000)
        vs = rng.integers(n, size=9000)
        g = Graph(n, [(int(u), int(v)) for u, v in zip(us, vs) if u != v])
        model = KroneckerModel(2, np.array([[0.9, 0.6], [0.5, 0.2]]), k)
        mapping = NodeMapping(rng.permutation(n))
        limit = n * n * 8 // 2
        for fn in (kron_log_likelihood, kron_ll_gradient):
            tracemalloc.start()
            try:
                fn(g, mapping, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, f"{fn.__name__} peaked at {peak} bytes"


class TestGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        model = KroneckerModel(2, rng.uniform(0.2, 0.8, (2, 2)), 4)
        mapping = NodeMapping(rng.choice(16, size=n, replace=False))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        g = Graph(n, edges)
        grad = kron_ll_gradient(g, mapping, model)
        h = 1e-5
        for i in range(2):
            for j in range(2):
                tp = model.theta.copy()
                tp[i, j] += h
                tm = model.theta.copy()
                tm[i, j] -= h
                fd = (
                    kron_log_likelihood(g, mapping, KroneckerModel(2, tp, 4))
                    - kron_log_likelihood(g, mapping, KroneckerModel(2, tm, 4))
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-4)


    def test_approximate_path_matches_finite_differences(self, monkeypatch):
        # Above EXACT_PAIR_LIMIT the gradient is that of the approximate
        # likelihood, edge terms included.
        monkeypatch.setattr(kron_mod, "EXACT_PAIR_LIMIT", 1)
        rng = np.random.default_rng(8)
        n = 40
        model = KroneckerModel(2, rng.uniform(0.2, 0.8, (2, 2)), 6)
        mapping = NodeMapping(rng.choice(64, size=n, replace=False))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2])
        grad = kron_ll_gradient(g, mapping, model)
        h = 1e-6
        for i in range(2):
            for j in range(2):
                tp, tm = model.theta.copy(), model.theta.copy()
                tp[i, j] += h
                tm[i, j] -= h
                fd = (
                    kron_log_likelihood(g, mapping, KroneckerModel(2, tp, 6))
                    - kron_log_likelihood(g, mapping, KroneckerModel(2, tm, 6))
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5)


class TestAscendTheta:
    def test_monotone_likelihood(self):
        rng = np.random.default_rng(4)
        n = 20
        model = KroneckerModel(2, rng.uniform(0.3, 0.7, (2, 2)), 5)
        mapping = NodeMapping(rng.choice(32, size=n, replace=False))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        g = Graph(n, edges)
        lls = [kron_log_likelihood(g, mapping, model)]
        cur = model
        for _ in range(10):
            cur = ascend_theta(g, mapping, cur, steps=1, learning_rate=1e-4)
            lls.append(kron_log_likelihood(g, mapping, cur))
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9

    @staticmethod
    def reference_ascend(g, mapping, model, steps, learning_rate, monotone_tol=1e-9):
        """ascend_theta's loop on the public likelihood and gradient, each
        evaluation recounting from the graph."""
        theta = model.theta.copy()
        cur = kron_log_likelihood(g, mapping, model)
        for _ in range(steps):
            grad = _symmetrize(kron_ll_gradient(g, mapping, KroneckerModel(model.n0, theta, model.k)))
            step = learning_rate
            for _ in range(20):
                cand = _clamp(theta + step * grad)
                cand_ll = kron_log_likelihood(g, mapping, KroneckerModel(model.n0, cand, model.k))
                if cand_ll >= cur - monotone_tol:
                    theta, cur = cand, cand_ll
                    break
                step /= 2.0
            else:
                break
        return _symmetrize(theta)

    @pytest.mark.parametrize("exact_limit", [kron_mod.EXACT_PAIR_LIMIT, 1], ids=["exact", "approx"])
    def test_summary_built_once_and_theta_bit_identical(self, monkeypatch, exact_limit):
        monkeypatch.setattr(kron_mod, "EXACT_PAIR_LIMIT", exact_limit)
        rng = np.random.default_rng(6)
        n = 40
        model = KroneckerModel(2, np.array([[0.8, 0.45], [0.45, 0.3]]), 6)
        mapping = NodeMapping(rng.choice(64, size=n, replace=False))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15])
        expect = self.reference_ascend(g, mapping, model, steps=8, learning_rate=1e-3)

        calls = {"_pair_types": 0, "neighbour_arrays": 0}
        for name in calls:
            def counted(*args, _fn=getattr(kron_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(kron_mod, name, counted)
        got = ascend_theta(g, mapping, model, steps=8, learning_rate=1e-3)
        if exact_limit == 1:
            assert calls == {"_pair_types": 0, "neighbour_arrays": 1}
        else:
            assert calls["_pair_types"] == 1
        assert np.array_equal(got.theta, expect)
        assert not np.array_equal(got.theta, model.theta)  # some step was taken


class TestValidation:
    def test_n0_below_two_rejected(self):
        with pytest.raises(ValueError):
            smallest_power(1, 5)
        with pytest.raises(ValueError):
            KroneckerModel(1, np.array([[0.5]]), 3)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0])
    def test_theta_outside_open_unit_interval_rejected(self, bad):
        theta = np.array([[0.5, bad], [bad, 0.5]])
        with pytest.raises(ValueError, match="strictly inside"):
            KroneckerModel(2, theta, 3)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1e-5])
    def test_non_finite_or_non_positive_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            EmConfig(learning_rate=rate)

    def test_negative_mcmc_samples_rejected(self):
        with pytest.raises(ValueError):
            EmConfig(mcmc_samples=-1)
        assert EmConfig(mcmc_samples=0).mcmc_samples == 0


class TestKronemFit:
    def test_noop_m_step_keeps_theta(self):
        g = Graph(4, [(0, 1), (2, 3)])
        theta = np.array([[0.7, 0.4], [0.4, 0.2]])
        model, mapping = kronem_fit(
            g, 0, 2, theta, EmConfig(em_iters=1, grad_steps=0, mcmc_samples=1, seed=0)
        )
        assert np.allclose(model.theta, theta)
        assert model.k == smallest_power(2, 4)

    def test_asymmetric_init_is_symmetrized(self):
        # The first E-step already runs on the symmetrized init: the fit
        # matches one started from (theta + theta^T) / 2.
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        theta = np.array([[0.9, 0.8], [0.1, 0.3]])
        cfg = EmConfig(em_iters=2, grad_steps=2, mcmc_samples=50, seed=3)
        m1, s1 = kronem_fit(g, 2, 2, theta, cfg)
        m2, s2 = kronem_fit(g, 2, 2, (theta + theta.T) / 2, cfg)
        assert np.array_equal(m1.theta, m2.theta)
        assert np.array_equal(s1.sigma, s2.sigma)

    def test_mapping_shape_for_worked_example(self):
        # 6 observed + 2 missing nodes, base dim 2 -> 8 positions, power 3.
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        model, mapping = kronem_fit(
            g, 2, 2, None, EmConfig(em_iters=2, grad_steps=2, mcmc_samples=20, seed=5)
        )
        assert len(mapping) == 8
        assert model.k == 3
        assert mapping.sigma.min() >= 0 and mapping.sigma.max() < 2**3

    def test_deterministic(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 7)])
        cfg = EmConfig(em_iters=3, grad_steps=5, mcmc_samples=40, seed=11)
        m1, s1 = kronem_fit(g, 2, 2, None, cfg)
        m2, s2 = kronem_fit(g, 2, 2, None, cfg)
        assert np.array_equal(m1.theta, m2.theta)
        assert np.array_equal(s1.sigma, s2.sigma)

    def test_recovers_generating_theta(self):
        # Generate-then-recover oracle; alignment over index relabelings of
        # the base matrix (the model is only identifiable up to them).
        theta_true = np.array([[0.9, 0.6], [0.6, 0.2]])
        gen = KroneckerModel(2, theta_true, 8)
        rng = np.random.default_rng(100)
        n = 256
        full = materialize(gen)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < full[u, v]
        ]
        g = Graph(n, edges)
        model, _ = kronem_fit(
            g, 0, 2, None, EmConfig(em_iters=8, grad_steps=20, mcmc_samples=400, seed=7)
        )
        err = aligned_error(model.theta, theta_true)
        assert err <= 0.15


# kronem_fit on GOLDEN_GRAPH with GOLDEN_CFG: n0 -> (k, theta, sigma).
# Re-pinned when MH over sigma took its O(deg) deltas and one up-front
# uniform per proposal: the old rule drew a uniform only for a negative
# delta, so the stream moved from the first E-step on.
GOLDEN_GRAPH = Graph(
    12,
    [(u, v) for u in range(5) for v in range(u + 1, 5)]
    + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    + [(4, 5), (0, 10), (10, 11), (9, 11), (2, 7)],
)
GOLDEN_CFG = EmConfig(em_iters=3, mcmc_samples=120, grad_steps=5, learning_rate=1e-3, seed=11)
GOLDEN_FITS = {
    2: (
        4,
        [[0.6480061328668266, 0.8857097847249152],
         [0.8857097847249152, 0.704851965480512]],
        [8, 9, 7, 11, 14, 12, 15, 10, 13, 1, 6, 3, 5, 2, 0, 4],
    ),
    3: (
        3,
        [[0.49760904378985005, 0.5654421924963033, 0.6101717337853116],
         [0.5654421924963033, 0.4639536567502625, 0.6331493523576457],
         [0.6101717337853116, 0.6331493523576457, 0.9320314849469975]],
        [3, 8, 17, 19, 24, 22, 23, 26, 5, 15, 10, 4, 2, 7, 21, 11],
    ),
}


def pair_entries(model, rows, cols):
    """Entries for aligned (rows[i], cols[i]) index pairs, digits recomputed
    per call and multiplied into a row of ones (the scalar oracle form)."""
    dr = index_digits(rows, model.n0, model.k)
    dc = index_digits(cols, model.n0, model.k)
    out = np.ones(rows.size)
    for d in range(model.k):
        out *= model.theta[dr[:, d], dc[:, d]]
    return out


def reference_row_loglik(sigma, edges, model, u, sigma_u):
    """Row log-likelihood of position u placed at sigma_u, from pair_entries
    and an edge set of (u, v), u < v, that the oracle holds itself."""
    n = sigma.size
    others = np.concatenate([np.arange(u), np.arange(u + 1, n)])
    p = pair_entries(model, np.full(others.size, sigma_u), sigma[others])
    row = np.array([1.0 if (min(u, v), max(u, v)) in edges else 0.0 for v in others.tolist()])
    return float(np.sum(row * np.log(p) + (1.0 - row) * np.log1p(-p)))


def reference_resample_missing(sigma, n_obs, model, rng):
    """The missing-block Gibbs draw with pair_entries and one rng.random(len)
    per row; returns its own edge set of (u, v), u < v."""
    n = sigma.size
    edges = set()
    for u in range(n):
        lo = max(u + 1, n_obs)
        if lo >= n:
            continue
        cols = np.arange(lo, n)
        p = pair_entries(model, np.full(cols.size, sigma[u]), sigma[cols])
        for v in cols[rng.random(cols.size) < p]:
            edges.add((u, int(v)))
    return edges


def reference_delta(sigma, edges, model, x, t):
    """Log-likelihood change of moving position x to the free index t, or
    of swapping x with the position y at t, from reference_row_loglik rows:
    the rows of x (and y) before and after, with the (x, y) pair, counted
    in both rows, taken out once on each side and kron_entry for it. Also
    returns the sum of the rows' magnitudes, the scale of the delta's
    rounding."""
    sx = int(sigma[x])
    held = np.flatnonzero(sigma == t)
    if not held.size:
        old = reference_row_loglik(sigma, edges, model, x, sx)
        new = reference_row_loglik(sigma, edges, model, x, t)
        return new - old, abs(old) + abs(new)
    y = int(held[0])
    after = sigma.copy()
    after[x], after[y] = t, sx
    rows = [
        reference_row_loglik(sigma, edges, model, x, sx),
        reference_row_loglik(sigma, edges, model, y, t),
        reference_row_loglik(after, edges, model, x, t),
        reference_row_loglik(after, edges, model, y, sx),
    ]
    axy = 1.0 if (min(x, y), max(x, y)) in edges else 0.0

    def pair_term(p):
        return axy * math.log(p) + (1.0 - axy) * math.log1p(-p)

    old = rows[0] + rows[1] - pair_term(kron_entry(model, sx, t))
    new = rows[2] + rows[3] - pair_term(kron_entry(model, t, sx))
    return new - old, sum(abs(r) for r in rows)


def reference_mcmc_sigma(sigma, edges, model, proposals, rng):
    """Metropolis-Hastings over sigma in its scalar form: the same up-front
    draws and acceptance rule as _mcmc_sigma, with each delta from
    reference_delta's full rows."""
    sigma = sigma.copy()
    xs = rng.integers(sigma.size, size=proposals).tolist()
    ts = rng.integers(model.num_indices, size=proposals).tolist()
    us = rng.random(proposals).tolist()
    for x, t, u in zip(xs, ts, us):
        sx = int(sigma[x])
        if t == sx:
            continue
        if u < math.exp(min(reference_delta(sigma, edges, model, x, t)[0], 0.0)):
            sigma[sigma == t] = sx  # the swap partner, if any
            sigma[x] = t
    return sigma


def missing_edges(mu, mv):
    """The sampled missing edges (u, v), u < v, as a set of tuples."""
    return set(zip(mu.tolist(), mv.tolist()))


def holder_list(sigma, nk):
    """Index -> the position placed at it, or -1 (the oracle of holders)."""
    return [sigma.index(t) if t in sigma else -1 for t in range(nk)]


def random_state(n0, n_obs, m, seed):
    """A random injective sigma over n_obs + m positions that places one
    position at the last index nk - 1, a model with an asymmetric theta,
    and the observed graph."""
    rng = np.random.default_rng(seed)
    g = Graph(n_obs, [(u, v) for u in range(n_obs) for v in range(u + 1, n_obs) if rng.random() < 0.3])
    k = smallest_power(n0, n_obs + m)
    nk = n0**k
    sigma = rng.permutation(nk)[: n_obs + m]
    if nk - 1 not in sigma:
        sigma[rng.integers(sigma.size)] = nk - 1
    model = KroneckerModel(n0, rng.uniform(0.05, 0.95, size=(n0, n0)), k)
    return sigma, model, g


class TestDigitTableEstep:
    """The array-backed E-step against scalar oracles that build their own
    edge sets: an oracle never reads or writes the arrays under test."""

    CASES = [(2, 9, 3), (2, 16, 0), (3, 14, 6), (3, 5, 4), (4, 7, 2)]

    @pytest.mark.parametrize("n0, n_obs, m", CASES)
    def test_row_loglik_matches_pair_entries(self, n0, n_obs, m):
        # Every move and every swap from one sampled state, adjacent pairs
        # included: both MH delta forms against the difference of full
        # reference rows, to 1e-12 of the rows' magnitude.
        sigma, model, g = random_state(n0, n_obs, m, seed=n0 * 100 + n_obs)
        model = KroneckerModel(n0, _symmetrize(model.theta), model.k)  # the swap delta assumes it
        nk = model.num_indices
        mu, mv = sample_missing_block(model, sigma, n_obs, np.random.default_rng(7))
        edges = set(g.edges()) | reference_resample_missing(sigma, n_obs, model, np.random.default_rng(7))
        graph = Graph(sigma.size, [*g.edges(), *missing_edges(mu, mv)])
        assert edges == set(graph.edges())
        digits = index_digits(np.arange(nk), n0, model.k)
        col_codes = _col_codes(digits[sigma], n0)
        for s in range(nk):
            row = _row_entries(model.theta, digits[[s]], col_codes)[0]
            assert row.tolist() == [kron_entry(model, s, int(v)) for v in sigma]
        placed = sigma.tolist()
        tables, rows = _MhTables(placed, graph, model), _MhRows(placed, graph, model)
        holders = holder_list(placed, nk)
        adjacent_swaps = 0
        for x in range(sigma.size):
            for t in range(nk):
                if t == sigma[x]:
                    continue
                expect, scale = reference_delta(sigma, edges, model, x, t)
                y = holders[t]
                for mh in (tables, rows):
                    got = mh.move_delta(x, t) if y < 0 else mh.swap_delta(x, y)
                    assert abs(got - expect) <= 1e-12 * scale, (x, t, got, expect)
                adjacent_swaps += y >= 0 and graph.has_edge(x, y)
        assert adjacent_swaps
        assert placed == sigma.tolist()  # deltas move nothing

    @pytest.mark.parametrize("path", [_MhTables, _MhRows], ids=["tables", "rows"])
    @pytest.mark.parametrize("n0, n_obs, m", CASES)
    def test_deltas_follow_accepted_proposals(self, n0, n_obs, m, path):
        # 200 proposals taken by the MH rule: after each accepted move or
        # swap, the next delta still matches the reference rows, and the
        # holders _place keeps still invert sigma.
        sigma, model, g = random_state(n0, n_obs, m, seed=n0 * 100 + n_obs + 4)
        model = KroneckerModel(n0, _symmetrize(model.theta), model.k)
        nk = model.num_indices
        mu, mv = sample_missing_block(model, sigma, n_obs, np.random.default_rng(8))
        graph = Graph(sigma.size, [*g.edges(), *missing_edges(mu, mv)])
        edges = set(graph.edges())
        placed = sigma.tolist()
        holders = holder_list(placed, nk)
        mh = path(placed, graph, model)
        rng = np.random.default_rng(10)
        taken = {"move": 0, "swap": 0}
        for _ in range(200):
            x, t, u = int(rng.integers(sigma.size)), int(rng.integers(nk)), rng.random()
            y = holders[t]
            if y == x:
                continue
            expect, scale = reference_delta(np.array(placed), edges, model, x, t)
            got = mh.move_delta(x, t) if y < 0 else mh.swap_delta(x, y)
            assert abs(got - expect) <= 1e-12 * scale
            if u < math.exp(min(got, 0.0)):
                mh.accept(x, t, y)
                _place(placed, holders, x, t)
                taken["move" if y < 0 else "swap"] += 1
            assert holders == holder_list(placed, nk)
        assert taken["swap"] and (taken["move"] or sigma.size == nk)  # n == nk: no free index

    def test_isolated_swap_is_zero_and_stream_ignores_theta_bits(self):
        # One uniform per proposal, drawn up front: a theta one ulp away
        # leaves the stream after the sweep where it was, and swapping two
        # positions without neighbours has a delta of exactly 0.
        sigma, model, g = random_state(2, 9, 3, seed=12)
        model = KroneckerModel(2, _symmetrize(model.theta), model.k)
        graph = Graph(sigma.size, g.edges())  # the missing positions 9-11 are isolated
        for path in (_MhTables, _MhRows):
            assert path(sigma.tolist(), graph, model).swap_delta(9, 11) == 0.0
        moved = KroneckerModel(2, np.nextafter(model.theta, 1.0), model.k)
        assert not np.array_equal(moved.theta, model.theta)
        after = []
        for theta_model in (model, moved):
            rng = np.random.default_rng(21)
            _mcmc_sigma(sigma.copy(), graph, theta_model, 300, rng)
            after.append(rng.random())
        assert after[0] == after[1]

    @pytest.mark.parametrize("n0, n_obs, m", CASES)
    def test_rows_path_matches_scalar_form(self, monkeypatch, n0, n_obs, m):
        # _mcmc_sigma above the table limit, against the same oracle.
        monkeypatch.setattr(kron_mod, "_MH_TABLE_LIMIT", 1)
        self.test_mcmc_matches_scalar_form(n0, n_obs, m)

    @pytest.mark.parametrize("n0, n_obs, m", CASES)
    def test_resample_matches_pair_entries(self, n0, n_obs, m):
        sigma, model, _ = random_state(n0, n_obs, m, seed=n0 * 100 + n_obs + 1)
        rng_got, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):  # each resample replaces the last one whole
            mu, mv = sample_missing_block(model, sigma, n_obs, rng_got)
            expect = reference_resample_missing(sigma, n_obs, model, rng_ref)
            assert missing_edges(mu, mv) == expect
        assert rng_got.random() == rng_ref.random()

    @pytest.mark.parametrize("n0, n_obs, m", CASES)
    def test_mcmc_matches_scalar_form(self, n0, n_obs, m):
        # The O(deg) deltas give the moves and swaps of full reference
        # rows, proposal for proposal, from the same draws.
        sigma, model, g = random_state(n0, n_obs, m, seed=n0 * 100 + n_obs + 2)
        model = KroneckerModel(n0, _symmetrize(model.theta), model.k)  # the swap delta assumes it
        mu, mv = sample_missing_block(model, sigma, n_obs, np.random.default_rng(3))
        edges = set(g.edges()) | reference_resample_missing(sigma, n_obs, model, np.random.default_rng(3))
        rng_got, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        expect = reference_mcmc_sigma(sigma, edges, model, 300, rng_ref)
        assert expect.tolist() != sigma.tolist()  # some proposals were taken
        _mcmc_sigma(sigma, Graph(sigma.size, [*g.edges(), *missing_edges(mu, mv)]), model, 300, rng_got)
        assert sigma.tolist() == expect.tolist()
        assert rng_got.random() == rng_ref.random()

    @pytest.mark.parametrize("n0, n_obs, m", CASES)
    def test_as_graph_matches_tuple_built(self, monkeypatch, n0, n_obs, m):
        # The array-built graph kronem_fit hands the M-step, in each of 3
        # iterations, against the graph built from the observed edges and
        # reference_resample_missing's tuples, replayed on the same stream.
        _, model, g = random_state(n0, n_obs, m, seed=n0 * 100 + n_obs + 3)
        handed, ascend = [], kron_mod.ascend_theta
        monkeypatch.setattr(kron_mod, "ascend_theta", lambda *a: handed.append(a[:3]) or ascend(*a))
        cfg = EmConfig(em_iters=3, mcmc_samples=40, grad_steps=2, learning_rate=1e-3, seed=4)
        kronem_fit(g, m, n0, _symmetrize(model.theta), cfg)
        n, nk = n_obs + m, model.num_indices
        rng, sigma = np.random.default_rng(cfg.seed), np.arange(n)
        for got, mapping, fitted in handed:
            expect = Graph(n, [*g.edges(), *reference_resample_missing(sigma, n_obs, fitted, rng)])
            rng.integers(n, size=40), rng.integers(nk, size=40), rng.random(40)  # the MH draws
            for a, b in zip(neighbour_arrays(got), neighbour_arrays(expect), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert got == expect
            sigma = mapping.sigma
        assert len(handed) == 3

    @pytest.mark.parametrize("n0", sorted(GOLDEN_FITS))
    def test_golden_fit(self, n0):
        # A change to these values forks the EM sample path: update them
        # only together with a note on why the stream moved.
        k, theta, sigma = GOLDEN_FITS[n0]
        model, mapping = kronem_fit(GOLDEN_GRAPH, 4, n0=n0, cfg=GOLDEN_CFG)
        assert model.k == k
        assert mapping.sigma.tolist() == sigma
        np.testing.assert_allclose(model.theta, theta, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n0", sorted(GOLDEN_FITS))
    def test_golden_fit_rows_path(self, monkeypatch, n0):
        # The same fit with every E-step on _MhRows. Both paths' deltas are
        # exact, and here they accept the same proposals: the rows path's
        # pin, taken on its own, equals GOLDEN_FITS bit for bit.
        monkeypatch.setattr(kron_mod, "_MH_TABLE_LIMIT", 1)
        self.test_golden_fit(n0)


def mh_peak(n_obs, m):
    """tracemalloc peak of one _mcmc_sigma call of 200 proposals on a sparse
    random graph, with sigma and the sampled graph built beforehand; also
    returns n0**k."""
    rng = np.random.default_rng(n_obs)
    n = n_obs + m
    k = smallest_power(2, n)
    ends = rng.integers(n_obs, size=(4 * n_obs, 2))
    g = Graph(n_obs, [(a, b) for a, b in ends.tolist() if a != b])
    model = KroneckerModel(2, np.array([[0.9, 0.6], [0.6, 0.2]]), k)
    sigma = np.arange(n, dtype=np.int64)
    mu, mv = sample_missing_block(model, sigma, n_obs, rng)
    graph = Graph(n, [*g.edges(), *missing_edges(mu, mv)])
    tracemalloc.start()
    try:
        _mcmc_sigma(sigma, graph, model, 200, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, model.num_indices


class TestMhMemory:
    def test_tables_at_the_limit(self):
        peak, nk = mh_peak(600, 4)
        assert nk == kron_mod._MH_TABLE_LIMIT
        table = 8 * nk * nk  # one float table: 8 MB
        assert peak <= 2 * table + 2**21, f"peak {peak / 1e6:.1f} MB"

    def test_no_table_above_the_limit(self):
        peak, nk = mh_peak(2048, 4)  # sparse-cutover's size
        assert nk == 4096
        assert peak < 4 * 2**20, f"peak {peak / 1e6:.1f} MB, one table is {8 * nk * nk / 1e6:.0f} MB"


def scalar_missing_block(model, sigma, n_obs, rng):
    """One kron_entry and one rng.random() per pair u < v, v >= n_obs,
    row-major (the sampler's scalar form)."""
    n = sigma.size
    edges = set()
    for u in range(n - 1):
        for v in range(max(u + 1, n_obs), n):
            if rng.random() < kron_entry(model, int(sigma[u]), int(sigma[v])):
                edges.add((u, v))
    return edges


class TestSampleMissingBlock:
    @pytest.mark.parametrize("n_obs, m", [
        (7, 0),     # no missing positions: no draw at all
        (7, 1),
        (0, 5),     # every position missing
        (300, 3),   # two row blocks of observed rows
        (520, 70),  # three row blocks, the last one inside the missing rows
    ])
    def test_matches_scalar_loop(self, n_obs, m):
        n = n_obs + m
        rng = np.random.default_rng(n_obs * 1000 + m)
        k = smallest_power(2, max(n, 2))
        model = KroneckerModel(2, np.array([[0.95, 0.7], [0.8, 0.5]]), k)  # asymmetric
        sigma = rng.choice(2**k, size=n, replace=False)
        rng_got, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        us, vs = sample_missing_block(model, sigma, n_obs, rng_got)
        expect = scalar_missing_block(model, sigma, n_obs, rng_ref)
        got = list(zip(us.tolist(), vs.tolist()))
        assert got == sorted(expect)  # row-major, each pair once
        assert rng_got.random() == rng_ref.random()
        if m:
            assert expect  # the case draws some edges

    def test_peak_memory_is_per_block(self):
        n_obs, m = 20_000, 100
        k = smallest_power(2, n_obs + m)
        model = KroneckerModel(2, np.array([[0.5, 0.2], [0.2, 0.1]]), k)
        sigma = np.random.default_rng(0).permutation(n_obs + m)
        pairs = n_obs * m + m * (m - 1) // 2
        all_at_once = 2 * pairs * 8  # probabilities and uniforms for every pair
        tracemalloc.start()
        try:
            sample_missing_block(model, sigma, n_obs, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_at_once / 4, f"peak {peak / 1e6:.1f} MB"


def aligned_error(theta_hat, theta_true):
    """Mean absolute entry error minimized over base-index relabelings."""
    n0 = theta_true.shape[0]
    import itertools

    best = np.inf
    for perm in itertools.permutations(range(n0)):
        p = np.asarray(perm)
        err = np.abs(theta_hat[np.ix_(p, p)] - theta_true).mean()
        best = min(best, err)
    return best
