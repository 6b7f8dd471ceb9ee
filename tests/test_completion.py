import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kromfac.completion import RecoveredGraph, as_graph, realize_missing
from kromfac.graph import Graph, induced_subgraph
from kromfac.kron import KroneckerModel, NodeMapping, kron_entry
from test_kron import scalar_missing_block

THETA = np.array([[0.9, 0.5], [0.5, 0.3]])


def mapping(n):
    return NodeMapping(sigma=np.arange(n))


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestRealizeMissing:
    def test_m_zero_is_identity(self):
        g = path_graph(4)
        model = KroneckerModel(2, THETA, 2)
        rg = realize_missing(g, model, mapping(4), 0, seed=0)
        assert rg == RecoveredGraph(g, 0, [], [])
        assert as_graph(rg, 0) == g

    def test_floor_theta_rarely_fires(self):
        # 13 unordered missing pairs, each with probability (1e-4)^3; the
        # chance of >= 1 edge across 1000 seeds is ~1.3e-8 per trial, so
        # seeing more than 2 total would be a (very) broken sampler.
        theta = np.full((2, 2), 1e-4)
        model = KroneckerModel(2, theta, 3)
        g = path_graph(6)
        total = 0
        for seed in range(1000):
            rg = realize_missing(g, model, mapping(8), 2, seed=seed)
            total += len(rg.z1) + len(rg.z2)
        assert total <= 2

    def test_worked_example_pair_count(self):
        # 6 observed + 2 missing: trials cover exactly 6*2 + 1 = 13 pairs.
        model = KroneckerModel(2, np.full((2, 2), 1.0 - 1e-4), 3)
        g = path_graph(6)
        rg = realize_missing(g, model, mapping(8), 2, seed=1)
        # With near-one probabilities every pair realizes.
        assert len(rg.z1) == 12 and len(rg.z2) == 1

    def test_bernoulli_calibration(self):
        # Frequency of one fixed missing edge over many seeds tracks its
        # model probability within 3 standard errors.
        model = KroneckerModel(2, THETA, 1)
        g = Graph(1, [])
        p = kron_entry(model, 0, 1)
        trials = 10_000
        hits = sum(
            len(realize_missing(g, model, mapping(2), 1, seed=s).z1)
            for s in range(trials)
        )
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= 3 * se

    def test_index_out_of_range_rejected(self):
        model = KroneckerModel(2, THETA, 3)
        bad = NodeMapping(sigma=np.array([0, 1, 2, 3, 4, 8]))
        with pytest.raises(ValueError, match="out of range"):
            realize_missing(path_graph(5), model, bad, 1, seed=0)

    def test_deterministic_per_seed(self):
        model = KroneckerModel(2, THETA, 3)
        g = path_graph(5)
        rg1 = realize_missing(g, model, mapping(8), 3, seed=9)
        rg2 = realize_missing(g, model, mapping(8), 3, seed=9)
        assert rg1 == rg2


class TestAsGraph:
    def rg(self):
        # base path 0-1, recovered ids 2 and 3.
        return RecoveredGraph(
            base=Graph(2, [(0, 1)]),
            m=2,
            z1=frozenset({(0, 2), (1, 3)}),
            z2=frozenset({(2, 3)}),
        )

    def test_i_zero(self):
        assert as_graph(self.rg(), 0) == Graph(2, [(0, 1)])

    def test_full(self):
        g = as_graph(self.rg(), 2)
        assert g.n == 4
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_block_filter(self):
        g = as_graph(self.rg(), 1, order=[2])
        assert g.n == 3
        assert set(g.edges()) == {(0, 1), (0, 2)}

    def test_reorder(self):
        g = as_graph(self.rg(), 1, order=[3])
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_i_out_of_range(self):
        with pytest.raises(ValueError):
            as_graph(self.rg(), 3)

    def test_edge_monotonicity_and_observed_block(self):
        model = KroneckerModel(2, np.full((2, 2), 0.5), 3)
        base = path_graph(4)
        rg = realize_missing(base, model, mapping(8), 4, seed=3)
        prev = set()
        for i in range(rg.m + 1):
            g = as_graph(rg, i)
            cur = set(g.edges())
            assert prev <= cur
            prev = cur
            base_edges = {(u, v) for u, v in cur if u < 4 and v < 4}
            assert base_edges == set(base.edges())


@st.composite
def recovered_graphs(draw):
    """A RecoveredGraph with random base, Z1 and Z2 edges, plus an order
    over a subset of its recovered nodes."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 6))

    def pairs(lo1, hi1, lo2, hi2):
        edge = st.tuples(st.integers(lo1, hi1), st.integers(lo2, hi2))
        return st.sets(edge.filter(lambda e: e[0] < e[1]), max_size=20)

    base = Graph(n, draw(pairs(0, n - 1, 0, n - 1)))
    z1 = draw(pairs(0, n - 1, n, n + m - 1)) if m else set()
    z2 = draw(pairs(n, n + m - 1, n, n + m - 1)) if m else set()
    order = draw(st.permutations(range(n, n + m)))
    order = order[: draw(st.integers(0, m))]
    return RecoveredGraph(base, m, frozenset(z1), frozenset(z2)), order


def reference_as_graph(rg, i, order):
    """as_graph assembled from edge tuples (test oracle)."""
    n = rg.base.n
    new_id = {r: n + j for j, r in enumerate(order[:i])}
    edges = list(rg.base.edges())
    edges += [(u, new_id[r]) for u, r in rg.z1 if r in new_id]
    edges += [(new_id[a], new_id[b]) for a, b in rg.z2 if a in new_id and b in new_id]
    return Graph(n + i, edges)


class TestPrefixProperty:
    @given(recovered_graphs())
    def test_matches_tuple_assembly(self, case):
        rg, order = case
        for i in range(len(order) + 1):
            got, expect = as_graph(rg, i, order), reference_as_graph(rg, i, order)
            assert got == expect
            assert list(got.edges()) == list(expect.edges())

    @given(recovered_graphs())
    def test_candidate_graph_is_prefix_of_largest(self, case):
        # commun_det_prefixes rests on this: candidate i's graph is the
        # induced subgraph of candidate H's on its first N + i nodes.
        rg, order = case
        largest = as_graph(rg, len(order), order)
        for i in range(len(order) + 1):
            prefix, _ = induced_subgraph(largest, set(range(rg.base.n + i)))
            assert as_graph(rg, i, order) == prefix


class TestSerialization:
    def test_round_trip(self):
        rg = RecoveredGraph(
            base=Graph(3, [(0, 1), (1, 2)]),
            m=2,
            z1=frozenset({(0, 3), (2, 4)}),
            z2=frozenset({(3, 4)}),
        )
        buf = io.StringIO()
        rg.write(buf)
        back = RecoveredGraph.read(io.StringIO(buf.getvalue()), n_observed=3, m=2)
        assert back.base == rg.base
        assert back == rg

    def test_write_lists_each_block_sorted(self):
        rg = RecoveredGraph(Graph(3, [(2, 1), (0, 1)]), 3, [(2, 4), (0, 5), (0, 3)], [(5, 3), (4, 3)])
        buf = io.StringIO()
        rg.write(buf)
        assert buf.getvalue() == "#BASE\n0 1\n1 2\n#Z1\n0 3\n0 5\n2 4\n#Z2\n3 4\n3 5\n"

    @given(recovered_graphs())
    def test_write_read_round_trip(self, case):
        rg, _ = case
        buf = io.StringIO()
        rg.write(buf)
        back = RecoveredGraph.read(io.StringIO(buf.getvalue()), n_observed=rg.base.n, m=rg.m)
        assert back == rg


class TestBlockArrays:
    def canonical(self):
        return RecoveredGraph(Graph(3, [(0, 1)]), 3, [(0, 3), (1, 5), (2, 3)], [(3, 4), (4, 5)])

    def test_arrays_are_sorted_read_only_edge_rows(self):
        rg = self.canonical()
        for z, expect in ((rg.z1, [[0, 3], [1, 5], [2, 3]]), (rg.z2, [[3, 4], [4, 5]])):
            assert z.dtype == np.intp and z.shape == (len(expect), 2)
            assert z.tolist() == expect
            with pytest.raises(ValueError):
                z[:1] = 0
        assert (len(rg.z1), len(rg.z2)) == (3, 2)  # edge counts

    def test_reversed_repeated_and_shuffled_pairs_equal_canonical(self):
        rg = self.canonical()
        z1 = [(2, 3), (1, 5), (0, 3), (2, 3)]
        z2 = [(5, 4), (3, 4), (4, 5), (4, 3)]
        other = RecoveredGraph(Graph(3, [(1, 0)]), 3, frozenset(z1), z2)
        assert other == rg and rg == other
        assert np.array_equal(other.z1, rg.z1) and np.array_equal(other.z2, rg.z2)
        assert RecoveredGraph(rg.base, 3, rg.z1, rg.z2[::-1]) == rg

    @pytest.mark.parametrize("z1, z2", [([(0, 6)], []), ([], [(3, 6)]), ([(-1, 3)], []), ([(0.5, 3)], [])])
    def test_rejects_ids_outside_the_graph(self, z1, z2):
        with pytest.raises(ValueError, match=r"not a pair of ids in \[0, N \+ M = 6\)"):
            RecoveredGraph(Graph(3, []), 3, z1, z2)

    @pytest.mark.parametrize("z1, z2, block", [
        ([(0, 2)], [], "Z1"),          # observed-observed
        ([(3, 4)], [], "Z1"),          # recovered-recovered
        ([], [(1, 3)], "Z2"),          # observed-recovered
        ([], [(0, 1)], "Z2"),          # observed-observed
        ([], [(4, 4)], "Z2"),          # self-loop
    ])
    def test_rejects_edges_outside_their_block(self, z1, z2, block):
        with pytest.raises(ValueError, match=f"a {block} edge must join"):
            RecoveredGraph(Graph(3, []), 2, z1, z2)

    @pytest.mark.parametrize("section, row", [("#Z1", "0 2"), ("#Z2", "3 3")])
    def test_read_rejects_rows_outside_their_block(self, section, row):
        # N = 3, M = 1: a #Z1 row between observed nodes would add an
        # observed edge, and a #Z2 row must join two recovered nodes.
        text = f"#BASE\n0 1\n{section}\n{row}\n"
        with pytest.raises(ValueError, match=f"a {section[1:]} edge must join"):
            RecoveredGraph.read(io.StringIO(text), n_observed=3, m=1)

    @pytest.mark.parametrize("change", ["base", "m", "z1", "z2"])
    def test_unequal_when_any_field_differs(self, change):
        rg = self.canonical()
        fields = {"base": rg.base, "m": rg.m, "z1": rg.z1, "z2": rg.z2}
        fields[change] = {
            "base": Graph(3, [(0, 2)]), "m": 4, "z1": rg.z1[1:], "z2": [(3, 5)],
        }[change]
        assert RecoveredGraph(**fields) != rg

    @pytest.mark.parametrize("n_obs, m, seed", [(6, 2, 1), (5, 3, 9), (20, 6, 4), (0, 4, 2)])
    def test_realize_missing_splits_scalar_sampler(self, n_obs, m, seed):
        model = KroneckerModel(2, np.array([[0.95, 0.7], [0.7, 0.5]]), 5)
        sigma = np.random.default_rng(seed).choice(32, size=n_obs + m, replace=False)
        mapped = NodeMapping(sigma=sigma)
        rg = realize_missing(path_graph(n_obs), model, mapped, m, seed=seed)
        expect = sorted(scalar_missing_block(model, sigma, n_obs, np.random.default_rng(seed)))
        assert expect  # the case draws some edges
        assert rg.z1.tolist() == [[u, v] for u, v in expect if u < n_obs]
        assert rg.z2.tolist() == [[u, v] for u, v in expect if u >= n_obs]
