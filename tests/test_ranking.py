import pytest
from hypothesis import given, strategies as st

from kromfac.completion import RecoveredGraph
from kromfac.graph import Graph
from kromfac.ranking import Ranking, default_epsilon, select_influential


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestDegreeCentrality:
    def test_path_midpoint(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2

    def test_isolated(self):
        g = Graph(2, [(0, 1)])
        assert Graph(3, [(0, 1)]).degree(2) == 0

    def test_star_center(self):
        assert star(5).degree(0) == 5

    def test_degree_sum_is_twice_edges(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert sum(g.degree(u) for u in range(g.n)) == 2 * g.edge_count


def make_rg(base_n, z1, z2, m):
    return RecoveredGraph(
        base=Graph(base_n, [(i, i + 1) for i in range(base_n - 1)]),
        m=m,
        edges=frozenset(z1) | frozenset(z2),
    )


class TestSelectInfluential:
    def test_single_qualifier(self):
        # Two recovered nodes; only one reaches degree 2.
        rg = make_rg(6, {(0, 6), (1, 6), (2, 7)}, set(), 2)
        r = select_influential(rg, epsilon=2)
        assert r.h == 1
        assert r.order == (6,)
        assert rg.degrees()[6:].tolist() == [2, 1]

    def test_threshold_excludes_all(self):
        rg = make_rg(4, {(0, 4)}, set(), 2)
        r = select_influential(rg, epsilon=10)
        assert r.h == 0 and r.order == ()

    def test_descending_sort(self):
        rg = make_rg(6, {(0, 6), (1, 6), (2, 6), (3, 6), (0, 7), (1, 7), (2, 7)}, set(), 2)
        r = select_influential(rg, epsilon=3)
        assert r.order == (6, 7)
        assert [rg.degrees()[u] for u in r.order] == [4, 3]

    def test_tie_break_ascending_id(self):
        rg = make_rg(4, {(0, 4), (1, 4), (0, 5), (1, 5)}, set(), 2)
        r = select_influential(rg, epsilon=1)
        assert r.order == (4, 5)

    def test_monotone_in_epsilon(self):
        rg = make_rg(6, {(0, 6), (1, 6), (2, 7)}, {(6, 7)}, 2)
        hs = [select_influential(rg, eps).h for eps in (1, 2, 3, 4)]
        assert hs == sorted(hs, reverse=True)

    def test_only_recovered_nodes_listed(self):
        rg = make_rg(6, {(0, 6), (1, 6)}, set(), 2)
        r = select_influential(rg, epsilon=1)
        assert all(u >= 6 for u in r.order)

    @pytest.mark.parametrize(
        "epsilon", [0.0, -1.0, float("nan"), float("inf")], ids=["zero", "neg", "nan", "inf"]
    )
    def test_rejects_bad_epsilon(self, epsilon):
        rg = make_rg(6, {(0, 6), (1, 6)}, set(), 2)
        with pytest.raises(ValueError, match="epsilon"):
            select_influential(rg, epsilon)


class TestDefaultEpsilon:
    def test_star_dominates(self):
        # Observed star with 5 leaves; recovered nodes stay low degree.
        rg = RecoveredGraph(base=star(5), m=2, edges=frozenset({(1, 6), (2, 7)}))
        assert default_epsilon(rg) == 2.5

    def test_regular_graph(self):
        cycle = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        rg = RecoveredGraph(base=cycle, m=0, edges=frozenset())
        assert default_epsilon(rg) == 1.0


def full_graph(rg):
    """The fully recovered graph assembled from edge tuples (test oracle)."""
    edges = list(rg.base.edges()) + rg.edges.tolist()
    return Graph(rg.base.n + rg.m, edges)


def reference_ranking(rg, epsilon):
    """select_influential from full_graph's degrees."""
    full = full_graph(rg)
    cen = {u: full.degree(u) for u in range(rg.base.n, full.n)}
    kept = sorted((u for u, c in cen.items() if c >= epsilon), key=lambda u: (-cen[u], u))
    return Ranking(tuple(kept))


@st.composite
def recovered_graphs(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 5))

    def pairs(lo1, hi1, lo2, hi2):
        if lo1 > hi1 or lo2 > hi2:
            return set()
        edge = st.tuples(st.integers(lo1, hi1), st.integers(lo2, hi2))
        return draw(st.sets(edge.filter(lambda e: e[0] < e[1]), max_size=20))

    base = Graph(n, pairs(0, n - 1, 0, n - 1))
    z1 = pairs(0, n - 1, n, n + m - 1)
    z2 = pairs(n, n + m - 1, n, n + m - 1)
    return RecoveredGraph(base, m, frozenset(z1 | z2))


class TestDegreeOracle:
    @given(recovered_graphs(), st.sampled_from([0.5, 1, 2, 3.5, 6]))
    def test_select_influential_matches_full_graph(self, rg, epsilon):
        assert select_influential(rg, epsilon) == reference_ranking(rg, epsilon)
        full = full_graph(rg)
        assert rg.degrees()[rg.base.n:].tolist() == [full.degree(u) for u in range(rg.base.n, full.n)]

    @given(recovered_graphs())
    def test_default_epsilon_matches_full_graph(self, rg):
        full = full_graph(rg)
        if full.n == 0:
            with pytest.raises(ValueError, match="empty"):
                default_epsilon(rg)
        else:
            assert default_epsilon(rg) == max(full.degrees()) / 2.0
