import io
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kromfac.graph import (
    EdgeListParseError,
    Graph,
    NodeIdMap,
    induced_subgraph,
    load_edge_list,
    neighbour_arrays,
    write_edge_list,
)


def load(text):
    return load_edge_list(io.StringIO(text))


class TestLoadEdgeList:
    def test_basic(self):
        g, _ = load("0 1\n1 2")
        assert g.n == 3
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_duplicate_and_comment(self):
        g, id_map = load("a b\nb a\n# c\n")
        assert g.n == 2
        assert g.edge_count == 1
        assert id_map.to_external == ["a", "b"]

    def test_self_loop_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            g, _ = load("0 0\n0 1")
        assert g.edge_count == 1
        assert "1 self-loop" in caplog.text

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load("0 1\n0 1 2\n")

    def test_blank_lines_skipped(self):
        g, _ = load("\n0 1\n\n")
        assert g.edge_count == 1


class TestGraphInvariants:
    def test_symmetry_and_sorting(self):
        g = Graph(4, [(3, 0), (1, 0), (2, 1)])
        for u in range(g.n):
            assert g.adjacency[u] == sorted(g.adjacency[u])
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match="must be integers"):
            Graph(3, [(0, 1), (0.5, 2)])

    def test_edge_count_is_half_degree_sum(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert 2 * g.edge_count == sum(g.degrees())

    def test_has_edge(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        )
    )
    return Graph(n, edges)


class TestRoundTrip:
    @given(graphs())
    def test_serialize_reload_preserves_degrees(self, g):
        buf = io.StringIO()
        write_edge_list(g, buf)
        if g.edge_count == 0:
            return  # isolated nodes are not representable in edge-list form
        g2, id_map = load_edge_list(io.StringIO(buf.getvalue()))
        orig_degrees = sorted(d for d in g.degrees() if d > 0)
        assert sorted(g2.degrees()) == orig_degrees
        # Isomorphic under the id map: every reloaded edge maps back.
        for u, v in g2.edges():
            assert g.has_edge(int(id_map.external(u)), int(id_map.external(v)))


def reference_induced_subgraph(g, keep):
    """induced_subgraph by a per-edge dict remap (test oracle)."""
    kept = sorted(keep)
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[u], remap[v]) for u, v in g.edges() if u in remap and v in remap]
    return Graph(len(kept), edges), NodeIdMap(remap, kept)


class TestInducedSubgraph:
    def test_triangle_restriction(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        sub, id_map = induced_subgraph(g, {0, 1})
        assert sub.n == 2 and set(sub.edges()) == {(0, 1)}
        assert id_map.to_external == [0, 1]

    def test_identity(self):
        g = Graph(4, [(0, 1), (2, 3)])
        sub, id_map = induced_subgraph(g, set(range(4)))
        assert sub == g
        assert id_map.to_external == [0, 1, 2, 3]

    def test_no_surviving_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        sub, _ = induced_subgraph(g, {0, 2})
        assert sub.n == 2 and sub.edge_count == 0

    def test_out_of_range(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            induced_subgraph(g, {0, 5})

    @given(graphs(), st.data())
    def test_matches_dict_remap(self, g, data):
        keep = data.draw(st.sets(st.integers(0, g.n - 1)))
        sub, id_map = induced_subgraph(g, keep)
        expect, expect_map = reference_induced_subgraph(g, keep)
        assert sub == expect
        assert list(sub.edges()) == list(expect.edges())
        assert id_map == expect_map
        for a, b in zip(neighbour_arrays(sub), neighbour_arrays(expect), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @given(graphs(), st.data())
    def test_edge_count_and_degree_domination(self, g, data):
        keep = data.draw(st.sets(st.integers(0, g.n - 1)))
        sub, id_map = induced_subgraph(g, keep)
        assert sub.edge_count <= g.edge_count
        for new, old in enumerate(id_map.to_external):
            assert sub.degree(new) <= g.degree(old)
        covered = all(u in keep and v in keep for u, v in g.edges())
        assert (sub.edge_count == g.edge_count) == covered


@st.composite
def edge_lists(draw):
    """A node count (0 allowed) and an edge list that may hold reversed and
    repeated pairs."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=30))


class TestFromArrays:
    @given(edge_lists(), st.randoms(use_true_random=False))
    @example((0, []), random.Random(0))
    @example((1, []), random.Random(0))
    @example((5, [(3, 1), (1, 3), (1, 3), (4, 0)]), random.Random(0))  # reversed, repeated, isolated node 2
    def test_matches_tuple_built(self, case, rnd):
        # from_arrays takes each edge once as (u, v), u < v, in any order.
        n, edges = case
        canon = list({(min(e), max(e)) for e in edges})
        rnd.shuffle(canon)
        eu = np.array([u for u, _ in canon], dtype=np.intp)
        ev = np.array([v for _, v in canon], dtype=np.intp)
        built = Graph.from_arrays(n, eu, ev)
        tupled = Graph(n, edges)
        assert built == tupled and tupled == built
        assert built.edge_count == tupled.edge_count
        assert built.adjacency == tupled.adjacency
        assert list(built.edges()) == list(tupled.edges())
        assert built.degrees() == tupled.degrees()
        for u in range(n):
            for v in range(n):
                assert built.has_edge(u, v) == tupled.has_edge(u, v)
        for a, b in zip(neighbour_arrays(built), neighbour_arrays(tupled), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_each_form_built_once_and_read_only(self):
        g = Graph(4, [(0, 1), (2, 1)])
        assert not any(a.flags.writeable for a in neighbour_arrays(g))  # read-only as built
        arrays = neighbour_arrays(g)
        assert neighbour_arrays(g) is arrays
        built = Graph.from_arrays(4, *arrays[2:])
        assert all(a is b for a, b in zip(neighbour_arrays(g), arrays, strict=True))  # the same objects
        assert built.adjacency is built.adjacency
        for a in arrays + neighbour_arrays(built):
            with pytest.raises(ValueError):
                a[:1] = 0

    def test_inputs_are_not_kept(self):
        # The caller's arrays stay writable, and writing to them leaves the
        # graph as it was.
        eu, ev = np.array([1, 0]), np.array([2, 1])
        g = Graph.from_arrays(3, eu, ev)
        eu[0] = 0
        assert list(g.edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("eu, ev, match", [
        ([0, 1, 0], [1, 2, 1], "more than once"),
        ([1], [0], "eu < ev"),
        ([1], [1], "eu < ev"),
        ([0], [3], "eu < ev"),
        ([-1], [1], "eu < ev"),
        ([0, 1], [1], "one length"),
    ])
    def test_rejects_malformed_edges(self, eu, ev, match):
        with pytest.raises(ValueError, match=match):
            Graph.from_arrays(3, np.array(eu), np.array(ev))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph.from_arrays(-1, np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, [])
