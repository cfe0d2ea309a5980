"""Graph construction, validation, spanning-tree frames."""

import math
import random

import numpy as np
import pytest

from loopsoup import (
    ConfigError,
    GraphModel,
    ValidationError,
    build_graph,
    load_graph,
    parse_graph,
    spanning_tree_frame,
)
from loopsoup.graphs import _EdgeTable

from conftest import dense_transition


class TestBuildGraph:
    def test_basic_fields(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.edges == ((0, 1), (0, 2), (1, 2))
        assert triangle.killing == (1.0, 1.0, 1.0)
        assert np.allclose(triangle.lam, [3.0, 3.0, 3.0])

    def test_scalar_killing_broadcast(self):
        g = build_graph(2, [(0, 1, 2.0)], 0.5)
        assert g.killing == (0.5, 0.5)
        assert np.allclose(g.lam, [2.5, 2.5])

    def test_transition_rows_with_killing(self, triangle):
        P = dense_transition(triangle)
        # each row sums to C_total/lam = 2/3, the rest is killed
        assert np.allclose(P.sum(axis=1), 2.0 / 3.0)
        assert P[0, 1] == pytest.approx(1.0 / 3.0)
        assert P[0, 0] == 0.0

    def test_edge_order_normalized(self):
        g = build_graph(3, [(2, 1, 4.0), (1, 0, 3.0)], 1.0)
        assert g.edges == ((0, 1), (1, 2))
        assert g.conductance == {(0, 1): 3.0, (1, 2): 4.0}

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 0, 1.0)], 1.0)

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 2, 1.0)], 1.0)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)], 1.0)

    def test_rejects_nonpositive_conductance(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 1, 0.0)], 1.0)
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 1, -1.0)], 1.0)

    def test_rejects_negative_killing(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 1, 1.0)], [-0.1, 0.0])

    def test_rejects_non_finite_weights(self):
        for c in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                build_graph(2, [(0, 1, c)], 1.0)
        for kappa in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                build_graph(2, [(0, 1, 1.0)], [kappa, 0.0])
        with pytest.raises(ValidationError, match="non-finite"):
            parse_graph("vertices 2\nedge 0 1 inf\n")
        with pytest.raises(ValidationError, match="finite"):
            parse_graph("vertices 2\nedge 0 1 1.0\nkappa 0 nan\n")

    def test_rejects_disconnected(self):
        with pytest.raises(ValidationError, match="connected"):
            build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)], 1.0)
        # too few edges to connect: refused before the killing is expanded
        with pytest.raises(ValidationError, match="connected"):
            build_graph(10 ** 11, [(0, 1, 1.0)], 1.0)

    def test_rejects_isolated_vertex(self):
        # an isolated vertex has lam = 0 even with killing, and the
        # graph is disconnected anyway
        with pytest.raises(ValidationError):
            build_graph(3, [(0, 1, 1.0)], 0.0)

    def test_hashable(self, triangle):
        # graphs key caches, so they must hash
        assert isinstance(hash(triangle), int)
        assert isinstance(triangle, GraphModel)


class TestSpanningTreeFrame:
    def test_triangle_frame(self, triangle, triangle_frame):
        fr = triangle_frame
        assert fr.rank == 1
        assert fr.cogenerators == ((1, 2),)
        # the tree 0-1, 0-2, rooted at 0
        assert fr.parent == (-1, 0, 0)
        assert fr.depth == (0, 1, 1)

    def test_rank_formula(self, k4, k4_frame, bowtie, bowtie_frame, petersen):
        # rank = |E| - |V| + 1 on a connected graph
        assert k4_frame.rank == 6 - 4 + 1
        assert bowtie_frame.rank == 6 - 5 + 1
        assert spanning_tree_frame(petersen).rank == 15 - 10 + 1

    def test_crossing_signs(self, triangle_frame):
        assert triangle_frame.crossing(1, 2) == 1
        assert triangle_frame.crossing(2, 1) == -1
        assert triangle_frame.crossing(0, 1) == 0

    def test_tree_path(self, triangle_frame):
        assert list(triangle_frame.tree_path(1, 2)) == [1, 0, 2]
        assert list(triangle_frame.tree_path(1, 1)) == [1]

    def test_explicit_tree_accepted(self, triangle):
        fr = spanning_tree_frame(triangle, tree_edges=[(0, 1), (1, 2)])
        assert fr.cogenerators == ((0, 2),)
        assert fr.parent == (-1, 0, 1)

    def test_explicit_tree_must_span(self, k4):
        with pytest.raises(ValidationError):
            spanning_tree_frame(k4, tree_edges=[(0, 1), (1, 2)])
        with pytest.raises(ValidationError):
            # four edges contain a cycle
            spanning_tree_frame(k4, tree_edges=[(0, 1), (0, 2), (1, 2), (0, 3)])

    def test_explicit_tree_edges_must_exist(self, bowtie):
        with pytest.raises(ValidationError):
            spanning_tree_frame(bowtie, tree_edges=[(1, 3), (0, 1), (0, 2), (0, 4)])


class TestParseGraph:
    TEXT = """\
# comment line
vertices 3
edge 0 1 1.0
edge 1 2 1.0
edge 0 2 1.0
kappa 0 1.0
kappa 1 1.0
kappa 2 1.0
"""

    def test_round_trip(self, triangle):
        g = parse_graph(self.TEXT)
        assert g == triangle

    def test_load_graph(self, tmp_path, triangle):
        p = tmp_path / "tri.graph"
        p.write_text(self.TEXT)
        assert load_graph(str(p)) == triangle

    def test_load_graph_unreadable(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_graph(str(tmp_path / "missing.graph"))
        with pytest.raises(ConfigError, match="cannot read"):
            load_graph(str(tmp_path))

    def test_error_carries_line_number(self):
        with pytest.raises(ValidationError, match="line 3"):
            parse_graph("vertices 2\nedge 0 1 1.0\nedge 0 1\n")

    def test_duplicate_edge_still_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_graph("vertices 2\nedge 0 1 1.0\nedge 0 1 2.0\n")

    def test_rejects_unknown_directive(self):
        with pytest.raises(ValidationError):
            parse_graph("vertices 2\nedge 0 1 1.0\nfoo 1 2\n")

    def test_rejects_repeated_kappa(self):
        with pytest.raises(ValidationError):
            parse_graph("vertices 2\nedge 0 1 1.0\nkappa 0 1.0\nkappa 0 2.0\n")

    def test_rejects_missing_vertices_line(self):
        with pytest.raises(ValidationError):
            parse_graph("edge 0 1 1.0\n")


def _random_connected(rng, n, extra):
    """A random spanning tree on n vertices (parents drawn at random, so
    degrees vary and leaves hang off it) plus up to extra other edges."""
    edges = {(rng.randrange(y), y) for y in range(1, n)}
    for _ in range(extra):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, [(u, v, 1.0) for u, v in edges], 0.5)


class TestEdgeTable:
    @pytest.mark.parametrize("seed", range(12))
    def test_against_brute_force(self, seed):
        rng = random.Random(seed)
        graphs = [build_graph(1, [], 1.0)]
        graphs += [_random_connected(rng, rng.randint(2, 9), extra)
                   for extra in (0, 1, rng.randint(2, 12))]
        for g in graphs:
            t = g._oriented
            assert g._oriented is t
            assert "succ" not in vars(t)  # built on first use only
            m = t.head.size
            assert m == 2 * len(g.edges)
            assert t.first.tolist() == np.cumsum(
                [0] + [g.degree(x) for x in range(g.num_vertices)]).tolist()
            for x in range(g.num_vertices):
                sl = slice(t.first[x], t.first[x + 1])
                assert t.head[sl].tolist() == list(g.neighbors[x])
                assert (t.tail[sl] == x).all()
            assert (t.reverse[t.reverse] == np.arange(m)).all()
            assert (t.tail[t.reverse] == t.head).all()
            assert (t.head[t.reverse] == t.tail).all()
            succ = [j for i in range(m) for j in range(m)
                    if t.tail[j] == t.head[i] and j != t.reverse[i]]
            count = [sum(t.tail[j] == t.head[i] for j in range(m)) - 1
                     for i in range(m)]
            assert t.succ.tolist() == succ
            assert t.succ_first.tolist() == np.cumsum([0] + count).tolist()
            assert t.index(t.tail, t.head).tolist() == list(range(m))
            assert t.index(t.head, t.tail).tolist() == t.reverse.tolist()
            for a in (t.first, t.head, t.tail, t.reverse, t.succ_first, t.succ):
                assert not a.flags.writeable

    @pytest.mark.parametrize("seed", range(12))
    def test_p_is_the_dense_reference_on_the_edges(self, seed):
        # random conductances and killing, some rates 0: P on each oriented
        # edge is the reference's quotient to the bit, and read-only
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        pairs = {(rng.randrange(y), y) for y in range(1, n)}
        for _ in range(rng.randint(0, 12) if n > 1 else 0):
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        kill = [rng.choice([0.0, rng.uniform(0.01, 2.0)]) for _ in range(n)]
        g = build_graph(n, [(u, v, rng.uniform(0.1, 3.0)) for u, v in pairs],
                        kill if n > 1 else 1.0)
        t = g._oriented
        assert g._p is g._p
        assert g._p.tobytes() == dense_transition(g)[t.tail, t.head].tobytes()
        assert not g._p.flags.writeable

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_rose(self, rank):
        # one vertex and a loop edge per generator: letter 2i + 1 reverses
        # letter 2i, and every letter may follow any but its reverse
        edges = np.arange(2 * rank)
        rose = np.zeros_like(edges)
        t = _EdgeTable(rose, rose, edges ^ 1, 1)
        assert t.first.tolist() == [0, 2 * rank]
        assert t.succ.tolist() == [j for i in range(2 * rank)
                                   for j in range(2 * rank) if j != i ^ 1]
        assert t.succ_first.tolist() == [i * (2 * rank - 1)
                                         for i in range(2 * rank + 1)]
