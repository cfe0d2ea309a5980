"""Shared graph fixtures.

The four workhorses: the triangle (rank 1), the complete graph K4
(rank 3, regular of degree 3), the bowtie (two triangles glued at a
vertex, rank 2), and the Petersen graph (rank 6, 3-regular).  Unit
conductances everywhere; killing rate 1 unless the name says free.

UNKILLED lists unit graphs without killing. dense_transition is the
tests' reference for P as an n x n matrix, built from the conductances and
lam one edge at a time, apart from the package's per-edge GraphModel._p.
"""

import numpy as np
import pytest

from loopsoup import build_graph, spanning_tree_frame


def dense_transition(g):
    """P[x, y] = C(x,y)/lam(x), with zeros off the edges."""
    n = g.num_vertices
    p = np.zeros((n, n))
    for (u, v), c in g.conductance.items():
        p[u, v] = c / g.lam[u]
        p[v, u] = c / g.lam[v]
    return p


# Unit graphs without killing, as (vertices, edges): a recurrent walk.
UNKILLED = {
    "triangle": (3, [(0, 1), (0, 2), (1, 2)]),
    "bowtie": (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    "k4": (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}


def _complete(n, kappa):
    edges = [(a, b, 1.0) for a in range(n) for b in range(a + 1, n)]
    return build_graph(n, edges, kappa)


@pytest.fixture(scope="session")
def triangle():
    return build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 1.0)


@pytest.fixture(scope="session")
def triangle_frame(triangle):
    return spanning_tree_frame(triangle)


@pytest.fixture(scope="session")
def k4():
    return _complete(4, 1.0)


@pytest.fixture(scope="session")
def k4_frame(k4):
    return spanning_tree_frame(k4)


@pytest.fixture(scope="session")
def k4_free():
    return _complete(4, 0.0)


@pytest.fixture(scope="session")
def k4_free_frame(k4_free):
    return spanning_tree_frame(k4_free)


@pytest.fixture(scope="session")
def bowtie():
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)]
    return build_graph(5, edges, 1.0)


@pytest.fixture(scope="session")
def bowtie_frame(bowtie):
    return spanning_tree_frame(bowtie)


@pytest.fixture(scope="session")
def petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, 5 + i) for i in range(5)]
    edges = [(min(u, v), max(u, v), 1.0) for u, v in pairs]
    return build_graph(10, edges, 1.0)
