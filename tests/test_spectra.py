"""Excursion fixed point, per-class intensities, and the cycle series
determinant identity.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from loopsoup import (
    ConfigError,
    NumericError,
    ValidationError,
    build_graph,
    canonical_class,
    class_intensity,
    contractible_intensity,
    enumerate_geodesic_classes,
    enumerate_measure,
    geodesic_representative,
    homology1_intensity,
    load_graph,
    ihara_check,
    multiplicity,
    regular_closed_forms,
    solve_rho,
    spanning_tree_frame,
    total_mass,
)
from loopsoup import spectra
from loopsoup.cli import main
from loopsoup.freegroup import (GeodesicClass, _class_words, _geodesic_loops,
                                _tuples, _Words)

SQRT5 = math.sqrt(5.0)
# The trivial-class mass of the triangle with killing 1e-9 at one vertex,
# from a 40-digit evaluation of its integral.
CRITICAL_TRIVIAL_MASS = 2.0793867699240923


class TestSolveRho:
    def test_triangle_closed_form(self, triangle):
        # degree 2, killing 1: discriminant root is sqrt(5)/3
        rt = solve_rho(triangle, 1.0)
        assert rt.residual <= 1e-12
        for val in rt.edge:
            assert val == pytest.approx((9.0 - 3.0 * SQRT5) / 2.0, abs=1e-10)
        for val in rt.vertex:
            assert val == pytest.approx(3.0 / SQRT5, abs=1e-10)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 1.0])
    def test_k4_closed_form(self, k4, k4_free, kappa, s):
        if kappa == 0.0 and s == 1.0:
            pytest.skip("series boundary handled in its own test")
        g = {0.0: k4_free, 1.0: k4}.get(kappa)
        if g is None:
            from loopsoup import build_graph
            g = build_graph(
                4, [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)], kappa)
        rt = solve_rho(g, s)
        cf = regular_closed_forms(3, kappa, s)
        for val in rt.edge:
            assert val == pytest.approx(cf.rho_edge, abs=1e-10)
        for val in rt.vertex:
            assert val == pytest.approx(cf.rho_vertex, abs=1e-10)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("s", [0.1, 0.7, 1.0])
    def test_petersen_closed_form(self, petersen, kappa, s):
        if kappa == 0.0 and s == 1.0:
            pytest.skip("series boundary handled in its own test")
        g = petersen
        if kappa != 1.0:
            from loopsoup import build_graph
            g = build_graph(10, [(u, v, 1.0) for (u, v) in petersen.edges], kappa)
        rt = solve_rho(g, s)
        cf = regular_closed_forms(3, kappa, s)
        for val in rt.edge:
            assert val == pytest.approx(cf.rho_edge, abs=1e-10)
        for val in rt.vertex:
            assert val == pytest.approx(cf.rho_vertex, abs=1e-10)

    def test_boundary_no_killing(self, k4_free):
        # s = 1 with no killing sits exactly on the convergence edge
        rt = solve_rho(k4_free, 1.0)
        cf = regular_closed_forms(3, 0.0, 1.0)
        assert cf.rho_edge == pytest.approx(1.5)
        assert cf.rho_vertex == pytest.approx(2.0)
        for val in rt.edge:
            assert val == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_large_cubic_graph_closed_form(self, kappa):
        # the prism C_25 x K_2: 3-regular with 150 oriented edges; without
        # killing the sweeps contract by only 2/3 per step, so Newton does
        # the work
        n = 25
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(n + i, n + (i + 1) % n) for i in range(n)]
        edges += [(i, n + i) for i in range(n)]
        g = build_graph(2 * n, [(min(u, v), max(u, v), 1.0) for u, v in edges],
                        kappa)
        rt = solve_rho(g, 1.0)
        cf = regular_closed_forms(3, kappa, 1.0)
        for val in rt.edge:
            assert val == pytest.approx(cf.rho_edge, abs=1e-10)
        for val in rt.vertex:
            assert val == pytest.approx(cf.rho_vertex, abs=1e-10)

    def test_zero_killing_triangle_double_root(self):
        # rho = 1 + rho^2 / 4 has the double root 2: Newton converges only
        # linearly there, and the step size, not the residual, says when
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0.0)
        rt = solve_rho(g, 1.0)
        assert len(rt.edge) == 6
        for val in rt.edge:
            assert abs(val - 2.0) <= 1e-9
        # each vertex sum is exactly 1 there: the vertex series diverge,
        # whichever side of 1 the rounded sum lands on
        assert rt.vertex.tolist() == [math.inf] * 3

    def test_graph_without_edges(self):
        rt = solve_rho(build_graph(1, [], 1.0), 1.0)
        assert rt.edge.size == 0
        assert rt.vertex.tolist() == [1.0]
        assert rt.residual == 0.0

    def test_tables_are_read_only_arrays(self, bowtie):
        # one edge value per oriented edge in the edge table's order, where the
        # edge system's residual reads them
        rt = solve_rho(bowtie, 0.5)
        assert rt.edge.shape == bowtie._oriented.head.shape
        assert rt.vertex.shape == (bowtie.num_vertices,)
        for table in (rt.edge, rt.vertex):
            with pytest.raises(ValueError):
                table[0] = 0.0
        system = spectra._EdgeSystem(bowtie)
        res = system.residual(rt.edge, 0.5)
        assert np.abs(res).max() <= 1e-12
        assert solve_rho(bowtie, 0.5) == rt

    def test_cache_info_is_public(self):
        # the benchmark harness reads the cache counters of solve_rho
        info = spectra.solve_rho.cache_info()
        assert info.hits >= 0 and info.misses >= 0

    def test_cache_is_bounded(self):
        # every entry keeps its graph alive, so a stream of graphs must not
        # pile up in the cache
        for k in range(spectra._RHO_CACHE + 5):
            solve_rho(build_graph(2, [(0, 1, 1.0 + k)], 1.0), 1.0)
        assert spectra.solve_rho.cache_info().currsize == spectra._RHO_CACHE

    def test_rejects_bad_s(self, triangle):
        with pytest.raises(ValidationError):
            solve_rho(triangle, -0.1)
        with pytest.raises(ValidationError):
            solve_rho(triangle, 1.5)


class TestClassIntensity:
    def test_triangle_value(self, triangle, triangle_frame):
        # one-cogenerator class: three geodesic steps at (3-sqrt5)/2 each
        got = class_intensity(triangle, triangle_frame, canonical_class((1,)))
        assert got == pytest.approx(((3.0 - SQRT5) / 2.0) ** 3, abs=1e-9)

    def test_multiplicity_division(self, triangle, triangle_frame):
        step = (3.0 - SQRT5) / 2.0
        got = class_intensity(triangle, triangle_frame, canonical_class((1, 1)))
        assert got == pytest.approx(step ** 6 / 2.0, abs=1e-9)

    def test_rejects_trivial_class(self, triangle, triangle_frame):
        with pytest.raises(ValidationError):
            class_intensity(triangle, triangle_frame, canonical_class(()))

    def test_matches_enumeration_bowtie(self, bowtie, bowtie_frame):
        em = enumerate_measure(bowtie, bowtie_frame, 14)
        rho = solve_rho(bowtie, 1.0)
        for cls, m in em.items():
            if cls.is_trivial or cls.length > 3:
                continue
            got = class_intensity(bowtie, bowtie_frame, cls, rho=rho)
            assert got == pytest.approx(m, abs=em.tail)

    def test_geometric_law_without_killing(self, k4_free, k4_free_frame):
        # 3-regular, no killing: every geodesic step contributes 1/2
        rho = solve_rho(k4_free, 1.0)
        for cls in enumerate_geodesic_classes(k4_free_frame.rank, 4):
            rep = geodesic_representative(cls, k4_free_frame)
            got = class_intensity(k4_free, k4_free_frame, cls, rho=rho)
            want = 0.5 ** len(rep) / cls.multiplicity
            assert got == pytest.approx(want, abs=1e-9)


def stepwise_intensity(g, frame, cls, rho):
    """Reference class mass: P(x,y) rho(x,y) multiplied step by step around
    the geodesic loop from geodesic_representative, over the multiplicity."""
    cycle = geodesic_representative(cls, frame)
    p = g.transition
    heads, tails = g._oriented.head, g._oriented.tail
    edge = dict(zip(zip(tails.tolist(), heads.tolist()), rho.edge.tolist()))
    prod = 1.0
    for i, x in enumerate(cycle):
        y = cycle[(i + 1) % len(cycle)]
        prod *= p[x, y] * edge[(x, y)]
    return prod / cls.multiplicity


def _family(name, seed):
    """A graph of one of the benchmark's families: unit conductances and
    a constant killing for even seeds, random weights for odd ones."""
    side = 10
    edges = {
        "triangle": [(0, 1), (1, 2), (0, 2)],
        "bowtie": [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
        "k4": [(a, b) for a in range(4) for b in range(a + 1, 4)],
        "rank4": [(a, b) for a in range(4) for b in range(a + 1, 4)]
                 + [(0, 4), (1, 4)],
        "petersen": sorted({tuple(sorted(e)) for i in range(5) for e in
                            [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5),
                             (i, 5 + i)]}),
        "torus10": sorted({tuple(sorted((i * side + j, b)))
                           for i in range(side) for j in range(side)
                           for b in (i * side + (j + 1) % side,
                                     ((i + 1) % side) * side + j)}),
    }[name]
    n = 1 + max(max(e) for e in edges)
    rng = random.Random(seed)
    if seed % 2:
        return build_graph(n, [(u, v, rng.uniform(0.5, 2.0)) for u, v in edges],
                           [rng.uniform(0.5, 1.5) for _ in range(n)])
    kappa = rng.uniform(0.8, 1.2) * (0.5 if name == "torus10" else 1.0)
    return build_graph(n, [(u, v, 1.0) for u, v in edges], kappa)


class TestClassTable:
    """homotopy reads its rows off _class_intensities, the cyclic product
    of a letter-pair matrix over each class word; class_intensity is its
    one-row view."""

    CASES = [("triangle", 9), ("bowtie", 5), ("k4", 4), ("petersen", 3),
             ("rank4", 4)]

    @pytest.mark.parametrize("name,max_len", CASES)
    @pytest.mark.parametrize("s", [0.6, 1.0])
    def test_table_matches_stepwise_reference(self, name, max_len, s):
        for seed in (1, 2, 3):
            g = _family(name, seed)
            frame = spanning_tree_frame(g)
            rho = solve_rho(g, s)
            words = _class_words(frame.rank, max_len).words
            table = spectra._class_intensities(g, frame, words, rho)
            classes = enumerate_geodesic_classes(frame.rank, max_len)
            assert len(table) == len(classes)
            for cls, got in zip(classes, table):
                want = stepwise_intensity(g, frame, cls, rho)
                assert abs(got - want) <= 1e-14 * want, cls
                assert class_intensity(g, frame, cls, rho=rho) == got

    def test_out_of_range_letter(self, triangle, triangle_frame):
        with pytest.raises(ValidationError, match=r"\+2 .*rank 1"):
            class_intensity(triangle, triangle_frame, GeodesicClass((2,)))
        words = _Words(np.array([1, -3]), np.array([2]), np.array([1]))
        with pytest.raises(ValidationError, match="-3"):
            spectra._class_intensities(triangle, triangle_frame, words,
                                       solve_rho(triangle, 1.0))

    # the benchmark's enumeration lengths and longest homotopy classes
    SANDWICH = [("triangle", 40, 9), ("bowtie", 14, 4), ("k4", 10, 4),
                ("petersen", 8, 3), ("torus10", 4, 1)]

    @pytest.mark.parametrize("name,n_max,max_len", SANDWICH)
    def test_rows_sit_above_enumeration_within_tail(self, name, n_max, max_len):
        # every s = 1 row lies at or above the class's enumerated mass, by
        # at most the enumeration's tail bound, with no rounding slack
        for seed in (0, 1):
            g = _family(name, seed)
            frame = spanning_tree_frame(g)
            em = enumerate_measure(g, frame, n_max)
            words = _class_words(frame.rank, max_len).words
            table = spectra._class_intensities(g, frame, words,
                                               solve_rho(g, 1.0))
            classes = enumerate_geodesic_classes(frame.rank, max_len)
            for cls, value in zip(classes, table.tolist()):
                assert 0.0 <= value - em.get(cls) <= em.tail, cls


def _four_cycle_with_pendant():
    # a randomly weighted 4-cycle plus a pendant vertex: the edge into the
    # pendant vertex has no successor and the edge out of it no
    # predecessor, so the excursion system is not strongly connected
    rng = random.Random(7)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]
    return build_graph(5, [(u, v, rng.uniform(0.5, 2.0)) for u, v in edges],
                       [rng.uniform(0.1, 1.0) for _ in range(5)])


RANK_ONE_GRAPHS = {
    "triangle": lambda: build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                                    1.0),
    "triangle_one_killed": lambda: build_graph(
        3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0.3, 0.0, 0.0]),
    "four_cycle_with_pendant": _four_cycle_with_pendant,
}


class TestRankOneCrossCheck:
    """On a rank-1 graph the homotopy class of k windings is the homology
    class h = k, so the transfer-operator route must reproduce the Fourier
    route of the first homology law."""

    @pytest.mark.parametrize("name", sorted(RANK_ONE_GRAPHS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_class_equals_winding_intensity(self, name, k):
        g = RANK_ONE_GRAPHS[name]()
        frame = spanning_tree_frame(g)
        assert frame.rank == 1
        got = class_intensity(g, frame, canonical_class((1,) * k))
        want = homology1_intensity(g, frame, (k,), M=64)
        assert got == pytest.approx(want, rel=1e-10)


class TestNearCritical:
    GRAPH = "vertices 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1\nkappa 0 1e-9\n"

    def test_homotopy_rows(self, capsys, tmp_path):
        path = tmp_path / "critical.graph"
        path.write_text(self.GRAPH)
        assert main(["homotopy", str(path), "--max-len", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = {line.split(",")[0]: float(line.split(",")[3])
                for line in captured.out.splitlines()[2:]}
        assert set(rows) == {"e", "+1", "-1", "+1 +1", "-1 -1"}
        assert all(math.isfinite(v) and v > 0 for v in rows.values())
        assert rows["+1"] == pytest.approx(rows["-1"], rel=1e-9)

    def test_quadrature_does_not_warn(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [1e-9, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, err = contractible_intensity(g)
        assert math.isfinite(val) and 0.0 <= err < 1e-9

    def test_contractible_mass_is_total_minus_windings(self):
        # the classes +-k have mass x^k / k, so the trivial class carries
        # the total mass plus 2 log(1 - x)
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [1e-9, 0.0, 0.0])
        x = class_intensity(g, spanning_tree_frame(g), canonical_class((1,)))
        want = total_mass(g) + 2.0 * math.log1p(-x)
        val, err = contractible_intensity(g)
        assert val == pytest.approx(want, abs=1e-8)

    def test_trivial_mass_pinned(self):
        # against a 40-digit evaluation of the same mass; the bound is
        # mostly the rounding of P, amplified by rho_x - 1, about 5.5e4 here
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [1e-9, 0.0, 0.0])
        val, err = contractible_intensity(g)
        assert abs(val - CRITICAL_TRIVIAL_MASS) < 1e-11
        assert err < 1e-10
        assert abs(val - CRITICAL_TRIVIAL_MASS) <= err


class TestBatchedSolve:
    """Newton from below on a critical edge system, one step weight per
    solve."""

    def test_batched_newton_is_monotone(self):
        # at s = 1 the unkilled triangle sits on its double root 2
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0.0)
        for x in (0.5, 0.9, 1.0):
            row = solve_rho(g, x).edge
            want = (1.0 - math.sqrt(1.0 - x)) * 2.0 / x
            assert np.all(row <= want + 1e-9) and abs(row - want).max() <= 1e-9


class TestContractible:
    def test_k4_free_closed_form(self, k4_free):
        # per-vertex value (3/2) log 3 - 2 log 2, with its rounding bound
        val, err = contractible_intensity(k4_free)
        want = 4 * (1.5 * math.log(3.0) - 2.0 * math.log(2.0))
        assert err < 1e-8
        assert val == pytest.approx(want, abs=1e-9)

    def test_triangle_vs_enumeration(self, triangle, triangle_frame):
        em = enumerate_measure(triangle, triangle_frame, 16)
        val, err = contractible_intensity(triangle)
        assert val == pytest.approx(em.get(canonical_class(())), abs=em.tail)

    def test_tree_without_killing_is_infinite(self):
        # all loops of a tree are contractible and the chain is recurrent;
        # with these weights rounding keeps every vertex sum below 1 at s = 1
        path = build_graph(3, [(0, 1, 1.44112), (1, 2, 2.11469)], 0.0)
        with pytest.raises(NumericError):
            contractible_intensity(path)

    def test_mass_splits_into_classes(self, triangle, triangle_frame):
        # total mass = contractible mass + sum of class intensities
        rho = solve_rho(triangle, 1.0)
        acc, _ = contractible_intensity(triangle)
        for cls in enumerate_geodesic_classes(triangle_frame.rank, 40):
            acc += class_intensity(triangle, triangle_frame, cls, rho=rho)
        assert acc == pytest.approx(total_mass(triangle), abs=1e-8)


def _mpmath():
    return pytest.importorskip("mpmath")


def _rank_one_trivial_mass(g, cogenerator):
    """The rank-1 closed form mu(0) = log x - log(-c_1), in 50 digits from
    the float weights of g. det(I - P^theta) = c_0 + c_1 (z + 1/z) with z
    on the cogenerator (a, b), so c_1 = 2 (D(2) - D(1)); with u = D(1) /
    (-c_1), x = 1 + u/2 - sqrt(u + u^2/4)."""
    mp = _mpmath()
    with mp.workdps(50):
        n = g.num_vertices
        lam = [mp.mpf(k) for k in g.killing]
        for (a, b), c in g.conductance.items():
            lam[a] += c
            lam[b] += c

        def det(z):
            m = mp.eye(n)
            for (a, b), c in g.conductance.items():
                twist = z if (a, b) == cogenerator else 1
                m[a, b] -= c / lam[a] * twist
                m[b, a] -= c / lam[b] / twist
            return mp.det(m)

        d1 = det(1)
        c1 = 2 * (det(2) - d1)
        u = d1 / -c1
        x = 1 + u / 2 - mp.sqrt(u + u * u / 4)
        return mp.log(x) - mp.log(-c1)


def _fraction_det(m):
    """Determinant of a square list of Fraction rows, by elimination."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def _fraction_minus_log_c1(g, cogenerator):
    """-log(-c_1) of an unkilled rank-1 graph, with c_1 in exact rationals
    from its float conductances (D(1) = det(I - P) is then exactly 0)."""
    mp = _mpmath()
    n = g.num_vertices
    lam = [Fraction(0)] * n
    for (a, b), c in g.conductance.items():
        lam[a] += Fraction(c)
        lam[b] += Fraction(c)

    def det(z):
        m = [[Fraction(int(x == y)) for y in range(n)] for x in range(n)]
        for (a, b), c in g.conductance.items():
            twist = z if (a, b) == cogenerator else 1
            m[a][b] -= Fraction(c) / lam[a] * twist
            m[b][a] -= Fraction(c) / lam[b] / twist
        return _fraction_det(m)

    assert det(Fraction(1)) == 0
    c1 = 2 * det(Fraction(2))
    with mp.workdps(40):
        return mp.log(c1.denominator) - mp.log(-c1.numerator)


def _unicyclic(rng, n, killing=0.0):
    """A random tree on n vertices plus one edge (a, b), with conductances
    in 0.1-3 to 6 digits: the graph and its cogenerator (a, b)."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while True:
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in edges:
            break
    weighted = [(x, y, round(rng.uniform(0.1, 3.0), 6))
                for x, y in sorted(edges | {(a, b)})]
    return build_graph(n, weighted, killing), (a, b)


def _regular_trivial_mass(n, d, kappa):
    """n (log rho_v + (d/2) log(1 - rho_e^2 / lam^2)) from the regular
    closed forms, in 40 digits."""
    mp = _mpmath()
    with mp.workdps(40):
        lam = d + mp.mpf(kappa)
        b = mp.sqrt(1 - 4 * (d - 1) / lam ** 2)
        rho_e = lam ** 2 / (2 * (d - 1)) * (1 - b)
        rho_v = 2 * (d - 1) / (d - 2 + d * b)
        return n * (mp.log(rho_v) + mp.mpf(d) / 2 * mp.log(1 - rho_e ** 2 / lam ** 2))


class TestTrivialMassReferences:
    """The tree formula against independent values of the trivial mass;
    its error must cover the distance to each."""

    @pytest.mark.parametrize("kappa", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_rank_one_closed_form(self, kappa):
        rng = random.Random(11)
        for _ in range(4):
            n = rng.randint(3, 6)
            killing = [0.0] * n
            killing[rng.randrange(n)] = kappa
            g, cogenerator = _unicyclic(rng, n, killing)
            val, err = contractible_intensity(g)
            want = _rank_one_trivial_mass(g, cogenerator)
            assert abs(val - want) <= err
            assert err <= 1e-7 * abs(want)

    def test_unkilled_rank_one_against_rationals(self):
        rng = random.Random(12)
        for _ in range(50):
            g, cogenerator = _unicyclic(rng, rng.randint(3, 8))
            val, err = contractible_intensity(g)
            want = _fraction_minus_log_c1(g, cogenerator)
            assert abs(val - want) <= err
            assert err <= 1e-13 * abs(want)

    def test_unit_triangle_without_killing(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0.0)
        val, err = contractible_intensity(g)
        assert abs(val - 3.0 * math.log(2.0)) <= err

    @pytest.mark.parametrize("name,d,kappa", [
        ("k4", 3, 0.0), ("k4", 3, 0.5), ("k4", 3, 1.0), ("k4", 3, 5.0),
        ("petersen", 3, 0.0), ("petersen", 3, 1.0), ("k5", 4, 1.0),
        ("k33", 3, 1.0), ("cube", 3, 1.0)])
    def test_regular_closed_forms(self, request, name, d, kappa):
        base = (request.getfixturevalue(name) if name in ("k4", "petersen")
                else _regular(name))
        g = build_graph(base.num_vertices,
                        [(a, b, 1.0) for a, b in base.edges], kappa)
        val, err = contractible_intensity(g)
        n = g.num_vertices
        assert abs(val - _regular_trivial_mass(n, d, kappa)) <= err
        cf = regular_closed_forms(d, kappa)
        lam = d + kappa
        per_vertex = (math.log(cf.rho_vertex)
                      + d / 2 * math.log1p(-(cf.rho_edge / lam) ** 2))
        assert val == pytest.approx(n * per_vertex, rel=1e-13)

    def test_killed_trees_against_total_mass(self):
        # every loop of a tree is contractible
        mp = _mpmath()
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 8)
            edges = [(rng.randrange(i), i, rng.uniform(0.5, 2.0))
                     for i in range(1, n)]
            killing = [rng.choice([0.0, rng.uniform(0.01, 1.0)])
                       for _ in range(n)]
            killing[rng.randrange(n)] = rng.uniform(0.01, 1.0)
            g = build_graph(n, edges, killing)
            val, err = contractible_intensity(g)
            assert val == pytest.approx(total_mass(g), rel=1e-12)
            with mp.workdps(40):
                lam = [mp.mpf(k) for k in killing]
                for a, b, c in edges:
                    lam[a] += c
                    lam[b] += c
                m = mp.eye(n)
                for a, b, c in edges:
                    m[a, b] -= c / lam[a]
                    m[b, a] -= c / lam[b]
                want = -mp.log(mp.det(m))
            assert abs(val - want) <= err

    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4", "petersen"])
    def test_stationary_in_the_table(self, request, name):
        # a relative error eps in the table moves the mass by about eps^2
        g = request.getfixturevalue(name)
        edge = solve_rho(g, 1.0).edge
        val, _ = spectra._tree_mass(g, edge)
        signs = np.random.default_rng(0).choice([-1.0, 1.0], edge.size)
        moved = [abs(spectra._tree_mass(g, edge * (1.0 + eps * signs))[0] - val)
                 for eps in (1e-4, 1e-6)]
        assert moved[0] <= 1e-6
        assert moved[1] <= 1e-3 * moved[0]

    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4", "k4_free",
                                      "petersen"])
    def test_integral_over_the_step_weight(self, request, name):
        # the mass is the integral over s in [0, 1] of sum_x (rho_x(s) - 1)
        # / (2s), here by QUADPACK over one solve per node
        integrate = pytest.importorskip("scipy.integrate")
        g = request.getfixturevalue(name)

        def integrand(s):
            return (solve_rho(g, s).vertex - 1.0).sum() / (2.0 * s)

        want, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13,
                                 epsrel=1e-13, limit=100)
        val, err = contractible_intensity(g)
        assert abs(val - want) <= 1e-12
        assert err <= 1e-13


class TestCriticalTables:
    """At s <= 1 the edge series always converges, so a table that Newton
    cannot finish is critical to within rounding; rounding moves a double
    root by about sqrt(u)."""

    GRAPH = ("vertices 7\nedge 0 1 1.0158\nedge 0 3 1.49553\n"
             "edge 1 2 2.14354\nedge 2 4 0.265303\nedge 2 5 2.92779\n"
             "edge 2 6 0.16631\nedge 3 5 2.27441\n")

    def test_newton_past_the_root_is_critical(self, capsys, tmp_path):
        path = tmp_path / "unicyclic.graph"
        path.write_text(self.GRAPH)
        g = load_graph(str(path))
        with pytest.raises(NumericError, match="critical to within rounding"):
            solve_rho(g, 1.0)
        assert main(["homotopy", str(path)]) == 3
        assert "critical to within rounding" in capsys.readouterr().err
        # the trivial mass needs no table: the cycle is 0-1-2-5-3
        val, err = contractible_intensity(g)
        assert abs(val - _fraction_minus_log_c1(g, (3, 5))) <= err

    def test_table_within_sqrt_u_of_the_double_root(self):
        # the cycle 0-1-2 plus the path 2-3-4, no killing; the exact fixed
        # point is rational, in the edge table's order
        weighted = [(0, 1, "1.3"), (1, 2, "0.7"), (0, 2, "1.1"),
                    (2, 3, "0.9"), (3, 4, "1.6")]
        exact = [Fraction(v) for v in ("20/13", "27/11", "24/13", "27/7",
                                       "24/11", "20/7", "25/9", "3", "1",
                                       "25/16")]
        g = build_graph(5, [(a, b, float(c)) for a, b, c in weighted], 0.0)
        heads, tails = g._oriented.head, g._oriented.tail
        index = {(x, y): i for i, (x, y)
                 in enumerate(zip(tails.tolist(), heads.tolist()))}
        lam = [Fraction(0)] * 5
        for a, b, c in weighted:
            lam[a] += Fraction(c)
            lam[b] += Fraction(c)
        w = {}
        for a, b, c in weighted:
            w[a, b] = w[b, a] = Fraction(c) ** 2 / (lam[a] * lam[b])
        for (x, y), i in index.items():
            acc = sum(w[y, z] * exact[index[y, z]]
                      for z in g.neighbors[y] if z != x)
            assert exact[i] == 1 + exact[i] * acc
        want = np.array([float(v) for v in exact])
        below = want - solve_rho(g, 1.0).edge
        assert below.min() >= 0.0
        assert (below / want).max() <= 1e-7


def _poly_trim(p, n):
    out = p[: n + 1]
    return out + [Fraction(0)] * (n + 1 - len(out))


def _poly_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_log(p, n):
    """log of a power series with constant term 1, truncated at degree n,
    as the sum of (-1)^(m+1) a^m / m over the powers of a = p - 1."""
    assert p[0] == 1
    a = _poly_trim(p, n)
    a[0] = Fraction(0)
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        power = _poly_mul(power, a, n)
        coef = Fraction((-1) ** (m + 1), m)
        for i, c in enumerate(power):
            out[i] += coef * c
    return out


def fraction_det_series(g, l):
    """Reference determinant side in Fractions: the powers of f(u) = 1 +
    (d-1) u^2 by repeated products and the logarithms by their series."""
    d, n_v = g.degree(0), g.num_vertices
    cp = spectra._charpoly(g.neighbors, l)
    f = [Fraction(1), Fraction(0), Fraction(d - 1)]
    fpow = [[Fraction(1)]]
    for _ in range(n_v):
        fpow.append(_poly_mul(fpow[-1], f, l))
    det = [Fraction(0)] * (l + 1)
    for k, ck in enumerate(cp):
        for i, c in enumerate(fpow[n_v - k]):
            if k + i <= l:
                det[k + i] += ck * c
    u2_log = _poly_log(_poly_trim([Fraction(1), Fraction(0), Fraction(-1)], l), l)
    chi = len(g.edges) - n_v
    return _poly_trim([-chi * a - b for a, b in zip(u2_log, _poly_log(det, l))], l)


def _regular(name):
    """Unit-conductance regular graphs beyond the shared fixtures."""
    if name == "k5":
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        n = 5
    elif name == "k33":
        edges = [(a, b) for a in range(3) for b in range(3, 6)]
        n = 6
    else:  # the 3-cube
        edges = [(a, a | 1 << i) for a in range(8) for i in range(3)
                 if not a & 1 << i]
        n = 8
    return build_graph(n, [(a, b, 1.0) for a, b in edges], 1.0)


def dense_charpoly(neighbors, max_degree):
    """Reference coefficients of det(t I - A) by the same trace recursion
    with the dense object-dtype product M_k = A (M_(k-1) + c_(k-1) I)."""
    n = len(neighbors)
    coeffs = [1]
    a = np.zeros((n, n), dtype=object)
    for x, row in enumerate(neighbors):
        a[x, list(row)] = 1
    m = np.zeros((n, n), dtype=object)
    for k in range(1, min(n, max_degree) + 1):
        m[np.arange(n), np.arange(n)] += coeffs[-1]
        m = a @ m
        coeffs.append(-m.trace() // k)
    return coeffs


def _torus(side):
    edges = sorted({tuple(sorted((i * side + j, b)))
                    for i in range(side) for j in range(side)
                    for b in (i * side + (j + 1) % side,
                              ((i + 1) % side) * side + j)})
    return build_graph(side * side, [(a, b, 1.0) for a, b in edges], 1.0)


class TestIharaIntegers:
    """ihara_check works on integers; its two sides must be the Fraction
    series they replaced, coefficient for coefficient."""

    @pytest.mark.parametrize("name", ["k4", "k5", "k33", "cube", "petersen"])
    def test_det_side_equals_fraction_reference(self, request, name):
        g = (request.getfixturevalue(name) if name in ("k4", "petersen")
             else _regular(name))
        for l in (1, 2, 7, 14):
            got = spectra._det_series(g.neighbors, len(g.edges), l)
            assert got == fraction_det_series(g, l)
            assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("name", ["k4", "petersen", "torus6"])
    def test_charpoly_equals_dense_product(self, request, name):
        g = _torus(6) if name == "torus6" else request.getfixturevalue(name)
        for degree in (0, 1, 5, 12, 36):
            got = spectra._charpoly(g.neighbors, degree)
            assert got == dense_charpoly(g.neighbors, degree)
            assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("name", ["k4", "k5", "k33", "cube", "petersen"])
    def test_walk_side_equals_loop_sum(self, request, name):
        g = (request.getfixturevalue(name) if name in ("k4", "petersen")
             else _regular(name))
        want = [Fraction(0)] * 10
        for cycle in _tuples(*_geodesic_loops(g, 9)[:2]):
            want[len(cycle)] += Fraction(1, multiplicity(cycle))
        series = ihara_check(g, 9)
        assert list(series.walk_side) == want
        assert all(type(c) is Fraction for c in series.walk_side)
        assert series.agree()

    def test_walk_budget(self, k4):
        with pytest.raises(ConfigError, match="up to length 40"):
            ihara_check(k4, 40)


class TestIhara:
    def test_k4_series_agrees(self, k4):
        series = ihara_check(k4, 8)
        assert series.agree()
        assert series.walk_side == series.det_side

    def test_k4_known_coefficients(self, k4):
        # tailless non-backtracking cycle counts on K4, weighted 1/mult:
        # 8 triangles rooted either way, 6 squares, no pentagons, ...
        series = ihara_check(k4, 8)
        assert [int(c) for c in series.walk_side[3:]] == [8, 6, 0, 16, 24, 21]
        assert series.walk_side[0] == series.walk_side[1] == series.walk_side[2] == 0

    def test_triangle_series(self, triangle):
        # the triangle's only primitive cycles are the two rotations
        series = ihara_check(triangle, 6)
        assert series.agree()
        assert [int(c) for c in series.walk_side] == [0, 0, 0, 2, 0, 0, 1]

    def test_rows_layout(self, k4):
        series = ihara_check(k4, 4)
        rows = series.rows()
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        for _, lhs, rhs, diff in rows:
            assert diff == lhs - rhs == 0

    def test_rejects_irregular(self, bowtie):
        with pytest.raises(ValidationError):
            ihara_check(bowtie, 4)

    def test_rejects_weighted(self):
        from loopsoup import build_graph
        g = build_graph(3, [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)], 1.0)
        with pytest.raises(ValidationError):
            ihara_check(g, 4)

    def test_integer_charpoly(self, petersen):
        # the Petersen spectrum is 3, 1 (five times) and -2 (four times)
        want = [int(c) for c in np.rint(np.poly([3] + [1] * 5 + [-2] * 4))]
        got = spectra._charpoly(petersen.neighbors, 10)
        assert got == want
        assert all(type(c) is int for c in got)
        # the recursion stops at the highest coefficient the series uses
        assert spectra._charpoly(petersen.neighbors, 4) == want[:5]
        assert spectra._charpoly(petersen.neighbors, 50) == want

    def test_petersen_agrees(self, petersen):
        series = ihara_check(petersen, 7)
        assert series.agree()
        # girth 5, and twelve pentagons each seen from both orientations
        assert [int(c) for c in series.walk_side[:6]] == [0, 0, 0, 0, 0, 24]
