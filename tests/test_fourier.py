"""Twisted determinants: torus twists for first homology, finite group
holonomy, and the mod-p nilpotent layer for second homology.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from loopsoup import _memo, fourier
from loopsoup import (
    NumericError,
    ValidationError,
    canonical_class,
    enumerate_measure,
    group_data,
    holonomy_class_intensities,
    homology1,
    homology1_field_law,
    homology1_grid,
    homology1_intensity,
    homology2,
    homology2_field_law,
    homology2_intensity,
    loop_to_word,
    nilpotent_rep,
    spectral_radius,
    total_mass,
    twisted_log_det,
)

SQRT5 = math.sqrt(5.0)


def twisted_matrix(g, frame, theta):
    """Dense oracle: the transition matrix with each cogenerator crossing
    twisted by a phase, step x -> y over cogenerator j picking up
    exp(+-2 pi i theta_j)."""
    p = g.transition.astype(complex)
    for j, (u, v) in enumerate(frame.cogenerators):
        phase = np.exp(2j * np.pi * theta[j])
        p[u, v] *= phase
        p[v, u] *= np.conj(phase)
    return p


def connection_log_det(g, unitaries):
    """-(1/d) log det(I - P tensored with the edge unitaries): unitaries maps
    both orientations of every edge, stacked as one connection for
    _connection_log_dets."""
    up = np.array([[unitaries[e] for e in g.edges]], dtype=complex)
    down = np.array([[unitaries[e[::-1]] for e in g.edges]], dtype=complex)
    return float(fourier._connection_log_dets(g, up, down)[0])


class TestTwistedDet:
    def test_zero_twist_is_total_mass(self, triangle, triangle_frame):
        assert -twisted_log_det(triangle, triangle_frame, [0.0]) == \
            pytest.approx(total_mass(triangle), abs=1e-13)

    def test_zero_twist_matrix_is_transition(self, bowtie, bowtie_frame):
        M = twisted_matrix(bowtie, bowtie_frame, [0.0, 0.0])
        assert np.allclose(M, bowtie.transition, atol=1e-14)
        assert np.max(np.abs(M.imag)) == 0.0

    def test_determinant_bounded_away_from_zero(self, bowtie, bowtie_frame):
        # with killing the twisted determinant never vanishes on the grid
        for t1 in np.linspace(0.0, 1.0, 8, endpoint=False):
            for t2 in np.linspace(0.0, 1.0, 8, endpoint=False):
                M = twisted_matrix(bowtie, bowtie_frame, [t1, t2])
                det = np.linalg.det(np.eye(5) - M)
                assert abs(det) > 1e-14

    def test_real_output(self, bowtie, bowtie_frame):
        v = twisted_log_det(bowtie, bowtie_frame, [0.3, 0.7])
        assert isinstance(v, float)

    def test_twist_periodic(self, triangle, triangle_frame):
        a = twisted_log_det(triangle, triangle_frame, [0.25])
        b = twisted_log_det(triangle, triangle_frame, [1.25])
        assert a == pytest.approx(b, abs=1e-12)

    def test_recurrent_twist_rejected(self):
        from loopsoup import build_graph, spanning_tree_frame
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0.0)
        fr = spanning_tree_frame(g)
        with pytest.raises(NumericError):
            twisted_log_det(g, fr, [0.0])

    def test_killed_twist_never_singular(self, triangle, triangle_frame):
        # with killing the twisted matrix stays strictly substochastic
        for theta in np.linspace(0.0, 1.0, 11):
            v = twisted_log_det(triangle, triangle_frame, [theta])
            assert math.isfinite(v)


class TestHomology1Law:
    def test_grid_sums_to_mass(self, triangle, triangle_frame):
        # the zero-twist entry carries the whole mass, the average over
        # twists is the null-winding intensity
        grid = homology1_grid(triangle, triangle_frame, 64)
        assert -grid[0] == pytest.approx(total_mass(triangle), abs=1e-12)
        assert -grid.mean() == pytest.approx(
            homology1_intensity(triangle, triangle_frame, (0,), M=64), abs=1e-12)

    def test_triangle_closed_form(self, triangle, triangle_frame):
        # rank 1: winding h comes from the single class (sign h)^|h|,
        # whose intensity is step^(3|h|)/|h| with step = (3-sqrt5)/2
        step = (3.0 - SQRT5) / 2.0
        for h in (1, 2, 3):
            got = homology1_intensity(triangle, triangle_frame, (h,))
            assert got == pytest.approx(step ** (3 * h) / h, abs=1e-8)

    def test_symmetry(self, triangle, triangle_frame):
        for h in (1, 2):
            a = homology1_intensity(triangle, triangle_frame, (h,), M=128)
            b = homology1_intensity(triangle, triangle_frame, (-h,), M=128)
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_enumeration(self, triangle, triangle_frame):
        em = enumerate_measure(triangle, triangle_frame, 18)
        wm = em.winding(1)
        for h in range(-3, 4):
            if h == 0:
                continue
            got = homology1_intensity(triangle, triangle_frame, (h,), M=256)
            assert got == pytest.approx(wm.get((h,), 0.0), abs=em.tail)

    def test_bowtie_rank2(self, bowtie, bowtie_frame):
        em = enumerate_measure(bowtie, bowtie_frame, 14)
        wm = em.winding(2)
        for h in itertools.product((-1, 0, 1), repeat=2):
            got = homology1_intensity(bowtie, bowtie_frame, h, M=64)
            base = wm.get(h, 0.0)
            if h == (0, 0):
                base += em.get(canonical_class(()))
            # h = 0 row carries the contractible mass too
            want = base if h != (0, 0) else wm.get(h, 0.0)
            assert got == pytest.approx(want, abs=em.tail)

    def test_mod_p_aliases(self, triangle, triangle_frame):
        # mod 3 mass at residue 0 = sum over h = 0, +-3, +-6, ...
        got = homology1_intensity(triangle, triangle_frame, (0,), M=3)
        direct = sum(homology1_intensity(triangle, triangle_frame, (h,), M=256)
                     for h in (-3, 3)) \
            + homology1_intensity(triangle, triangle_frame, (0,), M=256)
        assert got == pytest.approx(direct, abs=1e-7)

    def test_rejects_bad_h(self, triangle, triangle_frame):
        with pytest.raises(ValidationError):
            homology1_intensity(triangle, triangle_frame, (0, 0))


class TestHomology1Field:
    def test_distribution_sums_to_one(self, triangle, triangle_frame):
        grid, _, _ = fourier._homology1_values(
            triangle, triangle_frame, [(h,) for h in range(16)], M=16, alpha=1.0)
        assert sum(grid) == pytest.approx(1.0, abs=1e-12)
        assert min(grid) >= -1e-12

    def test_frozen_p0(self, triangle, triangle_frame):
        got = homology1_field_law(triangle, triangle_frame, 1.0, (0,), M=64)
        assert got == pytest.approx(0.8944271909999157, abs=1e-9)

    def test_monte_carlo_agreement(self, triangle, triangle_frame):
        from loopsoup import LoopSoupSampler
        sampler = LoopSoupSampler(triangle, n_max=42)
        n = 2000
        hits = {}
        for seed in range(n):
            # the soup's winding: homology1 summed over its loops
            w = (sum(homology1(lp, triangle_frame)[0]
                     for lp in sampler.sample(seed).loops),)
            hits[w] = hits.get(w, 0) + 1
        for h in ((0,), (1,), (-1,)):
            p = homology1_field_law(triangle, triangle_frame, 1.0, h, M=64)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(hits.get(h, 0) / n - p) < 4 * se


def _assembled_grid(g, frame, m):
    """The factorization route: one Cholesky factorization per point of the
    m-grid."""
    ones = np.ones((1, frame.rank, 1, 1), dtype=complex)
    return fourier._twisted_log_dets(g, fourier._frame_letters(g, frame), ones, m,
                                     "P^theta").reshape((m,) * frame.rank)


def _dense_grid(g, frame, m):
    """slogdet(I - twisted_matrix) at every point of the m-grid, batched."""
    n = g.num_vertices
    stack = np.empty((m,) * frame.rank + (n, n), dtype=complex)
    for k in np.ndindex(*(m,) * frame.rank):
        stack[k] = np.eye(n) - twisted_matrix(g, frame, [ki / m for ki in k])
    sign, logdet = np.linalg.slogdet(stack)
    assert np.allclose(sign, 1.0, atol=1e-12)
    return logdet


class TestBatchedAssembly:
    """homology1_grid, twisted_log_det, the holonomy twists and the
    Heisenberg laws share one batched builder of the twisted matrices."""

    @pytest.mark.parametrize("name,m", [("triangle", 64), ("bowtie", 12),
                                        ("k4", 5)])
    def test_grid_equals_pointwise_log_dets(self, request, name, m):
        g = request.getfixturevalue(name)
        frame = request.getfixturevalue(f"{name}_frame")
        grid = _assembled_grid(g, frame, m)
        pointwise = np.empty((m,) * frame.rank)
        for k in np.ndindex(*pointwise.shape):
            theta = [ki / m for ki in k]
            pointwise[k] = twisted_log_det(g, frame, theta)
            # independent route: the dense twisted transition matrix
            _, direct = np.linalg.slogdet(
                np.eye(g.num_vertices) - twisted_matrix(g, frame, theta))
            assert pointwise[k] == pytest.approx(direct, abs=1e-12)
        assert np.array_equal(grid, pointwise)

    def test_chunks_equal_one_batch(self, bowtie, bowtie_frame, monkeypatch):
        # 256 matrices of 5x5 in chunks of 10, the last one partial
        whole = _assembled_grid(bowtie, bowtie_frame, 16)
        monkeypatch.setattr(fourier, "_CHUNK_ENTRIES", 10 * 25)
        assert np.array_equal(_assembled_grid(bowtie, bowtie_frame, 16), whole)

    def test_massless_twist_raises_through_grid(self):
        from loopsoup import build_graph, spanning_tree_frame
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0.0)
        with pytest.raises(NumericError, match="massless/recurrent twist"):
            homology1_grid(g, spanning_tree_frame(g), 4)

    def test_holonomy_value_unchanged(self, bowtie):
        gd, conn = _s3_handles(bowtie)
        mats = {e: gd.irreps[2][a] for e, a in conn.items()}
        assert connection_log_det(bowtie, mats) == pytest.approx(
            0.5595334901819655, rel=1e-15, abs=1e-15)

    def test_homology2_field_values_unchanged(self, bowtie, bowtie_frame):
        for alpha, m, p, M, want in ((1.0, 0, 5, 8, 0.9999966871290646),
                                     (1.0, 2, 5, 8, 4.271907727559921e-09),
                                     (0.5, 1, 3, 5, 8.282105596520613e-07)):
            got = homology2_field_law(bowtie, bowtie_frame, alpha,
                                      {(1, 2): m}, p, M=M)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


class TestLaurentGrid:
    """H1 grids above 3 points per dimension come from the exact Laurent
    coefficients of det(I - P^theta); the dense slogdet is the reference."""

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 16])
    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4", "rank4"])
    def test_grid_equals_dense(self, request, name, m):
        if name == "rank4":
            g, frame = _random_weights(name)
        else:
            g = request.getfixturevalue(name)
            frame = request.getfixturevalue(f"{name}_frame")
        grid = homology1_grid(g, frame, m)
        assert grid.shape == (m,) * frame.rank
        assert np.max(np.abs(grid - _dense_grid(g, frame, m))) <= 1e-12

    @pytest.mark.parametrize("kappa", [1e-12, 1e-9, 1e-6])
    def test_near_critical_grid_within_its_stated_error(self, kappa):
        # at kappa = 1e-9, det(I - P) = 3.75e-10 from coefficients of size
        # 0.25. The closed form on the triangle is D(theta) = D(0) + 4 B
        # sin^2(pi theta), B = 1 / (lam_0 lam_1 lam_2), D(0) exact in rationals
        from fractions import Fraction
        from loopsoup import build_graph, spanning_tree_frame
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [kappa, 0.0, 0.0])
        frame = spanning_tree_frame(g)
        lam = [Fraction(2) + Fraction(kappa), Fraction(2), Fraction(2)]
        pairs = sum(1 / (lam[a] * lam[b]) for a, b in ((0, 1), (1, 2), (0, 2)))
        b = 1 / (lam[0] * lam[1] * lam[2])
        d0 = 1 - pairs - 2 * b
        want = np.log(float(d0) + 4 * float(b) * np.sin(np.pi * np.arange(64) / 64) ** 2)
        grid = homology1_grid(g, frame, 64)
        # the stated error 3^r u / D + u |log D|, D scaled by the shift, up
        # to the factor of a few that it allows
        _, shift = fourier._laurent(g, frame)
        u = 2.0 ** -53
        stated = 3 * u / np.exp(want - shift) + u * np.abs(want)
        if kappa == 1e-9:
            assert stated[0] == pytest.approx(3.33e-7, rel=1e-2)
        assert np.all(np.abs(grid - want) <= 8 * stated)

    def test_shift_keeps_small_determinants(self, bowtie, bowtie_frame,
                                            monkeypatch):
        # log D near -1000, as on a graph of about 1500 vertices: exp(log D)
        # underflows to 0 without the shift by the largest log
        assembled = fourier._twisted_log_dets
        monkeypatch.setattr(fourier, "_twisted_log_dets",
                            lambda *args: assembled(*args) - 1000.0)
        fourier._laurent.cache_clear()
        grid = homology1_grid(bowtie, bowtie_frame, 16)
        fourier._laurent.cache_clear()
        assert np.max(np.abs(grid + 1000.0 - _dense_grid(bowtie, bowtie_frame, 16))) \
            <= 1e-12

    def test_coefficients_are_read_only(self, bowtie, bowtie_frame):
        coef, shift = fourier._laurent(bowtie, bowtie_frame)
        assert coef.shape == (1, 3, 3)
        with pytest.raises(ValueError):
            coef[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            shift[0] = 0.0


def _law_on_large_grid(g, frame, m, hs, alpha):
    """The m-grid law at every h of hs, the intensity or with alpha the
    field law, from the 3^r Laurent coefficients of det(I - P^theta) (an
    FFT of the 3-grid), evaluated a slab of the first axis at a time so that
    no m^r array is held."""
    r = frame.rank
    logs = homology1_grid(g, frame, 3)
    shift = logs.max()
    coef = (np.fft.fftn(np.exp(logs - shift)) / 3 ** r).real
    k = np.arange(m)
    wave = np.exp(2j * np.pi * np.outer([0, 1, -1], k) / m)
    slab = max(1, (1 << 18) // m ** (r - 1))
    sums = np.zeros(len(hs), dtype=complex)
    for start in range(0, m, slab):
        d = coef
        for axis in range(r):
            d = np.tensordot(d, wave[:, start:start + slab] if axis == 0 else wave,
                             axes=(0, 0))
        logs = np.log(d.real) + shift
        f = -logs if alpha is None else np.exp(alpha * (np.log(coef.sum()) + shift - logs))
        for i, h in enumerate(hs):
            x = f
            for axis in range(r):
                kk = k[start:start + slab] if axis == 0 else k
                x = np.tensordot(x, np.exp(-2j * np.pi * kk * h[axis] / m), axes=(0, 0))
            sums[i] += x
    return sums.real / m ** r


class TestGridSize:
    """The automatic H1 grid size: a tail bound on the windings, read off
    the Laurent coefficients, bounds the aliasing of every grid and picks
    one grid before any is built."""

    @pytest.mark.parametrize("alpha", [None, 0.7])
    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4"])
    def test_bound_covers_the_aliasing(self, name, alpha):
        g, frame = _random_weights(name)
        r = frame.rank
        hs = [(0,) * r, (1,) * r, (2,) + (0,) * (r - 1)]
        exact = _law_on_large_grid(g, frame, 2 ** 14 if r == 1 else 256, hs, alpha)
        ms = np.array([6, 8, 12, 16])
        for h, want in zip(hs, exact):
            bounds = fourier._alias_bounds(g, frame, np.abs(np.array(h, dtype=float)),
                                           ms, alpha)
            for m, bound in zip(ms.tolist(), bounds):
                got = fourier._homology1_values(g, frame, [h], M=m, alpha=alpha)[0][0]
                # the aliasing at M = 6 is far above rounding
                assert m > 6 or got - want > 1e-12
                assert abs(got - want) <= bound + 1e-15

    @pytest.mark.parametrize("alpha", [None, 0.7])
    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4", "rank4"])
    def test_size_is_the_smallest_certified_power_of_two(self, name, alpha):
        g, frame = _random_weights(name)
        hs = [(1,) + (0,) * (frame.rank - 1), (-3,) + (1,) * (frame.rank - 1)]
        _, m, bound = fourier._homology1_values(g, frame, hs, alpha=alpha)
        reach = np.array([3.0] + [1.0] * (frame.rank - 1))
        below = fourier._alias_bounds(g, frame, reach, np.array([m // 2]), alpha)[0]
        assert m > 6 and bound <= fourier._ALIAS_TOL < below
        assert fourier._alias_bounds(g, frame, reach, np.array([m]), alpha)[0] == bound

    def test_near_critical_size_exceeds_the_budget(self):
        from loopsoup import build_graph, spanning_tree_frame
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [1e-9, 0.0, 0.0])
        frame = spanning_tree_frame(g)
        bounds = fourier._alias_bounds(g, frame, np.array([1.0]),
                                       np.array([2 ** 19, 2 ** 20]), None)
        assert bounds[0] > fourier._ALIAS_TOL >= bounds[1]
        with pytest.raises(NumericError, match="M=1048576"):
            homology1_intensity(g, frame, (1,))


class TestOneRoute:
    """Every H1 grid above 3 points per dimension costs the 3^rank
    factorizations of the Laurent coefficients and nothing more, and an
    automatic grid size builds one grid."""

    @pytest.fixture
    def solved(self, monkeypatch):
        sizes = []
        cholesky = np.linalg.cholesky

        def counted(a):
            sizes.append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        fourier._laurent.cache_clear()
        yield sizes
        fourier._laurent.cache_clear()

    @staticmethod
    def _graphs():
        from loopsoup import build_graph, spanning_tree_frame
        critical = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                               [1e-9, 0.0, 0.0])
        yield critical, spanning_tree_frame(critical)
        for name in ("triangle", "bowtie", "k4", "rank4"):
            yield _random_weights(name)

    @pytest.mark.parametrize("m", [4, 7, 16, 64])
    def test_grid_eigensolves_the_3_grid(self, solved, m):
        for g, frame in self._graphs():
            fourier._laurent.cache_clear()
            solved.clear()
            homology1_grid(g, frame, m)
            assert sum(solved) == 3 ** frame.rank

    @pytest.mark.parametrize("alpha", [None, 0.7])
    def test_automatic_size_builds_one_grid(self, solved, monkeypatch, alpha):
        built = []
        grid = fourier.homology1_grid

        def counted(g, frame, m):
            built.append(m)
            return grid(g, frame, m)

        monkeypatch.setattr(fourier, "homology1_grid", counted)
        for g, frame in list(self._graphs())[1:]:
            fourier._laurent.cache_clear()
            solved.clear()
            built.clear()
            h = (1,) * frame.rank
            if alpha is None:
                homology1_intensity(g, frame, h)
            else:
                homology1_field_law(g, frame, alpha, h)
            assert len(built) == 1 and built[0] > 3
            assert sum(solved) == 3 ** frame.rank

    def test_near_critical_raises_after_the_3_grid(self, solved):
        g, frame = next(self._graphs())
        with pytest.raises(NumericError, match="M=1048576"):
            homology1_intensity(g, frame, (2,))
        assert sum(solved) == 3

    def test_coefficients_over_the_budget_build_nothing(self, solved):
        # K7, rank 15: the 3^15 points of the 3-grid and of the coefficients
        # are refused before a plan
        from loopsoup import build_graph, spanning_tree_frame
        g = build_graph(7, [(a, b, 1.0) for a, b in itertools.combinations(range(7), 2)],
                        1.0)
        frame = spanning_tree_frame(g)
        _memo.clear()
        for m in (3, 4):  # factorized, or read off the coefficients
            with pytest.raises(NumericError, match="3\\^15 points, over the budget"):
                homology1_grid(g, frame, m)
        with pytest.raises(NumericError, match="3\\^15 Laurent points"):
            homology1_intensity(g, frame, (0,) * 15)
        assert solved == [] and not _memo._STORE


class TestHolonomy:
    def test_trivial_connection_gives_mass(self, triangle):
        ident = {}
        for (u, v) in triangle.edges:
            ident[(u, v)] = np.eye(1)
            ident[(v, u)] = np.eye(1)
        assert connection_log_det(triangle, ident) == \
            pytest.approx(total_mass(triangle), abs=1e-12)

    def test_sign_connection_matches_half_twist(self, triangle, triangle_frame):
        sgn = {}
        for (u, v) in triangle.edges:
            m = -np.eye(1) if (u, v) == (1, 2) else np.eye(1)
            sgn[(u, v)] = m
            sgn[(v, u)] = m
        got = connection_log_det(triangle, sgn)
        assert got == pytest.approx(
            -twisted_log_det(triangle, triangle_frame, [0.5]), abs=1e-12)

    def test_complex_line_connection_matches_twist(self, triangle, triangle_frame):
        # a unit complex number on the cogenerator is the same twist the
        # torus route applies; two code paths, one value
        theta = 0.3
        phase = np.exp(2j * np.pi * theta)
        conn = {}
        for (u, v) in triangle.edges:
            z = phase if (u, v) == (1, 2) else 1.0
            conn[(u, v)] = np.array([[z]])
            conn[(v, u)] = np.array([[np.conj(z)]])
        got = connection_log_det(triangle, conn)
        assert got == pytest.approx(
            -twisted_log_det(triangle, triangle_frame, [theta]), abs=1e-12)

    def test_reverse_must_be_adjoint(self, triangle):
        bad = {}
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        for (u, v) in triangle.edges:
            bad[(u, v)] = rot
            bad[(v, u)] = rot  # should be rot.T
        with pytest.raises(ValidationError,
                           match=r"edge \(0,1\) is not inverted by reversal"):
            connection_log_det(triangle, bad)


def _z2():
    return group_data(
        [0, 1], [(0,), (1,)],
        [{0: np.eye(1), 1: np.eye(1)}, {0: np.eye(1), 1: -np.eye(1)}])


def _s3():
    perms = list(itertools.permutations(range(3)))

    def parity(a):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if a[i] > a[j]:
                    s = -s
        return s

    ident = (0, 1, 2)
    classes = [
        (ident,),
        tuple(p for p in perms if parity(p) < 0),
        tuple(p for p in perms if parity(p) > 0 and p != ident),
    ]
    # restrict the permutation action to the plane orthogonal to (1,1,1)
    B = np.array([[1 / math.sqrt(2), 1 / math.sqrt(6)],
                  [-1 / math.sqrt(2), 1 / math.sqrt(6)],
                  [0.0, -2 / math.sqrt(6)]])
    def permmat(a):
        m = np.zeros((3, 3))
        for i in range(3):
            m[a[i], i] = 1.0
        return m
    irreps = [
        {p: np.eye(1) for p in perms},
        {p: parity(p) * np.eye(1) for p in perms},
        {p: B.T @ permmat(p) @ B for p in perms},
    ]
    return perms, classes, group_data(perms, classes, irreps)


def _s3_handles(g):
    """S3 and a connection on the bowtie's vertices 0-4: a swap on edge
    (1, 2), a 3-cycle on (3, 4), the identity elsewhere, each reversed
    step carrying the inverse."""
    _, _, gd = _s3()
    handles = {(1, 2): (1, 0, 2), (3, 4): (1, 2, 0)}
    conn = {}
    for e in g.edges:
        a = handles.get(e, (0, 1, 2))
        conn[e] = a
        conn[e[::-1]] = tuple(sorted(range(3), key=a.__getitem__))
    return gd, conn


class TestGroupData:
    def test_z2_characters(self):
        gd = _z2()
        assert gd.order == 2
        assert np.trace(gd.irreps[1][1]) == pytest.approx(-1.0)

    def test_s3_is_consistent(self):
        perms, classes, gd = _s3()
        assert gd.order == 6
        # standard rep character: 2 on identity, 0 on swaps, -1 on cycles
        assert np.trace(gd.irreps[2][classes[0][0]]) == pytest.approx(2.0)
        assert np.trace(gd.irreps[2][classes[1][0]]) == pytest.approx(0.0, abs=1e-12)
        assert np.trace(gd.irreps[2][classes[2][0]]) == pytest.approx(-1.0)

    def test_rejects_bad_partition(self):
        with pytest.raises(ValidationError):
            group_data([0, 1], [(0,)], [{0: np.eye(1), 1: np.eye(1)}])

    def test_rejects_missing_element(self):
        with pytest.raises(ValidationError):
            group_data([0, 1], [(0,), (1,)], [{0: np.eye(1)}])

    def test_rejects_wrong_dimension_sum(self):
        # |G| = 2 but a lone trivial irrep gives sum of squares 1
        with pytest.raises(ValidationError):
            group_data([0, 1], [(0,), (1,)], [{0: np.eye(1), 1: np.eye(1)}])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            group_data([0, 1], [(0,), (1,)],
                       [{0: np.eye(1), 1: np.eye(1)},
                        {0: np.eye(1), 1: np.ones((1, 2)) / math.sqrt(2)}])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            group_data([0, 1], [(0,), (1,)],
                       [{0: np.eye(1), 1: np.eye(1)},
                        {0: np.eye(1), 1: -1.5 * np.eye(1)}])

    def test_rejects_character_not_constant_on_class(self):
        # Z_2 with both elements put in one class: the sign character
        # takes 1 and -1 on it
        with pytest.raises(ValidationError, match="not constant on class"):
            group_data([0, 1], [(0, 1)],
                       [{0: np.eye(1), 1: np.eye(1)},
                        {0: np.eye(1), 1: -np.eye(1)}])

    def test_rejects_failed_orthogonality(self):
        # the trivial irrep twice: squared dimensions sum to |G| = 2, but
        # the two character rows are not orthogonal
        trivial = {0: np.eye(1), 1: np.eye(1)}
        with pytest.raises(ValidationError, match="orthogonality"):
            group_data([0, 1], [(0,), (1,)], [trivial, dict(trivial)])

    def test_rejects_mixed_matrix_sizes(self):
        # a 1x1 identity and a 2x2 unitary of trace -1: the characters are
        # those of Z_2, so only the sizes give the irrep away
        w = np.exp(2j * np.pi / 3)
        with pytest.raises(ValidationError, match="mixed dimensions"):
            group_data([0, 1], [(0,), (1,)],
                       [{0: np.eye(1), 1: np.eye(1)},
                        {0: np.eye(1), 1: np.diag([w, np.conj(w)])}])


class TestHolonomyClassIntensities:
    def test_trivial_group_single_class(self, triangle):
        gd = group_data([0], [(0,)], [{0: np.eye(1)}])
        conn = {}
        for (u, v) in triangle.edges:
            conn[(u, v)] = 0
            conn[(v, u)] = 0
        ints = holonomy_class_intensities(triangle, conn, gd)
        assert ints == {(0,): pytest.approx(total_mass(triangle), abs=1e-12)}

    def test_z2_matches_parity_masses(self, triangle, triangle_frame):
        conn = {}
        for (u, v) in triangle.edges:
            val = 1 if (u, v) == (1, 2) else 0
            conn[(u, v)] = val
            conn[(v, u)] = val
        ints = holonomy_class_intensities(triangle, conn, _z2())
        even = homology1_intensity(triangle, triangle_frame, (0,), M=2)
        odd = homology1_intensity(triangle, triangle_frame, (1,), M=2)
        assert ints[(0,)] == pytest.approx(even, abs=1e-12)
        assert ints[(1,)] == pytest.approx(odd, abs=1e-12)

    def test_s3_bowtie(self, bowtie):
        perms, classes, gd = _s3()

        def inv(a):
            return tuple(sorted(range(3), key=lambda i: a[i]))

        conn = {}
        for (u, v) in bowtie.edges:
            if (u, v) == (1, 2):
                val = (1, 0, 2)
            elif (u, v) == (3, 4):
                val = (1, 2, 0)
            else:
                val = (0, 1, 2)
            conn[(u, v)] = val
            conn[(v, u)] = inv(val)
        ints = holonomy_class_intensities(bowtie, conn, gd)
        assert sum(ints.values()) == pytest.approx(total_mass(bowtie), abs=1e-10)
        assert all(v >= -1e-10 for v in ints.values())
        # the identity class dominates
        assert ints[classes[0]] > max(ints[classes[1]], ints[classes[2]])

    def test_scales_with_alpha(self, triangle):
        conn = {}
        for (u, v) in triangle.edges:
            conn[(u, v)] = 0
            conn[(v, u)] = 0
        gd = _z2()
        a1 = holonomy_class_intensities(triangle, conn, gd, alpha=1.0)
        a2 = holonomy_class_intensities(triangle, conn, gd, alpha=2.0)
        for c in a1:
            assert a2[c] == pytest.approx(2 * a1[c], abs=1e-12)

    @staticmethod
    def _trivial_connection(g):
        return {e: 0 for u, v in g.edges for e in ((u, v), (v, u))}

    def test_rejects_missing_oriented_edge(self, triangle):
        conn = self._trivial_connection(triangle)
        del conn[(2, 1)]
        with pytest.raises(ValidationError, match=r"missing connection on edge \(2,1\)"):
            holonomy_class_intensities(triangle, conn, _z2())

    def test_rejects_value_outside_group(self, triangle):
        conn = self._trivial_connection(triangle)
        conn[(0, 1)] = 5
        with pytest.raises(ValidationError, match="not a group element"):
            holonomy_class_intensities(triangle, conn, _z2())

    def test_rejects_reversal_that_is_not_the_inverse(self, triangle):
        # a 3-cycle both ways: the 1-dimensional irreps of S_3 cannot tell,
        # the standard irrep can
        _, _, gd = _s3()
        conn = {e: (0, 1, 2) for u, v in triangle.edges for e in ((u, v), (v, u))}
        conn[(1, 2)] = conn[(2, 1)] = (1, 2, 0)
        with pytest.raises(ValidationError, match="not inverted by reversal"):
            holonomy_class_intensities(triangle, conn, gd)

    def test_s3_values_unchanged(self):
        # 1- and 2-dimensional irreps on random weights; values recorded
        # from the per-irrep evaluation of -log det(I - P (x) rho)
        _, classes, gd = _s3()
        g, _ = _random_weights("bowtie")

        def inv(a):
            return tuple(sorted(range(3), key=a.__getitem__))

        vals = [(1, 0, 2), (0, 1, 2), (1, 2, 0), (2, 1, 0), (0, 1, 2), (2, 0, 1)]
        conn = {}
        for (u, v), a in zip(g.edges, vals):
            conn[(u, v)], conn[(v, u)] = a, inv(a)
        ints = holonomy_class_intensities(g, conn, gd, alpha=1.5)
        want = [1.39317519020929, 0.28024078631288807, 0.012440691522221492]
        for c, w in zip(classes, want):
            assert ints[c] == pytest.approx(w, rel=0, abs=1e-14)

    def test_z7_k4_values_unchanged(self):
        order = 7
        gd = group_data(
            range(order), [(e,) for e in range(order)],
            [{e: np.array([[np.exp(2j * np.pi * k * e / order)]])
              for e in range(order)} for k in range(order)])
        g, _ = _random_weights("k4")
        conn = {}
        for (u, v), k in zip(g.edges, [1, 3, 0, 6, 2, 5]):
            conn[(u, v)], conn[(v, u)] = k, (-k) % order
        ints = holonomy_class_intensities(g, conn, gd)
        want = [0.5720585896444431, 0.07209387821873105, 0.04549643178942372,
                0.05257569419775686, 0.05257569419775676, 0.04549643178942415,
                0.07209387821873146]
        for e, w in enumerate(want):
            assert ints[(e,)] == pytest.approx(w, rel=0, abs=1e-14)


class TestNilpotentRep:
    def test_dimension(self):
        rep = nilpotent_rep(5, 2, {(1, 2): 1})
        assert rep.dim == 5 ** 2

    def test_unitary_generators(self):
        rep = nilpotent_rep(3, 2, {(1, 2): 1})
        for i in (1, 2):
            U = rep.generator(i)
            assert np.allclose(U @ U.conj().T, np.eye(rep.dim), atol=1e-12)
            assert np.allclose(rep.generator(i, -1), U.conj().T, atol=1e-12)

    def test_homomorphism_random_pairs(self):
        rng = np.random.default_rng(2024)
        for p, h12 in ((5, 2), (3, 1), (7, 3)):
            rep = nilpotent_rep(p, 2, {(1, 2): h12})
            for _ in range(100):
                a1 = tuple(rng.integers(0, p, size=2))
                c1 = {(1, 2): int(rng.integers(0, p))}
                a2 = tuple(rng.integers(0, p, size=2))
                c2 = {(1, 2): int(rng.integers(0, p))}
                U1 = rep.matrix(a1, c1)
                U2 = rep.matrix(a2, c2)
                U12 = rep.matrix(*rep.compose((a1, c1), (a2, c2)))
                assert np.allclose(U1 @ U2, U12, atol=1e-10)

    def test_matrix_matches_definition(self):
        # (U psi)(x) = omega^(<c,h> + <a,x>) psi(x - h a), entry by entry
        p, r = 3, 3
        h = {(1, 2): 1, (2, 3): 2}
        rep = nilpotent_rep(p, r, h)
        omega = np.exp(2j * np.pi / p)
        c = {(1, 2): 2, (1, 3): 1}
        ch = 2 * sum(c[pair] * h.get(pair, 0) for pair in c)  # <c,h> = 4
        points = list(itertools.product(range(p), repeat=r))
        for a in ((1, 0, 2), (2, 2, 1)):
            want = np.zeros((rep.dim, rep.dim), dtype=complex)
            shift = [sum(rep.h[i][j] * a[j] for j in range(r)) % p
                     for i in range(r)]
            for row, x in enumerate(points):
                y = tuple((x[i] - shift[i]) % p for i in range(r))
                phase = (ch + sum(ai * xi for ai, xi in zip(a, x))) % p
                want[row, points.index(y)] = omega ** phase
            assert np.array_equal(rep.matrix(a, c), want)

    def test_central_element_is_scalar(self):
        # the pairing runs over the full skew matrix, so a strict-pair
        # increment shows up twice in the exponent
        p = 5
        rep = nilpotent_rep(p, 2, {(1, 2): 1})
        U = rep.matrix((0, 0), {(1, 2): 1})
        omega = np.exp(2j * np.pi * 2 / p)
        assert np.allclose(U, omega * np.eye(rep.dim), atol=1e-12)

    def test_rejects_non_odd_prime(self):
        for p in (2, 4, 9, 15):
            with pytest.raises(ValidationError):
                nilpotent_rep(p, 2, {(1, 2): 1})


def _random_weights(name, seed=11):
    """The triangle, bowtie, K4, Petersen graph, a rank-4 graph on 5
    vertices or a 4-vertex tree with conductances and killing drawn at
    random, so that no eigenvalue coincidence is an accident of symmetric
    weights."""
    from loopsoup import build_graph, spanning_tree_frame
    n, edges = {"triangle": (3, [(0, 1), (1, 2), (0, 2)]),
                "bowtie": (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
                "k4": (4, list(itertools.combinations(range(4), 2))),
                "rank4": (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                              (2, 4), (3, 4)]),
                "petersen": (10, sorted((min(u, v), max(u, v)) for u, v in
                                        [(i, (i + 1) % 5) for i in range(5)]
                                        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                        + [(i, 5 + i) for i in range(5)])),
                "tree": (4, [(0, 1), (1, 2), (1, 3)])}[name]
    rng = np.random.default_rng(seed)
    g = build_graph(n, [(u, v, rng.uniform(0.5, 2.0)) for u, v in edges],
                    list(rng.uniform(0.3, 1.5, n)))
    return g, spanning_tree_frame(g)


def _dense_twist(g, frame, rep, phases):
    """P tensored with the dense representation, its generator j times
    phases[j - 1] (_step_twist)."""
    return _step_twist(g, frame, [rep.generator(i) * phases[i - 1]
                                  for i in range(1, rep.r + 1)])


def _step_twist(g, frame, gens):
    """P tensored with unitaries: the step x -> y carries gens[j - 1] for
    its crossing j, the adjoint when the crossing is backwards, and the
    identity on tree edges."""
    n, d = g.num_vertices, len(gens[0])
    out = np.zeros((n * d, n * d), dtype=complex)
    for x, y in zip(*np.nonzero(g.transition)):
        j = frame.crossing(x, y)
        u = np.eye(d) if j == 0 else gens[j - 1] if j > 0 else gens[-j - 1].conj().T
        out[x * d:(x + 1) * d, y * d:(y + 1) * d] = g.transition[x, y] * u
    return out


def _skew_reps(p, r):
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    for hv in itertools.product(range(p), repeat=len(pairs)):
        yield hv, nilpotent_rep(p, r, dict(zip(pairs, hv)))


class TestSchrodingerBlocks:
    """The H2 laws evaluate each p^r-dimensional Heisenberg twist through
    its irreducible blocks; the dense nilpotent_rep is the reference."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("p", [3, 5])
    def test_darboux_identity_exact(self, r, p):
        upper = np.triu_indices(r, 1)
        for hv in itertools.product(range(p), repeat=len(upper[0])):
            b = np.zeros((r, r), dtype=np.int64)
            b[upper] = hv
            b = (b - b.T) % p
            a, a_inv, k = fourier._darboux(b.tolist(), p)
            a, a_inv = np.array(a), np.array(a_inv)
            darboux = np.zeros((r, r), dtype=np.int64)
            for l in range(k):
                darboux[2 * l, 2 * l + 1], darboux[2 * l + 1, 2 * l] = 1, p - 1
            assert np.array_equal(a @ a_inv % p, np.eye(r))
            assert np.array_equal(a.T @ b @ a % p, darboux)

    @pytest.mark.parametrize("name,p,m", [
        ("bowtie", p, m) for p in (3, 5, 7) for m in (None, 2, 3)
    ] + [("k4", 3, None), ("k4", 3, 2)])
    def test_traces_equal_dense(self, name, p, m):
        g, frame = _random_weights(name)
        r = frame.rank
        points = [np.zeros(r)] if m is None else \
            [np.array(k) / m for k in np.ndindex(*(m,) * r)]
        want = []
        for _, rep in _skew_reps(p, r):
            eye = np.eye(g.num_vertices * rep.dim)
            want.append([-np.linalg.slogdet(
                eye - _dense_twist(g, frame, rep, np.exp(2j * np.pi * theta)))[1]
                / rep.dim for theta in points])
        got = fourier._heisenberg_traces(g, frame, p, m)
        assert got.shape == (p ** (r * (r - 1) // 2), len(points))
        assert np.max(np.abs(got - np.array(want))) <= 1e-13

    def test_slices_equal_one_batch(self, monkeypatch):
        # one h per slice, against all 27 h of K4 at p = 3 in one slice
        g, frame = _random_weights("k4")
        whole = fourier._heisenberg_traces(g, frame, 3, 2)
        monkeypatch.setattr(fourier, "_CHUNK_ENTRIES", 3 * 27)
        assert np.array_equal(fourier._heisenberg_traces(g, frame, 3, 2), whole)

    @pytest.mark.parametrize("name,p", [("bowtie", 3), ("bowtie", 5), ("k4", 3)])
    def test_dense_multiplicities_divisible_by_p_k(self, name, p):
        # a nonzero skew form on at most three generators has rank 2, so
        # the dense twist is p copies of each block
        g, frame = _random_weights(name)
        for hv, rep in _skew_reps(p, frame.rank):
            scale = np.repeat(np.sqrt(g.lam), rep.dim)
            herm = scale[:, None] * _dense_twist(g, frame, rep,
                                                 np.ones(frame.rank)) / scale
            eig = np.linalg.eigvalsh(herm)
            cuts = np.flatnonzero(np.diff(eig) > 1e-9) + 1
            sizes = np.diff(np.concatenate([[0], cuts, [len(eig)]]))
            assert np.all(sizes % (p if any(hv) else 1) == 0), (hv, sizes)

    def test_cached_construction_is_bitwise_uncached(self, bowtie, bowtie_frame,
                                                     monkeypatch):
        def law(p, m):
            return homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, p)

        def uncached(p, m):
            _memo.clear()
            return law(p, m)

        want = [uncached(5, m) for m in range(5)]
        # the warm calls build no block and keep nothing new
        kept = {at: value for at, (value, _) in _memo._STORE.items()}
        built = []
        build = fourier._schrodinger_blocks
        monkeypatch.setattr(fourier, "_schrodinger_blocks",
                            lambda *a: built.append(a) or build(*a))
        assert [law(5, m) for m in range(5)] == want
        assert not built
        assert set(_memo._STORE) == set(kept)
        assert all(_memo._STORE[at][0] is value for at, value in kept.items())
        # rank 2 at p = 5: the five skew h fit one slice
        blocks_at = (fourier._heisenberg_blocks.__wrapped__, 5, 2, 0, 5)
        for _, owners, blocks in kept[blocks_at]:
            assert not owners.flags.writeable and not blocks.flags.writeable
        monkeypatch.setattr(fourier, "_schrodinger_blocks", build)
        # one h per slice, so that p = 3 and p = 5 share slice bounds
        monkeypatch.setattr(fourier, "_CHUNK_ENTRIES", 1)
        uncached(3, 1)
        assert [law(5, m) for m in range(5)] == want

    def test_certificate_rejects_a_wrong_construction(self, monkeypatch):
        p = 5
        b = np.array([[0, 2, 1], [3, 0, 4], [4, 1, 0]])
        a, a_inv, k = fourier._darboux(b.tolist(), p)
        a, a_inv = np.array([a]), np.array([a_inv])
        assert fourier._schrodinger_blocks(b[None], a, a_inv, k, p).shape == \
            (1, p, 3, p, p)
        wrong = a_inv.copy()
        wrong[0, 0, 0] = (wrong[0, 0, 0] + 1) % p
        with pytest.raises(NumericError, match="Darboux"):
            fourier._schrodinger_blocks(b[None], a, wrong, k, p)
        # phases off by 1e-9 radians break U^p = I beyond 1e-12
        roots = fourier._roots
        monkeypatch.setattr(fourier, "_roots", lambda q: roots(q) * np.exp(1e-9j))
        with pytest.raises(NumericError, match="relations"):
            fourier._schrodinger_blocks(b[None], a, a_inv, k, p)


class TestBlockCoefficients:
    """Every torus grid of more than 2d + 1 points per generator is read off
    the (2d+1)^r Laurent coefficients of each block of size d; direct
    factorizations on the grid are the reference."""

    @pytest.mark.parametrize("name,p", [("bowtie", 3), ("bowtie", 5), ("k4", 3)])
    def test_matches_direct_eigensolves(self, name, p):
        g, frame = _random_weights(name)
        r = frame.rank
        u = 2.0 ** -53
        omega = fourier._frame_letters(g, frame)
        for _, _, blocks in fourier._heisenberg_blocks(p, r, 0, p ** (r * (r - 1) // 2)):
            twists = blocks.reshape((-1,) + blocks.shape[2:])[:2]
            d = twists.shape[-1]
            _, shift = fourier._laurent_coefficients(g, omega, twists, "block")
            for m in range(2 * d + 2, 17):
                got = fourier._torus_log_dets(g, omega, twists, m, "block")
                want = fourier._twisted_log_dets(g, omega, twists, m,
                                                 "block").reshape(len(twists), -1)
                # (2d+1)^r u max D / min D, D scaled by the shift, up to the
                # factor of a few that the estimate allows
                stated = (2 * d + 1) ** r * u * np.exp(shift - want.min(axis=1))
                assert np.all(np.abs(got - want).max(axis=1) <= 8 * stated), (d, m)


def _charge_oracle(g, frame, p, n_max):
    """Brute-force mod-p law from the enumeration, folding each class
    word through the mod-p group law: a letter +-i carries (+-e_i, 0)
    and the center accumulates half the commutator defect. Classes whose
    net crossing vector only vanishes mod p (winding p loops) land in
    the bucket their central charge dictates, which is exactly how the
    determinant route counts them."""
    r = frame.rank
    inv2 = (p + 1) // 2
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    em = enumerate_measure(g, frame, n_max)
    out = {}
    for cls, mass in em.items():
        a = [0] * r
        c = {ij: 0 for ij in pairs}
        for l in cls.word:
            i = abs(l)
            step = [0] * r
            step[i - 1] = 1 if l > 0 else p - 1
            for (x, y) in pairs:
                c[(x, y)] = (c[(x, y)] + inv2
                             * (a[x - 1] * step[y - 1] - a[y - 1] * step[x - 1])) % p
            a = [(ax + sx) % p for ax, sx in zip(a, step)]
        if any(a):
            continue
        key = tuple(c[ij] for ij in pairs)
        out[key] = out.get(key, 0.0) + mass
    return out, em.tail


class TestChargeOracle:
    def test_reduces_to_h2_when_unaliased(self, bowtie, bowtie_frame):
        # depth 14 on the bowtie holds no winding-5 loops, so the group
        # fold must agree with the plain second invariant
        oracle, _ = _charge_oracle(bowtie, bowtie_frame, 5, 14)
        em = enumerate_measure(bowtie, bowtie_frame, 14)
        direct = {}
        for cls, mass in em.items():
            h1 = homology1(cls.word, rank=2)
            if h1 != (0, 0):
                continue
            m = homology2(cls.word, rank=2)[(1, 2)] % 5
            direct[(m,)] = direct.get((m,), 0.0) + mass
        for k in set(oracle) | set(direct):
            assert oracle.get(k, 0.0) == pytest.approx(direct.get(k, 0.0),
                                                       abs=1e-15)

    def test_matches_rep_compose(self):
        # the hand-rolled fold is the same group law the package exposes
        rng = np.random.default_rng(7)
        rep = nilpotent_rep(5, 2, {(1, 2): 1})
        word = [int(l) for l in rng.choice([1, -1, 2, -2], size=12)]
        acc = ((0, 0), {(1, 2): 0})
        for l in word:
            a = [0, 0]
            a[abs(l) - 1] = 1 if l > 0 else 4
            acc = rep.compose(acc, (tuple(a), {(1, 2): 0}))
        inv2 = 3
        a = [0, 0]
        c = 0
        for l in word:
            step = [0, 0]
            step[abs(l) - 1] = 1 if l > 0 else 4
            c = (c + inv2 * (a[0] * step[1] - a[1] * step[0])) % 5
            a = [(x + s) % 5 for x, s in zip(a, step)]
        assert tuple(acc[0]) == tuple(a)
        assert acc[1][0][1] % 5 == c


class TestHomology2:
    def test_bowtie_matches_enumeration(self, bowtie, bowtie_frame):
        oracle, tail = _charge_oracle(bowtie, bowtie_frame, 5, 14)
        for m in range(5):
            got = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, 5)
            assert got == pytest.approx(oracle.get((m,), 0.0), abs=tail)

    def test_bowtie_mod7(self, bowtie, bowtie_frame):
        oracle, tail = _charge_oracle(bowtie, bowtie_frame, 7, 14)
        for m in range(7):
            got = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, 7)
            assert got == pytest.approx(oracle.get((m,), 0.0), abs=tail)

    def test_bowtie_mod3_with_aliasing(self, bowtie, bowtie_frame):
        # p = 3 is the interesting prime: classes winding thrice around
        # one handle (9 steps, within depth 14) alias to zero and carry
        # a central charge the plain second invariant never sees
        oracle, tail = _charge_oracle(bowtie, bowtie_frame, 3, 14)
        for m in range(3):
            got = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, 3)
            assert got == pytest.approx(oracle.get((m,), 0.0), abs=tail)

    def test_k4_mod3(self, k4, k4_frame):
        oracle, tail = _charge_oracle(k4, k4_frame, 3, 14)
        pairs = [(1, 2), (1, 3), (2, 3)]
        for key in itertools.product(range(3), repeat=3):
            got = homology2_intensity(k4, k4_frame, dict(zip(pairs, key)), 3)
            assert got == pytest.approx(oracle.get(key, 0.0), abs=tail)

    def test_k4_sum_over_m_is_mod_p_h1_mass(self, k4, k4_frame):
        pairs = [(1, 2), (1, 3), (2, 3)]
        tot = sum(homology2_intensity(k4, k4_frame, dict(zip(pairs, key)), 3)
                  for key in itertools.product(range(3), repeat=3))
        want = homology1_intensity(k4, k4_frame, (0, 0, 0), M=3)
        assert tot == pytest.approx(want, abs=1e-8)

    def test_sum_over_m_is_mod_p_h1_mass(self, bowtie, bowtie_frame):
        tot = sum(homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, 5)
                  for m in range(5))
        want = homology1_intensity(bowtie, bowtie_frame, (0, 0), M=5)
        assert tot == pytest.approx(want, abs=1e-10)

    def test_two_primes_agree(self, bowtie, bowtie_frame):
        for m in (-2, -1, 0, 1, 2):
            a = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m % 5}, 5)
            b = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m % 7}, 7)
            assert a == pytest.approx(b, abs=1e-6)

    def test_nonnegative(self, bowtie, bowtie_frame):
        for m in range(5):
            got = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, 5)
            assert got >= -1e-9

    def test_rejects_bad_prime(self, bowtie, bowtie_frame):
        with pytest.raises(ValidationError):
            homology2_intensity(bowtie, bowtie_frame, {(1, 2): 0}, 4)

    @pytest.mark.parametrize("m", [{(1, 2, 3): 1}, {(2, 1): 1}, {(1, 3): 1}])
    def test_rejects_bad_pair_index(self, bowtie, bowtie_frame, m):
        with pytest.raises(ValidationError, match="pair index"):
            homology2_intensity(bowtie, bowtie_frame, m, 5)


class TestHomology2Field:
    def test_sums_to_one(self, bowtie, bowtie_frame):
        tot = sum(homology2_field_law(bowtie, bowtie_frame, 1.0, {(1, 2): m}, 5)
                  for m in range(5))
        assert tot == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_intensity_is_point_mass_at_zero(self, bowtie,
                                                       bowtie_frame):
        # with no loops at all the field is identically zero
        p0 = homology2_field_law(bowtie, bowtie_frame, 1e-12, {(1, 2): 0}, 5)
        assert p0 == pytest.approx(1.0, abs=1e-9)
        for m in range(1, 5):
            pm = homology2_field_law(bowtie, bowtie_frame, 1e-12,
                                     {(1, 2): m}, 5)
            assert abs(pm) < 1e-9

    def test_monte_carlo_agreement(self, bowtie, bowtie_frame):
        # the field sums the second invariant of the loops with null
        # first invariant; loops that wind contribute nothing
        from loopsoup import LoopSoupSampler
        p = 5
        sampler = LoopSoupSampler(bowtie, n_max=30)
        n = 1500
        hits = {m: 0 for m in range(p)}
        for seed in range(n):
            tot = 0
            for lp in sampler.sample(seed).loops:
                w = loop_to_word(lp, bowtie_frame)
                if homology1(w, rank=2) == (0, 0):
                    tot += homology2(w, rank=2)[(1, 2)]
            hits[tot % p] += 1
        for m in range(p):
            want = homology2_field_law(bowtie, bowtie_frame, 1.0, {(1, 2): m}, p)
            se = math.sqrt(max(want * (1 - want), 1e-12) / n)
            assert abs(hits[m] / n - want) < 5 * se + 0.01


def _h2_rows(frame, p):
    pairs = list(itertools.combinations(range(1, frame.rank + 1), 2))
    return [dict(zip(pairs, m)) for m in itertools.product(range(p), repeat=len(pairs))]


class TestHomology2Table:
    """One call evaluates every row of an H2 table from one batch of
    traces; the one-row laws are its views."""

    @pytest.mark.parametrize("field,M", [(False, None), (True, 2), (True, None)])
    def test_rows_equal_one_row_views(self, k4, k4_frame, monkeypatch, field, M):
        ms = _h2_rows(k4_frame, 3)
        table, _, _ = fourier._homology2_values(k4, k4_frame, ms, 3, 0.8, field, M)
        # the traces do not depend on the row: computed once here, so that
        # 27 single rows at the certified M stay cheap
        traces = {}
        computed = fourier._heisenberg_traces
        monkeypatch.setattr(fourier, "_heisenberg_traces", lambda g, frame, p, m=None: (
            traces[m] if m in traces else traces.setdefault(m, computed(g, frame, p, m))))
        for m, want in zip(ms, table):
            if field:
                got = homology2_field_law(k4, k4_frame, 0.8, m, 3, M=M)
            else:
                got = homology2_intensity(k4, k4_frame, m, 3, alpha=0.8)
            assert got == want
        assert len(traces) == 1

    @pytest.mark.parametrize("field", [False, True])
    def test_table_eigensolves_as_often_as_one_row(self, k4, k4_frame, monkeypatch,
                                                   field):
        solved = []
        cholesky = np.linalg.cholesky

        def counted(a):
            solved.append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        ms = _h2_rows(k4_frame, 3)
        fourier._homology2_values(k4, k4_frame, ms, 3, 1.0, field, 2)
        table = sum(solved)
        solved.clear()
        fourier._homology2_values(k4, k4_frame, ms[:1], 3, 1.0, field, 2)
        assert len(ms) == 27 and table == sum(solved) > 0


class TestHomology2GridSize:
    """The automatic grid of the H2 field law's zero-winding filter: the
    H1 tail bound at reach 0, times alpha, bounds its aliasing."""

    @pytest.mark.parametrize("name,p,large", [("bowtie", 3, 64), ("bowtie", 5, 64),
                                              ("k4", 3, 32)])
    def test_bound_covers_the_aliasing(self, name, p, large):
        g, frame = _random_weights(name)
        alpha = 1.3
        ms = _h2_rows(frame, p)
        got, m, bound = fourier._homology2_values(g, frame, ms, p, alpha, True)
        bounds = alpha * fourier._alias_bounds(g, frame, np.zeros(frame.rank),
                                               np.array([m // 2, m, large]), None)
        # m is the smallest certified power of two, and its bound is the
        # one reported
        assert bounds[1] == bound <= fourier._ALIAS_TOL < bounds[0]
        want = np.array(fourier._homology2_values(g, frame, ms, p, alpha, True, large)[0])
        half = fourier._homology2_values(g, frame, ms, p, alpha, True, m // 2)[0]
        rounding = 1e-14
        assert np.max(np.abs(np.array(got) - want)) <= bounds[1] + bounds[2] + rounding
        assert np.max(np.abs(np.array(half) - want)) <= bounds[0] + bounds[2] + rounding

    def test_budget_counts_the_eigensolved_block_points(self):
        # min(M, 2d+1)^r per Schrodinger block of size d: the certified K4
        # grid and a rank-4 M = 2 stay inside the budget, rank-4 M = 16 not
        assert fourier._block_points(3, 3, 16) == 27 * 27 + 26 * 3 * 7 ** 3 == 27483
        assert fourier._block_points(3, 4, 2) == 46224 <= fourier._GRID_POINTS
        g, frame = _random_weights("rank4")
        from loopsoup import ConfigError, NumericError
        with pytest.raises(NumericError, match="M=16"):
            fourier._homology2_values(g, frame, [{}], 3, 1.0, True)
        with pytest.raises(ConfigError, match="M=16"):
            fourier._homology2_values(g, frame, [{}], 3, 1.0, True, 16)

    @pytest.mark.parametrize("p, ranks", [(3, range(5)), (5, range(5)),
                                          (7, range(4))])
    def test_block_points_match_the_darboux_count(self, p, ranks):
        # the closed form against the rank of every 2h mod p, found by
        # symplectic Gram-Schmidt, each rank 2k giving p^(r-2k) blocks of
        # size p^k
        for r in ranks:
            pairs = list(itertools.combinations(range(r), 2))
            ranks_of = Counter()
            for h in itertools.product(range(p), repeat=len(pairs)):
                b = [[0] * r for _ in range(r)]
                for (i, j), x in zip(pairs, h):
                    b[i][j], b[j][i] = 2 * x % p, -2 * x % p
                ranks_of[fourier._darboux(b, p)[2]] += 1
            for m in (1, 2, 3, 4, 8, 16, 64):
                assert fourier._block_points(p, r, m) == sum(
                    count * p ** (r - 2 * k) * min(m, 2 * p ** k + 1) ** r
                    for k, count in ranks_of.items()), (r, m)

    def test_block_budget_of_the_intensity(self, k4, k4_frame):
        # one point per block: the bowtie at p = 101 is inside the budget,
        # K4 at p = 17 (17^3 blocks at h = 0, 17 for each of the other
        # 17^3 - 1) is not, and is refused before any row is read
        assert fourier._block_points(101, 2, 1) == 101 ** 2 + 100 == 10301
        assert fourier._block_points(17, 3, 1) == 17 ** 3 + 17 * (17 ** 3 - 1)
        fourier._check_blocks(101, 2)
        from loopsoup import ConfigError
        with pytest.raises(ConfigError, match="p=17: 88417 Schrodinger blocks"):
            homology2_intensity(k4, k4_frame, {}, 17)
        # a malformed m is found first, on both paths
        for field in (False, True):
            with pytest.raises(ValidationError, match="3x3"):
                fourier._homology2_values(k4, k4_frame, [[[0]]], 17, 1.0, field)

    def test_explicit_grid_over_the_budget_is_a_config_error(self, k4, k4_frame):
        from loopsoup import ConfigError
        with pytest.raises(ConfigError, match="M=41"):
            homology2_field_law(k4, k4_frame, 1.0, {}, 3, M=41)
        with pytest.raises(ConfigError, match="M=41"):
            homology1_intensity(k4, k4_frame, (0, 0, 0), M=41)


# the four abelian laws, each asked for the entry at index 0 only: h = 0 on
# the triangle's 3-grid, m = 0 mod 5 on the bowtie (field grid of 2 points)
_ABELIAN_LAWS = {
    "h1 intensity": lambda tri, bow: homology1_intensity(*tri, (0,), M=3),
    "h1 field law": lambda tri, bow: homology1_field_law(*tri, 1.0, (0,), M=3),
    "h2 intensity": lambda tri, bow: homology2_intensity(*bow, {(1, 2): 0}, 5),
    "h2 field law": lambda tri, bow: homology2_field_law(*bow, 1.0, {(1, 2): 0}, 5, M=2),
}


class TestValuePolicy:
    """One policy turns every inversion into values: a residue or a value
    below -1e-9 anywhere in the transform raises, probabilities are
    clamped to [0, 1] and intensities are not."""

    @pytest.mark.parametrize("name", list(_ABELIAN_LAWS))
    def test_residue_off_the_requested_entry_raises(self, name, triangle, triangle_frame,
                                                    bowtie, bowtie_frame, monkeypatch):
        law = _ABELIAN_LAWS[name]
        graphs = (triangle, triangle_frame), (bowtie, bowtie_frame)
        law(*graphs)  # fine without the residue
        fftn = np.fft.fftn

        def with_residue(a, *args, **kwargs):
            # 1e-9j on the last entry of the normalized transform, an index
            # the query does not read
            out = fftn(a, *args, **kwargs)
            out.flat[-1] += 1e-9j * out.size
            return out

        monkeypatch.setattr(fourier.np.fft, "fftn", with_residue)
        with pytest.raises(NumericError, match="imaginary residue 1.000e-09"):
            law(*graphs)

    def _z2_class_values(self, triangle, monkeypatch, sign_excess):
        # log dets of the trivial and the sign irrep that put the odd class
        # at (h_trivial - h_sign) / 2 = -sign_excess / 2
        monkeypatch.setattr(fourier, "_connection_log_dets",
                            lambda g, up, down: np.array([1.0, 1.0 + sign_excess]))
        conn = {e: 0 for u, v in triangle.edges for e in ((u, v), (v, u))}
        return holonomy_class_intensities(triangle, conn, _z2())

    def test_negative_class_intensity_raises(self, triangle, monkeypatch):
        with pytest.raises(NumericError, match="class intensity -1.000e-08 is negative"):
            self._z2_class_values(triangle, monkeypatch, 2e-8)

    def test_class_intensity_is_not_clamped(self, triangle, monkeypatch):
        ints = self._z2_class_values(triangle, monkeypatch, 1e-9)
        assert ints[(1,)] == pytest.approx(-5e-10, rel=1e-6)
        assert ints[(0,)] == pytest.approx(1.0 + 5e-10, rel=1e-15)


def _eigenvalue_log_det(g, twisted):
    """The eigenvalue reference for log det(I - twisted P): sum log(1 -
    eigvalsh(S)), S the twisted P symmetrized by sqrt(lam) on every block."""
    scale = np.repeat(np.sqrt(g.lam), len(twisted) // g.num_vertices)
    return np.sum(np.log(1.0 - np.linalg.eigvalsh(scale[:, None] * twisted / scale)))


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestFactorization:
    """Every twisted log det is 2 sum log L_ii of one Cholesky factor of
    I - S: the eigenvalue route is its reference, the contraction bound
    lambda_min(I - S) >= 1 - rho(P) is why the factor exists, and no route
    eigensolves."""

    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4"])
    def test_h1_3_grid_matches_eigenvalues(self, name):
        g, frame = _random_weights(name)
        want = [_eigenvalue_log_det(g, twisted_matrix(g, frame, np.array(k) / 3))
                for k in np.ndindex((3,) * frame.rank)]
        got = _assembled_grid(g, frame, 3).ravel()
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_holonomy_twist_matches_eigenvalues(self, bowtie):
        gd, conn = _s3_handles(bowtie)
        twisted = np.zeros((10, 10), dtype=complex)
        for (x, y), a in conn.items():
            twisted[2 * x:2 * x + 2, 2 * y:2 * y + 2] = \
                bowtie.transition[x, y] * gd.irreps[2][a]
        got = -2 * connection_log_det(bowtie, {e: gd.irreps[2][a] for e, a in conn.items()})
        assert got == pytest.approx(_eigenvalue_log_det(bowtie, twisted), abs=1e-12)

    @pytest.mark.parametrize("p", [3, 5])
    def test_heisenberg_blocks_match_eigenvalues(self, p):
        g, frame = _random_weights("bowtie")
        for _, _, blocks in fourier._heisenberg_blocks(p, 2, 0, p):
            twists = blocks.reshape((-1,) + blocks.shape[2:])
            got = fourier._twisted_log_dets(g, fourier._frame_letters(g, frame), twists,
                                            None, "block")
            want = [_eigenvalue_log_det(g, _step_twist(g, frame, list(u))) for u in twists]
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_contraction_bound(self, seed):
        # a random connected graph, killed at one vertex at least, twisted
        # by random unitaries of size 1-3 on its crossings
        from loopsoup import build_graph, spanning_tree_frame
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        tree = [(int(rng.integers(v)), v) for v in range(1, n)]
        extra = [e for e in itertools.combinations(range(n), 2) if e not in tree]
        pick = rng.choice(len(extra), size=int(rng.integers(1, len(extra) + 1)),
                          replace=False)
        kappa = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
        kappa[rng.integers(n)] = rng.uniform(0.01, 1.0)
        g = build_graph(n, [(u, v, rng.uniform(0.2, 3.0))
                            for u, v in tree + [extra[i] for i in pick]], list(kappa))
        frame = spanning_tree_frame(g)
        d = int(rng.integers(1, 4))
        gens = [_random_unitary(rng, d) for _ in range(frame.rank)]
        twisted = _step_twist(g, frame, gens)
        scale = np.repeat(np.sqrt(g.lam), d)
        a = np.eye(n * d) - scale[:, None] * twisted / scale
        assert np.linalg.eigvalsh(a).min() >= 1.0 - spectral_radius(g) - 1e-12
        got = fourier._twisted_log_dets(g, fourier._frame_letters(g, frame),
                                        np.array(gens)[None], None, "twist")
        assert got[0] == pytest.approx(_eigenvalue_log_det(g, twisted), abs=1e-12)

    def test_no_route_eigensolves(self, bowtie, bowtie_frame, monkeypatch):
        calls = []

        def counted(name):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a: calls.append(name) or f(a))

        counted("eigvalsh")
        counted("cholesky")
        gd, conn = _s3_handles(bowtie)
        fourier._laurent.cache_clear()
        homology1_grid(bowtie, bowtie_frame, 8)
        holonomy_class_intensities(bowtie, conn, gd)
        homology2_field_law(bowtie, bowtie_frame, 1.0, {(1, 2): 0}, 3)
        fourier._laurent.cache_clear()
        assert "eigvalsh" not in calls and "cholesky" in calls


def _per_edge_log_dets(g, letter, unitaries, m):
    """The per-edge assembly that the twist plan replaced, kept as its
    reference: every edge's blocks written in Python, the step u -> v
    carrying the unitary of its letter(u, v) (_twisted_log_dets)."""
    twists, rank, dim, _ = unitaries.shape
    size = g.num_vertices * dim
    points = 1 if m is None else m ** rank
    a = np.zeros((twists * points, size, size), dtype=complex)
    a[:, range(size), range(size)] = 1.0
    twist, point = np.divmod(np.arange(twists * points), points)
    for (u, v), c in g.conductance.items():
        w = -c / np.sqrt(g.lam[u] * g.lam[v])
        bu, bv = slice(u * dim, (u + 1) * dim), slice(v * dim, (v + 1) * dim)
        j = letter(u, v)
        if j == 0:
            a[:, bu, bv] = a[:, bv, bu] = w * np.eye(dim, dtype=complex)
            continue
        fwd = unitaries[twist, abs(j) - 1]
        if m is not None:
            k = point // m ** (rank - abs(j)) % m
            fwd = fwd * np.exp(2j * np.pi * (k / m))[:, None, None]
        bwd = fwd.conj().swapaxes(1, 2)
        if j < 0:
            fwd, bwd = bwd, fwd
        a[:, bu, bv] = w * fwd
        a[:, bv, bu] = w * bwd
    pivots = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2).real
    return 2.0 * np.sum(np.log(pivots), axis=1)


class TestTwistPlan:
    """_twisted_log_dets writes I - S through a memoized plan of flat
    indices per (topology, omega, d, rank, m): it equals the per-edge
    assembly it replaced, and one plan serves every weighting."""

    @staticmethod
    def _agree(g, letter, omega, unitaries, m):
        got = fourier._twisted_log_dets(g, omega, unitaries, m, "twist")
        want = _per_edge_log_dets(g, letter, unitaries, m)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-15

    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4", "petersen"])
    def test_h1_3_grid(self, name):
        g, frame = _random_weights(name)
        self._agree(g, frame.crossing, fourier._frame_letters(g, frame),
                    np.ones((1, frame.rank, 1, 1)), 3)

    def test_s3_holonomy_twist(self):
        g, _ = _random_weights("bowtie")
        gd, conn = _s3_handles(g)
        down = np.array([[gd.irreps[2][conn[(v, u)]] for u, v in g.edges]])
        index = {e: i for i, e in enumerate(g.edges, start=1)}
        self._agree(g, lambda x, y: index[(y, x)] if x > y else -index[(x, y)],
                    tuple(-i for i in index.values()), down, None)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("m", [None, 2])
    def test_heisenberg_blocks(self, p, m):
        g, frame = _random_weights("bowtie")
        for _, _, blocks in fourier._heisenberg_blocks(p, 2, 0, p):
            self._agree(g, frame.crossing, fourier._frame_letters(g, frame),
                        blocks.reshape((-1,) + blocks.shape[2:]), m)

    def test_rank_0_tree(self):
        g, frame = _random_weights("tree")
        omega = fourier._frame_letters(g, frame)
        assert omega == (0, 0, 0)
        for m in (None, 3):
            self._agree(g, frame.crossing, omega, np.ones((1, 0, 1, 1)), m)

    def test_killed_vertex_without_edges(self):
        # the index arrays of an empty edge list are still integer arrays
        from loopsoup import build_graph
        g = build_graph(1, [], 0.5)
        self._agree(g, lambda x, y: 0, (), np.ones((2, 0, 3, 3)), None)
        assert fourier._twisted_log_dets(g, (), np.ones((1, 0, 1, 1)), 4,
                                         "twist") == pytest.approx([0.0])

    def test_one_plan_per_topology_and_frame(self, monkeypatch):
        from loopsoup import spanning_tree_frame
        _memo.clear()
        built = []
        build = fourier._twist_plan.__wrapped__
        monkeypatch.setattr(fourier, "_twist_plan", _memo.memo(
            lambda *key: built.append(key) or build(*key)))
        values = set()
        for seed in range(20):
            g, frame = _random_weights("bowtie", seed)
            values.add(homology1_grid(g, frame, 3).tobytes())
        assert len(values) == 20 and len(built) == 1
        # another tree: the same topology with other letters
        other = spanning_tree_frame(g, [(0, 1), (1, 2), (0, 3), (3, 4)])
        assert fourier._frame_letters(g, other) != fourier._frame_letters(g, frame)
        homology1_grid(g, other, 3)
        assert len(built) == 2
        plan = _memo._STORE[(fourier._twist_plan.__wrapped__, *built[1])][0]
        for a in vars(plan).values():
            assert not a.flags.writeable and a.dtype == (
                complex if a is plan.phase else np.intp)


class TestMassless:
    """On a killing-free graph the untwisted I - P is singular: every route
    raises the factorization's one NumericError."""

    @pytest.mark.parametrize("route", ["holonomy", "h2", "h2 field"])
    def test_route_raises(self, route):
        from loopsoup import build_graph, spanning_tree_frame
        g = build_graph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                            (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)], 0.0)
        frame = spanning_tree_frame(g)
        gd, conn = _s3_handles(g)
        with pytest.raises(NumericError, match="massless/recurrent twist"):
            if route == "holonomy":
                holonomy_class_intensities(g, conn, gd)
            elif route == "h2":
                homology2_intensity(g, frame, {(1, 2): 0}, 3)
            else:
                homology2_field_law(g, frame, 1.0, {(1, 2): 0}, 3)
