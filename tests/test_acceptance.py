"""End-to-end acceptance gate.

Each test below covers one shipping criterion and prints a single
PASS/FAIL line on the real stdout (bypassing capture) so the run log
always shows the verdict table. Tolerances are pinned; seeds are fixed.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from loopsoup import (
    LoopSoupSampler,
    canonical_class,
    class_intensity,
    contractible_intensity,
    currents,
    degree_and_lead,
    enumerate_geodesic_classes,
    enumerate_measure,
    geodesic_representative,
    group_commutator,
    group_data,
    h3_from_lie,
    holonomy_class_intensities,
    homology1,
    homology1_field_law,
    homology1_grid,
    homology1_intensity,
    homology2,
    homology2_intensity,
    homology3,
    ihara_check,
    inverse_word,
    is_lie_component,
    lie_polynomial_via_currents,
    log_signature,
    loop_to_word,
    lyndon_coordinates,
    lyndon_words,
    occupation,
    reduce_word,
    shuffle_check,
    signature,
    solve_rho,
    spanning_tree_frame,
    total_mass,
    truncated_mass,
    twisted_log_det,
    witt_dimension,
)
from loopsoup import fourier

SEED = 20240815

_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_around_capture(capfd):
    # pytest captures at the fd level, so even sys.__stdout__ is mute;
    # stash the fixture so _verdict can lift the capture for one line
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(num, label, failures, t0):
    ok = not failures
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
            f"{label} ({time.time() - t0:.1f}s)")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: " + "; ".join(str(f) for f in failures[:5])


def _random_reduced(rng, rank, lo, hi):
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    while True:
        w = reduce_word(rng.choices(letters, k=rng.randrange(lo, hi + 1)))
        if w:
            return w


def test_criterion_01_witt_dimensions():
    t0 = time.time()
    failures = []
    for r in range(1, 7):
        want = {1: r, 2: r * (r - 1) // 2, 3: (r ** 3 - r) // 3}
        ws = lyndon_words(r, 3)
        for n in (1, 2, 3):
            if witt_dimension(r, n) != want[n]:
                failures.append(f"r={r} n={n}: witt {witt_dimension(r, n)} != {want[n]}")
            if sum(1 for w in ws if len(w) == n) != want[n]:
                failures.append(f"r={r} n={n}: basis size off")
    if time.time() - t0 > 1.0:
        failures.append("over 1s budget")
    _verdict(1, "free Lie algebra dimensions, ranks 1..6", failures, t0)


def test_criterion_02_signature_algebra():
    t0 = time.time()
    failures = []
    rng = random.Random(SEED)
    for trial in range(500):
        rank = rng.randrange(1, 5)
        w = _random_reduced(rng, rank, 1, 12)
        # concatenation of paths multiplies signatures
        k = rng.randrange(len(w) + 1)
        if signature(w[:k], 5) * signature(w[k:], 5) != signature(w, 5):
            failures.append(f"trial {trial}: concatenation identity broke")
        s = signature(w, 5)
        # products of coefficients shuffle
        u = tuple(rng.randint(1, rank) for _ in range(rng.randrange(1, 3)))
        v = tuple(rng.randint(1, rank) for _ in range(rng.randrange(1, 3)))
        if not shuffle_check(s, u, v):
            failures.append(f"trial {trial}: shuffle identity broke")
        # the log lands in the free Lie algebra, degree by degree
        ls = log_signature(w, 5)
        for n in range(1, 6):
            if not is_lie_component(ls.component(n), n):
                failures.append(f"trial {trial}: log degree {n} not Lie")
        # inverting the word negates the leading term
        d, lead = degree_and_lead(w)
        di, leadi = degree_and_lead(inverse_word(w))
        if di != d or leadi != -lead:
            failures.append(f"trial {trial}: inverse word lead mismatch")
        if failures:
            break
    if time.time() - t0 > 30.0:
        failures.append("over 30s budget")
    _verdict(2, "signature algebra on 500 random words", failures, t0)


def _check_current_formulas(x, failures, tag):
    """All exact: the crossing-current route vs the tensor route."""
    d, lead = degree_and_lead(x)
    h1 = homology1(x, rank=2)
    comp1 = log_signature(x, 1).component(1)
    want1 = tuple(int(comp1.get((i,), Fraction(0))) for i in (1, 2))
    if h1 != want1:
        failures.append(f"{tag}: first invariant {h1} != {want1}")
        return d
    if h1 == (0, 0):
        h2 = homology2(x, rank=2)
        coords2 = lyndon_coordinates(log_signature(x, 2).component(2), 2, 2)
        if coords2.get((1, 2), Fraction(0)) != h2[(1, 2)]:
            failures.append(f"{tag}: second invariant mismatch")
            return d
        if all(v == 0 for v in h2.values()):
            want3 = h3_from_lie(log_signature(x, 3).component(3), 2)
            got3 = homology3(x, rank=2)
            if got3 != {k: int(c) for k, c in want3.items()}:
                failures.append(f"{tag}: third invariant mismatch")
                return d
    if d <= 4 and lie_polynomial_via_currents(x, d, rank=2) != lead:
        failures.append(f"{tag}: leading term via currents mismatch at degree {d}")
    return d


def test_criterion_03_currents_vs_log_signature():
    t0 = time.time()
    failures = []
    # exhaustive sweep: every cyclically reduced word of length <= 6
    letters = [1, -1, 2, -2]
    words = []

    def grow(w, k):
        if w and w[0] != -w[-1]:
            words.append(tuple(w))
        if k == 0:
            return
        for l in letters:
            if w and l == -w[-1]:
                continue
            w.append(l)
            grow(w, k - 1)
            w.pop()

    grow([], 6)
    for x in words:
        _check_current_formulas(x, failures, f"word {x}")
        if failures:
            break

    # 200 random longer words; commutator builds keep the deeper
    # degrees from going vacuous (plain random words almost always
    # stop at degree 1, and rank-2 words below length 8 never reach 3)
    rng = random.Random(SEED + 3)
    depth_hits = {2: 0, 3: 0, 4: 0}
    pool = []
    for _ in range(110):
        pool.append(_random_reduced(rng, 2, 7, 14))
    for _ in range(50):
        pool.append(group_commutator(_random_reduced(rng, 2, 1, 4),
                                     _random_reduced(rng, 2, 1, 4)))
    for _ in range(25):
        w = group_commutator(group_commutator((1,), (2,)),
                             (rng.choice([1, 2]),))
        pool.append(reduce_word(w + group_commutator(
            _random_reduced(rng, 2, 1, 3), _random_reduced(rng, 2, 1, 3))) or w)
    for _ in range(15):
        w = group_commutator((1,), (2,))
        for _ in range(2):
            w = group_commutator(w, (rng.choice([1, 2]),))
        pool.append(w)
    assert len(pool) == 200
    for i, x in enumerate(pool):
        x = reduce_word(x)
        if not x:
            continue
        d = _check_current_formulas(x, failures, f"random {i}")
        if failures:
            break
        if d in depth_hits:
            depth_hits[d] += 1
    for d, n in depth_hits.items():
        if n < 3:
            failures.append(f"degree-{d} cases almost vacuous ({n} hits)")
    if time.time() - t0 > 120.0:
        failures.append("over 2min budget")
    _verdict(3, "current formulas vs leading log-signature term", failures, t0)


def test_criterion_04_homotopy_intensities(triangle, k4, bowtie, k4_free):
    t0 = time.time()
    failures = []
    for name, g in (("triangle", triangle), ("k4", k4), ("bowtie", bowtie)):
        fr = spanning_tree_frame(g)
        em = enumerate_measure(g, fr, 16)
        rho = solve_rho(g, 1.0)
        for cls, mass in em.items():
            if cls.is_trivial or cls.length > 5:
                continue
            got = class_intensity(g, fr, cls, rho=rho)
            if abs(got - mass) > em.tail:
                failures.append(f"{name} {cls}: |{got} - {mass}| > {em.tail}")
    # killing-free K4: every geodesic step contributes exactly 1/(d-1)
    fr0 = spanning_tree_frame(k4_free)
    rho0 = solve_rho(k4_free, 1.0)
    for cls in enumerate_geodesic_classes(fr0.rank, 5):
        rep = geodesic_representative(cls, fr0)
        want = 0.5 ** len(rep) / cls.multiplicity
        got = class_intensity(k4_free, fr0, cls, rho=rho0)
        if abs(got - want) > 1e-9:
            failures.append(f"free k4 {cls}: {got} vs {want}")
    if time.time() - t0 > 120.0:
        failures.append("over 2min budget")
    _verdict(4, "per-class intensities vs enumeration and the exact law",
             failures, t0)


def test_criterion_05_contractible_mass(triangle, triangle_frame, k4_free):
    t0 = time.time()
    failures = []
    val, err = contractible_intensity(k4_free)
    want = 1.5 * math.log(3.0) - 2.0 * math.log(2.0)
    if abs(val / 4.0 - want) > 1e-6:
        failures.append(f"free k4 per vertex {val / 4.0} vs {want}")
    em = enumerate_measure(triangle, triangle_frame, 16)
    tri_val, _ = contractible_intensity(triangle)
    tri_want = em.get(canonical_class(()))
    if abs(tri_val - tri_want) > em.tail:
        failures.append(f"triangle {tri_val} vs enumeration {tri_want}")
    _verdict(5, "contractible mass by the tree formula", failures, t0)


def test_criterion_06_ihara_identity(k4):
    t0 = time.time()
    failures = []
    series = ihara_check(k4, 8)
    if series.walk_side != series.det_side:
        failures.append("series disagree")
    if series.walk_side[3] != 8:
        failures.append(f"degree-3 coefficient {series.walk_side[3]} != 8")
    if any(series.walk_side[n] != 0 for n in (0, 1, 2)):
        failures.append("low-degree coefficients not zero")
    if time.time() - t0 > 60.0:
        failures.append("over 1min budget")
    _verdict(6, "cycle series equals the determinant series on K4", failures, t0)


def test_criterion_07_first_homology_law(triangle, triangle_frame):
    t0 = time.time()
    failures = []
    M = 256
    em = enumerate_measure(triangle, triangle_frame, 18)
    wm = em.winding(1)  # includes the contractible mass at h = 0
    for h in range(-3, 4):
        got = homology1_intensity(triangle, triangle_frame, (h,), M=M)
        if abs(got - wm.get((h,), 0.0)) > em.tail:
            failures.append(f"h={h}: {got} vs {wm.get((h,), 0.0)}")
    grid = homology1_grid(triangle, triangle_frame, M)
    all_h = -np.fft.fft(grid).real / M
    if abs(all_h.sum() - total_mass(triangle)) > 1e-8:
        failures.append(f"grid sum {all_h.sum()} vs mass {total_mass(triangle)}")
    for h in (1, 2, 3):
        a = homology1_intensity(triangle, triangle_frame, (h,), M=M)
        b = homology1_intensity(triangle, triangle_frame, (-h,), M=M)
        if abs(a - b) > 1e-10:
            failures.append(f"h={h}: symmetry broken")
    if time.time() - t0 > 60.0:
        failures.append("over 1min budget")
    _verdict(7, "winding intensities on the triangle", failures, t0)


def test_criterion_08_second_homology_law(bowtie, bowtie_frame):
    t0 = time.time()
    failures = []
    em = enumerate_measure(bowtie, bowtie_frame, 14)
    oracle = {m: 0.0 for m in range(5)}
    for cls, mass in em.items():
        word = cls.word
        h1 = homology1(word, rank=2)
        if h1 != (0, 0):
            continue  # depth 14 holds no loops aliasing to 0 mod 5 or 7
        oracle[homology2(word, rank=2)[(1, 2)] % 5] += mass
    got5 = {m: homology2_intensity(bowtie, bowtie_frame, {(1, 2): m}, 5)
            for m in range(5)}
    for m in range(5):
        if abs(got5[m] - oracle[m]) > em.tail:
            failures.append(f"m={m}: {got5[m]} vs enumeration {oracle[m]}")
    for m in (-2, -1, 0, 1, 2):
        a = got5[m % 5]
        b = homology2_intensity(bowtie, bowtie_frame, {(1, 2): m % 7}, 7)
        if abs(a - b) > em.tail:
            failures.append(f"m={m}: p=5 and p=7 disagree")
    tot = sum(got5.values())
    want = homology1_intensity(bowtie, bowtie_frame, (0, 0), M=5)
    if abs(tot - want) > 1e-8:
        failures.append(f"sum over m {tot} vs null-class mass {want}")
    if time.time() - t0 > 300.0:
        failures.append("over 5min budget")
    _verdict(8, "mod-p second homology law on the bowtie", failures, t0)


def test_criterion_09_sampler_calibration(triangle, triangle_frame):
    t0 = time.time()
    failures = []
    n_soups = 10_000
    n_max = 42
    sampler = LoopSoupSampler(triangle, triangle_frame, alpha=1.0, n_max=n_max)

    counts = []
    class_counts = {}
    winding_hits = {}
    for k in range(n_soups):
        soup = sampler.sample(SEED + k)
        counts.append(len(soup.loops))
        for lp in soup.loops:
            cls = canonical_class(loop_to_word(lp, triangle_frame))
            class_counts[cls] = class_counts.get(cls, 0) + 1
        w = (sum(homology1(lp, triangle_frame)[0] for lp in soup.loops),)
        winding_hits[w] = winding_hits.get(w, 0) + 1
        occ = occupation(soup)  # raises if any loop fails to close
        for x in range(3):
            net = sum(n for (u, v, n, _) in occ.rows() if u == x) \
                - sum(n for (u, v, n, _) in occ.rows() if v == x)
            if net != 0:
                failures.append(f"soup {k}: net current at vertex {x}")

    mass = truncated_mass(triangle, n_max)
    se = math.sqrt(mass / n_soups)
    if abs(np.mean(counts) - mass) > 4 * se:
        failures.append(
            f"count mean {np.mean(counts):.4f} vs {mass:.4f} (4se={4*se:.4f})")

    # chi-square across the classes of length <= 5 plus two catch-alls
    rho = solve_rho(triangle, 1.0)
    short = enumerate_geodesic_classes(1, 5)
    expected = [n_soups * class_intensity(triangle, triangle_frame, c, rho=rho)
                for c in short]
    observed = [class_counts.get(c, 0) for c in short]
    contract, _ = contractible_intensity(triangle)
    expected.append(n_soups * contract)
    observed.append(class_counts.get(canonical_class(()), 0))
    rest_exp = n_soups * mass - sum(expected)
    rest_obs = sum(class_counts.values()) - sum(observed)
    expected.append(rest_exp)
    observed.append(rest_obs)
    scale = sum(observed) / sum(expected)
    _, pval = stats.chisquare(observed, [e * scale for e in expected])
    if pval <= 0.001:
        failures.append(f"class counts chi-square p={pval:.2e}")

    for h in ((0,), (1,), (-1,), (2,)):
        p = homology1_field_law(triangle, triangle_frame, 1.0, h, M=64)
        freq = winding_hits.get(h, 0) / n_soups
        se_h = math.sqrt(p * (1.0 - p) / n_soups)
        if abs(freq - p) > 4 * se_h:
            failures.append(f"winding {h}: freq {freq:.4f} vs law {p:.4f}")

    if time.time() - t0 > 300.0:
        failures.append("over 5min budget")
    _verdict(9, "Poisson sampler calibration, 10^4 soups", failures, t0)


def test_criterion_10_holonomy(triangle, triangle_frame):
    t0 = time.time()
    failures = []
    mass = total_mass(triangle)

    # one connection of 1x1 unitaries, the same on both steps of an edge
    ident = np.ones((1, len(triangle.edges), 1, 1), dtype=complex)
    got = fourier._connection_log_dets(triangle, ident, ident)[0]
    if abs(got - mass) > 1e-12:
        failures.append(f"trivial connection: {got} vs {mass}")

    sgn = ident.copy()
    sgn[0, triangle.edges.index((1, 2))] = -1
    got = fourier._connection_log_dets(triangle, sgn, sgn)[0]
    want = -twisted_log_det(triangle, triangle_frame, [0.5])
    if abs(got - want) > 1e-12:
        failures.append(f"sign connection: {got} vs half twist {want}")

    z2 = group_data([0, 1], [(0,), (1,)],
                    [{0: np.eye(1), 1: np.eye(1)},
                     {0: np.eye(1), 1: -np.eye(1)}])
    conn = {}
    for (u, v) in triangle.edges:
        val = 1 if (u, v) == (1, 2) else 0
        conn[(u, v)] = val
        conn[(v, u)] = val
    ints = holonomy_class_intensities(triangle, conn, z2)
    if abs(sum(ints.values()) - mass) > 1e-10:
        failures.append(f"class intensities sum {sum(ints.values())} vs {mass}")
    if any(v < -1e-10 for v in ints.values()):
        failures.append("negative class intensity")
    _verdict(10, "holonomy determinants and parity classes", failures, t0)
