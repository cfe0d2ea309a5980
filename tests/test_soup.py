"""Loop measure, truncated enumeration, and the Poisson sampler."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from loopsoup import (
    BasedLoop,
    ConfigError,
    MeasureConfig,
    LoopSoupSampler,
    NumericError,
    ValidationError,
    build_graph,
    canonical_class,
    contractible_intensity,
    dumps_soup,
    enumerate_measure,
    loop_to_word,
    multiplicity,
    occupation,
    parse_soup,
    sample_soup,
    solve_rho,
    spanning_tree_frame,
    spectral_radius,
    tail_bound,
    total_mass,
    truncated_mass,
    winding_masses,
)
from loopsoup import _memo, soup
from loopsoup.spectra import _class_intensities

from conftest import UNKILLED, dense_transition


class TestMeasure:
    def test_total_mass_triangle(self, triangle):
        # det(I - P) = 16/27 for the unit triangle with unit killing
        assert total_mass(triangle) == pytest.approx(math.log(27.0 / 16.0), abs=1e-14)

    def test_total_mass_infinite_without_killing(self, k4_free):
        with pytest.raises(NumericError):
            total_mass(k4_free)

    def test_spectral_radius(self, triangle):
        assert spectral_radius(triangle) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["triangle", "bowtie", "k4", "petersen"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_spectral_radius_matches_general_eigensolve(self, request, name, seed):
        # the symmetric solve and a general one on P itself
        g = _reweighted(request.getfixturevalue(name), seed)
        want = np.max(np.abs(np.linalg.eigvals(dense_transition(g))))
        assert spectral_radius(g) == pytest.approx(want, rel=1e-14)

    def test_tail_bound_decreases(self, triangle):
        ts = [tail_bound(triangle, n) for n in (8, 12, 16, 20)]
        assert all(a > b > 0 for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("name", list(UNKILLED))
    def test_tail_bound_refuses_a_graph_without_killing(self, name):
        # rounding leaves the triangle's spectral radius at 1 - 2^-52, whose
        # "tail" was finite (2.25e15 at n_max = 5); K4's and the 4-cycle's
        # come out as 1.0
        n, edges = UNKILLED[name]
        g = build_graph(n, [(u, v, 1.0) for u, v in edges])
        with pytest.raises(NumericError, match="massless/recurrent chain"):
            tail_bound(g, 5)

    def test_truncated_mass_converges(self, triangle):
        full = total_mass(triangle)
        for n in (10, 20, 30):
            assert abs(truncated_mass(triangle, n) - full) <= tail_bound(triangle, n)

    def test_graph_keeps_no_dense_matrix(self):
        # P lives on the oriented edges: after every exact route and every
        # dense routine has run on the 6 x 6 torus, neither the graph nor
        # its edge table holds an array of n^2 entries
        g = _torus(6, 0.5)
        frame = spanning_tree_frame(g)
        rho = solve_rho(g, 1.0)
        contractible_intensity(g)
        _class_intensities(g, frame, 2, rho)
        enumerate_measure(g, frame, 4)
        total_mass(g)
        spectral_radius(g)
        truncated_mass(g, 3)
        LoopSoupSampler(g, n_max=6).sample(0)
        kept = [a for obj in (g, g._oriented) for a in vars(obj).values()
                if isinstance(a, np.ndarray)]
        assert any(a is g._p for a in kept)
        assert max(a.size for a in kept) < g.num_vertices ** 2


class TestEnumeration:
    def test_masses_sum_to_truncated_mass(self, triangle, triangle_frame):
        em = enumerate_measure(triangle, triangle_frame, 14)
        assert sum(em.masses.values()) == pytest.approx(
            truncated_mass(triangle, 14), abs=1e-13)

    def test_bowtie_masses_sum(self, bowtie, bowtie_frame):
        em = enumerate_measure(bowtie, bowtie_frame, 10)
        assert sum(em.masses.values()) == pytest.approx(
            truncated_mass(bowtie, 10), abs=1e-13)

    def test_monotone_in_depth(self, triangle, triangle_frame):
        e1 = enumerate_measure(triangle, triangle_frame, 10)
        e2 = enumerate_measure(triangle, triangle_frame, 14)
        for cls, m in e1.items():
            assert e2.get(cls) >= m - 1e-15

    def test_class_masses_within_tail_of_total(self, triangle, triangle_frame):
        em = enumerate_measure(triangle, triangle_frame, 16)
        assert total_mass(triangle) - sum(em.masses.values()) <= em.tail

    def test_trivial_class_present(self, triangle, triangle_frame):
        em = enumerate_measure(triangle, triangle_frame, 8)
        assert em.get(canonical_class(())) > 0.3

    def test_winding_masses(self, triangle, triangle_frame):
        em = enumerate_measure(triangle, triangle_frame, 12)
        wm = em.winding(triangle_frame.rank)
        assert wm == winding_masses(em.masses, triangle_frame.rank)
        # rank 1: winding h only from the class (sign h)^|h|
        assert wm[(1,)] == pytest.approx(em.get(canonical_class((1,))), abs=1e-15)
        assert sum(wm.values()) == pytest.approx(sum(em.masses.values()), abs=1e-13)

    def test_symmetric_under_inversion(self, triangle, triangle_frame):
        # reversing every loop is measure preserving
        em = enumerate_measure(triangle, triangle_frame, 12)
        assert em.get(canonical_class((1,))) == pytest.approx(
            em.get(canonical_class((-1,))), abs=1e-15)


def _dict_enumeration(g, frame, n_max):
    """The enumeration DP as a dict per base keyed by (vertex, reduced
    word), pruned by breadth-first hop distances from a Python queue: the
    reference whose every float addition enumerate_measure repeats in
    order."""
    n = g.num_vertices
    dist = np.full((n, n), n + 1, dtype=int)
    for s in range(n):
        dist[s, s] = 0
        queue = [s]
        while queue:
            nxt = []
            for v in queue:
                for u in g.neighbors[v]:
                    if dist[s, u] > dist[s, v] + 1:
                        dist[s, u] = dist[s, v] + 1
                        nxt.append(u)
            queue = nxt
    p = dense_transition(g)
    out = {}
    for base in range(n):
        states = {(base, ()): 1.0}
        for step in range(1, n_max + 1):
            nxt = {}
            for (v, word), wt in states.items():
                for u in g.neighbors[v]:
                    if dist[u, base] > n_max - step:
                        continue
                    letter = frame.crossing(v, u)
                    if letter and word and word[-1] == -letter:
                        nw = word[:-1]
                    elif letter:
                        nw = word + (letter,)
                    else:
                        nw = word
                    nxt[(u, nw)] = nxt.get((u, nw), 0.0) + wt * p[v, u]
            states = nxt
            for (v, word), wt in states.items():
                if v == base:
                    cls = canonical_class(word)
                    out[cls] = out.get(cls, 0.0) + wt / step
    return out


def _reweighted(g, seed):
    rng = np.random.default_rng(seed)
    return build_graph(g.num_vertices,
                       [(u, v, c) for (u, v), c in
                        zip(g.edges, rng.uniform(0.5, 2.0, len(g.edges)))],
                       rng.uniform(0.2, 1.5, g.num_vertices).tolist())


ENUMERATION_CASES = [("triangle", 3), ("triangle", 17), ("bowtie", 5),
                     ("bowtie", 12), ("k4", 4), ("k4", 8), ("petersen", 6),
                     ("petersen", 9), ("torus10", 3), ("torus10", 5)]


class TestEnumerationArrays:
    """enumerate_measure runs the dict DP on word-id arrays, for all bases
    at once; the masses and their order must not move by a bit."""

    @pytest.mark.parametrize("name,n_max", ENUMERATION_CASES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_dict_dp(self, request, name, n_max, weighted):
        g = (_torus(10, 0.5) if name == "torus10"
             else request.getfixturevalue(name))
        if weighted:
            g = _reweighted(g, n_max)
        frame = spanning_tree_frame(g)
        want = _dict_enumeration(g, frame, n_max)
        got = enumerate_measure(g, frame, n_max).masses
        assert list(got) == list(want)
        assert [m.hex() for m in got.values()] == [m.hex() for m in want.values()]
        # the classes carry the kernel's multiplicities
        assert [c.multiplicity for c in got] == [multiplicity(c.word) for c in want]

    @pytest.mark.parametrize("n_max", range(1, 13))
    @pytest.mark.parametrize("shape", ["cycle9", "path6"])
    def test_prune_bitwise_equal_to_dict_dp(self, shape, n_max):
        # the second half of the steps prunes with the hop distances of the
        # first: on a long cycle or path the prune removes walks at every
        # n_max
        n = {"cycle9": 9, "path6": 6}[shape]
        edges = [(u, u + 1) for u in range(n - 1)]
        edges += [(0, n - 1)] if shape == "cycle9" else []
        g = _reweighted(build_graph(n, [(u, v, 1.0) for u, v in edges], 0.5),
                        n_max)
        _assert_bitwise_dict_dp(g, spanning_tree_frame(g), n_max)

    def test_prune_on_the_torus(self):
        g = _reweighted(_torus(10, 0.5), 7)
        _assert_bitwise_dict_dp(g, spanning_tree_frame(g), 7)

    def test_graph_without_edges(self):
        g = build_graph(1, [], 1.0)
        em = enumerate_measure(g, spanning_tree_frame(g), 4)
        assert em.masses == {}


def _case_graph(request, name):
    return (_torus(10, 0.5) if name == "torus10"
            else request.getfixturevalue(name))


def _assert_bitwise_dict_dp(g, frame, n_max):
    want = _dict_enumeration(g, frame, n_max)
    got = enumerate_measure(g, frame, n_max).masses
    assert list(got) == list(want)
    assert [m.hex() for m in got.values()] == [m.hex() for m in want.values()]


def _plans():
    """The plans kept in the memo store, least recently used first."""
    return {at[1:]: value for at, (value, _) in _memo._STORE.items()
            if at[0] is soup._build_plan}


def _plan_entries(plan):
    """The entries the store counts for a plan: one per array element, one
    per letter of each class word, one per step for its state count, and
    two per row."""
    return (plan.order.size + plan.number.size
            + sum(len(cls.word) for cls in plan.classes) + 2 * len(plan.rows)
            + sum(i.size + e.size + s.size + 1 + h.size
                  for i, e, s, _, h in plan.steps))


class TestEnumerationPlan:
    """enumerate_measure builds the index plan of its dynamic program once
    per (topology, frame cogenerators, n_max) and replays it on each
    graph's weights."""

    @pytest.fixture
    def built(self, monkeypatch):
        """A fresh memo store; the list of (n_max,) per plan built."""
        _memo.clear()
        out = []
        build = soup._build_plan

        def counted(g, frame, n_max):
            out.append(n_max)
            return build(g, frame, n_max)

        monkeypatch.setattr(soup, "_build_plan", counted)
        return out

    def test_plan_builds_no_successors(self, built):
        # the plan reads the edge table's CSR layout only, never B's
        # successor list
        g = build_graph(5, [(u, v, 1.0) for u in range(5)
                            for v in range(u + 1, 5)], 0.5)
        enumerate_measure(g, spanning_tree_frame(g), 4)
        assert built == [4]
        assert "succ" not in vars(g._oriented)

    @pytest.mark.parametrize("name,n_max", ENUMERATION_CASES)
    def test_hit_on_new_weights_is_bitwise_dict_dp(self, request, built,
                                                   name, n_max):
        g = _case_graph(request, name)
        enumerate_measure(g, spanning_tree_frame(g), n_max)
        h = _reweighted(g, n_max + 1)
        _assert_bitwise_dict_dp(h, spanning_tree_frame(h), n_max)
        assert built == [n_max]

    @pytest.mark.parametrize("name,tree", [
        ("triangle", [(0, 1), (1, 2)]),
        ("k4", [(0, 1), (1, 2), (2, 3)]),
        ("bowtie", [(0, 1), (1, 2), (0, 3), (3, 4)]),
        ("petersen", [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (1, 6),
                      (2, 7), (3, 8), (4, 9)])])
    def test_other_tree_misses(self, request, built, name, tree):
        g = _reweighted(request.getfixturevalue(name), 7)
        frame, other = spanning_tree_frame(g), spanning_tree_frame(g, tree)
        assert frame.cogenerators != other.cogenerators
        _assert_bitwise_dict_dp(g, frame, 6)
        _assert_bitwise_dict_dp(g, other, 6)
        assert built == [6, 6]
        assert (list(enumerate_measure(g, frame, 6).masses)
                != list(enumerate_measure(g, other, 6).masses))
        assert built == [6, 6]

    def test_plan_arrays_are_read_only_int32(self, request, built):
        for name, n_max in ENUMERATION_CASES:
            g = _case_graph(request, name)
            enumerate_measure(g, spanning_tree_frame(g), n_max)
        assert len(_plans()) == len(ENUMERATION_CASES)
        for plan in _plans().values():
            arrays = [plan.order, plan.number]
            arrays += [a for i, e, s, _, h in plan.steps for a in (i, e, s, h)]
            assert all(a.dtype == np.int32 for a in arrays)
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0

    @pytest.mark.parametrize("budget", [None, 20000])
    def test_cache_holds_at_most_its_entries(self, request, built,
                                             monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(_memo, "_BUDGET", budget)
        recent = []
        for name, n_max in ENUMERATION_CASES * 2:
            g = _case_graph(request, name)
            frame = spanning_tree_frame(g)
            enumerate_measure(g, frame, n_max)
            key = (g.neighbors, frame.cogenerators, n_max)
            plans = list(_plans())
            if key in plans:  # a plan over the budget is not kept
                recent = [k for k in recent if k != key] + [key]
                assert _memo._STORE[(soup._build_plan, *key)][1] == \
                    _memo._entries(key, _plan_entries(_plans()[key]))
            # the store holds other kinds too, under the same budget
            held = [entries for _, entries in _memo._STORE.values()]
            assert _memo._held == sum(held) <= _memo._BUDGET
            # the plans kept are the most recently used ones, in order
            assert plans == recent[len(recent) - len(plans):]
        if budget is None:
            assert len(built) == len(ENUMERATION_CASES)
        else:
            assert len(built) > len(ENUMERATION_CASES)

    def test_plan_over_the_cache_budget_is_not_kept(self, petersen, built,
                                                    monkeypatch):
        frame = spanning_tree_frame(petersen)
        want = enumerate_measure(petersen, frame, 8).masses
        _memo.clear()
        monkeypatch.setattr(_memo, "_BUDGET", 1000)
        for _ in range(2):
            got = enumerate_measure(petersen, frame, 8).masses
            assert [m.hex() for m in got.values()] == \
                [m.hex() for m in want.values()]
            assert not _plans()
        assert built == [8, 8, 8]

    def test_calls_return_distinct_dicts(self, bowtie, built):
        frame = spanning_tree_frame(bowtie)
        a = enumerate_measure(bowtie, frame, 8)
        b = enumerate_measure(bowtie, frame, 8)
        assert a.masses is not b.masses
        assert a.masses == b.masses
        a.masses.clear()
        assert b.masses == enumerate_measure(bowtie, frame, 8).masses != {}
        assert built == [8]

    def test_plan_over_its_budget_is_refused(self, k4, built, monkeypatch):
        monkeypatch.setattr(soup, "_ENUMERATION_ENTRIES", 2 ** 12)
        frame = spanning_tree_frame(k4)
        assert enumerate_measure(k4, frame, 5).masses
        with pytest.raises(ConfigError, match="n_max=9 on 4 vertices"):
            enumerate_measure(k4, frame, 9)
        assert list(_plans()) == [(k4.neighbors, frame.cogenerators, 5)]


class TestConfig:
    def test_defaults(self):
        cfg = MeasureConfig()
        assert cfg.alpha == 1.0 and cfg.n_max == 24

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            MeasureConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            MeasureConfig(n_max=0)
        with pytest.raises(ConfigError):
            MeasureConfig(tail_tol=-1.0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            MeasureConfig(seed=-1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                MeasureConfig(alpha=bad)
            with pytest.raises(ConfigError):
                MeasureConfig(tail_tol=bad)

    def test_sampler_rejects_non_finite_alpha(self, triangle):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                LoopSoupSampler(triangle, alpha=bad)

    def test_sampler_rejects_negative_seed(self, triangle):
        # SeedSequence would raise a bare ValueError
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            LoopSoupSampler(triangle, n_max=42).sample(-1)

    @pytest.mark.parametrize("field", ["seed", "n_max"])
    def test_config_rejects_a_non_integer(self, field):
        # numpy would raise a bare TypeError at the draw
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            MeasureConfig(**{"n_max": 42, "tail_tol": 1e-7, field: 42.5})

    def test_sampler_rejects_a_non_integer(self, triangle):
        with pytest.raises(ConfigError, match="n_max must be an integer"):
            LoopSoupSampler(triangle, n_max=42.5)
        sampler = LoopSoupSampler(triangle, n_max=42)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            sampler.sample(2.5)
        # a numpy integer is an integer, and draws what the int draws
        assert sampler.sample(np.int64(7)) == sampler.sample(7)

    @pytest.mark.parametrize("alpha", [1e15, 1e300])
    def test_expected_steps_over_budget(self, triangle, alpha):
        with pytest.raises(ConfigError, match="loop steps per soup"):
            LoopSoupSampler(triangle, alpha=alpha, n_max=60)

    def test_powers_over_budget(self, triangle, monkeypatch):
        # a budget of 1000 entries admits the powers P^0..P^110 of n_max
        # 220 on the triangle, 999 entries, but not the 112 of n_max 221
        monkeypatch.setattr(soup, "_SAMPLER_ENTRIES", 1000)
        assert len(LoopSoupSampler(triangle, alpha=0.01, n_max=220).powers) == 111
        with pytest.raises(ConfigError, match="matrix powers"):
            LoopSoupSampler(triangle, n_max=221)

    def test_benchmark_sizes_far_inside_budget(self):
        # the 6x6 torus at killing 0.18, n_max 214 and alpha 12, about the
        # largest soups the benchmark draws, use under a hundredth of the
        # budget
        g = _torus(6, 0.18)
        sampler = LoopSoupSampler(g, alpha=12.0, n_max=214)
        steps = 12.0 * float(np.sum(sampler.items[:, 1] * sampler.probs)) \
            * sampler.mass
        assert sampler.powers.size < soup._SAMPLER_ENTRIES / 100
        assert steps * g.num_vertices < soup._SAMPLER_ENTRIES / 100

    def test_tail_tolerance_enforced(self, triangle, triangle_frame):
        with pytest.raises(ConfigError, match="tail bound"):
            sample_soup(triangle, triangle_frame,
                        MeasureConfig(n_max=5, tail_tol=1e-12, seed=1))


class TestSampler:
    def test_reproducible(self, triangle, triangle_frame):
        cfg = MeasureConfig(n_max=42, tail_tol=1e-7, seed=99)
        s1 = sample_soup(triangle, triangle_frame, cfg)
        s2 = sample_soup(triangle, triangle_frame, cfg)
        assert dumps_soup(s1) == dumps_soup(s2)

    def test_loops_live_on_graph(self, triangle):
        sampler = LoopSoupSampler(triangle, n_max=42)
        for seed in range(25):
            soup = sampler.sample(seed)
            for lp in soup.loops:
                lp.check_edges(triangle)
                assert 2 <= lp.length <= 42

    def test_round_trip_text(self, triangle, triangle_frame):
        soup = sample_soup(triangle, triangle_frame,
                           MeasureConfig(n_max=42, tail_tol=1e-7, seed=3))
        back = parse_soup(dumps_soup(soup), triangle)
        assert [lp.vertices for lp in back.loops] == \
            [lp.vertices for lp in soup.loops]

    def test_parse_soup_rejects_bad_loop(self, triangle):
        with pytest.raises(ValueError):
            parse_soup("3 0 1\n", triangle)  # wrong vertex count
        with pytest.raises(ValueError):
            parse_soup("2 0 7\n", triangle)  # vertex off the graph

    @pytest.mark.parametrize("loop", ["2 5 0", "2 0 3", "3 0 1 -1", "2 -1 0"])
    def test_parse_soup_rejects_vertex_off_the_graph(self, triangle, loop):
        # checked before any edge lookup, so no IndexError, and a negative
        # vertex does not wrap around to the last one
        with pytest.raises(ValidationError, match="soup line 2: vertex"):
            parse_soup(f"2 0 1\n{loop}\n", triangle)

    def test_loop_weight_rejects_vertex_off_the_graph(self, triangle):
        # the weight of a loop is read off its edges, which check_edges
        # vouches for: a vertex off the graph is refused, not wrapped
        for vs in ((0, 5, 0), (0, -1, 0)):
            with pytest.raises(ValidationError, match="not in 0..2"):
                BasedLoop(vs).check_edges(triangle)

    def test_frame_is_unused(self, triangle, triangle_frame):
        cfg = MeasureConfig(n_max=42, tail_tol=1e-7, seed=5)
        assert dumps_soup(sample_soup(triangle, None, cfg)) == \
            dumps_soup(sample_soup(triangle, triangle_frame, cfg))

    def test_sampled_loops_equal_checked_ones(self, k4):
        # the sampler builds its loops unchecked; they equal, and hash as,
        # loops built through the checking constructor
        for lp in LoopSoupSampler(k4, alpha=5.0, n_max=16).sample(4).loops:
            checked = BasedLoop(lp.vertices)
            assert type(lp) is BasedLoop
            assert lp == checked and hash(lp) == hash(checked)

    @pytest.mark.parametrize("count", ["0", "-1", "1 0"])
    def test_parse_soup_rejects_short_count(self, triangle, count):
        # a count below 2 names its line
        with pytest.raises(ValidationError, match="soup line 2"):
            parse_soup(f"2 0 1\n{count}\n", triangle)

    def test_count_mean(self, triangle):
        # number of loops per soup is Poisson(total mass); 1500 draws
        # put the sample mean well inside four standard errors
        mass = total_mass(triangle)
        sampler = LoopSoupSampler(triangle, n_max=42)
        n = 1500
        counts = [len(sampler.sample(seed).loops) for seed in range(n)]
        se = math.sqrt(mass / n)
        assert abs(np.mean(counts) - mass) < 4 * se

    def test_class_frequency(self, triangle, triangle_frame):
        # frequency of the one-step winding class tracks its mass
        em = enumerate_measure(triangle, triangle_frame, 20)
        want = em.get(canonical_class((1,)))
        sampler = LoopSoupSampler(triangle, n_max=42)
        n = 1500
        hit = 0
        for seed in range(n):
            for lp in sampler.sample(seed).loops:
                if canonical_class(loop_to_word(lp, triangle_frame)) == \
                        canonical_class((1,)):
                    hit += 1
        se = math.sqrt(want / n)
        assert abs(hit / n - want) < 4 * se

    def test_length_profile(self, triangle):
        # loop length n has mass tr(P^n)/n; chi-square on 1500 soups
        from scipy import stats
        P = dense_transition(triangle)
        mass = {}
        M = np.eye(3)
        for n in range(1, 43):
            M = M @ P
            mass[n] = np.trace(M) / n
        sampler = LoopSoupSampler(triangle, n_max=42)
        obs = {}
        draws = 1500
        for seed in range(draws):
            for lp in sampler.sample(seed).loops:
                obs[lp.length] = obs.get(lp.length, 0) + 1
        total = sum(mass.values())
        # bins with expected count >= 5, remainder pooled
        bins = [n for n in mass if draws * mass[n] >= 5]
        exp = [draws * mass[n] for n in bins]
        exp.append(draws * total - sum(exp))
        got = [obs.get(n, 0) for n in bins]
        got.append(sum(obs.values()) - sum(got))
        # condition on the realized loop count
        scale = sum(got) / sum(exp)
        _, p = stats.chisquare(got, [e * scale for e in exp])
        assert p > 0.001


def _torus(side, kappa):
    edges = set()
    for i in range(side):
        for j in range(side):
            a = i * side + j
            for b in (i * side + (j + 1) % side, ((i + 1) % side) * side + j):
                edges.add((min(a, b), max(a, b)))
    return build_graph(side * side, [(a, b, 1.0) for a, b in sorted(edges)], kappa)


# sha256 of dumps_soup(sampler.sample(seed)) for seeds 0-49, fed in seed
# order, and the sampler's truncated mass; alpha 1 throughout
PINNED = {
    "triangle": (42, "08d6507a6f942629d493ac3369538d1bfa781a6b4fd27b6c2f2df454566ba47f",
                 0.5232481419733042),
    "bowtie": (24, "66eadb433b69652004456db783d77e686d2e9d58c2248de31f691d12f950710a",
               0.7463680936946625),
    "torus6": (24, "501f80615ebb3148ed6aa571e12d3c72ea48c747e0720c907ce7dc68a0aa6a16",
               6.339169334196595),
}


# sha256 of each soup's loop count and sorted (base, length) pairs, for the
# PINNED settings and seeds 0-49
PICKS = {
    "triangle": "32d31b96d0a045d4942ac60646c597e518b0a5b83b94b49912b84f1656f05e06",
    "bowtie": "11ce6b9256ef70a715da4d7fb6e49a5119f3ef96a69533a42a00e5c734db7749",
    "torus6": "2f20124d1e82b0465fed87e35e0c4b4d220fb55afce2260195b5c3ae479968a2",
}


def _bisection_soup(sampler, seed):
    """The soup drawn one midpoint at a time, each from its conditional row
    as a 1-D array, all from the one generator that drew the count and the
    picks: every bridge uniform in one call, one per interior vertex, loops
    in draw order, each loop's by position in the walk. The batched sampler
    must reproduce it exactly."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    count = int(rng.poisson(sampler.alpha * sampler.mass))
    picks = rng.choice(len(sampler.items), size=count, p=sampler.probs).tolist() \
        if count else []
    items = [tuple(sampler.items[k].tolist()) for k in picks]
    uniforms = iter(rng.random(sum(n - 1 for _, n in items)).tolist())
    loops = []
    for x, n in items:
        vs = [x] + [None] * (n - 1) + [x]
        u = [None] + [next(uniforms) for _ in range(n - 1)]
        todo = [(0, n)]
        while todo:
            lo, hi = todo.pop()
            if hi - lo < 2:
                continue
            a = (hi - lo) // 2
            q = sampler.powers[a][vs[lo], :] * sampler.powers[hi - lo - a][:, vs[hi]]
            cdf = np.cumsum(q)
            cdf /= cdf[-1]
            vs[lo + a] = int(np.sum(cdf <= u[lo + a]))
            todo += [(lo, lo + a), (lo + a, hi)]
        loops.append(tuple(vs))
    return loops


def _weighted():
    """Five vertices, uneven conductances, two of them unkilled."""
    return build_graph(
        5, [(0, 1, 0.3), (1, 2, 2.5), (2, 3, 1.0), (3, 4, 0.7), (4, 0, 1.9),
            (1, 3, 0.05)], [0.2, 0.0, 0.05, 0.0, 0.4])


def _closed_walks(p, x, n):
    """Every closed walk of n steps from x, with its product of P."""
    out = {}
    stack = [((x,), 1.0)]
    while stack:
        vs, w = stack.pop()
        if len(vs) == n + 1:
            if vs[-1] == x:
                out[vs] = w
            continue
        for y in np.flatnonzero(p[vs[-1]]).tolist():
            stack.append((vs + (y,), w * p[vs[-1], y]))
    return out


class TestSamplerPinned:
    def test_batched_equals_stepwise(self, k4, bowtie):
        for g, alpha, n_max in ((k4, 30.0, 16), (bowtie, 20.0, 9),
                                (_weighted(), 3.0, 60), (_torus(4, 0.3), 2.0, 30)):
            sampler = LoopSoupSampler(g, alpha=alpha, n_max=n_max)
            for seed in range(8):
                got = [lp.vertices for lp in sampler.sample(seed).loops]
                assert got == _bisection_soup(sampler, seed)

    def test_powers_up_to_half_the_truncation(self, k4):
        # P^m for m <= ceil(n_max/2), equal to the sequential products
        # to rounding; the item weights keep their exact zeros
        g = _torus(4, 0.3)
        for n_max in (1, 2, 7, 30, 31):
            sampler = LoopSoupSampler(g, n_max=n_max)
            assert len(sampler.powers) == (n_max + 1) // 2 + 1
            power = np.eye(g.num_vertices)
            for m, got in enumerate(sampler.powers):
                np.testing.assert_allclose(got, power, rtol=1e-13, atol=0)
                power = power @ dense_transition(g)
            # the 4x4 torus is bipartite: only even lengths carry weight
            assert sampler.items[:, 1].tolist() == sorted(sampler.items[:, 1])
            assert not (sampler.items[:, 1] % 2).any()
            assert len(sampler.items) == 16 * (n_max // 2)

    def test_bridge_law(self):
        # vertex paths of each (base, length) against prod P / (P^n)_xx;
        # one chi-square per length, conditioned on the count of each base
        from scipy import stats
        g = _weighted()
        p = dense_transition(g)
        sampler = LoopSoupSampler(g, alpha=3.0, n_max=12)
        seen = {}
        for seed in range(3000):
            for lp in sampler.sample(seed).loops:
                if 4 <= lp.length <= 7:
                    seen.setdefault((lp.vertices[0], lp.length), []).append(lp.vertices)
        for n in range(4, 8):
            got, want, groups = [], [], 0
            for x in range(g.num_vertices):
                paths = seen.get((x, n), [])
                if not paths:
                    continue
                groups += 1
                law = _closed_walks(p, x, n)
                total = sum(law.values())
                assert set(paths) <= set(law)
                count = Counter(paths)
                obs = [count[vs] for vs in law]
                exp = [len(paths) * w / total for w in law.values()]
                # bins with expected count >= 5, the rest pooled
                big = [e >= 5 for e in exp]
                got += [o for o, keep in zip(obs, big) if keep]
                want += [e for e, keep in zip(exp, big) if keep]
                if not all(big):
                    got.append(sum(o for o, keep in zip(obs, big) if not keep))
                    want.append(sum(e for e, keep in zip(exp, big) if not keep))
            assert sum(got) >= 200 and len(got) > 2 * groups
            _, pval = stats.chisquare(got, want, ddof=groups - 1)
            assert pval > 0.001, (n, pval)

    def test_every_step_is_an_edge(self, k4, bowtie):
        for g, alpha, n_max in ((k4, 30.0, 16), (bowtie, 20.0, 9),
                                (_weighted(), 3.0, 60), (_torus(4, 0.3), 2.0, 31)):
            sampler = LoopSoupSampler(g, alpha=alpha, n_max=n_max)
            for seed in range(20):
                for lp in sampler.sample(seed).loops:
                    lp.check_edges(g)
                    assert 2 <= lp.length <= n_max

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_seeded_soups_unchanged(self, request, name):
        # the randomness layout is part of the contract: equal (graph,
        # config, seed) give the same soup, and a change of layout re-pins
        # these digests on purpose
        g = _torus(6, 0.2) if name == "torus6" else request.getfixturevalue(name)
        n_max, digest, mass = PINNED[name]
        sampler = LoopSoupSampler(g, n_max=n_max)
        assert sampler.mass == mass
        h = hashlib.sha256()
        for seed in range(50):
            h.update(dumps_soup(sampler.sample(seed)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_count_and_picks_unchanged(self, request, name):
        # the loop count and the (base, length) picks of every soup, pinned
        # before the bridges moved onto the driver's stream
        g = _torus(6, 0.2) if name == "torus6" else request.getfixturevalue(name)
        sampler = LoopSoupSampler(g, n_max=PINNED[name][0])
        h = hashlib.sha256()
        for seed in range(50):
            loops = sampler.sample(seed).loops
            pairs = sorted((lp.vertices[0], lp.length) for lp in loops)
            h.update(f"{len(loops)} {pairs}\n".encode())
        assert h.hexdigest() == PICKS[name]

    def test_one_generator_per_soup(self, monkeypatch):
        made = {"SeedSequence": 0, "default_rng": 0}
        for name in made:
            def counted(*args, _name=name, _real=getattr(np.random, name), **kwargs):
                made[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counted)
        g = _torus(6, 0.2)
        sampler = LoopSoupSampler(g, alpha=30.0, n_max=24)
        assert len(sampler.sample(3).loops) >= 100
        assert made == {"SeedSequence": 1, "default_rng": 1}


class TestOccupation:
    def test_eulerian_and_counts(self, triangle, triangle_frame):
        soup = sample_soup(triangle, triangle_frame,
                           MeasureConfig(n_max=42, tail_tol=1e-7, seed=12))
        occ = occupation(soup)
        steps = sum(lp.length for lp in soup.loops)
        assert sum(n for (_, _, n, _) in occ.rows()) == steps
        # loops are closed, so every vertex has zero net current
        for u, v, n, cur in occ.rows():
            assert cur == occ.current(u, v)

    def test_net_current_vanishes(self, triangle):
        sampler = LoopSoupSampler(triangle, n_max=42)
        for seed in (0, 5, 9):
            occ = occupation(sampler.sample(seed))
            for x in range(3):
                net = 0
                for (u, v, n, _) in occ.rows():
                    if u == x:
                        net += n
                    if v == x:
                        net -= n
                assert net == 0

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_rows_equal_per_step_count(self, request, name):
        g = _torus(6, 0.2) if name == "torus6" else request.getfixturevalue(name)
        sampler = LoopSoupSampler(g, alpha=5.0, n_max=PINNED[name][0])
        for seed in range(10):
            soup = sampler.sample(seed)
            counts = Counter()
            for lp in soup.loops:
                vs = lp.vertices
                for a, b in zip(vs, vs[1:]):
                    counts[(a, b)] += 1
            want = [(u, v, n, counts[(u, v)] - counts[(v, u)])
                    for (u, v), n in sorted(counts.items())]
            assert occupation(soup).rows() == want
