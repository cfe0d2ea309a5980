"""Words, reduction, conjugacy classes, loops and their geodesics."""

import random

import numpy as np
import pytest

from loopsoup import (
    BasedLoop,
    ConfigError,
    GeodesicClass,
    ValidationError,
    build_graph,
    canonical_class,
    crossing_word,
    cyclic_reduce,
    enumerate_geodesic_classes,
    format_word,
    geodesic_representative,
    group_commutator,
    inverse_word,
    loop_to_word,
    min_rotation,
    multiplicity,
    parse_word,
    reduce_word,
    spanning_tree_frame,
)
from loopsoup import _memo, freegroup
from loopsoup.freegroup import (_canonical_words, _class_words,
                                _geodesic_loops, _letter_key, _rotations,
                                _tuples)
from loopsoup.spectra import ihara_check


def recursive_classes(rank, max_len):
    """Reference enumeration: every reduced word grown letter by letter by
    recursion, kept when it is cyclically reduced and its own least
    rotation, then sorted by (length, word under _letter_key)."""
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    found = []

    def grow(word, remaining):
        if word and word[0] != -word[-1] and tuple(word) == min_rotation(word):
            found.append(GeodesicClass(tuple(word)))
        if remaining == 0:
            return
        for l in letters:
            if word and l == -word[-1]:
                continue
            word.append(l)
            grow(word, remaining - 1)
            word.pop()

    grow([], max_len)
    return sorted(found, key=lambda c: (c.length, [_letter_key(l) for l in c.word]))


def stepwise_geodesic_loops(g, max_len):
    """Reference geodesic loops: a depth-first search over the tailless
    non-backtracking walks from each vertex s through vertices >= s, each
    closed candidate kept when min_rotation says it is its own least
    rotation."""
    found = []
    for s in range(g.num_vertices):
        stack = [(s, -1, (s,))]
        while stack:
            v, prev, path = stack.pop()
            for w in g.neighbors[v]:
                if w < s or w == prev:
                    continue
                if (w == s and len(path) >= 3 and path[1] != v
                        and path == min_rotation(path)):
                    found.append(path)
                if len(path) < max_len:
                    stack.append((w, v, path + (w,)))
    return sorted(found, key=lambda t: (len(t), t))


def geodesic_loops(g, max_len):
    """The geodesic loops of g up to max_len as canonical vertex tuples."""
    return _tuples(*_geodesic_loops(g, max_len)[:2])


def class_geodesic(walk, frame):
    """The geodesic of a closed walk's free homotopy class, by the package's
    route: word, class, then geodesic_representative."""
    word = loop_to_word(BasedLoop(tuple(walk)), frame)
    return geodesic_representative(canonical_class(word), frame)


def quadratic_reduce_cycle(vs):
    """Reference backtrack erasure: delete one backtrack v -> w -> v at a
    time, cyclically, until none remain."""
    changed = True
    while changed and len(vs) >= 2:
        changed = False
        n = len(vs)
        for i in range(n):
            if vs[(i + 2) % n] == vs[i]:
                a, b = (i + 1) % n, (i + 2) % n
                for j in sorted({a, b}, reverse=True):
                    del vs[j]
                changed = True
                break
    return vs


def _random_closed_walk(rng, g, steps):
    """A random walk of the given steps from a random vertex, closed by a
    shortest path home, or by retracing its own steps (contractible)."""
    walk = [rng.randrange(g.num_vertices)]
    for _ in range(steps):
        walk.append(rng.choice(g.neighbors[walk[-1]]))
    if rng.random() < 0.2:
        return walk + walk[-2::-1]
    parent = {walk[0]: None}
    queue = [walk[0]]
    for v in queue:
        for u in g.neighbors[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    while walk[-1] != walk[0]:
        walk.append(parent[walk[-1]])
    return walk


def _random_reduced(rng, rank, n):
    word = []
    while len(word) < n:
        l = rng.choice([1, -1]) * rng.randint(1, rank)
        if not word or l != -word[-1]:
            word.append(l)
    return tuple(word)


class TestWordOps:
    def test_reduce(self):
        assert reduce_word((1, -1)) == ()
        assert reduce_word((1, 2, -2, -1, 3)) == (3,)
        assert reduce_word((1, 2, 3)) == (1, 2, 3)

    def test_reduce_rejects_zero(self):
        with pytest.raises(ValidationError):
            reduce_word((1, 0, 2))

    def test_inverse(self):
        assert inverse_word((1, 2, -3)) == (3, -2, -1)
        assert inverse_word(()) == ()

    def test_multiply_cancels(self):
        # the product of the free group is the reduced concatenation
        assert reduce_word((1, 2) + (-2, -1)) == ()
        assert reduce_word((1, 2) + (3,)) == (1, 2, 3)

    def test_group_axioms_random(self):
        rng = random.Random(5)
        letters = [1, -1, 2, -2, 3, -3]
        for _ in range(100):
            u = reduce_word(rng.choices(letters, k=rng.randrange(9)))
            w = reduce_word(rng.choices(letters, k=rng.randrange(9)))
            v = reduce_word(rng.choices(letters, k=rng.randrange(9)))
            assert reduce_word(u + inverse_word(u)) == ()
            lhs = reduce_word(reduce_word(u + w) + v)
            assert lhs == reduce_word(u + reduce_word(w + v))

    def test_commutator(self):
        assert group_commutator((1,), (2,)) == (-1, -2, 1, 2)
        assert group_commutator((1,), (1,)) == ()

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, -1)) == (2,)
        assert cyclic_reduce((-2, 1, 1, 2)) == (1, 1)
        assert cyclic_reduce((1, 2)) == (1, 2)

    def test_parse_format_round_trip(self):
        for w in [(), (1,), (-2, 1, 1), (3, -3)]:
            w = reduce_word(w)
            assert parse_word(format_word(w)) == w
        assert parse_word("+1 -2") == (1, -2)
        assert format_word(()) == ""

    def test_min_rotation(self):
        assert min_rotation((2, 1, 1)) == (1, 1, 2)
        assert min_rotation(()) == ()
        # order on letters is 1 < -1 < 2 < -2 < ...
        assert min_rotation((-1, 1)) == (1, -1)


class TestClasses:
    def test_canonical_conjugates_agree(self):
        a = canonical_class((1, 2, -1))
        b = canonical_class((2,))
        assert a == b

    def test_cache_is_bounded(self, monkeypatch):
        # words are arbitrary, so a long stream of them must not pile up
        _memo.clear()
        one = _memo._entries(((1,),), 1)  # a one-letter word and its class
        monkeypatch.setattr(_memo, "_BUDGET", 10 * one)
        for k in range(200):
            canonical_class((k + 1,))
            assert _memo._held <= 10 * one
        # the last 10 are kept
        assert [word for _, word in _memo._STORE] == \
            [(k + 1,) for k in range(190, 200)]

    def test_long_words_of_short_classes_count_their_keys(self, monkeypatch):
        # a long word that reduces to a short class is kept under its own
        # letters, so it counts them
        _memo.clear()
        monkeypatch.setattr(_memo, "_BUDGET", 5000)
        for k in range(200):
            word = (k + 1, -(k + 1)) * 500 + (1,) * (k % 3)
            assert canonical_class(word).word == (1,) * (k % 3)
            assert _memo._held <= 5000
            assert _memo._held == sum(e for _, e in _memo._STORE.values())
            assert all(e > 1000 for _, e in _memo._STORE.values())
        assert len(_memo._STORE) == 4

    def test_certified_class_equals_checked_class(self):
        for word in [(), (1,), (1, 2, 1, 2), (1, -2, 1, -2, 1, -2)]:
            cls = GeodesicClass._certified(word, multiplicity(word))
            assert cls == GeodesicClass(word) and hash(cls) == hash(GeodesicClass(word))
            assert cls.multiplicity == multiplicity(word)

    def test_canonical_inverse_distinct(self):
        assert canonical_class((1,)) != canonical_class((-1,))

    def test_multiplicity(self):
        assert multiplicity((1, 2, 1, 2)) == 2
        assert multiplicity((1, 2, 1)) == 1
        assert canonical_class((1, 1, 1)).multiplicity == 3

    def test_trivial(self):
        c = canonical_class((1, -1))
        assert c.is_trivial
        assert c.length == 0
        assert c.multiplicity == 1

    def test_class_rejects_noncanonical_word(self):
        with pytest.raises(ValidationError):
            GeodesicClass((1, 2, -1))  # not cyclically reduced
        with pytest.raises(ValidationError):
            GeodesicClass((2, 1))  # not the minimal rotation

    def test_enumerate_classes_rank1(self):
        classes = enumerate_geodesic_classes(1, 4)
        words = [c.word for c in classes]
        assert words == [(1,), (-1,), (1, 1), (-1, -1),
                         (1, 1, 1), (-1, -1, -1),
                         (1, 1, 1, 1), (-1, -1, -1, -1)]

    def test_enumerate_classes_rank0_is_empty(self):
        assert enumerate_geodesic_classes(0, 4) == []
        with pytest.raises(ValidationError):
            enumerate_geodesic_classes(-1, 4)

    def test_enumerate_classes_rank2_counts(self):
        # necklace counting: the number of conjugacy classes of length n
        # in rank r is (1/n) sum_{d|n} phi(n/d) * (number of cyclically
        # reduced words of length d that are periodic extensions).
        # Cross-checked against direct canonicalization of all reduced
        # words instead of trusting a formula.
        seen = set()
        letters = [1, -1, 2, -2]

        def grow(w, k):
            if w and w[0] != -w[-1]:
                seen.add(min_rotation(tuple(w)))
            if k == 0:
                return
            for l in letters:
                if w and l == -w[-1]:
                    continue
                w.append(l)
                grow(w, k - 1)
                w.pop()

        grow([], 5)
        got = {c.word for c in enumerate_geodesic_classes(2, 5)}
        assert got == seen


class TestRotationKernel:
    """_rotations is the one least-rotation kernel of every class route;
    its results must be those of the word-at-a-time functions."""

    @pytest.mark.parametrize("rank", range(5))
    def test_classes_equal_recursive_reference(self, rank):
        want = recursive_classes(rank, 6)
        for max_len in range(7):
            got = enumerate_geodesic_classes(rank, max_len)
            assert got == [c for c in want if c.length <= max_len]
            words = _class_words(rank, max_len).words
            assert words.multiplicity.tolist() == [multiplicity(c.word)
                                                   for c in got]
            assert [c.multiplicity for c in got] == [multiplicity(c.word)
                                                     for c in got]

    @pytest.mark.parametrize("rank", [1, 2, 3, 6])
    def test_canonical_words_match_canonical_class(self, rank):
        # lengths up to 160 make the ranks dense again between rounds
        rng = random.Random(rank)
        words = [_random_reduced(rng, rank, rng.choice([0, 1, 2, 3, 5, 8, 13,
                                                       40, 160]))
                 for _ in range(300)]
        words += [w * k for w in words[:40] if w for k in (2, 3)]
        words = [reduce_word(w) for w in words]
        lengths = np.array([len(w) for w in words])
        letters = np.array([l for w in words for l in w], dtype=np.intp)
        classes = [canonical_class(w) for w in words]
        assert _canonical_words(letters, lengths) == (
            [c.word for c in classes], [multiplicity(c.word) for c in classes])

    def test_multiplicity_and_offset(self):
        # (-1 2 1 3 1) reduces to (2 1 3), least rotation (1 3 2) from 1;
        # (-1 2 1 -2 1) reduces to (1)
        rows = [(1, 2, 1, 2), (2, 1, 2, 1), (-1, 2, 1, 3, 1),
                (-1, 2, 1, -2, 1), (1,), (2, 1, 1)]
        lengths = np.array([len(r) for r in rows])
        cut, start, mult = _rotations(
            np.array([l for r in rows for l in r], dtype=np.intp), lengths)
        assert cut.tolist() == [0, 0, 1, 2, 0, 0]
        assert start.tolist() == [0, 1, 1, 0, 0, 1]
        assert mult.tolist() == [2, 2, 1, 1, 1, 1]

    @pytest.mark.parametrize("graph", ["triangle", "bowtie", "k4", "k33",
                                       "petersen"])
    def test_geodesic_loops_unchanged(self, request, graph):
        g = (build_graph(6, [(a, b, 1.0) for a in range(3) for b in range(3, 6)],
                         1.0)
             if graph == "k33" else request.getfixturevalue(graph))
        want = stepwise_geodesic_loops(g, 10)
        loops = _geodesic_loops(g, 10)
        assert _tuples(loops.letters, loops.lengths) == want
        assert loops.multiplicity.tolist() == [multiplicity(t) for t in want]
        for max_len in range(-1, 10):
            assert geodesic_loops(g, max_len) == [
                t for t in want if len(t) <= max_len]

    def test_geodesic_loops_budget(self, monkeypatch, k4):
        # sum_k k n d (d-1)^(k-1) steps: on K4, 12 walks of one step, 24
        # of two and 48 of three make 12 + 48 + 144 = 204
        with pytest.raises(ConfigError, match="up to length 40"):
            ihara_check(k4, 40)
        monkeypatch.setattr(freegroup, "_WALK_LETTERS", 204)
        assert ihara_check(k4, 3).agree()
        assert len(geodesic_loops(k4, 3)) == 8
        with pytest.raises(ConfigError, match="up to length 4"):
            ihara_check(k4, 4)
        # walks die out at once where every vertex has degree <= 1
        assert geodesic_loops(build_graph(2, [(0, 1, 1.0)], 1.0), 10 ** 9) == []

    def test_budget_raises_config_error(self, monkeypatch):
        # sum_k k 2r (2r-1)^(k-1) letters: rank 6 at length 10 is about 3e11
        with pytest.raises(ConfigError, match="rank 6 up to length 10"):
            enumerate_geodesic_classes(6, 10)
        with pytest.raises(ConfigError):
            enumerate_geodesic_classes(1, 10 ** 9)
        # at rank 1 the letters are 2 + 4 + 6 + ...: 12 admits length 3
        monkeypatch.setattr(freegroup, "_CLASS_LETTERS", 12)
        assert len(enumerate_geodesic_classes(1, 3)) == 6
        with pytest.raises(ConfigError):
            enumerate_geodesic_classes(1, 4)
        assert enumerate_geodesic_classes(0, 10 ** 9) == []

    def test_deep_rank_one_classes(self):
        # deeper than Python's default recursion limit of 1000
        words = _class_words(1, 1000).words
        assert words.lengths.tolist() == [k for k in range(1, 1001) for _ in "+-"]
        assert words.multiplicity.tolist() == words.lengths.tolist()
        assert (words.letters == np.repeat(np.tile([1, -1], 1000),
                                           words.lengths)).all()

    def test_out_of_range_letter(self, triangle_frame):
        for word in [(2,), (1, -3)]:
            with pytest.raises(ValidationError, match="rank 1"):
                geodesic_representative(GeodesicClass(word), triangle_frame)


def root_walk_representative(cls, frame):
    """Reference geodesic: expand each letter from the root (tree path to
    the generator edge, then the crossing), close up through the tree, and
    erase backtracks cyclically."""
    if cls.is_trivial:
        return ()
    root = frame.parent.index(-1)
    walk = [root]
    for l in cls.word:
        u, v = frame.cogenerators[abs(l) - 1]
        a, b = (u, v) if l > 0 else (v, u)
        walk.extend(frame.tree_path(walk[-1], a)[1:])
        walk.append(b)
    walk.extend(frame.tree_path(walk[-1], root)[1:])
    return min_rotation(quadratic_reduce_cycle(walk[:-1]))


class TestLoops:
    @pytest.mark.parametrize("graph, tree", [
        ("triangle", None), ("triangle", [(1, 2), (0, 2)]),
        ("bowtie", None), ("bowtie", [(1, 2), (0, 2), (0, 4), (3, 4)]),
        ("k4", None), ("k4", [(0, 3), (1, 3), (2, 3)]), ("k4", [(0, 1), (1, 2), (2, 3)])])
    def test_representative_equals_root_walk(self, request, graph, tree):
        # every class up to length 6, over canonical and other trees
        frame = spanning_tree_frame(request.getfixturevalue(graph), tree)
        for cls in enumerate_geodesic_classes(frame.rank, 6):
            assert (geodesic_representative(cls, frame)
                    == root_walk_representative(cls, frame)), cls

    def test_based_loop_validation(self):
        with pytest.raises(ValidationError):
            BasedLoop((0, 1))  # not closed
        with pytest.raises(ValidationError):
            BasedLoop((0,))  # too short
        lp = BasedLoop((0, 1, 0))
        assert lp.length == 2

    def test_check_edges(self, triangle):
        BasedLoop((0, 1, 2, 0)).check_edges(triangle)
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], 1.0)
        with pytest.raises(ValidationError):
            BasedLoop((0, 2, 0)).check_edges(g)

    def test_crossing_word_triangle(self, triangle_frame):
        # 1 -> 2 crosses the single cogenerator (1, 2) forward
        assert crossing_word(BasedLoop((0, 1, 2, 0)), triangle_frame) == (1,)
        assert crossing_word(BasedLoop((0, 2, 1, 0)), triangle_frame) == (-1,)
        assert crossing_word(BasedLoop((0, 1, 0, 1, 0)), triangle_frame) == ()

    def test_loop_to_word_reduces(self, triangle_frame):
        # backtracking at the cogenerator cancels
        lp = BasedLoop((0, 1, 2, 1, 0))
        assert loop_to_word(lp, triangle_frame) == ()

    def test_geodesic_reduce_removes_backtracks(self, triangle_frame):
        assert class_geodesic((0, 1, 0, 2, 0), triangle_frame) == ()
        assert class_geodesic((0, 1, 2, 0), triangle_frame) == min_rotation((0, 1, 2))

    @pytest.mark.parametrize("graph", ["k4", "petersen", "bowtie"])
    def test_reduce_cycle_equals_quadratic_reference(self, request, graph):
        # the geodesic of a closed walk's class is the walk with its
        # backtracks erased, cyclically
        g = request.getfixturevalue(graph)
        frame = spanning_tree_frame(g)
        rng = random.Random(graph)
        for _ in range(300):
            walk = _random_closed_walk(rng, g, rng.randrange(1, 40))
            want = min_rotation(quadratic_reduce_cycle(walk[:-1]))
            assert class_geodesic(walk, frame) == want

    def test_geodesic_representative_triangle(self, triangle_frame):
        rep = geodesic_representative(canonical_class((1,)), triangle_frame)
        assert rep == min_rotation((0, 1, 2))
        rep2 = geodesic_representative(canonical_class((-1,)), triangle_frame)
        assert rep2 == min_rotation((0, 2, 1))

    def test_representative_round_trip(self, bowtie, bowtie_frame):
        # word -> geodesic loop -> word is the identity on classes
        for cls in enumerate_geodesic_classes(bowtie_frame.rank, 4):
            rep = geodesic_representative(cls, bowtie_frame)
            lp = BasedLoop(rep + (rep[0],))
            lp.check_edges(bowtie)
            assert canonical_class(loop_to_word(lp, bowtie_frame)) == cls

    def test_base_point_independence(self, bowtie_frame):
        # conjugating the based word must not move the class
        rng = random.Random(11)
        for _ in range(50):
            w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(6))
            try:
                w = reduce_word(w)
            except ValidationError:
                continue
            c = tuple(rng.choice([1, -1, 2, -2]) for _ in range(3))
            conj = reduce_word(reduce_word(c + w) + inverse_word(c))
            assert canonical_class(w) == canonical_class(conj)

    def test_enumerate_loops_matches_classes(self, triangle, triangle_frame):
        # dual route: tailless non-backtracking vertex cycles vs the
        # abstract classes carried over by the representative map
        loops = geodesic_loops(triangle, 6)
        from_classes = set()
        for cls in enumerate_geodesic_classes(triangle_frame.rank, 6):
            rep = geodesic_representative(cls, triangle_frame)
            if 0 < len(rep) <= 6:
                from_classes.add(rep)
        assert set(loops) == from_classes

    def test_enumerate_loops_bowtie(self, bowtie, bowtie_frame):
        loops = geodesic_loops(bowtie, 5)
        from_classes = set()
        for cls in enumerate_geodesic_classes(bowtie_frame.rank, 5):
            rep = geodesic_representative(cls, bowtie_frame)
            if 0 < len(rep) <= 5:
                from_classes.add(rep)
        assert set(loops) == from_classes


def brute_walk_counts(g, max_len):
    """Non-backtracking walks of 1..max_len steps, counted by extending
    every walk by every neighbour of its end but the vertex it came from."""
    walks = [(x, y) for x in range(g.num_vertices) for y in g.neighbors[x]]
    counts = []
    for _ in range(max_len):
        counts.append(len(walks))
        walks = [w + (z,) for w in walks for z in g.neighbors[w[-1]]
                 if z != w[-2]]
    return counts


class TestWalkCounts:
    """The walk budget of ihara_check counts the non-backtracking walks of
    a d-regular graph on n vertices in closed form: n d (d-1)^(k-1) of k
    steps."""

    @pytest.mark.parametrize("graph", ["triangle", "k4", "petersen"])
    def test_regular_graphs(self, request, monkeypatch, graph):
        # the budget admits max_degree exactly while the walks' steps fit
        g = request.getfixturevalue(graph)
        steps = np.cumsum([k * c for k, c in
                           enumerate(brute_walk_counts(g, 7), start=1)])
        for limit in steps[:-1].tolist():
            monkeypatch.setattr(freegroup, "_WALK_LETTERS", limit)
            fits = int(np.searchsorted(steps, limit, side="right"))
            assert ihara_check(g, fits).agree()
            with pytest.raises(ConfigError, match=f"up to length {fits + 1} "):
                ihara_check(g, fits + 1)

    def test_budget_builds_no_successors(self):
        # the closed form reads only n and d, so a refused call builds no
        # edge table, let alone B's successor list
        g = build_graph(4, [(a, b, 1.0) for a in range(4)
                            for b in range(a + 1, 4)], 1.0)
        with pytest.raises(ConfigError, match="up to length 40"):
            ihara_check(g, 40)
        assert "_oriented" not in vars(g)
