"""Words, reduction, conjugacy classes, loops and their geodesics."""

import random

import pytest

from loopsoup import (
    BasedLoop,
    GeodesicClass,
    ValidationError,
    build_graph,
    canonical_class,
    crossing_word,
    cyclic_reduce,
    enumerate_geodesic_classes,
    enumerate_geodesic_loops,
    format_word,
    geodesic_reduce,
    geodesic_representative,
    group_commutator,
    inverse_word,
    loop_to_word,
    min_rotation,
    multiplicity,
    multiply_words,
    parse_word,
    reduce_word,
    spanning_tree_frame,
)
from loopsoup.freegroup import _reduce_cycle


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
        assert multiply_words((1, 2), (-2, -1)) == ()
        assert multiply_words((1, 2), (3,)) == (1, 2, 3)

    def test_group_axioms_random(self):
        rng = random.Random(5)
        letters = [1, -1, 2, -2, 3, -3]
        for _ in range(100):
            u = reduce_word(rng.choices(letters, k=rng.randrange(9)))
            w = reduce_word(rng.choices(letters, k=rng.randrange(9)))
            v = reduce_word(rng.choices(letters, k=rng.randrange(9)))
            assert multiply_words(u, inverse_word(u)) == ()
            lhs = multiply_words(multiply_words(u, w), v)
            assert lhs == multiply_words(u, multiply_words(w, v))

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

    def test_canonical_inverse_distinct(self):
        assert canonical_class((1,)) != canonical_class((-1,))

    def test_multiplicity(self):
        assert multiplicity((1, 2, 1, 2)) == 2
        assert multiplicity((1, 2, 1)) == 1
        assert canonical_class((1, 1, 1)).multiplicity == 3
        assert canonical_class((1, 2, 1, 2)).primitive() == canonical_class((1, 2))

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


def root_walk_representative(cls, frame):
    """Reference geodesic: expand each letter from the root (tree path to
    the generator edge, then the crossing), close up through the tree, and
    erase backtracks cyclically."""
    if cls.is_trivial:
        return ()
    walk = [frame.root]
    for l in cls.word:
        u, v = frame.cogenerators[abs(l) - 1]
        a, b = (u, v) if l > 0 else (v, u)
        walk.extend(frame.tree_path(walk[-1], a)[1:])
        walk.append(b)
    walk.extend(frame.tree_path(walk[-1], frame.root)[1:])
    return min_rotation(_reduce_cycle(walk[:-1]))


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
        assert lp.base == 0

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

    def test_geodesic_reduce_removes_backtracks(self):
        assert geodesic_reduce(BasedLoop((0, 1, 0, 2, 0))) == ()
        assert geodesic_reduce(BasedLoop((0, 1, 2, 0))) == min_rotation((0, 1, 2))

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
            conj = multiply_words(multiply_words(c, w), inverse_word(c))
            assert canonical_class(w) == canonical_class(conj)

    def test_enumerate_loops_matches_classes(self, triangle, triangle_frame):
        # dual route: tailless non-backtracking vertex cycles vs the
        # abstract classes carried over by the representative map
        loops = enumerate_geodesic_loops(triangle, 6)
        from_classes = set()
        for cls in enumerate_geodesic_classes(triangle_frame.rank, 6):
            rep = geodesic_representative(cls, triangle_frame)
            if 0 < len(rep) <= 6:
                from_classes.add(rep)
        assert set(loops) == from_classes

    def test_enumerate_loops_bowtie(self, bowtie, bowtie_frame):
        loops = enumerate_geodesic_loops(bowtie, 5)
        from_classes = set()
        for cls in enumerate_geodesic_classes(bowtie_frame.rank, 5):
            rep = geodesic_representative(cls, bowtie_frame)
            if 0 < len(rep) <= 5:
                from_classes.add(rep)
        assert set(loops) == from_classes
