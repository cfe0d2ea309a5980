"""Signatures of free-group words, the free Lie algebra toolkit, and the
crossing-current formulas for the low-degree invariants.

Most expected values here are exact rationals checked by hand on tiny
words; everything larger is verified by playing two independent
computational routes against each other (tensor route vs current route,
Lyndon coordinates vs direct bracket expansion, and so on).
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from loopsoup import (
    BasedLoop,
    LiePoly,
    LoopSoupSampler,
    NumericError,
    ValidationError,
    bracket_expansion,
    crossing_counts,
    currents,
    degree_and_lead,
    dynkin_bracket,
    dynkin_map,
    group_commutator,
    h3_from_lie,
    h3_slot_bracket,
    h3_slot_word,
    h3_slots,
    homology1,
    homology2,
    homology3,
    inverse_word,
    is_lie_component,
    iterated_crossing_coefficient,
    lie_bracket,
    lie_polynomial_via_currents,
    log_signature,
    lyndon_coordinates,
    lyndon_words,
    multiply_words,
    reduce_word,
    shuffle_check,
    shuffle_product,
    signature,
    standard_factorization,
    witt_dimension,
)


def random_word(rng, rank, max_len):
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    return reduce_word(rng.choices(letters, k=rng.randrange(max_len + 1)))


class TestSignature:
    def test_single_letter_is_exponential(self):
        # one unit step in direction 1: coefficient of 1^k is 1/k!
        s = signature((1,), degree=6)
        for k in range(7):
            assert s.coefficient((1,) * k) == Fraction(1, factorial(k))

    def test_inverse_letter(self):
        s = signature((-1,), degree=4)
        assert s.coefficient((1,)) == -1
        assert s.coefficient((1, 1)) == Fraction(1, 2)

    def test_two_step_coefficients_by_hand(self):
        s = signature((1, 2), degree=2)
        assert s.coefficient((1,)) == 1
        assert s.coefficient((2,)) == 1
        assert s.coefficient((1, 2)) == 1
        assert s.coefficient((2, 1)) == 0
        assert s.coefficient((1, 1)) == Fraction(1, 2)

    def test_chen_identity_small(self):
        u, w = (1, 2), (-2, 1, 1)
        lhs = signature(u, 4) * signature(w, 4)
        assert lhs == signature(multiply_words(u, w), 4)

    def test_chen_identity_random(self):
        rng = random.Random(7)
        for _ in range(60):
            u = random_word(rng, 3, 8)
            w = random_word(rng, 3, 8)
            assert signature(u, 4) * signature(w, 4) == \
                signature(multiply_words(u, w), 4)

    def test_signature_invariant_under_reduction(self):
        # inserting a backtrack never changes the signature
        s1 = signature((1, 2, -2, 3), 5)
        s2 = signature((1, 3), 5)
        assert s1 == s2

    def test_shuffle_identity(self):
        rng = random.Random(13)
        for _ in range(30):
            x = random_word(rng, 2, 8)
            s = signature(x, 5)
            u = tuple(rng.choice([1, 2]) for _ in range(rng.randrange(1, 3)))
            w = tuple(rng.choice([1, 2]) for _ in range(rng.randrange(1, 3)))
            assert shuffle_check(s, u, w)

    def test_shuffle_check_rejects_overflow(self):
        s = signature((1, 2), 3)
        with pytest.raises(ValidationError):
            shuffle_check(s, (1, 1), (2, 2))

    def test_shuffle_product_by_hand(self):
        assert shuffle_product((1,), (2,)) == {(1, 2): 1, (2, 1): 1}
        assert shuffle_product((1,), (1,)) == {(1, 1): 2}


class TestLogSignature:
    def test_components_are_lie(self):
        rng = random.Random(3)
        for _ in range(25):
            x = random_word(rng, 3, 9)
            ls = log_signature(x, 4)
            for n in range(1, 5):
                assert is_lie_component(ls.component(n), n)

    def test_dynkin_bracket_by_hand(self):
        assert dynkin_bracket((1, 2)) == {(1, 2): 1, (2, 1): -1}
        # [[x1, x2], x3] has four tensor terms
        assert dynkin_bracket((1, 2, 3)) == {
            (1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): -1, (3, 2, 1): 1}
        with pytest.raises(ValidationError):
            dynkin_bracket(())

    def test_dynkin_idempotence(self):
        # on a Lie element of degree n the bracketing map is n * id
        rng = random.Random(17)
        for _ in range(20):
            x = random_word(rng, 2, 8)
            ls = log_signature(x, 4)
            for n in range(1, 5):
                comp = ls.component(n)
                mapped = dynkin_map(comp)
                for w, c in comp.items():
                    assert mapped.get(w, Fraction(0)) == n * c

    def test_log_exp_round_trip(self):
        x = (1, 2, -1, 2, 2)
        s = signature(x, 4)
        assert s.log() is not s
        # degree-1 part of log is the abelianization
        comp = s.log().component(1)
        assert comp.get((1,), Fraction(0)) == 0
        assert comp.get((2,), Fraction(0)) == 3


class TestLyndon:
    def test_counts_match_witt(self):
        for r in (1, 2, 3, 4):
            ws = lyndon_words(r, 5)
            for n in range(1, 6):
                got = sum(1 for w in ws if len(w) == n)
                assert got == witt_dimension(r, n)

    def test_witt_values_by_hand(self):
        # rank 2: 2, 1, 2, 3, 6; rank 3: 3, 3, 8
        assert [witt_dimension(2, n) for n in range(1, 6)] == [2, 1, 2, 3, 6]
        assert [witt_dimension(3, n) for n in range(1, 4)] == [3, 3, 8]

    def test_standard_factorization(self):
        assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))

    def test_bracket_expansion_triangular(self):
        # expansion of a Lyndon bracket starts at the word itself
        for w in lyndon_words(3, 4):
            exp = bracket_expansion(w)
            assert exp[w] == 1
            assert all(v >= w for v in exp)

    def test_lyndon_coordinates_round_trip(self):
        rng = random.Random(23)
        for _ in range(15):
            x = random_word(rng, 2, 8)
            for n in (2, 3):
                comp = log_signature(x, n).component(n)
                coords = lyndon_coordinates(comp, 2, n)
                rebuilt = {}
                for w, c in coords.items():
                    for v, k in bracket_expansion(w).items():
                        rebuilt[v] = rebuilt.get(v, Fraction(0)) + c * k
                rebuilt = {w: c for w, c in rebuilt.items() if c}
                assert rebuilt == {w: c for w, c in comp.items() if c}

    def test_lyndon_coordinates_reject_non_lie(self):
        with pytest.raises(ValidationError):
            lyndon_coordinates({(1, 2): Fraction(1), (2, 1): Fraction(1)}, 2, 2)


class TestLiePoly:
    def test_commutator_lead(self):
        d, lead = degree_and_lead(group_commutator((1,), (2,)))
        assert d == 2
        assert lead.sorted_coords() == [((1, 2), Fraction(1))]

    def test_nested_commutator_lead(self):
        w = group_commutator(group_commutator((1,), (2,)), (2,))
        d, lead = degree_and_lead(w)
        assert d == 3
        assert lead.sorted_coords() == [((1, 2, 2), Fraction(1))]

    def test_inverse_negates_lead(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            x = random_word(rng, 2, 10)
            if not x:
                continue
            d, lead = degree_and_lead(x)
            di, leadi = degree_and_lead(inverse_word(x))
            assert di == d
            assert leadi == -lead
            checked += 1
        assert checked > 20

    def test_identity_rejected(self):
        with pytest.raises(ValidationError):
            degree_and_lead(())

    def test_degree_cap(self):
        # fourth nested commutator has degree 5 > cap 3
        w = (1,)
        for _ in range(4):
            w = group_commutator(w, (2,))
        with pytest.raises(NumericError):
            degree_and_lead(w, max_degree=3)

    def test_degree_cap_below_one_rejected(self):
        with pytest.raises(ValidationError, match="max_degree"):
            degree_and_lead((1,), max_degree=0)

    def test_round_trip_through_tensor(self):
        w = group_commutator((1,), (2,))
        d, lead = degree_and_lead(w)
        back = LiePoly.from_tensor(lead.to_tensor(), lead.rank, d)
        assert back == lead

    def test_bracket_antisymmetry(self):
        a = {(1,): Fraction(1)}
        b = {(2,): Fraction(1)}
        ab = lie_bracket(a, b)
        ba = lie_bracket(b, a)
        assert ab == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
        assert all(ba.get(w, 0) == -c for w, c in ab.items())


class TestCurrents:
    def test_single_currents_are_letter_counts(self):
        x = (1, -1, 2, 1)
        # net crossings: letter 1 appears twice +, once -; letter 2 once
        assert currents(x, (1,)) == 1
        assert currents(x, (2,)) == 1

    def test_crossing_counts(self):
        x = (1, -1, 2, 1)
        assert crossing_counts(x, None) in (
            {1: (2, 1), 2: (1, 0)},
            {1: (2, 1), 2: (1, 0), 3: (0, 0)},
        )

    def test_double_current_by_hand(self):
        # word 1 then 2: one ordered (1,2) crossing pair, none reversed
        assert currents((1, 2), (1, 2)) == 1
        assert currents((1, 2), (2, 1)) == 0

    def test_strict_current_equals_signature_coefficient(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(60):
            x = random_word(rng, 3, 9)
            idx = tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(1, 4)))
            if any(idx[i] == idx[i + 1] for i in range(len(idx) - 1)):
                continue  # strict currents need non-repeating neighbors
            s = signature(x, len(idx))
            assert s.coefficient(idx) == currents(x, idx)
            hits += 1
        assert hits > 20

    def test_block_coefficient_equals_signature_always(self):
        # with repeated neighbors the naive current is wrong and the
        # block-weighted sum takes over; it must match at every word
        rng = random.Random(43)
        for _ in range(60):
            x = random_word(rng, 2, 9)
            idx = tuple(rng.choice([1, 2]) for _ in range(rng.randrange(1, 5)))
            s = signature(x, len(idx))
            assert s.coefficient(idx) == iterated_crossing_coefficient(x, idx)

    def test_currents_from_loop(self, triangle, triangle_frame):
        lp = BasedLoop((0, 1, 2, 0))
        assert currents(lp, (1,), frame=triangle_frame) == 1
        assert homology1(lp, frame=triangle_frame) == (1,)


class TestHomology:
    def test_h1_is_abelianization(self):
        rng = random.Random(47)
        for _ in range(40):
            x = random_word(rng, 3, 10)
            h = homology1(x, rank=3)
            want = tuple(sum(1 if l == i else -1 if l == -i else 0 for l in x)
                         for i in range(1, 4))
            assert h == want

    def test_h1_equals_currents_per_index(self, k4, k4_frame):
        # one pass over the crossings against one current per generator:
        # unreduced words, rank inferred or given, letters above the rank
        rng = random.Random(53)
        for _ in range(200):
            rank = rng.randint(1, 4)
            x = tuple(rng.choice((1, -1)) * rng.randint(1, rank + 2)
                      for _ in range(rng.randrange(12)))
            for r in (None, rank):
                n = r if r is not None else max(map(abs, x), default=0)
                assert homology1(x, rank=r) == tuple(
                    currents(x, (i,)) for i in range(1, n + 1))
        sampler = LoopSoupSampler(k4, k4_frame, alpha=20.0, n_max=12)
        loops = [lp for seed in range(5) for lp in sampler.sample(seed).loops]
        assert len(loops) > 50
        for lp in loops:
            assert homology1(lp, k4_frame) == tuple(
                currents(lp, (i,), k4_frame) for i in range(1, k4_frame.rank + 1))
        assert homology1((1, -2, 5), rank=0) == ()
        for x, kw in (((4,), {"frame": k4_frame}), ((1, 0), {"rank": 2}),
                      (BasedLoop((0, 1, 2, 0)), {"rank": 1})):
            with pytest.raises(ValidationError):
                homology1(x, **kw)

    def test_h2_commutator_of_generators(self):
        w = group_commutator((1,), (2,))
        assert homology1(w, rank=2) == (0, 0)
        assert homology2(w, rank=2) == {(1, 2): 1}

    def test_h2_requires_null_h1(self):
        with pytest.raises(ValidationError):
            homology2((1,), rank=2)

    def test_h2_matches_log_signature(self):
        # current route vs tensor route on commutator-like words
        rng = random.Random(53)
        hits = 0
        for _ in range(60):
            u = random_word(rng, 2, 5)
            w = random_word(rng, 2, 5)
            x = group_commutator(u, w)
            if not x:
                continue
            h2 = homology2(x, rank=2)
            comp = log_signature(x, 2).component(2)
            coords = lyndon_coordinates(comp, 2, 2)
            assert coords.get((1, 2), Fraction(0)) == h2[(1, 2)]
            hits += 1
        assert hits > 20

    def test_h3_slot_words_hit_their_slot(self):
        for rank in (2, 3):
            for key in h3_slots(rank):
                w = h3_slot_word(key)
                h3 = homology3(w, rank=rank)
                assert h3[key] == 1
                assert all(v == 0 for k, v in h3.items() if k != key)

    def test_h3_matches_lie_route(self):
        # double commutators have trivial h1 and h2, so the third
        # invariant is the log-signature's degree-3 component
        rng = random.Random(59)
        hits = 0
        for _ in range(40):
            u = random_word(rng, 2, 4)
            w = random_word(rng, 2, 4)
            v = random_word(rng, 2, 4)
            x = group_commutator(group_commutator(u, w), v)
            if not x or homology1(x, rank=2) != (0, 0):
                continue
            if any(homology2(x, rank=2).values()):
                continue
            comp = log_signature(x, 3).component(3)
            want = h3_from_lie(comp, 2)
            got = homology3(x, rank=2)
            assert got == {k: int(c) for k, c in want.items()}
            hits += 1
        assert hits > 5

    def test_h3_integrality_guard(self):
        # a word with nonzero h2 shrugs off the slot formulas; the
        # half-integer result must be flagged, not silently floored
        with pytest.raises((NumericError, ValidationError)):
            homology3((1, 2, -1, -2), rank=2)

    def test_slot_brackets_are_dual_to_coordinates(self):
        # the slot basis and the linear-solve route must be inverse to
        # each other, slot by slot
        for rank in (2, 3):
            for key in h3_slots(rank):
                coords = h3_from_lie(h3_slot_bracket(key), rank)
                assert {k: c for k, c in coords.items() if c} == \
                    {key: Fraction(1)}


class TestLieViaCurrents:
    def test_agrees_with_tensor_route(self):
        rng = random.Random(61)
        seen_degrees = set()
        for _ in range(60):
            u = random_word(rng, 2, 4)
            w = random_word(rng, 2, 4)
            x = group_commutator(u, w)
            if not x:
                continue
            d, lead = degree_and_lead(x)
            if d > 4:
                continue
            got = lie_polynomial_via_currents(x, d, rank=2)
            assert got == lead
            seen_degrees.add(d)
        assert 2 in seen_degrees

    def test_wrong_degree_is_loud(self):
        w = group_commutator((1,), (2,))
        with pytest.raises(ValidationError, match="critical degree is 2"):
            lie_polynomial_via_currents(w, 3, rank=2)
