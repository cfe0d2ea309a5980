"""Signatures of free-group words, the free Lie algebra toolkit, and the
crossing-current formulas for the low-degree invariants.

Most expected values here are exact rationals checked by hand on tiny
words; everything larger is verified by playing two independent
computational routes against each other (tensor route vs current route,
Lyndon coordinates vs direct bracket expansion, and so on).
"""

import importlib
import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import pytest

from loopsoup import (
    BasedLoop,
    LiePoly,
    LoopSoupSampler,
    NumericError,
    TensorSeries,
    ValidationError,
    bracket_expansion,
    currents,
    degree_and_lead,
    dynkin_map,
    group_commutator,
    h3_from_lie,
    h3_slot_bracket,
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
    reduce_word,
    shuffle_check,
    shuffle_product,
    signature,
    standard_factorization,
    witt_dimension,
)
from loopsoup.signature import h3_slot_word

# the module, which the package's `signature` function shadows
signature_module = importlib.import_module("loopsoup.signature")


def random_word(rng, rank, max_len):
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    return reduce_word(rng.choices(letters, k=rng.randrange(max_len + 1)))


def fraction_log(s):
    """Reference tensor logarithm: sum_m (-1)^(m+1) (S - 1)^m / m, with the
    powers taken by the Fraction product of TensorSeries."""
    assert s.coefficient(()) == 1
    a = TensorSeries(s.degree, {w: c for w, c in s.terms.items() if w})
    out = {}
    power = a
    for m in range(1, s.degree + 1):
        if m > 1:
            power = power * a
        coef = Fraction((-1) ** (m + 1), m)
        for w, c in power.terms.items():
            out[w] = out.get(w, Fraction(0)) + coef * c
    return TensorSeries(s.degree, {w: c for w, c in out.items() if c})


def fold_numerators(word, degree):
    """Reference for the graded pass: the signature's coefficients times d!
    per degree d, folding the runs of the word into every degree at once."""
    buckets = [{} for _ in range(degree + 1)]
    buckets[0][()] = 1
    for letter, count in signature_module._runs(word):
        new = [dict(bucket) for bucket in buckets]
        for d, bucket in enumerate(buckets):
            for k in range(1, degree - d + 1):
                factor = count ** k * comb(d + k, k)
                tail = (letter,) * k
                tgt = new[d + k]
                for w, num in bucket.items():
                    key = w + tail
                    tgt[key] = tgt.get(key, 0) + num * factor
        buckets = new
    return [{w: num for w, num in bucket.items() if num} for bucket in buckets]


def reference_lead(word, max_degree=8):
    """Critical degree and lead by the log route: the first nonzero
    component of the Fraction log of the signature."""
    w = reduce_word(word)
    r = max(abs(l) for l in w)
    for d in range(1, max_degree + 1):
        comp = fraction_log(signature(w, d)).component(d)
        if comp:
            return d, LiePoly.from_tensor(comp, r, d)
    raise NumericError(f"no nonzero component up to degree {max_degree}")


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
        assert lhs == signature(reduce_word(u + w), 4)

    def test_chen_identity_random(self):
        rng = random.Random(7)
        for _ in range(60):
            u = random_word(rng, 3, 8)
            w = random_word(rng, 3, 8)
            assert signature(u, 4) * signature(w, 4) == \
                signature(reduce_word(u + w), 4)

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
        assert dynkin_map({(1, 2): 1}) == {(1, 2): 1, (2, 1): -1}
        # [[x1, x2], x3] has four tensor terms
        assert dynkin_map({(1, 2, 3): 1}) == {
            (1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): -1, (3, 2, 1): 1}

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
        ls = log_signature(x, 4)
        # degree-1 part of log is the abelianization
        comp = ls.component(1)
        assert comp.get((1,), Fraction(0)) == 0
        assert comp.get((2,), Fraction(0)) == 3


class TestIntegerRoute:
    """The integer log, Lyndon peel and lead against the Fraction routes."""

    @staticmethod
    def _words():
        # three reduced words of length 3..8 on each rank 1..4
        rng = random.Random(41)
        words = [(), (3,)]
        for rank in (1, 2, 3, 4):
            letters = [l for i in range(1, rank + 1) for l in (i, -i)]
            while len(words) < 2 + 3 * rank:
                w = reduce_word(rng.choices(letters, k=rng.randint(3, 8)))
                if len(w) >= 3:
                    words.append(w)
        return words

    WORDS = _words()

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_log_equals_fraction_reference(self, degree):
        for x in self.WORDS:
            got = log_signature(x, degree)
            assert got.terms == fraction_log(signature(x, degree)).terms, x
            # a component does not depend on the truncation, and the Dynkin
            # check of the degree-6 ones would take a second
            for n in range(1, min(degree, 5) + 1):
                assert is_lie_component(got.component(n), n)

    def test_inverse_word_negates_log(self):
        for x in self.WORDS:
            ls = log_signature(x, 5)
            inv = log_signature(inverse_word(x), 5)
            assert inv.terms == {w: -c for w, c in ls.terms.items()}

    def test_empty_and_single_letter(self):
        assert log_signature((), 4).terms == {}
        assert log_signature((3,), 4).terms == {(3,): Fraction(1)}
        assert log_signature((-2, -2), 3).terms == {(2,): Fraction(-2)}


class TestGradedPass:
    """The degree-major pass against the all-degrees fold."""

    @staticmethod
    def _words():
        # seeded unreduced words of ranks 1..4 and lengths 0..18, plus the
        # four-fold nested commutator (critical degree 5)
        rng = random.Random(67)
        words = []
        for rank in (1, 2, 3, 4):
            letters = [l for i in range(1, rank + 1) for l in (i, -i)]
            words += [tuple(rng.choices(letters, k=n)) for n in range(0, 19, 2)]
        depth4 = (1,)
        for _ in range(4):
            depth4 = group_commutator(depth4, (2,))
        return words + [depth4]

    WORDS = _words()

    def test_buckets_equal_the_fold(self):
        for x in self.WORDS:
            graded = list(islice(signature_module._graded_numerators(x), 7))
            for degree in range(1, 7):
                assert graded[:degree + 1] == fold_numerators(x, degree), (x, degree)

    def test_lead_equals_a_scan_of_the_fold(self):
        for x in self.WORDS:
            w = reduce_word(x)
            if not w:
                continue
            for cap in (1, 3, 6):
                scan = [(d, fold_numerators(w, d)[d]) for d in range(1, cap + 1)]
                d, top = next(((d, top) for d, top in scan if top), (None, None))
                if d is None:
                    with pytest.raises(NumericError, match=f"up to degree {cap}"):
                        degree_and_lead(w, max_degree=cap)
                    continue
                lead = {u: Fraction(num, factorial(d)) for u, num in top.items()}
                got = degree_and_lead(w, max_degree=cap)
                assert got == (d, LiePoly.from_tensor(lead, max(map(abs, w)), d))

    def test_lead_builds_one_pass(self, monkeypatch):
        calls = []

        def counted(word):
            calls.append(word)
            return graded(word)

        graded = signature_module._graded_numerators
        monkeypatch.setattr(signature_module, "_graded_numerators", counted)
        assert degree_and_lead(self.WORDS[-1])[0] == 5
        assert calls == [self.WORDS[-1]]


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

    def test_lyndon_coordinates_mixed_denominators(self):
        # (7/6)[1,[1,2]] - (5/4)[[1,2],2]: tensor coefficients over 12, 6
        # and 4 in one component
        want = {(1, 1, 2): Fraction(7, 6), (1, 2, 2): Fraction(-5, 4)}
        comp = {}
        for lw, c in want.items():
            for w, k in bracket_expansion(lw).items():
                comp[w] = comp.get(w, Fraction(0)) + c * k
        assert lyndon_coordinates(comp, 2, 3) == want
        comp[(2, 1, 1)] += Fraction(1, 12)
        with pytest.raises(ValidationError, match="free Lie algebra"):
            lyndon_coordinates(comp, 2, 3)


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

    def test_lead_equals_log_route(self):
        rng = random.Random(59)
        words = [random_word(rng, 1 + i % 3, 9) for i in range(12)]
        depth4 = (1,)
        for _ in range(4):
            depth4 = group_commutator(depth4, (2,))
        words += [depth4, group_commutator(group_commutator((1,), (2,)),
                                           group_commutator((1,), (3,)))]
        for x in words:
            if reduce_word(x):
                assert degree_and_lead(x) == reference_lead(x), x
        assert degree_and_lead(depth4)[0] == 5

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

    @pytest.mark.parametrize("invariant", [homology1, homology2, homology3,
                                           lambda x: currents(x, (1,))],
                             ids=["homology1", "homology2", "homology3", "currents"])
    def test_loop_without_a_frame_is_rejected(self, invariant):
        # a based loop has crossings only against a frame; without one the
        # rank cannot be read off it either
        with pytest.raises(ValidationError, match="a loop input needs a frame"):
            invariant(BasedLoop((0, 1, 2, 0)))

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
