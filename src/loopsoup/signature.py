"""Signatures of free-group words, Lie projections, and crossing currents.

The signature maps generator g_i to exp(X_i) in the algebra of formal tensor
series over noncommuting letters X_1..X_r, truncated at a fixed degree, and
extends multiplicatively. Its logarithm is a Lie series whose first nonzero
homogeneous component (at the "critical degree" of the word) depends only on
the homotopy class; the low-degree pieces are the nilpotent invariants used
elsewhere in the package: degree 1 gives winding numbers (homology1), degree
2 a skew integer matrix (homology2), degree 3 integer coordinates in a fixed
bracket basis (homology3).

Currents are signed counts of increasing index subsequences of a crossing
sequence. For index tuples with no two adjacent equal entries they coincide
with signature coefficients, hence are invariant under free reduction; with
adjacent repeats the invariant quantity is the block-weighted count
(iterated_crossing_coefficient), which is exactly the signature coefficient.

Everything here is exact rational arithmetic. The signature and its
logarithm are built on graded integer numerators (the degree-n part carries
an implicit 1/n!, the logarithm a further 1/lcm(1..degree)), and each
output term becomes one Fraction at the end. The numerators come from one
pass, degree by degree: a truncation takes its first degrees, and the
leading Lie term is the first nonzero one, where the signature equals the
log-signature. Lyndon coordinates are peeled on integers too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice
from math import comb, factorial, lcm
from typing import Iterable, Iterator, Mapping

from ._memo import memo
from .errors import ValidationError, NumericError
from .freegroup import (BasedLoop, Word, _check_word, crossing_word,
                        group_commutator, reduce_word)
from .graphs import SpanningTreeFrame

Component = dict[Word, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _clean(terms: Mapping[Word, Fraction]) -> Component:
    return {w: Fraction(c) for w, c in terms.items() if c != 0}


@dataclass(frozen=True)
class TensorSeries:
    """Tensor series over letters 1..r, truncated beyond `degree`.

    terms maps index words (tuples of positive ints, length <= degree) to
    exact rational coefficients; absent words have coefficient zero.
    """

    degree: int
    terms: Component = field(hash=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("truncation degree must be >= 1")
        # checked in bulk; only a failure rescans for the first bad term
        letters = list(chain.from_iterable(self.terms))
        if (max(map(len, self.terms), default=0) <= self.degree
                and all(issubclass(t, int) for t in set(map(type, letters)))
                and min(letters, default=1) >= 1):
            return
        for w in self.terms:
            if len(w) > self.degree:
                raise ValidationError(f"term {w} exceeds truncation {self.degree}")
            if any(not isinstance(i, int) or i < 1 for i in w):
                raise ValidationError(f"bad index word {w}")

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(word), _ZERO)

    def component(self, d: int) -> Component:
        return {w: c for w, c in self.terms.items() if len(w) == d}

    def _by_degree(self) -> list[Component]:
        buckets: list[Component] = [{} for _ in range(self.degree + 1)]
        for w, c in self.terms.items():
            buckets[len(w)][w] = c
        return buckets

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        if self.degree != other.degree:
            raise ValidationError("cannot multiply series of different truncation")
        buckets = other._by_degree()
        out: Component = {}
        for u, cu in self.terms.items():
            room = self.degree - len(u)
            for d in range(room + 1):
                for v, cv in buckets[d].items():
                    w = u + v
                    out[w] = out.get(w, _ZERO) + cu * cv
        return TensorSeries(self.degree, _clean(out))


def _runs(word: Word) -> list[tuple[int, int]]:
    # (letter index, signed run length); merging adjacent runs of one letter
    # performs free reduction along the way
    runs: list[tuple[int, int]] = []
    for l in word:
        i, s = abs(l), (1 if l > 0 else -1)
        if runs and runs[-1][0] == i:
            n = runs[-1][1] + s
            runs.pop()
            if n:
                runs.append((i, n))
        else:
            runs.append((i, s))
    return runs


def _graded_numerators(word: Iterable[int]) -> Iterator[dict[Word, int]]:
    # the signature's degree-d coefficients times d!, d = 0, 1, 2, ...: a run
    # of k letters after a degree-(d - k) word gains the binomial C(d, k), and
    # degree d of each run prefix needs degrees <= d of the one before it
    runs = _runs(_check_word(word))
    done: list[list[dict[Word, int]]] = [[{(): 1}] for _ in runs]
    yield {(): 1}
    for d in count(1):
        bucket: dict[Word, int] = {}
        for lower, (letter, n) in zip(done, runs):
            new = dict(bucket)
            for k in range(1, d + 1):
                factor = n ** k * comb(d, k)
                tail = (letter,) * k
                for w, num in lower[d - k].items():
                    key = w + tail
                    new[key] = new.get(key, 0) + num * factor
            lower.append(bucket)
            bucket = new
        yield {w: num for w, num in bucket.items() if num}


def _truncated_numerators(word: Iterable[int], degree: int) -> list[dict[Word, int]]:
    if degree < 1:
        raise ValidationError("signature truncation degree must be >= 1")
    return list(islice(_graded_numerators(word), degree + 1))


def signature(word: Iterable[int], degree: int = 5) -> TensorSeries:
    """Truncated signature of a word: the product of its exp(n X_i) factors.

    Built in integer arithmetic (a degree-d numerator carries an implicit
    1/d!) and converted to rationals at the end; exactness is preserved.
    """
    return TensorSeries(degree, {w: Fraction(num, factorial(len(w)))
                                 for bucket in _truncated_numerators(word, degree)
                                 for w, num in bucket.items()})


def log_signature(word: Iterable[int], degree: int = 5) -> TensorSeries:
    """Truncated tensor logarithm of the signature, a Lie series.

    With a = S - 1, log S = sum_m (-1)^(m+1) a^m / m. The degree-n part of
    a^m is kept as an integer numerator over n!: the product of a degree-j
    part of a^(m-1) and the degree-k part of a gains the binomial C(n, k).
    The sum is scaled by L = lcm(1..degree) so that every 1/m is an
    integer, and each output term becomes one Fraction over L n!.
    """
    a = _truncated_numerators(word, degree)
    scale = lcm(*range(1, degree + 1))
    total: list[dict[Word, int]] = [{} for _ in range(degree + 1)]
    power = [{}] + a[1:]
    for m in range(1, degree + 1):
        if m > 1:
            prev, power = power, [{} for _ in range(degree + 1)]
            for n in range(m, degree + 1):
                tgt = power[n]
                for k in range(1, n - m + 2):
                    left, right = prev[n - k], a[k]
                    if not left or not right:
                        continue
                    c = comb(n, k)
                    for u, x in left.items():
                        cx = c * x
                        for v, y in right.items():
                            key = u + v
                            tgt[key] = tgt.get(key, 0) + cx * y
        if not any(power):
            break
        coef = scale // m if m % 2 else -(scale // m)
        for n in range(m, degree + 1):
            acc = total[n]
            for w, x in power[n].items():
                acc[w] = acc.get(w, 0) + coef * x
    return TensorSeries(degree, {w: Fraction(x, scale * factorial(len(w)))
                                 for bucket in total for w, x in bucket.items() if x})


def shuffle_product(u: Word, w: Word) -> dict[Word, int]:
    """Multiset of interleavings of u and w, as word -> multiplicity."""
    out: dict[Word, int] = {}

    def rec(i: int, j: int, prefix: Word):
        if i == len(u) and j == len(w):
            out[prefix] = out.get(prefix, 0) + 1
            return
        if i < len(u):
            rec(i + 1, j, prefix + (u[i],))
        if j < len(w):
            rec(i, j + 1, prefix + (w[j],))

    rec(0, 0, ())
    return out


def shuffle_check(s: TensorSeries, u: Word, w: Word) -> bool:
    """<S,u><S,w> == <S, u shuffle w>, the defining property of signatures."""
    if len(u) + len(w) > s.degree:
        raise ValidationError(
            f"|u|+|w| = {len(u) + len(w)} exceeds truncation {s.degree}")
    lhs = s.coefficient(u) * s.coefficient(w)
    rhs = sum((c * s.coefficient(x) for x, c in shuffle_product(u, w).items()),
              _ZERO)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Lie machinery: Dynkin bracketing, Lyndon basis


def _dynkin(word: Word) -> tuple[tuple[Word, int], ...]:
    # left-to-right bracketing [[..[x1,x2],x3]..,xn] expanded in tensors;
    # not memoized, as a top-degree word is rarely bracketed twice
    terms = {word[:1]: 1}
    for last in word[1:]:
        out: dict[Word, int] = {}
        for w, c in terms.items():
            a, b = w + (last,), (last,) + w
            out[a] = out.get(a, 0) + c
            out[b] = out.get(b, 0) - c
        terms = {w: c for w, c in out.items() if c}
    return tuple(sorted(terms.items()))


def dynkin_map(component: Mapping[Word, Fraction]) -> Component:
    """Apply the left-bracketing map termwise to a homogeneous component."""
    out: Component = {}
    for w, c in component.items():
        if c == 0:
            continue
        for v, k in _dynkin(w):
            out[v] = out.get(v, _ZERO) + c * k
    return _clean(out)


def is_lie_component(component: Mapping[Word, Fraction], n: int) -> bool:
    """Dynkin criterion: homogeneous h of degree n is Lie iff beta(h) = n h."""
    scaled = _clean({w: n * Fraction(c) for w, c in component.items()})
    return dynkin_map(component) == scaled


def lie_bracket(a: Mapping[Word, Fraction], b: Mapping[Word, Fraction]) -> Component:
    out: Component = {}
    for u, cu in a.items():
        for v, cv in b.items():
            out[u + v] = out.get(u + v, _ZERO) + cu * cv
            out[v + u] = out.get(v + u, _ZERO) - cu * cv
    return _clean(out)


def lyndon_words(rank: int, max_len: int) -> list[Word]:
    """Lyndon words over the alphabet 1..rank, lengths 1..max_len, in
    lexicographic order (Duval's generation)."""
    if rank < 1 or max_len < 1:
        raise ValidationError("rank and max_len must be >= 1")
    out: list[Word] = []
    w = [1]
    while w:
        out.append(tuple(w))
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == rank:
            w.pop()
        if w:
            w[-1] += 1
    return out


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as u v with v its lexicographically
    least proper suffix (also Lyndon); bracketing recurses on this split."""
    if len(word) < 2:
        raise ValidationError("factorization needs length >= 2")
    best = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:best], word[best:]


@memo
def _bracket_expansion(word: Word) -> tuple[tuple[Word, int], ...]:
    if len(word) == 1:
        return ((word, 1),)
    u, v = standard_factorization(word)
    a = {w: Fraction(c) for w, c in _bracket_expansion(u)}
    b = {w: Fraction(c) for w, c in _bracket_expansion(v)}
    return tuple(sorted((w, int(c)) for w, c in lie_bracket(a, b).items()))


def bracket_expansion(word: Word) -> dict[Word, int]:
    """Tensor expansion of the Lyndon bracketing of a Lyndon word. The
    expansion is the word itself plus lexicographically greater words."""
    return dict(_bracket_expansion(tuple(word)))


@memo
def _lyndon_words_of_length(rank: int, n: int) -> tuple[Word, ...]:
    return tuple(w for w in lyndon_words(rank, n) if len(w) == n)


def lyndon_coordinates(component: Mapping[Word, Fraction], rank: int,
                       n: int) -> dict[Word, Fraction]:
    """Coordinates of a degree-n Lie component in the Lyndon bracket basis.

    Peels coefficients in increasing lexicographic order; triangularity of
    bracket_expansion makes this exact. The peel runs on integers, the
    component scaled by the lcm of its denominators. A nonzero remainder
    means the input is not a Lie element, which is rejected.
    """
    comp = _clean(component)
    if any(len(w) != n for w in comp):
        raise ValidationError(f"component is not homogeneous of degree {n}")
    scale = lcm(*(c.denominator for c in comp.values()))
    work = {w: c.numerator * (scale // c.denominator) for w, c in comp.items()}
    coords: dict[Word, Fraction] = {}
    for lw in _lyndon_words_of_length(rank, n):
        c = work.get(lw, 0)
        if c:
            coords[lw] = Fraction(c, scale)
            for w, k in _bracket_expansion(lw):
                nv = work.get(w, 0) - c * k
                if nv:
                    work[w] = nv
                else:
                    work.pop(w, None)
    if work:
        raise ValidationError("component is not in the free Lie algebra")
    return coords


@dataclass(frozen=True)
class LiePoly:
    """Homogeneous Lie polynomial in Lyndon-basis coordinates."""

    degree: int
    rank: int
    coords: dict[Word, Fraction] = field(hash=False)

    @classmethod
    def from_tensor(cls, component: Mapping[Word, Fraction], rank: int,
                    degree: int) -> "LiePoly":
        return cls(degree, rank, lyndon_coordinates(component, rank, degree))

    def to_tensor(self) -> Component:
        out: Component = {}
        for lw, c in self.coords.items():
            for w, k in _bracket_expansion(lw):
                out[w] = out.get(w, _ZERO) + c * k
        return _clean(out)

    def sorted_coords(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.coords.items())

    def __neg__(self) -> "LiePoly":
        return LiePoly(self.degree, self.rank,
                       {w: -c for w, c in self.coords.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LiePoly) and self.degree == other.degree
                and _clean(self.coords) == _clean(other.coords))


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(rank: int, n: int) -> int:
    """Dimension of the degree-n component of the free Lie algebra on rank
    generators: (1/n) sum_{d | n} mobius(d) rank^{n/d}."""
    if rank < 1 or n < 1:
        raise ValidationError("rank and degree must be >= 1")
    total = sum(_mobius(d) * rank ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


# ---------------------------------------------------------------------------
# currents: signed crossing counts


def _crossing_seq(x, frame: SpanningTreeFrame | None) -> Word:
    """The crossing letters of x: a based loop's, as the frame produces
    them, or a word's, checked, and against the frame's rank if given."""
    if isinstance(x, BasedLoop):
        if frame is None:
            raise ValidationError("a loop input needs a frame")
        return crossing_word(x, frame)
    letters = _check_word(x)
    if frame is not None:
        bad = [l for l in letters if abs(l) > frame.rank]
        if bad:
            raise ValidationError(f"letter {bad[0]} exceeds rank {frame.rank}")
    return letters


def _check_indices(idx: Word, frame: SpanningTreeFrame | None) -> None:
    for i in idx:
        if not isinstance(i, int) or i < 1:
            raise ValidationError(f"indices must be positive ints, got {idx}")
        if frame is not None and i > frame.rank:
            raise ValidationError(f"index {i} out of range 1..{frame.rank}")


def currents(x, indices: Iterable[int],
             frame: SpanningTreeFrame | None = None) -> int:
    """Signed count of increasing crossing subsequences matching `indices`.

    Scans the crossing sequence of x (a word, or a based loop with a frame)
    for time tuples t_1 < ... < t_m whose letters are the given indices in
    order, each weighted by the product of crossing signs. Equals the
    signature coefficient of the index word whenever no two adjacent entries
    of `indices` are equal, and only then is it a homotopy invariant.
    """
    idx = tuple(indices)
    _check_indices(idx, frame)
    m = len(idx)
    f = [0] * (m + 1)
    f[0] = 1
    for l in _crossing_seq(x, frame):
        i, s = (l, 1) if l > 0 else (-l, -1)
        for k in range(m, 0, -1):
            if idx[k - 1] == i and f[k - 1]:
                f[k] += s * f[k - 1]
    return f[m]


def iterated_crossing_coefficient(x, word: Iterable[int],
                                  frame: SpanningTreeFrame | None = None
                                  ) -> Fraction:
    """Signature coefficient <S(x), word> without building the series.

    Like `currents`, but a single crossing may account for a whole block of
    k adjacent equal letters of `word` with weight sign^k / k!. Agrees with
    the strict count when `word` has no adjacent repeats.
    """
    w = tuple(word)
    _check_indices(w, frame)
    m = len(w)
    f = [_ZERO] * (m + 1)
    f[0] = _ONE
    for l in _crossing_seq(x, frame):
        i, s = (l, 1) if l > 0 else (-l, -1)
        new = f.copy()
        for j in range(m):
            if f[j] == 0:
                continue
            weight = _ONE
            k = 0
            while j + k < m and w[j + k] == i:
                k += 1
                weight = weight * s / k
                new[j + k] += f[j] * weight
        f = new
    return f[m]


def _infer_rank(x, frame: SpanningTreeFrame | None, rank: int | None) -> int:
    if frame is not None:
        return frame.rank
    if rank is not None:
        return rank
    return max((abs(l) for l in _crossing_seq(x, None)), default=0)


def homology1(x, frame: SpanningTreeFrame | None = None,
              rank: int | None = None) -> tuple[int, ...]:
    """Winding numbers: net signed crossings of each generator. Letters
    above the rank are not counted."""
    r = _infer_rank(x, frame, rank)
    if r == 0:
        return ()
    out = [0] * (r + 1)
    for l in _crossing_seq(x, frame):
        if l > 0:
            if l <= r:
                out[l] += 1
        elif l >= -r:
            out[-l] -= 1
    return tuple(out[1:])


def homology2(x, frame: SpanningTreeFrame | None = None,
              rank: int | None = None) -> dict[tuple[int, int], int]:
    """Second nilpotent invariant: {(i, j): (N_ij - N_ji)/2} for i < j.

    Defined for loops and words whose winding numbers all vanish (rejected
    otherwise); then N_ij + N_ji = 0, the difference is even, and the value
    is the plain pair current N_ij.
    """
    r = _infer_rank(x, frame, rank)
    if any(homology1(x, frame, r)):
        raise ValidationError("homology2 needs vanishing homology1")
    out: dict[tuple[int, int], int] = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            diff = currents(x, (i, j), frame) - currents(x, (j, i), frame)
            assert diff % 2 == 0
            out[(i, j)] = diff // 2
    return out


H3Key = tuple[int, int] | tuple[int, int, int, int]


def h3_slots(rank: int) -> list[H3Key]:
    """Keys of the degree-3 bracket basis: (i,j,k,0) and (i,j,k,1) for
    i<j<k, plus (i,j) for i != j. The count r(r^2-1)/3 matches
    witt_dimension(rank, 3)."""
    slots: list[H3Key] = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            for k in range(j + 1, rank + 1):
                slots.append((i, j, k, 0))
                slots.append((i, j, k, 1))
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i != j:
                slots.append((i, j))
    return slots


def h3_slot_bracket(key: H3Key) -> Component:
    """Tensor expansion of a slot's basis bracket."""
    x = lambda i: {(i,): _ONE}
    if len(key) == 4:
        i, j, k, which = key
        if which == 0:
            return lie_bracket(lie_bracket(x(i), x(j)), x(k))
        return lie_bracket(lie_bracket(x(j), x(k)), x(i))
    i, j = key
    return lie_bracket(lie_bracket(x(j), x(i)), x(i))


def h3_slot_word(key: H3Key) -> Word:
    """Group word whose leading Lie term is the slot's basis bracket; it
    maps to +1 on its own slot and 0 on all others."""
    g = lambda i: (i,)
    if len(key) == 4:
        i, j, k, which = key
        if which == 0:
            return group_commutator(group_commutator(g(i), g(j)), g(k))
        return group_commutator(group_commutator(g(j), g(k)), g(i))
    i, j = key
    return group_commutator(group_commutator(g(j), g(i)), g(i))


def homology3(x, frame: SpanningTreeFrame | None = None,
              rank: int | None = None) -> dict[H3Key, int]:
    """Third nilpotent invariant, as integer coordinates on h3_slots.

    Defined when homology1 and homology2 vanish. Computed from triple
    currents: the coordinate is -(N_jik + 2 N_kij)/3 on slot (i,j,k,0),
    (2 N_jki + N_ikj)/3 on slot (i,j,k,1), and -N_iji/2 on slot (i,j).
    Shuffle relations make all of these integers in the defined regime.
    """
    r = _infer_rank(x, frame, rank)
    if any(homology2(x, frame, r).values()):
        raise ValidationError("homology3 needs vanishing homology2")
    cur = lambda a, b, c: currents(x, (a, b, c), frame)
    out: dict[H3Key, int] = {}
    for key in h3_slots(r):
        if len(key) == 4:
            i, j, k, which = key
            if which == 0:
                val = -Fraction(cur(j, i, k) + 2 * cur(k, i, j), 3)
            else:
                val = Fraction(2 * cur(j, k, i) + cur(i, k, j), 3)
        else:
            i, j = key
            val = -Fraction(cur(i, j, i), 2)
        if val.denominator != 1:
            raise NumericError(f"non-integral coordinate {val} at slot {key}")
        out[key] = int(val)
    return out


def h3_from_lie(component: Mapping[Word, Fraction], rank: int
                ) -> dict[H3Key, Fraction]:
    """Coordinates of a degree-3 Lie component in the h3_slots basis, by
    exact linear solve. Rejects components outside the span."""
    slots = h3_slots(rank)
    basis = [h3_slot_bracket(k) for k in slots]
    words = sorted(set().union(*[set(b) for b in basis], set(component)))
    rows = [[b.get(w, _ZERO) for b in basis] + [Fraction(component.get(w, _ZERO))]
            for w in words]
    pivot_of_col: dict[int, int] = {}
    rank_used = 0
    for col in range(len(slots)):
        piv = next((r_ for r_ in range(rank_used, len(rows)) if rows[r_][col]),
                   None)
        if piv is None:
            continue
        rows[rank_used], rows[piv] = rows[piv], rows[rank_used]
        prow = [c / rows[rank_used][col] for c in rows[rank_used]]
        rows[rank_used] = prow
        for r_ in range(len(rows)):
            if r_ != rank_used and rows[r_][col]:
                f = rows[r_][col]
                rows[r_] = [a - f * b for a, b in zip(rows[r_], prow)]
        pivot_of_col[col] = rank_used
        rank_used += 1
    if any(row[-1] for row in rows[rank_used:]):
        raise ValidationError("component is not a degree-3 Lie element")
    return {slots[col]: rows[pr][-1] for col, pr in pivot_of_col.items()}


def degree_and_lead(word: Iterable[int], max_degree: int = 8
                    ) -> tuple[int, LiePoly]:
    """Critical degree and leading Lie term of a word's log-signature.

    Below the critical degree c every component of S - 1 vanishes, so the
    log-signature and the signature agree at degree c: c is the first
    degree at which the signature has a nonzero component, and that
    component is the lead. One pass of the graded signature walks up to it;
    no logarithm is built.

    The word must not reduce to the identity and max_degree must be at
    least 1. Raises NumericError with the scan cap if nothing shows up by
    max_degree (deep commutators; raise the cap to resolve).
    """
    if max_degree < 1:
        raise ValidationError("max_degree must be >= 1")
    w = reduce_word(word)
    if not w:
        raise ValidationError("the identity word has no critical degree")
    r = max(abs(l) for l in w)
    graded = islice(_graded_numerators(w), 1, max_degree + 1)
    for d, top in enumerate(graded, start=1):
        if top:
            lead = {u: Fraction(num, factorial(d)) for u, num in top.items()}
            return d, LiePoly.from_tensor(lead, r, d)
    raise NumericError(f"no nonzero component up to degree {max_degree}")


def lie_polynomial_via_currents(x, m: int,
                                frame: SpanningTreeFrame | None = None,
                                rank: int | None = None) -> LiePoly:
    """Leading Lie term from crossing counts alone, for a word or loop of
    critical degree exactly m.

    At the critical degree the log-signature equals the signature minus 1,
    so its coefficients are the block-weighted crossing counts; applying the
    left-bracketing map over all degree-m index words and dividing by m
    reproduces the Lie term. Dual route to degree_and_lead, exactly equal.
    Rejects inputs whose critical degree is not m, reporting the true degree.
    """
    if m < 1:
        raise ValidationError("critical degree must be >= 1")
    r = _infer_rank(x, frame, rank)
    for d in range(1, m + 1):
        comp: Component = {}

        def scan(prefix: Word):
            if len(prefix) == d:
                c = iterated_crossing_coefficient(x, prefix, frame)
                if c:
                    comp[prefix] = c
                return
            for i in range(1, r + 1):
                scan(prefix + (i,))

        scan(())
        if comp and d < m:
            raise ValidationError(f"critical degree is {d}, not {m}")
        if comp:
            lead = _clean({w: c / m for w, c in dynkin_map(comp).items()})
            return LiePoly.from_tensor(lead, r, m)
    raise ValidationError(f"critical degree exceeds {m}")
