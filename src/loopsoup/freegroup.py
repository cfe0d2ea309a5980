"""Words in a finitely generated free group, and loop words on a framed graph.

Letters are nonzero signed integers: +i stands for the i-th generator, -i for
its inverse. On a graph with a spanning-tree frame, generator i is the i-th
non-tree edge crossed from its smaller to its larger endpoint, and a based
loop gets a word by recording its non-tree crossings (collapsing the tree).
Conjugacy classes of nontrivial words are free homotopy classes of loops;
each contains a unique shortest loop on the graph, the geodesic one, which is
a tailless non-backtracking closed walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property
from itertools import repeat
from typing import Iterable, Sequence

from .errors import ValidationError
from .graphs import GraphModel, SpanningTreeFrame

Word = tuple[int, ...]


def _check_word(word: Iterable[int]) -> Word:
    w = tuple(word)
    for l in w:
        if not isinstance(l, int) or l == 0:
            raise ValidationError(f"bad letter {l!r}; letters are nonzero ints")
    return w


def reduce_word(word: Iterable[int]) -> Word:
    """Freely reduce a word (cancel adjacent inverse pairs)."""
    out: list[int] = []
    for l in _check_word(word):
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse_word(word: Iterable[int]) -> Word:
    return tuple(-l for l in reversed(_check_word(word)))


def multiply_words(u: Iterable[int], w: Iterable[int]) -> Word:
    return reduce_word(tuple(u) + tuple(w))


def group_commutator(u: Iterable[int], w: Iterable[int]) -> Word:
    """Reduced word of u^{-1} w^{-1} u w."""
    u, w = tuple(u), tuple(w)
    return reduce_word(inverse_word(u) + inverse_word(w) + u + w)


def cyclic_reduce(word: Iterable[int]) -> Word:
    """Freely reduce, then cancel inverse pairs across the wraparound."""
    w = reduce_word(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _letter_key(l: int) -> int:
    # +1 < -1 < +2 < -2 < ...; on nonnegative ints this is order-preserving,
    # so the same rotation rule serves vertex cycles too.
    return (abs(l) << 1) | (l < 0)


def min_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation of a cyclic sequence."""
    n = len(seq)
    if n <= 1:
        return tuple(seq)
    doubled = tuple(_letter_key(x) for x in seq) * 2
    best = min(range(n), key=lambda i: doubled[i:i + n])
    return tuple(seq[best:]) + tuple(seq[:best])


def multiplicity(seq: Sequence[int]) -> int:
    """Number of repetitions of the primitive period in a cyclic sequence."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and all(seq[i] == seq[i - p] for i in range(p, n)):
            return n // p
    return 1


@dataclass(frozen=True)
class GeodesicClass:
    """Conjugacy class of a word: the canonical (least) rotation of its
    cyclic reduction. The empty word is the trivial class."""

    word: Word

    def __post_init__(self):
        w = self.word
        for i, l in enumerate(w):
            if not isinstance(l, int) or l == 0:
                raise ValidationError(f"bad letter {l!r} in class word")
            if len(w) >= 2 and l == -w[(i + 1) % len(w)]:
                raise ValidationError(f"class word {w} is not cyclically reduced")
        if w != min_rotation(w):
            raise ValidationError(f"class word {w} is not in canonical rotation")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_trivial(self) -> bool:
        return not self.word

    @cached_property
    def multiplicity(self) -> int:
        return multiplicity(self.word)

    def primitive(self) -> "GeodesicClass":
        # a least rotation of u^m is a least rotation of u repeated, so the
        # prefix is canonical already
        return GeodesicClass(self.word[: len(self.word) // self.multiplicity])

    def __repr__(self):
        return "TRIVIAL" if self.is_trivial else f"GeodesicClass({format_word(self.word)!r})"


TRIVIAL = GeodesicClass(())


@lru_cache(maxsize=None)
def _canonical(word: Word) -> GeodesicClass:
    w = cyclic_reduce(word)
    if not w:
        return TRIVIAL
    return GeodesicClass(min_rotation(w))


def canonical_class(word: Iterable[int]) -> GeodesicClass:
    """Map a word to the canonical representative of its conjugacy class."""
    return _canonical(_check_word(word))


def parse_word(text: str) -> Word:
    """Parse a word like '+1 -2 +1'. Bare integers are accepted too."""
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValidationError(f"bad word {text!r}: {exc}") from None
    return _check_word(letters)


def format_word(word: Iterable[int]) -> str:
    return " ".join(f"{l:+d}" for l in word)


@dataclass(frozen=True)
class BasedLoop:
    """Closed walk on a graph: vertices[0] == vertices[-1], at least 2 steps."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 3 or vs[0] != vs[-1]:
            raise ValidationError(f"not a closed walk of length >= 2: {vs}")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def base(self) -> int:
        return self.vertices[0]

    def check_edges(self, g: GraphModel) -> None:
        for u, v in zip(self.vertices, self.vertices[1:]):
            if v not in g.neighbors[u]:
                raise ValidationError(f"step ({u},{v}) is not a graph edge")


def crossing_word(loop: BasedLoop, frame: SpanningTreeFrame) -> Word:
    """Unreduced word of the loop's non-tree crossings, in walk order."""
    vs = loop.vertices
    return tuple(filter(None, map(frame._letter.get, zip(vs, vs[1:]), repeat(0))))


def loop_to_word(loop: BasedLoop, frame: SpanningTreeFrame) -> Word:
    """Reduced homotopy word of a based loop (tree-collapse isomorphism)."""
    return reduce_word(crossing_word(loop, frame))


def _reduce_cycle(vs: list[int]) -> list[int]:
    # erase backtracks v -> w -> v cyclically until none remain
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


def geodesic_reduce(loop: BasedLoop) -> tuple[int, ...]:
    """Cyclically erase backtracks from a loop.

    Returns the geodesic loop freely homotopic to the input, as the canonical
    rotation of its cyclic vertex sequence; () if the loop is contractible.
    """
    return min_rotation(_reduce_cycle(list(loop.vertices[:-1])))


def geodesic_representative(
    cls: GeodesicClass, frame: SpanningTreeFrame
) -> tuple[int, ...]:
    """Geodesic loop of a homotopy class, as a canonical cyclic vertex tuple.

    The cyclic walk that crosses each letter's generator edge and then
    takes the tree path to the tail of the next letter's edge never
    backtracks: tree paths are geodesic in the tree, a non-tree edge never
    retraces a tree edge, and the class word has no adjacent inverse
    letters, cyclically. So it is the geodesic, with one step per letter
    plus its tree steps.
    """
    if cls.is_trivial:
        return ()
    ends = [frame.cogenerators[abs(l) - 1][::1 if l > 0 else -1] for l in cls.word]
    walk = []
    for (a, b), (tail, _) in zip(ends, ends[1:] + ends[:1]):
        walk.append(a)
        walk.extend(frame.tree_path(b, tail)[:-1])
    return min_rotation(walk)


def enumerate_geodesic_classes(rank: int, max_len: int) -> list[GeodesicClass]:
    """All nontrivial homotopy classes of word length <= max_len, sorted by
    (length, canonical word); none at rank 0."""
    if rank < 0:
        raise ValidationError("rank must be >= 0")
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    found: list[GeodesicClass] = []

    def grow(word: list[int], remaining: int):
        # each class once: from the cyclically reduced word that is its
        # own least rotation
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


def enumerate_geodesic_loops(g: GraphModel, max_len: int) -> list[tuple[int, ...]]:
    """All geodesic loops (tailless non-backtracking closed walks) of length
    <= max_len, as canonical cyclic vertex tuples, sorted by (length, tuple).

    Loops are oriented: a loop and its reverse are listed separately unless
    they coincide. Each cyclic class appears once; use multiplicity() on the
    tuple for its repetition count.
    """
    found: list[tuple[int, ...]] = []
    for s in range(g.num_vertices):
        # walks through vertices >= s only; each loop is kept once, as the
        # walk from its minimum vertex that is its least rotation
        stack: list[tuple[int, int, tuple[int, ...]]] = [(s, -1, (s,))]
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
