"""Words in a finitely generated free group, and loop words on a framed graph.

Letters are nonzero signed integers: +i stands for the i-th generator, -i for
its inverse. On a graph with a spanning-tree frame, generator i is the i-th
non-tree edge crossed from its smaller to its larger endpoint, and a based
loop gets a word by recording its non-tree crossings (collapsing the tree).
Conjugacy classes of nontrivial words are free homotopy classes of loops;
each contains a unique shortest loop on the graph, the geodesic one, which is
a tailless non-backtracking closed walk.

Collapsing the tree leaves the rose: one vertex with a loop edge per
generator. A class word is a geodesic loop of the rose, so one generator of
tailless closed non-backtracking walks on an oriented-edge table (_closed_walks
on graphs._EdgeTable) enumerates both the class words and the geodesic loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._memo import memo, memoized
from .errors import ConfigError, ValidationError
from .graphs import GraphModel, SpanningTreeFrame, _EdgeTable, _expand

Word = tuple[int, ...]

# Ranks in _rotations are made dense again once they reach this, so that a
# pair of them fits an int64.
_RANK_SPAN = 2 ** 31
# The most letters, summed over every reduced word of every length up to
# max_len, that the class enumeration may hold.
_CLASS_LETTERS = 2 ** 20
# The most steps, summed over every non-backtracking walk of every length up
# to max_len, that the geodesic loop enumeration may grow; spectra.ihara_check
# bounds the products of its determinant series by it too.
_WALK_LETTERS = 2 ** 22


def _check_word(word: Iterable[int]) -> Word:
    w = tuple(word)
    for l in w:
        if not isinstance(l, int) or l == 0:
            raise ValidationError(f"bad letter {l!r}; letters are nonzero ints")
    return w


def _reduce(letters: Iterable[int]) -> Word:
    """Free reduction of letters known to be nonzero ints."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def reduce_word(word: Iterable[int]) -> Word:
    """Freely reduce a word (cancel adjacent inverse pairs)."""
    return _reduce(_check_word(word))


def inverse_word(word: Iterable[int]) -> Word:
    return tuple(-l for l in reversed(_check_word(word)))


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


def _tuples(letters: np.ndarray, lengths: np.ndarray) -> list[Word]:
    """The rows of a flat table as tuples: row i is letters[e_i -
    lengths[i]:e_i], e_i the sum of lengths[:i + 1]."""
    ends = np.cumsum(lengths).tolist()
    flat = letters.tolist()
    return [tuple(flat[e - n:e]) for e, n in zip(ends, lengths.tolist())]


class _Words(NamedTuple):
    """Class words in one flat table (as in _tuples), with their
    multiplicities."""

    letters: np.ndarray
    lengths: np.ndarray
    multiplicity: np.ndarray


def _rotations(letters: np.ndarray, lengths: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyclic reduction and least rotation of every row of a flat table (as
    in _tuples). Rows are freely reduced words of length at least 1.

    Per row: the number cut of letters that cancel at each end, so that the
    cyclic reduction is row[cut:len - cut]; the offset in that reduction of
    its least rotation under _letter_key, the first if several are equal,
    so 0 when the reduction is its own least rotation; and the
    multiplicity, the number of rotations equal to the least.

    The rotations of all rows are ranked at once by prefix doubling: the
    cyclic window of 2w letters from a position is ranked by the pair of
    ranks of the windows of w letters from it and from w letters on. After
    ceil(log2 n) rounds the windows are as long as the longest reduction,
    and equal windows that long are equal rotations. Before a round whose
    pairs would not fit an int64, the ranks are made dense again.
    """
    first = np.cumsum(lengths) - lengths
    row = np.repeat(np.arange(lengths.size), lengths)
    at = np.arange(letters.size)
    pos = at - first[row]
    n = lengths[row]
    # the letter at pos < n // 2 cancels the one at n - 1 - pos while every
    # pair outside it does
    outer = (pos < n // 2) & (letters != -letters[at + n - 1 - 2 * pos])
    cut = np.minimum.reduceat(np.where(outer, pos, n // 2), first)
    size = np.maximum(lengths - 2 * cut, 1)
    off = pos - cut[row]
    valid = (off >= 0) & (off < size[row])
    base, size_at = at - off, size[row]
    rank = (np.abs(letters) << 1) | (letters < 0)
    w = 1
    while w < size.max(initial=0):
        top = int(rank.max()) + 1
        if top > _RANK_SPAN:
            rank = np.unique(rank, return_inverse=True)[1].reshape(-1)
            top = int(rank.max()) + 1
        partner = np.where(valid, base + (off + w) % size_at, at)
        rank = rank * top + rank[partner]
        w *= 2
    rank = np.where(valid, rank, np.iinfo(rank.dtype).max)
    least = rank == np.minimum.reduceat(rank, first)[row]
    start = np.minimum.reduceat(np.where(least, off, letters.size), first)
    mult = np.bincount(row[least], minlength=lengths.size)
    return cut, start, mult


def _canonical_words(letters: np.ndarray, lengths: np.ndarray
                     ) -> tuple[list[Word], list[int]]:
    """The canonical class word of every row of a flat table (as in _tuples)
    of freely reduced words, the least rotation of its cyclic reduction (()
    for the empty word), and the multiplicity of each (1 for the empty
    word)."""
    full = lengths > 0
    cut, start, mult = _rotations(letters, lengths[full])
    size, first = lengths.copy(), np.cumsum(lengths) - lengths
    size[full] -= 2 * cut
    first[full] += cut
    shift = np.zeros_like(lengths)
    shift[full] = start
    repeats = np.ones_like(lengths)
    repeats[full] = mult
    row = np.repeat(np.arange(size.size), size)
    pos = np.arange(row.size) - (np.cumsum(size) - size)[row]
    return (_tuples(letters[first[row] + (shift[row] + pos) % size[row]], size),
            repeats.tolist())


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

    @classmethod
    def _certified(cls, word: Word, multiplicity: int) -> "GeodesicClass":
        """The class of a word that _rotations has found cyclically reduced
        and its own least rotation, with the multiplicity it found: no
        check runs again."""
        out = object.__new__(cls)
        out.__dict__.update(word=word, multiplicity=multiplicity)
        return out

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_trivial(self) -> bool:
        return not self.word

    @cached_property
    def multiplicity(self) -> int:
        return multiplicity(self.word)

    def __repr__(self):
        return "TRIVIAL" if self.is_trivial else f"GeodesicClass({format_word(self.word)!r})"


TRIVIAL = GeodesicClass(())


@memo
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


def _row_prefixes(words: Sequence[Word],
                  multiplicities: Iterable[int]) -> list[str]:
    """The class columns "<word>,<length>,<mult>," of the CSV rows of the
    enumerate and homotopy verbs, one per word, each as format_word writes
    it; the empty word is the trivial class e. Each distinct letter is
    formatted once."""
    text = {l: f"{l:+d}" for l in set().union(*words)}
    return [f"{' '.join(map(text.__getitem__, w)) or 'e'},{len(w)},{m},"
            for w, m in zip(words, multiplicities)]


@dataclass(frozen=True)
class BasedLoop:
    """Closed walk on a graph: vertices[0] == vertices[-1], at least 2 steps."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 3 or vs[0] != vs[-1]:
            raise ValidationError(f"not a closed walk of length >= 2: {vs}")

    @classmethod
    def _certified(cls, vertices: tuple[int, ...]) -> "BasedLoop":
        """The loop of a walk that the sampler has found closed, of at
        least 2 steps, along edges: no check runs again."""
        out = object.__new__(cls)
        out.__dict__["vertices"] = vertices
        return out

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def check_edges(self, g: GraphModel) -> None:
        n, lo, hi = g.num_vertices, min(self.vertices), max(self.vertices)
        if lo < 0 or hi >= n:
            raise ValidationError(
                f"vertex {lo if lo < 0 else hi} is not in 0..{n - 1}")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if v not in g.neighbors[u]:
                raise ValidationError(f"step ({u},{v}) is not a graph edge")


def crossing_word(loop: BasedLoop, frame: SpanningTreeFrame) -> Word:
    """Unreduced word of the loop's non-tree crossings, in walk order."""
    vs = loop.vertices
    return tuple(filter(None, map(frame._letter.get, zip(vs, vs[1:]), repeat(0))))


def loop_to_word(loop: BasedLoop, frame: SpanningTreeFrame) -> Word:
    """Reduced homotopy word of a based loop (tree-collapse isomorphism).
    The frame's letters are nonzero ints, so they are not checked again."""
    return _reduce(crossing_word(loop, frame))


def _check_letters(rows: np.ndarray, rank: int) -> None:
    """ValidationError for a class letter beyond the frame's rank."""
    big = np.abs(rows) > rank
    if big.any():
        raise ValidationError(f"class letter {int(rows[big][0]):+d} is out of "
                              f"range for rank {rank}")


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
    _check_letters(np.array(cls.word), frame.rank)
    ends = [frame.cogenerators[abs(l) - 1][::1 if l > 0 else -1] for l in cls.word]
    walk = []
    for (a, b), (tail, _) in zip(ends, ends[1:] + ends[:1]):
        walk.append(a)
        walk.extend(frame.tree_path(b, tail)[:-1])
    return min_rotation(walk)


def _check_walks(counts: Iterable[float], limit: int, message: str) -> None:
    """ConfigError(message) when the walks of k = 1, 2, ... steps, counts[k -
    1] of them, take more than limit steps in all. The sum stops at the
    first count of 0 and as soon as it passes limit."""
    total = 0
    for k, count in enumerate(counts, start=1):
        if not count:
            return
        total += k * count
        if total > limit:
            raise ConfigError(message)


def _closed_walks(edges: _EdgeTable, max_len: int) -> _Words:
    """The tailless closed non-backtracking walks of 1..max_len steps that
    are their own least rotation, on the oriented edges of a table: a flat
    table (as in _tuples) of edge indices, sorted by (length, edge
    sequence), with their multiplicities.

    The walks grow as arrays, one step at a time, each by its successors
    under B in ascending order, so the walks of each length stay sorted.
    They keep to the edges whose head is at least the tail of their first
    edge: a least rotation starts at the least vertex. A walk closes when
    its next step returns to the tail of its first edge and is not the
    reverse of that edge (no tail). Edge i enters _rotations as the letter
    i + 1, which no other letter cancels. The callers check the walks'
    budget first.
    """
    tail, head = edges.tail, edges.head
    empty = np.zeros(0, dtype=np.intp)
    if max_len < 1:
        return _Words(empty, empty, empty)
    first = np.flatnonzero(head >= tail)
    walks, start, back = first[:, None], tail[first], edges.reverse[first]
    grown = [walks[(head[first] == start) & (first != back)]]
    for k in range(2, max_len + 1):
        i, j = _expand(edges.succ_first, walks[:, -1])
        to = edges.succ[j]
        ok = head[to] >= start[i]
        i, to = i[ok], to[ok]
        start, back = start[i], back[i]
        shut = (head[to] == start) & (to != back)
        if k == max_len or not i.size:
            grown.append(np.concatenate((walks[i[shut]], to[shut, None]), 1))
            break
        walks = np.concatenate((walks[i], to[:, None]), 1)
        grown.append(walks[shut])
    letters = np.concatenate([empty] + [w.ravel() for w in grown])
    lengths = np.repeat(np.arange(1, len(grown) + 1), [len(w) for w in grown])
    _, offset, mult = _rotations(letters + 1, lengths)
    keep = offset == 0
    return _Words(letters[np.repeat(keep, lengths)], lengths[keep], mult[keep])


class _ClassWords(NamedTuple):
    """The class words of one (rank, max_len), and the class columns of
    each one's row (_row_prefixes)."""

    words: _Words
    rows: tuple[str, ...]


def _build_class_words(rank: int, max_len: int) -> _ClassWords:
    alphabet = np.array([l for i in range(1, rank + 1) for l in (i, -i)],
                        dtype=np.intp)
    edges = np.arange(2 * rank)
    rose = np.zeros_like(edges)
    words = _closed_walks(_EdgeTable(rose, rose, edges ^ 1, 1), max_len)
    words = words._replace(letters=alphabet[words.letters])
    return _ClassWords(words, tuple(_row_prefixes(
        _tuples(words.letters, words.lengths), words.multiplicity.tolist())))


def _class_words(rank: int, max_len: int) -> _ClassWords:
    """The canonical words of all nontrivial classes of length <= max_len,
    with their multiplicities, sorted by (length, word under _letter_key);
    none at rank 0. Memoized per (rank, max_len) (see _memo), so the
    arrays are read-only.

    A class word, cyclically reduced and its own least rotation, is a
    geodesic loop of the rose that the spanning-tree frame collapses to:
    one vertex and a loop edge per generator. Its 2r oriented edges are
    the letters in _letter_key order, each the reverse of its neighbour
    (index ^ 1), and _closed_walks grows them. ConfigError, on every call
    and ahead of the memo, when the reduced words of all lengths, sum_k k
    2r (2r-1)^(k-1) letters, would exceed _CLASS_LETTERS.
    """
    if rank < 0:
        raise ValidationError("rank must be >= 0")
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    # the rose has 2r oriented edges, each followed by 2r - 1 others
    _check_walks((2 * rank * (2 * rank - 1) ** k for k in range(max_len)),
                 _CLASS_LETTERS,
                 f"the classes of rank {rank} up to length {max_len} need more "
                 f"than {_CLASS_LETTERS} letters of reduced words")
    return memoized((rank, max_len), _build_class_words, rank, max_len)


def enumerate_geodesic_classes(rank: int, max_len: int) -> list[GeodesicClass]:
    """All nontrivial homotopy classes of word length <= max_len, sorted by
    (length, canonical word under _letter_key); none at rank 0. ConfigError
    if the enumeration would hold more than _CLASS_LETTERS letters."""
    words = _class_words(rank, max_len).words
    return [GeodesicClass._certified(w, m)
            for w, m in zip(_tuples(words.letters, words.lengths),
                            words.multiplicity.tolist())]


def _geodesic_loops(g: GraphModel, max_len: int) -> _Words:
    """The geodesic loops of length <= max_len as a flat table (as in
    _tuples) of canonical cyclic vertex sequences, with their
    multiplicities, sorted by (length, sequence).

    _closed_walks grows them on g's edge table, ordered by tail, then
    head, so that the edge sequences and the vertex sequences of their
    tails sort alike. The caller checks the budget first (see
    spectra.ihara_check).
    """
    edges = g._oriented
    loops = _closed_walks(edges, max_len)
    return loops._replace(letters=edges.tail[loops.letters])
