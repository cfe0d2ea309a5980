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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .graphs import GraphModel, SpanningTreeFrame, _adjacency

Word = tuple[int, ...]

# Ranks in _rotations are made dense again once they reach this, so that a
# pair of them fits an int64.
_RANK_SPAN = 2 ** 31
# The most letters, summed over every reduced word of every length up to
# max_len, that the class enumeration may hold.
_CLASS_LETTERS = 2 ** 20
# The most steps, summed over every non-backtracking walk of every length up
# to max_len, that the geodesic loop enumeration may grow.
_WALK_LETTERS = 2 ** 22
# canonical_class keeps the classes of this many recent words.
_CLASS_CACHE = 2 ** 14


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
    in _tuples). Rows are freely reduced words or vertex cycles, of length
    at least 1.

    Per row: the number cut of letters that cancel at each end, so that the
    cyclic reduction is row[cut:len - cut] (0 for a vertex cycle, whose
    first and last vertices are adjacent, hence distinct and not both 0);
    the offset in that reduction of its least rotation under _letter_key,
    the first if several are equal, so 0 when the reduction is its own
    least rotation; and the multiplicity, the number of rotations equal to
    the least.

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

    def primitive(self) -> "GeodesicClass":
        # a least rotation of u^m is a least rotation of u repeated, so the
        # prefix is canonical already
        return GeodesicClass(self.word[: len(self.word) // self.multiplicity])

    def __repr__(self):
        return "TRIVIAL" if self.is_trivial else f"GeodesicClass({format_word(self.word)!r})"


TRIVIAL = GeodesicClass(())


@lru_cache(maxsize=_CLASS_CACHE)
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
    """Reduced homotopy word of a based loop (tree-collapse isomorphism).
    The frame's letters are nonzero ints, so they are not checked again."""
    return _reduce(crossing_word(loop, frame))


def _reduce_cycle(vs: list[int]) -> list[int]:
    """Erase the backtracks v -> w -> v of a cyclic vertex sequence, in one
    stack pass: the closed walk from vs[0] is freely reduced, then steps
    that cancel across the base are peeled from both ends."""
    path: list[int] = []
    for v in vs + vs[:1]:
        if len(path) >= 2 and path[-2] == v:
            path.pop()
        else:
            path.append(v)
    lo, hi = 0, len(path) - 1
    while hi - lo >= 2 and path[lo + 1] == path[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return path[lo:hi]


def geodesic_reduce(loop: BasedLoop) -> tuple[int, ...]:
    """Cyclically erase backtracks from a loop.

    Returns the geodesic loop freely homotopic to the input, as the canonical
    rotation of its cyclic vertex sequence; () if the loop is contractible.
    """
    return min_rotation(_reduce_cycle(list(loop.vertices[:-1])))


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


def _geodesic_class_words(rank: int, max_len: int) -> _Words:
    """The canonical words of all nontrivial classes of length <= max_len,
    with their multiplicities, sorted by (length, word under _letter_key);
    none at rank 0.

    The reduced words grow one letter at a time, in _letter_key order, so
    the words of each length stay sorted; a word is a class word when
    _rotations finds it cyclically reduced and its own least rotation.
    ConfigError when the reduced words of all lengths, sum_k k 2r (2r-1)^(k-1)
    letters, would exceed _CLASS_LETTERS.
    """
    if rank < 0:
        raise ValidationError("rank must be >= 0")
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    longest = max_len if rank else 0
    total, count = 0, 2 * rank
    for k in range(1, longest + 1):
        total += k * count
        if total > _CLASS_LETTERS:
            raise ConfigError(
                f"the classes of rank {rank} up to length {max_len} need more "
                f"than {_CLASS_LETTERS} letters of reduced words")
        count *= 2 * rank - 1
    alphabet = np.array([l for i in range(1, rank + 1) for l in (i, -i)],
                        dtype=np.intp)
    words = np.zeros((1, 0), dtype=np.intp)
    grown, counts = [words.ravel()], [0]
    for k in range(1, longest + 1):
        # each word followed by each letter, then the reduced ones
        step = np.empty((len(words), alphabet.size, k), dtype=np.intp)
        step[:, :, :-1] = words[:, None, :]
        step[:, :, -1] = alphabet
        words = step.reshape(-1, k)
        if k > 1:
            words = words[words[:, -1] != -words[:, -2]]
        grown.append(words.ravel())
        counts.append(len(words))
    letters = np.concatenate(grown)
    lengths = np.repeat(np.arange(longest + 1), counts)
    cut, start, mult = _rotations(letters, lengths)
    keep = (cut == 0) & (start == 0)
    return _Words(letters[np.repeat(keep, lengths)], lengths[keep], mult[keep])


def enumerate_geodesic_classes(rank: int, max_len: int) -> list[GeodesicClass]:
    """All nontrivial homotopy classes of word length <= max_len, sorted by
    (length, canonical word under _letter_key); none at rank 0. ConfigError
    if the enumeration would hold more than _CLASS_LETTERS letters."""
    words = _geodesic_class_words(rank, max_len)
    return [GeodesicClass._certified(w, m)
            for w, m in zip(_tuples(words.letters, words.lengths),
                            words.multiplicity.tolist())]


def _geodesic_loops(g: GraphModel, max_len: int) -> _Words:
    """The geodesic loops of length <= max_len as a flat table (as in
    _tuples) of canonical cyclic vertex sequences, with their
    multiplicities, sorted by (length, sequence).

    The non-backtracking walks that start at a vertex s and stay on the
    vertices >= s grow as arrays, one vertex at a time, in lexicographic
    order. A walk of k >= 3 vertices closes into a loop when its last
    vertex steps back to s without backtracking, and its first step is not
    the reverse of that closing step (no tail). Each loop is kept once, as
    the walk from its least vertex that _rotations finds its own least
    rotation.

    ConfigError, before any walk is grown, when the non-backtracking walks
    of every length k <= max_len, k steps each, would exceed _WALK_LETTERS
    steps in all (sum_k k n d (d-1)^(k-1) on n vertices of degree d). The
    walks of k + 1 steps that end with the edge x -> y are those of k steps
    that end at x, less the one that ends with y -> x.
    """
    n_v = g.num_vertices
    first, heads, tails = _adjacency(g)
    # the reverse of edge i, in the CSR order by (tail, head)
    reverse = np.empty_like(heads)
    reverse[np.lexsort((tails, heads))] = np.arange(heads.size)
    ending = np.ones(heads.size)
    total = 0.0
    for k in range(1, max_len + 1):
        walks = ending.sum()
        if not walks:
            break
        total += k * walks
        if total > _WALK_LETTERS:
            raise ConfigError(
                f"the geodesic loops up to length {max_len} need more than "
                f"{_WALK_LETTERS} steps of non-backtracking walks")
        ending = np.bincount(heads, ending, n_v)[tails] - ending[reverse]
    # neighbours ascending, padded with -1, which no walk may take: rows
    # in lexicographic order grow their children in lexicographic order
    top = np.diff(first).max(initial=0)
    step = np.full((n_v, top), -1, dtype=np.intp)
    for v, adj in enumerate(g.neighbors):
        step[v, top - len(adj):] = sorted(adj)
    walks = np.arange(n_v)[:, None]
    grown, counts = [], []
    for k in range(1, max_len + 1):
        to = step[walks[:, -1]]
        ok = to >= walks[:, :1]
        if k > 1:
            ok &= to != walks[:, -2:-1]
        i, j = np.nonzero(ok)
        to = to[i, j]
        if k >= 3:
            closed = walks[i[(to == walks[i, 0])
                             & (walks[i, 1] != walks[i, -1])]]
            grown.append(closed.ravel())
            counts.append(len(closed))
        if k == max_len or not i.size:
            break
        walks = np.concatenate([walks[i], to[:, None]], axis=1)
    letters = np.concatenate([np.zeros(0, dtype=np.intp)] + grown)
    lengths = np.repeat(np.arange(3, 3 + len(counts)), counts)
    _, start, mult = _rotations(letters, lengths)
    keep = start == 0
    return _Words(letters[np.repeat(keep, lengths)], lengths[keep], mult[keep])


def enumerate_geodesic_loops(g: GraphModel, max_len: int) -> list[tuple[int, ...]]:
    """All geodesic loops (tailless non-backtracking closed walks) of length
    <= max_len, as canonical cyclic vertex tuples, sorted by (length, tuple).

    Loops are oriented: a loop and its reverse are listed separately unless
    they coincide. Each cyclic class appears once; use multiplicity() on the
    tuple for its repetition count. ConfigError if the non-backtracking
    walks up to max_len would take more than _WALK_LETTERS steps in all
    (see _geodesic_loops).
    """
    loops = _geodesic_loops(g, max_len)
    return _tuples(loops.letters, loops.lengths)
