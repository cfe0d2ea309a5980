"""Loop measure on a finite weighted graph, truncation control, exhaustive
enumeration by homotopy class, and Poisson ensemble sampling.

The measure lives on discrete based loops: mu_based(l) = (1/n) prod P over
the n steps of l. Forgetting the basepoint and dividing by the rotational
multiplicity gives the unbased loop measure mu; its total mass is
-log det(I - P), finite exactly when some killing rate is positive.

A Poisson ensemble ("soup") with rate alpha carries loop counts that are
Poisson with mean alpha * mu(event) for any event of loops; the sampler
draws such ensembles truncated at a configured maximum length, with the
truncation certified by a geometric tail bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, NamedTuple

import numpy as np

from ._memo import memoized
from .errors import ConfigError, NumericError, ValidationError
from .freegroup import BasedLoop, GeodesicClass, _canonical_words, _row_prefixes
from .graphs import GraphModel, SpanningTreeFrame, _expand
from .signature import homology1

# The most float64 entries that the sampler's table of matrix powers, or the
# conditional rows of one soup's bridges, may hold.
_SAMPLER_ENTRIES = 2 ** 24
# The most index entries that one enumeration plan may hold; a deeper n_max
# is refused. Below 2^31, so that int32 holds every index of a plan.
_ENUMERATION_ENTRIES = 2 ** 24


def _transition(g: GraphModel) -> np.ndarray:
    """P as a dense n x n array, scattered from the per-edge g._p: built
    afresh for the dense routines (total_mass, spectral_radius,
    truncated_mass and the sampler's powers), and never kept on g."""
    n = g.num_vertices
    p = np.zeros((n, n))
    p[g._oriented.tail, g._oriented.head] = g._p
    return p


def total_mass(g: GraphModel) -> float:
    """-log det(I - P); the full loop measure mass. Infinite (rejected)
    when the killing vanishes identically."""
    if not any(g.killing):
        # P is stochastic, I - P is exactly singular; roundoff can hide it
        raise NumericError("massless/recurrent chain: det(I - P) vanishes")
    sign, logdet = np.linalg.slogdet(np.eye(g.num_vertices) - _transition(g))
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericError("massless/recurrent chain: det(I - P) is not positive")
    return 0.0 - logdet  # not -logdet: a graph without edges has mass 0.0, not -0.0


def spectral_radius(g: GraphModel) -> float:
    """Largest |eigenvalue| of P, by a symmetric eigensolve: P is similar
    to Lambda^(1/2) P Lambda^(-1/2) = Lambda^(-1/2) C Lambda^(-1/2), which is
    symmetric because the conductances are."""
    root = np.sqrt(g.lam)
    eig = np.linalg.eigvalsh(root[:, None] * _transition(g) / root)
    return float(np.max(np.abs(eig)))


def tail_bound(g: GraphModel, n_max: int) -> float:
    """Upper bound on the measure of loops longer than n_max:
    |X| rho^(n_max+1) / ((n_max+1)(1-rho)) with rho the spectral radius."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if not any(g.killing):  # then rho is 1, which rounding can hide
        raise NumericError("massless/recurrent chain: the spectral radius is 1")
    rho = spectral_radius(g)
    if rho >= 1.0:
        raise NumericError("spectral radius >= 1; tail does not converge")
    return g.num_vertices * rho ** (n_max + 1) / ((n_max + 1) * (1.0 - rho))


def truncated_mass(g: GraphModel, n_max: int) -> float:
    """Mass of loops of length <= n_max: sum_{n<=n_max} tr(P^n)/n."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    p = _transition(g)
    power = np.eye(g.num_vertices)
    out = 0.0
    for n in range(1, n_max + 1):
        power = power @ p
        out += np.trace(power) / n
    return float(out)


class _WordTrie:
    """Reduced words over the letters +-1 .. +-rank, interned as ids: 0 is
    the empty word, and word w is word parent[w] followed by last[w]."""

    def __init__(self, rank: int):
        self.rank = rank
        self.parent = np.zeros(1, dtype=np.intp)
        self.last = np.zeros(1, dtype=np.intp)
        self.depth = np.zeros(1, dtype=np.intp)
        # the extensions made so far, as sorted keys w * (2 rank + 1) +
        # letter + rank with their ids, after a sentinel above every key
        self._keys = np.array([np.iinfo(np.intp).max])
        self._ids = np.array([-1])

    @property
    def size(self) -> int:
        return self.parent.size

    def step(self, word: np.ndarray, letter: np.ndarray) -> np.ndarray:
        """The reduced word of each word followed by its letter (0 for a
        tree step): the letter cancels the last one or extends the word."""
        out = word.copy()
        cancel = (letter != 0) & (self.last[word] == -letter)
        out[cancel] = self.parent[word[cancel]]
        grow = (letter != 0) & ~cancel
        out[grow] = self._extend(word[grow], letter[grow])
        return out

    def _extend(self, word: np.ndarray, letter: np.ndarray) -> np.ndarray:
        width = 2 * self.rank + 1
        key = word * width + letter + self.rank
        pos = np.searchsorted(self._keys, key)
        fresh = self._keys[pos] != key
        if fresh.any():
            new = np.unique(key[fresh])
            at = np.searchsorted(self._keys, new)
            self._keys = np.insert(self._keys, at, new)
            self._ids = np.insert(self._ids, at,
                                  self.size + np.arange(new.size))
            self.parent = np.concatenate([self.parent, new // width])
            self.last = np.concatenate([self.last, new % width - self.rank])
            self.depth = np.concatenate([self.depth,
                                         self.depth[new // width] + 1])
            pos = np.searchsorted(self._keys, key)
        return self._ids[pos]

    def class_words(self, ids: np.ndarray
                    ) -> tuple[list[tuple[int, ...]], list[int]]:
        """The canonical class word of each word id, and its multiplicity,
        all at once: the letters of every word are read off the parents,
        last letter first."""
        depth = self.depth[ids]
        end = np.cumsum(depth)
        letters = np.empty(depth.sum(), dtype=np.intp)
        for j in range(depth.max(initial=0)):
            live = depth > j
            letters[end[live] - 1 - j] = self.last[ids[live]]
            ids = self.parent[ids]
        return _canonical_words(letters, depth)


def _first_seen(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys in order of first appearance: the number
    of each entry, and the position of each number's first entry."""
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return number[inverse], first[order]


@dataclass(frozen=True)
class EnumeratedMeasure:
    """Exhaustive class masses of loops of length <= n_max, with the
    certified bound on everything beyond the truncation. _rows is the
    plan's rows (see _Plan), for the enumerate verb."""

    masses: dict[GeodesicClass, float] = field(hash=False)
    tail: float
    _rows: tuple[tuple[str, int], ...] = field(default=(), compare=False,
                                               repr=False)

    def __getitem__(self, cls: GeodesicClass) -> float:
        return self.masses[cls]

    def get(self, cls: GeodesicClass, default: float = 0.0) -> float:
        return self.masses.get(cls, default)

    def items(self) -> Iterator[tuple[GeodesicClass, float]]:
        return iter(self.masses.items())

    def winding(self, rank: int) -> dict[tuple[int, ...], float]:
        return winding_masses(self.masses, rank)


class _Plan(NamedTuple):
    """The index skeleton of enumerate_measure on one (topology, frame,
    n_max): everything it does but read the weights.

    Each step holds, per kept transition, its source state and its edge
    (a position in the graph's edge table, whose weight is g._p there),
    the state it lands in, then the number of states and the states at
    their base; past n_max/2, only heads that can still return to the base
    are kept (_build_plan). order sorts the returns base by base, number
    gives the class of each sorted return, and classes lists them by number.
    Every array is int32, and the store makes them all read-only (see
    _memo). rows gives the enumerate verb's rows in its order, by (length,
    word): the class columns of each (freegroup._row_prefixes) and the
    class number.
    """

    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray], ...]
    order: np.ndarray
    number: np.ndarray
    classes: tuple[GeodesicClass, ...]
    rows: tuple[tuple[str, int], ...]


def _build_plan(g: GraphModel, frame: SpanningTreeFrame, n_max: int) -> _Plan:
    """Run the dynamic program of enumerate_measure on indices alone.

    Step n keeps a transition only if its head is within n_max - n hops of
    its base. A walk of n steps ends within n hops of its base, so steps
    1..n_max/2 prune nothing: they are a breadth-first search from every
    base, in which a pair (base, vertex) first appears at its hop distance,
    a symmetric one. Later steps test distances of at most n_max/2 against
    those pairs, so the prune is exact, with no table of all vertex pairs.

    ConfigError, before a step is expanded, when the entries of the steps
    so far, plus three per transition of this one (source, edge and state,
    counted before pruning), would exceed _ENUMERATION_ENTRIES.
    """
    n_v = g.num_vertices
    table = g._oriented
    first, heads, tails = table.first, table.head, table.tail
    degree = np.diff(first)
    letters = np.array([frame.crossing(x, y)
                        for x, y in zip(tails.tolist(), heads.tolist())],
                       dtype=np.intp)
    words = _WordTrie(frame.rank)
    base = at = np.arange(n_v)
    word = np.zeros(n_v, dtype=np.intp)
    # near[k]: the sorted keys base * n_v + vertex of the pairs within k hops
    near = [base * n_v + at]
    steps, returns = [], []
    entries = 0
    for n in range(1, n_max + 1):
        if entries + 3 * int(degree[at].sum()) > _ENUMERATION_ENTRIES:
            raise ConfigError(
                f"enumerating loops up to n_max={n_max} on {n_v} vertices "
                f"needs more than {_ENUMERATION_ENTRIES} index entries")
        i, e = _expand(first, at)
        if 2 * n > n_max:
            keep = np.isin(base[i] * n_v + heads[e], near[n_max - n])
            i, e = i[keep], e[keep]
        to_base, to_vertex = base[i], heads[e]
        to_word = words.step(word[i], letters[e])
        state, pick = _first_seen((to_base * n_v + to_vertex) * words.size
                                  + to_word)
        base, at, word = to_base[pick], to_vertex[pick], to_word[pick]
        home = np.flatnonzero(at == base)
        steps.append((i.astype(np.int32), e.astype(np.int32),
                      state.astype(np.int32), pick.size, home.astype(np.int32)))
        returns.append((base[home], word[home]))
        entries += 3 * i.size + home.size
        if 2 * n <= n_max:
            near.append(np.union1d(near[-1], base * n_v + at))
    # returns base by base, then step by step; the distinct words are
    # mapped to their classes all at once
    home_base, home_word = (np.concatenate(r) for r in zip(*returns))
    order = np.argsort(home_base, kind="stable")
    distinct, of_word = np.unique(home_word[order], return_inverse=True)
    index: dict[tuple[int, ...], int] = {}
    class_words, class_mult = words.class_words(distinct)
    class_of = np.array([index.setdefault(w, len(index))
                         for w in class_words], dtype=np.intp)
    home_class = class_of[of_word]
    number, pick = _first_seen(home_class)
    mult = dict(zip(class_words, class_mult))
    by_index = list(index)
    classes = tuple(GeodesicClass._certified(by_index[c], mult[by_index[c]])
                    for c in home_class[pick].tolist())
    row_class = [c for _, _, c in sorted(
        (len(cls.word), cls.word, c) for c, cls in enumerate(classes))]
    rows = tuple(zip(_row_prefixes([classes[c].word for c in row_class],
                                   [classes[c].multiplicity for c in row_class]),
                     row_class))
    return _Plan(tuple(steps), order.astype(np.int32),
                 number.astype(np.int32), classes, rows)


def enumerate_measure(g: GraphModel, frame: SpanningTreeFrame,
                      n_max: int) -> EnumeratedMeasure:
    """Mass of every homotopy class among loops of length <= n_max.

    Dynamic program over (base, current vertex, reduced crossing word from
    the base), for all bases at once, with the words interned as ids in a
    trie; a step to u either extends the word by a crossing letter or
    cancels the last letter. Branches that cannot return to the base in the
    remaining steps are pruned, by hop distances that the first half of the
    steps finds (_build_plan). The trivial class collects the contractible
    mass. Classes group based loops correctly: a class whose loops have n
    steps and multiplicity m has n/m based representatives per loop, each
    weighing (1/n) prod P, totalling prod P / m.

    Every sum runs in the order of a dict program per base, keyed by
    (vertex, word) in insertion order: the states of a step are numbered
    in order of first appearance, and returns to the base are added base
    by base, then step by step, then state by state. The masses, and the
    order of the classes, are therefore the same to the last bit.

    Only the sums read the weights. The rest, the plan, depends on the
    topology, the frame's cogenerators and n_max alone, and is memoized
    (see _memo), since a run of queries repeats a few of them on fresh
    weights; each call replays it on g's weights. ConfigError when the
    plan would hold more than _ENUMERATION_ENTRIES entries.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    plan = memoized((g.neighbors, frame.cogenerators, n_max), _build_plan, g,
                    frame, n_max)
    weight = np.ones(g.num_vertices)
    returns = []
    for n, (i, e, state, size, home) in enumerate(plan.steps, start=1):
        weight = np.bincount(state, weight.take(i) * g._p.take(e),
                             minlength=size)
        returns.append(weight.take(home) / n)
    total = np.bincount(plan.number, np.concatenate(returns)[plan.order],
                        minlength=len(plan.classes))
    return EnumeratedMeasure(dict(zip(plan.classes, total.tolist())),
                             tail_bound(g, n_max), plan.rows)


def winding_masses(masses: dict[GeodesicClass, float],
                   rank: int) -> dict[tuple[int, ...], float]:
    """Regroup class masses by total winding vector."""
    out: dict[tuple[int, ...], float] = {}
    for cls, m in masses.items():
        h = homology1(cls.word, rank=rank)
        out[h] = out.get(h, 0.0) + m
    return out


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class MeasureConfig:
    """Sampling configuration: Poisson rate, truncation length, certified
    tail tolerance at that truncation, and the base seed."""

    alpha: float = 1.0
    n_max: int = 24
    tail_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ConfigError("alpha must be positive and finite")
        _check_integer("n_max", self.n_max, 1)
        if not 0 < self.tail_tol < math.inf:
            raise ConfigError("tail_tol must be positive and finite")
        _check_integer("seed", self.seed, 0)


def _check_integer(name: str, value, least: int) -> None:
    """ConfigError unless value is an integer of at least least."""
    if not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class SampledSoup:
    """One Poisson draw: the sampled loops."""

    loops: tuple[BasedLoop, ...]


@dataclass(frozen=True)
class OccupationField:
    """Oriented-edge traversal counts of a soup, N[(u, v)]."""

    edge_counts: dict[tuple[int, int], int] = field(hash=False)

    def current(self, u: int, v: int) -> int:
        return self.edge_counts.get((u, v), 0) - self.edge_counts.get((v, u), 0)

    def rows(self) -> list[tuple[int, int, int, int]]:
        """(u, v, N, Ncheck) per traversed oriented edge, sorted."""
        return [(u, v, n, self.current(u, v))
                for (u, v), n in sorted(self.edge_counts.items())]


def occupation(soup: SampledSoup) -> OccupationField:
    """Aggregate oriented-edge counts. Every closed walk enters each vertex
    as often as it leaves it, so the counts are balanced at every vertex;
    violation would be a sampler bug, hence asserted."""
    counts: Counter = Counter()
    for l in soup.loops:
        vs = l.vertices
        counts.update(zip(vs, vs[1:]))
    balance: Counter = Counter()
    for (a, b), n in counts.items():
        balance[a] += n
        balance[b] -= n
    assert all(v == 0 for v in balance.values())
    return OccupationField(dict(counts))


class LoopSoupSampler:
    """Draws Poisson loop ensembles truncated at n_max steps.

    The loop count is Poisson(alpha * W) with W the truncated mass; each
    loop picks (base x, length n) with weight (1/n)(P^n)_xx and fills in a
    bridge from x back to x by bisection (Asmussen & Hobolth, Bisection
    ideas in end-point conditioned Markov process simulation, 2008): the
    vertex at step a = floor(n/2) is y with probability
    P^a[x, y] P^(n-a)[y, x] / P^n[x, x], and each half is then split at its
    own midpoint the same way, with its drawn ends fixed, until every
    segment is one step. This is the law of the walk conditioned on its
    ends, as drawing one step at a time would give.

    All bridges of a soup are drawn together in ceil(log2 n_max) rounds:
    each round builds the conditional rows of every segment's midpoint,
    and their cdfs, as one array, and each midpoint takes the number of
    cdf entries <= its own uniform. Segments are at most ceil(n_max/2)
    steps long once split, so only the powers P^m, m <= ceil(n_max/2), are
    kept; they are built by doubling, and the item weights read
    (P^n)_xx = sum_w P^a[x, w] P^(n-a)[w, x] off pairs of halves, a sum of
    nonnegative terms, so that an item of zero weight stays exactly zero.

    Randomness layout, fixed for reproducibility: one generator, seeded
    from SeedSequence(seed, spawn_key=(0,)), draws the count, then the
    (base, length) picks, then every bridge uniform in one call: one per
    interior vertex, loop by loop in draw order, each loop's by position
    in the walk. Byte-identical soups for equal (graph, config, seed)
    follow from this layout.

    ConfigError, before the powers table is built, when it would hold more
    than _SAMPLER_ENTRIES entries, and, before any soup is drawn, when the
    conditional rows that a soup is expected to build would: |V| entries
    per expected loop step, of which there are alpha sum_n tr(P^n).
    """

    def __init__(self, g: GraphModel, alpha: float = 1.0, n_max: int = 24):
        if not 0 < alpha < math.inf:
            raise ConfigError("alpha must be positive and finite")
        _check_integer("n_max", n_max, 1)
        n_v = g.num_vertices
        half = _check_powers(n_v, n_max)
        self.alpha = alpha
        # powers[m] = P^m for m <= ceil(n_max/2), by doubling: P^(k+1..2k)
        # = P^(1..k) P^k in one batched product
        self.powers = np.empty((half + 1, n_v, n_v))
        self.powers[0] = np.eye(n_v)
        self.powers[1] = _transition(g)
        k = 1
        while k < half:
            m = min(k, half - k)
            np.matmul(self.powers[1:m + 1], self.powers[k],
                      out=self.powers[k + 1:k + m + 1])
            k += m
        # diagonal[n - 1, x] = (P^n)_xx, odd n = 2k + 1 from P^k P^(k+1),
        # even n = 2k from P^k P^k
        diagonal = np.empty((n_max, n_v))
        diagonal[0::2] = np.einsum("nxw,nwx->nx", self.powers[:half],
                                   self.powers[1:half + 1])
        diagonal[1::2] = np.einsum("nxw,nwx->nx", self.powers[1:n_max // 2 + 1],
                                   self.powers[1:n_max // 2 + 1])
        steps = alpha * float(diagonal.sum())
        if steps * n_v > _SAMPLER_ENTRIES:
            raise ConfigError(
                f"alpha={alpha:.6g} expects {steps:.3g} loop steps per soup, whose "
                f"bridges need more than {_SAMPLER_ENTRIES} entries on {n_v} "
                f"vertices")
        # by_length[n - 1, x] = (P^n)_xx / n
        by_length = diagonal / np.arange(1, n_max + 1)[:, None]
        lengths, bases = np.nonzero(by_length > 0)
        # (base, length) per item, length-major
        self.items = np.column_stack((bases, lengths + 1))
        weights = by_length[lengths, bases]
        # summed one item at a time in item order, as the Poisson count's
        # last bits depend on it
        self.mass = sum(weights.tolist())
        self.probs = weights / self.mass

    def sample(self, seed: int) -> SampledSoup:
        _check_integer("seed", seed, 0)
        driver = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        count = int(driver.poisson(self.alpha * self.mass))
        if not count:
            return SampledSoup(())
        picks = driver.choice(len(self.items), size=count, p=self.probs)
        base, length = self.items[picks].T
        # loop k is walk[start[k]:end[k] + 1]; every interior vertex has its
        # uniform at its own position
        end = np.cumsum(length + 1) - 1
        start = end - length
        walk = np.empty(end[-1] + 1, dtype=np.intp)
        walk[start] = walk[end] = base
        interior = np.ones(walk.size, dtype=bool)
        interior[start] = interior[end] = False
        uniforms = np.zeros(walk.size)
        uniforms[interior] = driver.random(walk.size - 2 * count)
        columns = self.powers.transpose(0, 2, 1)  # columns[m, x] = P^m[:, x]
        # the segments of two steps or more, from walk[lo] to walk[lo + span]
        lo, span = start, length
        while lo.size:
            left = span // 2
            mid = lo + left
            q = self.powers[left, walk[lo]] * columns[span - left, walk[lo + span]]
            cdf = q.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            walk[mid] = (cdf <= uniforms[mid, None]).sum(axis=1)
            lo = np.concatenate((lo, mid))
            span = np.concatenate((left, span - left))
            keep = span > 1
            lo, span = lo[keep], span[keep]
        step = self.powers[1][walk[:-1], walk[1:]] > 0
        step[end[:-1]] = True  # from one loop's end to the next one's start
        assert step.all()
        flat = walk.tolist()
        loops = tuple(BasedLoop._certified(tuple(flat[a:b + 1]))
                      for a, b in zip(start.tolist(), end.tolist()))
        return SampledSoup(loops)


def _check_powers(n_v: int, n_max: int) -> int:
    """ceil(n_max/2), the top power of P that the sampler keeps, once P^0 up
    to it on n_v vertices are checked to fit in _SAMPLER_ENTRIES entries."""
    half = (n_max + 1) // 2
    if (half + 1) * n_v * n_v > _SAMPLER_ENTRIES:
        raise ConfigError(f"the matrix powers up to n_max={n_max} on {n_v} vertices "
                          f"need more than {_SAMPLER_ENTRIES} entries")
    return half


def sample_soup(g: GraphModel, frame: SpanningTreeFrame | None,
                cfg: MeasureConfig) -> SampledSoup:
    """Draw one soup under the given configuration. The truncation must be
    certified: tail_bound(g, n_max) <= tail_tol, else the configuration is
    rejected, as it is when the sampler would exceed its budget; its powers
    are checked first, ahead of the tail bound's dense eigensolve. frame is
    unused, as loops are drawn on vertices, not words; it stays because
    the benchmark's checks pass one."""
    _check_powers(g.num_vertices, cfg.n_max)
    bound = tail_bound(g, cfg.n_max)
    if bound > cfg.tail_tol:
        raise ConfigError(
            f"tail bound {bound:.3e} exceeds tolerance "
            f"{cfg.tail_tol:.3e} at n_max={cfg.n_max}")
    sampler = LoopSoupSampler(g, alpha=cfg.alpha, n_max=cfg.n_max)
    return sampler.sample(cfg.seed)


def dumps_soup(soup: SampledSoup) -> str:
    """One loop per line: n followed by the n visited vertices."""
    lines = []
    for l in soup.loops:
        vs = l.vertices[:-1]
        lines.append(" ".join([str(len(vs))] + [str(v) for v in vs]))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_soup(text: str, g: GraphModel) -> SampledSoup:
    """Inverse of dumps_soup. Validates counts, that the vertices are g's
    and that each step is an edge of g. Every error names its line."""
    loops = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = [int(t) for t in line.split()]
        except ValueError as e:
            raise ValidationError(f"soup line {lineno}: {e}") from None
        if nums[0] < 2:
            raise ValidationError(f"soup line {lineno}: {nums[0]} steps, need >= 2")
        if len(nums) != nums[0] + 1:
            raise ValidationError(
                f"soup line {lineno}: expected {nums[0]} vertices, "
                f"got {len(nums) - 1}")
        loop = BasedLoop(tuple(nums[1:]) + (nums[1],))
        try:
            loop.check_edges(g)
        except ValidationError as e:
            raise ValidationError(f"soup line {lineno}: {e}") from None
        loops.append(loop)
    return SampledSoup(tuple(loops))
