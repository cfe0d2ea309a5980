"""Per-homotopy-class intensities of the loop measure.

The mass of a nontrivial homotopy class factorizes over the steps of its
geodesic loop: each step x -> y contributes P(x,y) * rho(x,y), where
rho(x,y) is the generating function of excursions that leave y away from x
and return, counted with a weight s per step pair. The geodesic of a class
word crosses each letter's generator edge and then follows the tree path
to the tail of the next letter's edge, so a table of classes is read off
a letter-pair matrix: the mass is the cyclic product of its entries over
the word, divided by the multiplicity (_class_intensities, of which
class_intensity is the one-row view). The positions in P of each entry's
steps depend on the frame alone, and are memoized (_class_steps, see _memo).

The rho table lives on the 2|E| oriented edges and is the least fixed point
of r = F(r) = 1 + s * r o (B r), where the weighted non-backtracking
successor operator B has the entry P(y,z) P(z,y) in row (x,y), column
(y,z), z != x (stored sparse, one entry per non-backtracking step pair,
in a pattern memoized per topology, _pattern).
From r = 1, vectorized sweeps r <- F(r) run while each sweep at least
halves the change; from the first sweep that does not, Newton steps solve
(I - F'(r)) d = F(r) - r, with the residual F(r) - r evaluated in
double-double arithmetic so that it stays exact far below the step
tolerance. On a monotone polynomial system, Newton's method from below
converges monotonically to the least fixed point, quadratically at a simple
root and still linearly, halving the error, at a critical double root
(Etessami & Yannakakis, JACM 2009; Esparza, Kiefer & Luttenberger, SIAM J.
Comput. 2010).

The certificate is the step size, not the residual: near a double root a
residual of 5e-13 can leave rho wrong in the sixth digit, while the error
left after a Newton step there is about the size of that step. The solve
stops once a step moves no entry by more than 1e-13 of the largest rho; a
sweep that halved the change counts as such a step, since while the
changes halve the error left is at most the last change. At s <= 1 the
edge series always converges, so a Newton step with a non-finite entry
or an entry below minus that tolerance, or a singular I - F'(r), means
that the table is critical to within rounding (NumericError): rounding
moves a double root by about sqrt(u), u the unit roundoff, and there the
table is only that accurate. Entries within the tolerance of zero are
rounding, not divergence.

The trivial class is handled separately. Contractible loops are the
closed walks of the universal cover, a tree, and on a tree -log det(I - P)
factorizes over vertices and edges: this Bethe form is exact on trees.
So the mass is sum_x log rho_x + sum_{edges {x,y}} log(1 - P(x,y) P(y,x)
rho(x,y) rho(y,x)), read off the s = 1 table (_tree_mass). Gaussian
belief propagation computes the same walk sums on the computation tree
(Malioutov, Johnson & Willsky, JMLR 7, 2006), and the Bethe free energy
is stationary at its fixed points (Yedidia, Freeman & Weiss, IEEE Trans.
Inf. Theory 51, 2005): with rho_x recomputed from the edge values, the
table equations are exactly the stationarity conditions of the formula,
so the table's error enters only squared. Without killing, a graph with
one cycle has its s = 1 table on a double root; its mass comes from the
rank-1 closed form instead (_unicyclic_mass).

On regular graphs everything has closed forms, and the class masses with
the killing parametrized by step weight reproduce a classical determinant
identity for non-backtracking walks (Ihara; Bass, Int. J. Math. 3, 1992),
checked here in exact arithmetic (ihara_check): the geodesic loops come
from the array enumeration of freegroup, with the multiplicities its
rotation kernel finds, and both sides of the series are integer
numerators over the degree until each coefficient becomes one Fraction.
Each eigenvalue lam of A factors 1 - lam u + (d-1) u^2 = (1 - a u)(1 - b u),
so the determinant side's numerator of degree k is tr s_k(A) + 2 (|E| -
|X|) [k even], s_k(lam) = a^k + b^k: s_0 = 2 I, s_1 = A and s_k = A s_(k-1)
- (d-1) s_(k-2), (d + 1) n^2 integer additions a degree (_det_series).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import fsum, isfinite, sqrt

import numpy as np

from ._memo import memoized
from . import freegroup
from .errors import ConfigError, NumericError, ValidationError
from .freegroup import (GeodesicClass, _check_letters, _check_walks,
                        _class_words, _geodesic_loops, _Words)
from .graphs import GraphModel, SpanningTreeFrame, _EdgeTable

# Newton stops once no entry moves by more than this fraction of max rho.
_STEP = 1e-13
# solve_rho keeps the tables of this many recent (graph, s) pairs; each
# holds its graph, so an unbounded cache grows with every graph solved.
_RHO_CACHE = 32
# Dekker's splitting constant 2**27 + 1 for exact float64 products.
_SPLITTER = 134217729.0
# The unit roundoff of float64.
_U = 2.0 ** -53


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _split(a):
    """(hi, lo) with a = hi + lo and hi of at most 26 significant bits, so
    that products of halves are exact (Dekker)."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b, a_split=None):
    """(p, e) with p = fl(a * b) and a * b = p + e exactly (Dekker);
    a_split is _split(a) when known."""
    p = a * b
    a_hi, a_lo = _split(a) if a_split is None else a_split
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _slots(length: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For rows of the given lengths stored one after another: per slot j,
    the rows with more than j entries and the position of their j-th."""
    start = np.cumsum(length) - length
    has = [np.flatnonzero(length > j) for j in range(int(length.max(initial=0)))]
    return tuple((rows, start[rows] + j) for j, rows in enumerate(has))


def _slot_sums(hi: np.ndarray, lo: np.ndarray, slots, size: int):
    """The row sums of the double-double entries hi + lo, as (hi, lo),
    adding one slot at a time with error-free sums."""
    row_hi = np.zeros(size)
    row_lo = np.zeros(size)
    for j, (has, pos) in enumerate(slots):
        if j:
            row_hi[has], err = _two_sum(row_hi[has], hi[pos])
            row_lo[has] += err + lo[pos]
        else:
            row_hi[has], row_lo[has] = hi[pos], lo[pos]
    return row_hi, row_lo


def _pattern(edges: _EdgeTable) -> tuple:
    """Memoized per neighbours (see _memo): B's row of each entry, in row
    order (succ holds the columns), and the slots of B's rows and of the
    vertices' out-edges, for the compensated sums of residual and _tree_mass."""
    count = np.diff(edges.succ_first)
    return (np.repeat(np.arange(count.size), count), _slots(count),
            _slots(np.diff(edges.first)))


class _EdgeSystem:
    """The excursion fixed point of one graph on the oriented edges (x, y) of
    its edge table: the index tables come from the memo store, and a call
    forms only the weights, never stored on the graph."""

    def __init__(self, g: GraphModel):
        edges = g._oriented
        self.size = edges.head.size
        # B in row order, as (row, column, value) triples
        self._rows, self._slots, _ = memoized((g.neighbors,), _pattern, edges)
        self._cols = edges.succ
        self._coef = (g._p * g._p[edges.reverse])[self._cols]
        self._coef_split = _split(self._coef)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """B r."""
        return np.bincount(self._rows, self._coef * r[self._cols],
                           minlength=self.size)

    def residual(self, r: np.ndarray, s: float) -> np.ndarray:
        """F(r) - r at the step weight s, in double-double arithmetic:
        accurate to about 1e-16 of its own size rather than of |r|, so it
        still resolves the residual e^2 / 4 left at distance e from a double
        root."""
        hi, lo = _two_prod(self._coef, r[self._cols], self._coef_split)
        row_hi, row_lo = _slot_sums(hi, lo, self._slots, r.size)
        t_hi, t_lo = _two_prod(r, row_hi)
        t_lo = t_lo + r * row_lo
        u_hi, u_lo = _two_prod(s, t_hi)
        u_lo = u_lo + s * t_lo
        a, a_err = _two_sum(1.0, -r)
        b, b_err = _two_sum(a, u_hi)
        return b + (a_err + b_err + u_lo)

    @cached_property
    def _jacobian(self):
        """The CSC pattern of I + B (column pointers and the row of each
        stored entry), the diagonal mask and the B value of each entry (0
        on the diagonal)."""
        from scipy import sparse

        m = self.size
        succ = sparse.csr_matrix((self._coef, (self._rows, self._cols)),
                                 shape=(m, m))
        jac = (succ + sparse.identity(m, format="csr")).tocsc()
        rows = jac.indices
        diag = rows == np.repeat(np.arange(m), np.diff(jac.indptr))
        return jac.indptr, rows, diag, np.where(diag, 0.0, jac.data)

    def newton_step(self, r: np.ndarray, s: float,
                    f: np.ndarray) -> np.ndarray:
        """d with (I - F'(r)) d = f, where I - F'(r) = I - s diag(B r) -
        s diag(r) B, by one sparse LU. A singular matrix raises
        NumericError. scipy is imported here, by the first Newton step of a
        process; a solve whose sweeps converge never loads it."""
        from scipy import sparse
        from scipy.sparse.linalg import splu

        indptr, rows, diag, coef = self._jacobian
        data = np.where(diag, 1.0 - s * self.apply(r)[rows],
                        -s * r[rows] * coef)
        jac = sparse.csc_matrix((data, rows, indptr), shape=(self.size,) * 2)
        try:
            return splu(jac).solve(f)
        except RuntimeError:  # exactly singular
            raise _critical(s, "singular Newton system") from None


def _critical(s: float, why: str) -> NumericError:
    """The error of a table that rounding cannot tell from critical: at
    s <= 1 the edge series always converges, so a Newton iterate that
    breaks monotonicity is at a double root to within rounding."""
    return NumericError(f"rho table at s={s} is critical to within rounding "
                        f"({why})")


def _solve(system: _EdgeSystem, s: float) -> tuple[np.ndarray, int]:
    """The least fixed point of the edge system at the step weight s,
    iterated from r = 1, and the number of sweeps plus Newton steps.

    While each sweep at least halves the change, the error left is at most
    the last change, so a halving sweep below the step tolerance ends the
    solve like a Newton step would. Newton takes over from the first sweep
    that does not halve the change.
    """
    r = np.ones(system.size)
    if not system.size:
        return r, 0
    last = np.inf
    iterations = 0
    while True:
        new = 1.0 + s * r * system.apply(r)
        change = np.abs(new - r).max()
        r = new
        iterations += 1
        if not change <= last / 2:
            break
        if last < np.inf and change <= _STEP * r.max():
            return r, iterations
        last = change
    while True:
        d = system.newton_step(r, s, system.residual(r, s))
        iterations += 1
        tol = _STEP * r.max()
        if not np.isfinite(d).all() or d.min() < -tol:
            raise _critical(s, "a Newton step leaves the monotone region")
        r = r + d
        if np.abs(d).max() <= tol:
            return r, iterations


@dataclass(frozen=True, eq=False)
class RhoTable:
    """Excursion generating functions at a fixed step weight s, as a
    read-only array.

    edge[i] for the oriented edge i = (x, y) of GraphModel._oriented,
    ordered by x, then y: excursions from y avoiding x on the first step.
    iterations counts the sweeps and Newton steps; a table equals only itself.
    """

    edge: np.ndarray
    iterations: int


@lru_cache(maxsize=_RHO_CACHE)
def solve_rho(g: GraphModel, s: float = 1.0) -> RhoTable:
    """Solve rho(x,y) = 1 + s * rho(x,y) * sum_{z ~ y, z != x}
    P(y,z) rho(y,z) P(z,y) for the least fixed point.

    Vectorized sweeps from the constant 1 run while each at least halves
    the change, then Newton steps from below run until a step moves no
    entry by more than 1e-13 of the largest rho; that step size, not the
    residual, certifies the table (a halving sweep that small ends the
    solve too). At a double root, or within rounding of one, the table is
    accurate only to about sqrt(u) ~ 1e-8 relative, u the unit roundoff:
    rounding moves such a root by that much, and the solve can stop that
    far below it although its last step was below 1e-13: the table of the
    cycle 0-1-2 plus the path 2-3-4, without killing, lies up to 1.7e-8
    relative below its rational fixed point. A Newton step with a negative
    (beyond the tolerance) or non-finite entry, or a singular Newton
    system, raises NumericError: the table is critical to within
    rounding. Cached per (graph, s), for the last _RHO_CACHE pairs.
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"step weight s={s} outside [0, 1]")
    edge, iterations = _solve(_EdgeSystem(g), s)
    edge.flags.writeable = False
    return RhoTable(edge=edge, iterations=iterations)


def _class_steps(g: GraphModel, frame: SpanningTreeFrame,
                 words: _Words) -> tuple[np.ndarray, ...]:
    """The steps of the geodesics of a table of class words, as positions
    in g._p: those of each letter pair that the words use, pair after pair,
    each pair's in the order that _class_masses multiplies them; the first
    of each pair's; the pair of each letter; and each word's first letter.

    A class word's geodesic crosses each letter a's generator edge, then
    takes the tree path from its head to the tail of the next letter b
    (geodesic_representative), so its mass is a cyclic product over the
    word of a 2r x 2r letter-pair matrix. The paths of the pairs used are
    walked all at once, both ends up the tree as tree_path does, one step
    per level. ValidationError for a letter beyond the frame's rank.
    """
    letters, lengths, r, edges = words.letters, words.lengths, frame.rank, g._oriented
    _check_letters(letters, r)
    # letter index 2(|l| - 1) + (l < 0); letter 2i + 1 crosses generator
    # edge i backward
    index = ((np.abs(letters) - 1) << 1) | (letters < 0)
    cogenerators = np.array(frame.cogenerators, dtype=np.intp).reshape(-1, 2)
    # the letter after each letter, cyclically within its word
    end = np.cumsum(lengths)
    first = end - lengths
    after = np.arange(1, letters.size + 1)
    after[end - 1] = first
    pair, entry = np.unique(index * 2 * r + index[after], return_inverse=True)
    a, b = pair // (2 * r), pair % (2 * r)
    tail_a = cogenerators[a >> 1, a & 1]
    head_a = cogenerators[a >> 1, 1 - (a & 1)]
    # the step from each vertex to its tree parent and back (none at the root)
    parent, depth = np.array(frame.parent), np.array(frame.depth)
    child = np.flatnonzero(parent >= 0)
    up, down = np.zeros((2, parent.size), dtype=np.intp)
    up[child] = edges.index(child, parent[child])
    down[child] = edges.index(parent[child], child)
    at = [edges.index(tail_a, head_a)]  # then per level, -1 once a path is done
    x, y = head_a, cogenerators[b >> 1, b & 1]
    while (move := x != y).any():
        lift = move & (depth[x] >= depth[y])
        drop = move & ~lift
        at.append(np.where(lift, up[x], np.where(drop, down[y], -1)))
        x = np.where(lift, parent[x], x)
        y = np.where(drop, parent[y], y)
    at = np.array(at).T
    steps = (at >= 0).sum(axis=1)
    return at[at >= 0], np.cumsum(steps) - steps, entry, first


def _class_masses(g: GraphModel, steps: tuple, multiplicity: np.ndarray,
                  rho: RhoTable) -> np.ndarray:
    """Each pair's product of P(x,y) rho(x,y) at the steps of _class_steps, then
    each word's of its pairs', in order, over its multiplicity."""
    at, pair_first, pair, word_first = steps
    pairs = np.multiply.reduceat((g._p * rho.edge)[at], pair_first)
    return np.multiply.reduceat(pairs[pair], word_first) / multiplicity


def _class_intensities(g: GraphModel, frame: SpanningTreeFrame, max_len: int,
                       rho: RhoTable) -> np.ndarray:
    """Masses of the nontrivial classes up to length max_len, one per word of
    _class_words(frame.rank, max_len), at the step weight of rho: a call reads
    only the weights, as the steps are memoized per frame and max_len."""
    words = _class_words(frame.rank, max_len).words
    steps = memoized((frame.parent, frame.cogenerators, max_len), _class_steps,
                     g, frame, words)
    return _class_masses(g, steps, words.multiplicity, rho)


def class_intensity(g: GraphModel, frame: SpanningTreeFrame,
                    cls: GeodesicClass, rho: RhoTable | None = None) -> float:
    """Loop-measure mass of a nontrivial homotopy class.

    The product of P(x,y) rho(x,y) over the steps of the class's geodesic
    loop, divided by the class multiplicity: the one-row view of
    _class_intensities, so bitwise equal to that class's row in any table.
    Pass a precomputed RhoTable, at any s, to amortize the solve across
    classes; without one the s = 1 table is solved. ValidationError for
    the trivial class or a letter beyond the frame's rank.
    """
    if cls.is_trivial:
        raise ValidationError(
            "the trivial class has no geodesic; use contractible_intensity")
    if rho is None:
        rho = solve_rho(g, 1.0)
    words = _Words(np.array(cls.word, dtype=np.intp),
                   np.array([cls.length]), np.array([cls.multiplicity]))
    return float(_class_masses(g, _class_steps(g, frame, words),
                               words.multiplicity, rho)[0])


@dataclass(frozen=True)
class RegularForms:
    """Closed forms on a d-regular graph with unit conductances and
    constant killing: the per-geodesic-step intensity factor."""

    step_intensity: float


def regular_closed_forms(d: int, kappa: float, s: float = 1.0) -> RegularForms:
    """Evaluate the closed forms; a class of geodesic length L then has
    intensity step_intensity**L / multiplicity.

    step_intensity is rho_edge / (d + kappa), where rho_edge solves rho =
    1 + s (d-1) rho^2 / (d+kappa)^2 on the branch that is 1 at s = 0. It
    is finite wherever s <= 1, also where the vertex series diverges (the
    unkilled cycle, d = 2, at s = 1).
    """
    if d < 2:
        raise ValidationError("regular closed forms need degree d >= 2")
    if kappa < 0:
        raise ValidationError("killing must be nonnegative")
    if not isfinite(kappa):
        raise ValidationError(f"killing must be finite, got {kappa}")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"step weight s={s} outside [0, 1]")
    lam = d + kappa
    disc = 1.0 - 4.0 * s * (d - 1) / lam ** 2
    if disc < 0:
        raise NumericError(f"non-summable tree-contour series at s={s}")
    if s == 0.0:
        rho_edge = 1.0
    else:
        rho_edge = lam ** 2 / (2.0 * s * (d - 1)) * (1.0 - sqrt(disc))
    return RegularForms(step_intensity=rho_edge / lam)


def _tree_mass(g: GraphModel, edge: np.ndarray) -> tuple[float, float]:
    """The trivial-class mass of g from its s = 1 edge table, by the tree
    formula, and a first-order bound on its error.

    sum_x log rho_x + sum_{edges {x,y}} log(1 - a(x,y)), where a(x,y) =
    P(x,y) P(y,x) rho(x,y) rho(y,x) and rho_x = 1 / (1 - sum_y P(x,y)
    P(y,x) rho(x,y)) is recomputed from the table. Both gaps, 1 - sum and
    1 - a, are formed in double-double, so that each term carries only a
    few roundings of its own size.

    The bound adds: the rounding of P, whose entries in row x carry the
    deg x roundings of lam(x) and one of the division, each moving the
    mass by at most u (rho_x - 1); the rounding of each term and of the
    sum; and the table's own error, at most the step tolerance per entry,
    times the gradient of the formula at the table, which vanishes at the
    fixed point. NumericError if a gap is not positive: the table is then
    critical to within rounding.
    """
    edges = g._oriented
    first, head, tail = edges.first, edges.head, edges.tail
    back = edge[edges.reverse]
    w_hi, w_lo = _two_prod(g._p, g._p[edges.reverse])
    t_hi, t_lo = _two_prod(w_hi, edge)
    t_lo = t_lo + w_lo * edge
    a_hi, a_lo = _two_prod(t_hi, back)
    b, b_err = _two_sum(1.0, -a_hi)
    edge_gap = b + (b_err - (a_lo + t_lo * back))
    degree = np.diff(first)
    slots = memoized((g.neighbors,), _pattern, edges)[2]
    sum_hi, sum_lo = _slot_sums(t_hi, t_lo, slots, degree.size)
    b, b_err = _two_sum(1.0, -sum_hi)
    gap = b + (b_err - sum_lo)
    if not ((gap > 0).all() and (edge_gap > 0).all()):
        raise _critical(1.0, "a vertex or edge gap is not positive")
    rho = 1.0 / gap
    terms = np.concatenate([-np.log(gap), np.log(edge_gap[tail < head])])
    value = fsum(terms)
    gradient = w_hi * (rho[tail] - back / edge_gap)
    err = (_U * ((degree + 1) @ (rho - 1.0)
                + 2.0 * (terms.size + np.abs(terms).sum()) + abs(value))
           + _STEP * edge.max(initial=1.0) * np.abs(gradient).sum())
    return value, float(err)


def _unicyclic_mass(g: GraphModel) -> tuple[float, float]:
    """The trivial-class mass of a connected graph with one cycle and no
    killing, and a first-order bound on its error.

    The rank-1 closed form at x = 1: -log(-c_1), where c_1 is the
    coefficient of the winding variable in det(I - P^theta), the product
    of P around the cycle, one way, times det(I - P) on the vertices off
    the cycle. Eliminating those leaves first, each pivot is the step
    toward the cycle, since without killing the walk from a branch returns
    to its root. So the mass is -sum_x log P(x, f(x)), with f the step
    around the cycle on the cycle and toward it off the cycle. The bound
    adds the deg x roundings of lam(x) and the one of the division in
    each P(x, f(x)), the rounding of each logarithm and that of the sum.
    """
    n = g.num_vertices
    left = [len(a) for a in g.neighbors]
    step = [-1] * n
    leaves = [x for x in range(n) if left[x] == 1]
    while leaves:
        x = leaves.pop()
        step[x] = y = next(z for z in g.neighbors[x] if step[z] < 0)
        left[y] -= 1
        if left[y] == 1:
            leaves.append(y)
    on_cycle = [f < 0 for f in step]
    start = x = on_cycle.index(True)
    prev = -1
    while True:
        step[x] = y = next(z for z in g.neighbors[x]
                           if on_cycle[z] and z != prev)
        prev, x = x, y
        if x == start:
            break
    terms = np.log(g._p[g._oriented.index(np.arange(n), step)])
    value = -fsum(terms)
    err = _U * (2 * len(g.edges) + n + 2.0 * np.abs(terms).sum() + abs(value))
    return value, float(err)


def contractible_intensity(g: GraphModel) -> tuple[float, float]:
    """Mass of the trivial homotopy class, with a first-order bound on its
    rounding error.

    Contractible loops are the closed walks of the universal cover, a
    tree, on which -log det(I - P) factorizes over vertices and edges (the
    Bethe form, exact on trees): the mass is _tree_mass of the s = 1 table
    of solve_rho, a cache hit after homotopy's own solve. Without killing
    a tree has infinite mass (NumericError), and a graph with one cycle
    has its s = 1 table on a double root, which rounding moves by about
    sqrt(u); its mass comes from the rank-1 closed form instead
    (_unicyclic_mass). NumericError as solve_rho's, or _tree_mass's, when
    the table is critical to within rounding.
    """
    if not any(g.killing):
        rank = len(g.edges) - g.num_vertices + 1
        if not rank:
            raise NumericError(
                "massless/recurrent chain: the trivial class of a tree "
                "without killing has infinite mass")
        if rank == 1:
            return _unicyclic_mass(g)
    return _tree_mass(g, solve_rho(g, 1.0).edge)


# ---------------------------------------------------------------------------
# determinant identity for geodesic loops on regular graphs
# (exact integer power series)

# The most additions of _det_series that ihara_check admits: (d + 1) n^2 a
# degree on n vertices of degree d, and _STEP_ADDITIONS for the degree's numpy
# calls and Fraction (about 3 us, against 6 ns an addition).
_DET_ADDITIONS = 2 ** 24
_STEP_ADDITIONS = 2 ** 10


@dataclass(frozen=True)
class IharaSeries:
    """Both sides of the geodesic determinant identity, as power series in
    the step variable: walk_side[n] counts geodesic loops of length n
    weighted by 1/multiplicity; det_side comes from the adjacency
    determinant."""

    walk_side: tuple[Fraction, ...]
    det_side: tuple[Fraction, ...]

    def rows(self) -> list[tuple[int, Fraction, Fraction, Fraction]]:
        return [(n, l, r, l - r)
                for n, (l, r) in enumerate(zip(self.walk_side, self.det_side))]

    def agree(self) -> bool:
        return self.walk_side == self.det_side


def _det_series(neighbors: tuple[tuple[int, ...], ...], n_edges: int,
                max_degree: int) -> list[Fraction]:
    """Coefficients 0..max_degree of -(|E| - |X|) log(1 - u^2)
    - log det(I - u A + u^2 (d-1) I) for a d-regular graph, by the trace
    recursion of the module docstring on object arrays of Python ints: A M
    is the sum of M's rows gathered once per column of the n x d neighbour
    array."""
    n, d = len(neighbors), len(neighbors[0])
    columns = np.array(neighbors, dtype=np.intp).reshape(n, d).T
    prev, s = np.zeros((2, n, n), dtype=object)
    np.fill_diagonal(prev, 2)
    s[np.arange(n), columns] = 1
    traces = [s.trace()]
    for _ in range(1, max_degree):
        prev, s = s, sum((s[c] for c in columns), -(d - 1) * prev)
        traces.append(s.trace())
    chi = n_edges - n
    return [Fraction(0)] + [Fraction(t + 2 * chi * (k % 2 == 0), k)
                            for k, t in enumerate(traces, 1)]


def ihara_check(g: GraphModel, max_degree: int) -> IharaSeries:
    """Compare geodesic-loop counts against the determinant series
    -(|E| - |X|) log(1 - u^2) - log det(I - u A + u^2 (d-1) I),
    coefficient by coefficient through max_degree, in exact arithmetic.

    The walk side is read off the geodesic loops that the array
    enumeration of freegroup returns with their multiplicities: a loop of
    length n and multiplicity m is n/m based closed walks, so n times the
    coefficient of degree n is an integer count. The determinant side is
    _det_series. Both stay on integers, and each coefficient becomes one
    Fraction at the end.

    Requires a d-regular graph with unit conductances (the identity is
    stated for the adjacency matrix). ConfigError, before any walk is
    grown or any matrix built, past freegroup._WALK_LETTERS steps of the
    non-backtracking walks up to max_degree, sum_k k n d (d-1)^(k-1) on n
    vertices, or past _DET_ADDITIONS additions of _det_series: where d <= 1
    the walks die out, and a large n fills its n x n matrices first.

    Both series depend on the topology alone, so the based counts and the
    determinant side are memoized per (neighbours, max_degree) (see
    _memo), not the loops. The checks above and the budgets run on every
    call, ahead of the memo.
    """
    if max_degree < 1:
        raise ValidationError("max_degree must be >= 1")
    degs = {g.degree(x) for x in range(g.num_vertices)}
    if len(degs) != 1:
        raise ValidationError("determinant identity needs a regular graph")
    if any(c != 1.0 for c in g.conductance.values()):
        raise ValidationError("determinant identity needs unit conductances")
    n, d, limit = g.num_vertices, degs.pop(), freegroup._WALK_LETTERS
    _check_walks((n * d * (d - 1) ** k for k in range(max_degree)), limit,
                 f"the geodesic loops up to length {max_degree} need more "
                 f"than {limit} steps of non-backtracking walks")
    if max_degree * ((d + 1) * n * n + _STEP_ADDITIONS) > _DET_ADDITIONS:
        raise ConfigError(f"the determinant series up to degree {max_degree} "
                          f"needs more than {_DET_ADDITIONS} additions on "
                          f"{n} x {n} integer matrices")
    based, det = memoized((g.neighbors, max_degree), _ihara_series, g,
                          max_degree)
    walk = [Fraction(0)] + [Fraction(c, k) for k, c in enumerate(based[1:], 1)]
    return IharaSeries(walk_side=tuple(walk), det_side=det)


def _ihara_series(g: GraphModel, max_degree: int
                  ) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The two sides of ihara_check: n/m summed over the geodesic loops of
    each length n, m the multiplicity, for n = 0..max_degree, and the
    determinant side."""
    loops = _geodesic_loops(g, max_degree)
    based = np.zeros(max_degree + 1, dtype=np.int64)
    np.add.at(based, loops.lengths, loops.lengths // loops.multiplicity)
    det = _det_series(g.neighbors, len(g.edges), max_degree)
    return tuple(based.tolist()), tuple(det)
