"""Per-homotopy-class intensities of the loop measure.

The mass of a nontrivial homotopy class factorizes over the steps of its
geodesic loop: each step x -> y contributes P(x,y) * rho(x,y), where
rho(x,y) is the generating function of excursions that leave y away from x
and return, counted with a weight s per step pair. The geodesic of a class
word crosses each letter's generator edge and then follows the tree path
to the tail of the next letter's edge, so a table of classes is read off
a letter-pair matrix: the mass is the cyclic product of its entries over
the word, divided by the multiplicity (_class_intensities, of which
class_intensity is the one-row view).

The rho table lives on the 2|E| oriented edges and is the least fixed point
of r = F(r) = 1 + s * r o (B r), where the weighted non-backtracking
successor operator B has the entry P(y,z) P(z,y) in row (x,y), column
(y,z), z != x (stored sparse, one entry per non-backtracking step pair).
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
changes halve the error left is at most the last change. A Newton step
with a non-finite entry or an entry below minus that tolerance, or a
singular I - F'(r), means the iterate has passed the point up to which a
fixed point could still exist: the series is non-summable (NumericError).
Entries within the tolerance of zero are rounding, not divergence.

The trivial class is handled separately: its mass is an integral over the
deformation parameter s of the per-vertex excursion functions, taken in
t with s = 1 - t^2 by adaptive 21-point Gauss-Kronrod quadrature
(QUADPACK's qk21 rule, Piessens et al. 1983) without extrapolation. The
refinement goes one level at a time, and all nodes of a level are solved
as one batch: the sweeps run on a (nodes, 2|E|) array, and each Newton
step factors one block-diagonal sparse LU for all nodes in that phase.
The certificate of the mass is the sum over the intervals of |K - G|, the
gap between the Kronrod value and the embedded Gauss value.

On regular graphs everything has closed forms, and the class masses with
the killing parametrized by step weight reproduce a classical determinant
identity for non-backtracking walks (Ihara; Bass, Int. J. Math. 3, 1992),
checked here in exact arithmetic (ihara_check): the geodesic loops come
from the array enumeration of freegroup, with the multiplicities its
rotation kernel finds, and both sides of the series are integer
numerators over the degree until each coefficient becomes one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, fsum, sqrt

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import NumericError, ValidationError
from .freegroup import (GeodesicClass, _check_letters, _geodesic_loops,
                        _Words)
from .graphs import GraphModel, SpanningTreeFrame, _adjacency, _expand

# Newton stops once no entry moves by more than this fraction of max rho.
_STEP = 1e-13
# solve_rho keeps the tables of this many recent (graph, s) pairs; each
# holds its graph, so an unbounded cache grows with every graph solved.
_RHO_CACHE = 32
# Dekker's splitting constant 2**27 + 1 for exact float64 products.
_SPLITTER = 134217729.0

# QUADPACK's 21-point Gauss-Kronrod rule (qk21, Piessens et al. 1983): the
# Kronrod abscissae in [0, 1), the Gauss ones at odd positions, with their
# Kronrod weights, the centre's last, and the 10-point Gauss weights.
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077548564726430,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# The 21 nodes on [-1, 1] in ascending order, the Kronrod weights, and the
# Kronrod minus the Gauss weights, whose product with the values is K - G.
_GK_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
_GK_GAUSS_GAP = _GK_KRONROD.copy()
_GK_GAUSS_GAP[1:10:2] -= _WG
_GK_GAUSS_GAP[19:10:-2] -= _WG
# The contractible-mass quadrature: absolute and relative target, and the
# largest number of intervals.
_QUAD_TOL = 1e-11
_QUAD_LIMIT = 200


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


def _row_bincount(index: np.ndarray, values: np.ndarray,
                  size: int) -> np.ndarray:
    """np.bincount(index, values[b], minlength=size) for every row b of
    values, in one call; each bin adds its terms in the same order."""
    k = values.shape[0]
    shifted = index + size * np.arange(k)[:, None]
    return np.bincount(shifted.ravel(), values.ravel(),
                       minlength=k * size).reshape(k, size)


class _EdgeSystem:
    """The excursion fixed point of one graph on its oriented edges (x, y),
    ordered by x, then y. Built per call, never stored on the graph."""

    def __init__(self, g: GraphModel):
        n = g.num_vertices
        self.num_vertices = n
        first, head, tail = _adjacency(g)
        self.size = m = head.size
        p = g.transition
        self.tail = tail
        self.weight = p[tail, head] * p[head, tail]
        self._vertex_weight = np.bincount(tail, weights=self.weight,
                                          minlength=n)
        # B in row order, as (row, column, value) triples. The candidate
        # successors of (x, y) are the edges out of y; (y, x) is dropped.
        rows, cols = _expand(first, head)
        keep = head[cols] != tail[rows]
        self._rows, self._cols = rows[keep], cols[keep]
        self._coef = self.weight[self._cols]
        self._coef_split = _split(self._coef)
        # the j-th successor of every row that has one, for the compensated
        # row sums of the residual
        length = np.bincount(self._rows, minlength=m)
        row_start = np.cumsum(length) - length
        self._slots = []
        for j in range(int(length.max(initial=0))):
            has = np.flatnonzero(length > j)
            self._slots.append((has, row_start[has] + j))

    def apply(self, r: np.ndarray) -> np.ndarray:
        """B r for every row of r."""
        return _row_bincount(self._rows, self._coef * r[:, self._cols],
                             self.size)

    def residual(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        """F(r) - r for every row of r, each at its own s, in double-double
        arithmetic: accurate to about 1e-16 of its own size rather than of
        |r|, so it still resolves the residual e^2 / 4 left at distance e
        from a double root."""
        hi, lo = _two_prod(self._coef, r[:, self._cols], self._coef_split)
        row_hi = np.zeros(r.shape)
        row_lo = np.zeros(r.shape)
        for j, (has, pos) in enumerate(self._slots):
            if j:
                row_hi[:, has], err = _two_sum(row_hi[:, has], hi[:, pos])
                row_lo[:, has] += err + lo[:, pos]
            else:
                row_hi[:, has], row_lo[:, has] = hi[:, pos], lo[:, pos]
        t_hi, t_lo = _two_prod(r, row_hi)
        t_lo = t_lo + r * row_lo
        s = s[:, None]
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
        m = self.size
        succ = sparse.csr_matrix((self._coef, (self._rows, self._cols)),
                                 shape=(m, m))
        jac = (succ + sparse.identity(m, format="csr")).tocsc()
        rows = jac.indices
        diag = rows == np.repeat(np.arange(m), np.diff(jac.indptr))
        return jac.indptr, rows, diag, np.where(diag, 0.0, jac.data)

    def newton_step(self, r: np.ndarray, s: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
        """d with (I - F'(r)) d = f for every row, where I - F'(r) = I -
        s diag(B r) - s diag(r) B, by one sparse LU of the block-diagonal
        matrix of all rows. A singular matrix raises NumericError."""
        indptr, rows, diag, coef = self._jacobian
        k, m = r.shape
        sc = s[:, None]
        data = np.where(diag, 1.0 - sc * self.apply(r)[:, rows],
                        -sc * r[:, rows] * coef)
        block = np.arange(k)[:, None]
        jac = sparse.csc_matrix(
            (data.ravel(), (rows + m * block).ravel(),
             np.append((indptr[:-1] + rows.size * block).ravel(),
                       k * rows.size)),
            shape=(k * m, k * m))
        try:
            return splu(jac).solve(f.ravel()).reshape(k, m)
        except RuntimeError:  # exactly singular
            where = (f"s={float(s[0])}" if k == 1 else
                     f"some s in [{float(s.min())}, {float(s.max())}]")
            raise NumericError(f"non-summable tree-contour series at {where} "
                               f"(singular Newton system)") from None

    def vertex(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Unrestricted excursions from each vertex,
        1 / (1 - s sum_y P(x,y) rho(x,y) P(y,x)), for every row of r from
        _solve, each at its own s.

        inf where the sum reaches 1 within the accuracy of r: the series
        diverges there or cannot be told from divergent. Each entry of r
        lies below the fixed point by about the last step at most, so the
        sum is short by at most s sum_y P(x,y) P(y,x) times that; twice
        this is the margin. At a critical edge system, such as the unkilled
        triangle at s = 1, the true sum is 1 and the solve stops just short
        of it."""
        acc = _row_bincount(self.tail, self.weight * r, self.num_vertices)
        s = s[:, None]
        denom = 1.0 - s * acc
        margin = (2.0 * _STEP * r.max(axis=1, initial=1.0)[:, None] * s
                  * self._vertex_weight)
        out = np.full(denom.shape, np.inf)
        ok = denom > margin
        out[ok] = 1.0 / denom[ok]
        return out


def _solve(system: _EdgeSystem, s: np.ndarray,
           start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least fixed points of the edge system at the step weights s, one
    per row, each iterated from its row of start, which must lie below it:
    rho per node and oriented edge, and the number of sweeps plus Newton
    steps per node.

    While each sweep at least halves the change, the error left is at most
    the last change, so a halving sweep below the step tolerance ends the
    solve like a Newton step would. Newton takes over from the first sweep
    that does not halve the change. Each sweep, and then each Newton step,
    works on all nodes still in that phase at once; each node takes the
    steps it would take alone, and only the LU of the Newton steps sees
    the other nodes, as separate diagonal blocks.
    """
    r = np.array(start, dtype=float)
    iterations = np.zeros(s.size, dtype=int)
    if not system.size:
        return r, iterations
    # the nodes still sweeping, their rows and their last changes; all of
    # them have taken the same number of sweeps
    at, x, sx = np.arange(s.size), r, s[:, None]
    last = np.full(s.size, np.inf)
    sweeps = 0
    newton = [at[:0]]
    while at.size:
        new = 1.0 + sx * x * system.apply(x)
        change = np.abs(new - x).max(axis=1)
        x = new
        sweeps += 1
        halved = change <= last / 2
        stop = ~halved | ((last < np.inf)
                          & (change <= _STEP * x.max(axis=1)))
        if stop.any():
            r[at[stop]] = x[stop]
            iterations[at[stop]] = sweeps
            newton.append(at[~halved])
            go = ~stop
            at, x, sx, change = at[go], x[go], sx[go], change[go]
        last = change
    at = np.concatenate(newton)
    while at.size:
        x, sx = r[at], s[at]
        d = system.newton_step(x, sx, system.residual(x, sx))
        iterations[at] += 1
        tol = _STEP * x.max(axis=1)
        bad = ~np.isfinite(d).all(axis=1) | (d.min(axis=1) < -tol)
        if bad.any():
            raise NumericError(
                f"non-summable tree-contour series at s={float(sx[bad][0])} "
                f"(Newton step leaves the monotone region)")
        r[at] = x + d
        at = at[np.abs(d).max(axis=1) > tol]
    return r, iterations


@dataclass(frozen=True)
class RhoTable:
    """Excursion generating functions at a fixed step weight s, as
    read-only arrays.

    edge[i] for the oriented edge i = (x, y) of graphs._adjacency, ordered
    by x, then y: excursions from y avoiding x on the first step.
    vertex[x]: unrestricted excursions from x, inf where that series
    diverges or sits on its boundary (the unkilled triangle at s = 1, whose
    edge values are the finite double root 2). residual is max |F(rho) -
    rho| at the returned table; iterations counts the sweeps and Newton
    steps.
    """

    s: float
    edge: np.ndarray = field(compare=False)
    vertex: np.ndarray = field(compare=False)
    residual: float
    iterations: int


@lru_cache(maxsize=_RHO_CACHE)
def solve_rho(g: GraphModel, s: float = 1.0) -> RhoTable:
    """Solve rho(x,y) = 1 + s * rho(x,y) * sum_{z ~ y, z != x}
    P(y,z) rho(y,z) P(z,y) for the least fixed point.

    Vectorized sweeps from the constant 1 run while each at least halves
    the change, then Newton steps from below run until a step moves no
    entry by more than 1e-13 of the largest rho; that step size, not the
    residual, certifies the table, also at a critical double root (a
    halving sweep that small ends the solve too). A Newton step with a
    negative (beyond that tolerance) or non-finite entry, or a singular
    Newton system, raises NumericError (non-summable series); a vertex sum
    that reaches 1 within the accuracy of the table gives vertex[x] = inf.
    Cached per (graph, s), for the last _RHO_CACHE pairs; the quadrature of
    contractible_intensity solves its nodes without this cache.
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"step weight s={s} outside [0, 1]")
    system = _EdgeSystem(g)
    at = np.array([s])
    r, iterations = _solve(system, at, np.ones((1, system.size)))
    vertex = system.vertex(r, at)[0]
    residual = float(np.max(np.abs(system.residual(r, at)), initial=0.0))
    edge = r[0]
    edge.flags.writeable = vertex.flags.writeable = False
    return RhoTable(s=s, edge=edge, vertex=vertex, residual=residual,
                    iterations=int(iterations[0]))


def _class_intensities(g: GraphModel, frame: SpanningTreeFrame, words: _Words,
                       rho: RhoTable) -> np.ndarray:
    """Masses of nontrivial classes, one per canonical class word of the
    table, at the step weight of rho.

    The geodesic of a class word crosses each letter a's generator edge,
    then takes the tree path from its head to the tail of the next letter
    b (geodesic_representative). So its product of P(x,y) rho(x,y) is the
    cyclic product over the word of a 2r x 2r letter-pair matrix: T[a, b]
    is that product over a's generator edge and then along the tree path.
    Only the entries that the words use are formed, all at once, by
    walking both ends of every path up the tree as tree_path does. Each
    word's entries are then multiplied in order and the product divided by
    the multiplicity; no word's mass depends on the other words of the
    table. ValidationError for a letter beyond the frame's rank.
    """
    r = frame.rank
    _check_letters(words.letters, r)
    letters, lengths = words.letters, words.lengths
    if not lengths.size:
        return np.zeros(0)
    p, n = g.transition, g.num_vertices
    _, heads, tails = _adjacency(g)
    keys = tails * n + heads

    def steps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return p[x, y] * rho.edge[np.searchsorted(keys, x * n + y)]

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
    # the step from each vertex to its tree parent and back (1 at the root)
    parent, depth = np.array(frame.parent), np.array(frame.depth)
    child = np.flatnonzero(parent >= 0)
    up, down = np.ones(parent.size), np.ones(parent.size)
    up[child] = steps(child, parent[child])
    down[child] = steps(parent[child], child)
    value = steps(tail_a, head_a)
    x, y = head_a, cogenerators[b >> 1, b & 1]
    while (move := x != y).any():
        lift = move & (depth[x] >= depth[y])
        drop = move & ~lift
        value = value * np.where(lift, up[x], 1.0) * np.where(drop, down[y], 1.0)
        x = np.where(lift, parent[x], x)
        y = np.where(drop, parent[y], y)
    return np.multiply.reduceat(value[entry], first) / words.multiplicity


def class_intensity(g: GraphModel, frame: SpanningTreeFrame,
                    cls: GeodesicClass, s: float = 1.0,
                    rho: RhoTable | None = None) -> float:
    """Loop-measure mass of a nontrivial homotopy class.

    The product of P(x,y) rho(x,y) over the steps of the class's geodesic
    loop, divided by the class multiplicity: the one-row view of
    _class_intensities, so bitwise equal to that class's row in any table.
    Pass a precomputed RhoTable to amortize the solve across classes.
    ValidationError for the trivial class, a letter beyond the frame's
    rank, or a table solved at another s.
    """
    if cls.is_trivial:
        raise ValidationError(
            "the trivial class has no geodesic; use contractible_intensity")
    if rho is None:
        rho = solve_rho(g, s)
    elif rho.s != s:
        raise ValidationError(f"rho table solved at s={rho.s}, need s={s}")
    words = _Words(np.array(cls.word, dtype=np.intp),
                   np.array([cls.length]), np.array([cls.multiplicity]))
    return float(_class_intensities(g, frame, words, rho)[0])


@dataclass(frozen=True)
class RegularForms:
    """Closed forms on a d-regular graph with unit conductances and
    constant killing: the edge and vertex excursion functions, the
    per-geodesic-step intensity factor, and the square root b of the
    discriminant 1 - 4 s (d-1)/(d+kappa)^2."""

    rho_edge: float
    rho_vertex: float
    step_intensity: float
    b: float


def regular_closed_forms(d: int, kappa: float, s: float = 1.0) -> RegularForms:
    """Evaluate the closed forms; a class of geodesic length L then has
    intensity step_intensity**L / multiplicity.

    rho_edge solves rho = 1 + s (d-1) rho^2 / (d+kappa)^2, taking the
    branch that is 1 at s = 0.
    """
    if d < 2:
        raise ValidationError("regular closed forms need degree d >= 2")
    if kappa < 0:
        raise ValidationError("killing must be nonnegative")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"step weight s={s} outside [0, 1]")
    lam = d + kappa
    disc = 1.0 - 4.0 * s * (d - 1) / lam ** 2
    if disc < 0:
        raise NumericError(f"non-summable tree-contour series at s={s}")
    b = sqrt(disc)
    if s == 0.0:
        rho_edge = 1.0
    else:
        rho_edge = lam ** 2 / (2.0 * s * (d - 1)) * (1.0 - b)
    denom = d - 2 + d * b
    if denom <= 0:
        raise NumericError(f"non-summable tree-contour series at s={s}")
    rho_vertex = 2.0 * (d - 1) / denom
    return RegularForms(rho_edge=rho_edge, rho_vertex=rho_vertex,
                        step_intensity=rho_edge / lam, b=b)


def _gauss_kronrod(f, tol: float, limit: int) -> tuple[float, float]:
    """Integral of f over [0, 1] and its error, by adaptive 21-point
    Gauss-Kronrod quadrature, one refinement level at a time: f maps an
    array of nodes to their values and gets all nodes of a level at once.

    Each interval reports its Kronrod value K and |K - G|, G the embedded
    10-point Gauss value. While the sum of |K - G| exceeds the target
    max(tol, tol |sum K|), every interval whose |K - G| exceeds its share,
    the target times its width, is bisected, the worst first if that
    would pass limit intervals. There is no extrapolation. The returned
    error is the sum of |K - G|, also when the limit stops the refinement
    short of the target. A non-finite value of f raises NumericError.
    """

    def level(a, b):
        half = (b - a) / 2
        t = (a + b)[:, None] / 2 + half[:, None] * _GK_NODES
        ft = f(t.ravel()).reshape(t.shape)
        if not np.isfinite(ft).all():
            raise NumericError(
                f"contractible mass quadrature: non-finite integrand at "
                f"t={float(t[~np.isfinite(ft)][0])}")
        return half * (ft @ _GK_KRONROD), half * np.abs(ft @ _GK_GAUSS_GAP)

    a, b = np.zeros(1), np.ones(1)
    k, err = level(a, b)
    while True:
        target = max(tol, tol * abs(fsum(k)))
        split = np.flatnonzero(err > target * (b - a))
        room = limit - a.size
        if fsum(err) <= target or not split.size or room <= 0:
            return fsum(k), fsum(err)
        if split.size > room:
            split = split[np.argsort(-err[split], kind="stable")[:room]]
        mid = (a[split] + b[split]) / 2
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_k, new_err = level(new_a, new_b)
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        k = np.concatenate([k[keep], new_k])
        err = np.concatenate([err[keep], new_err])


def contractible_intensity(g: GraphModel) -> tuple[float, float]:
    """Mass of the trivial homotopy class, with a quadrature error estimate.

    Integrates sum_x (rho_x(s) - 1) / (2s) over s in [0, 1] by adaptive
    Gauss-Kronrod quadrature in t with s = 1 - t^2 (_gauss_kronrod):
    near criticality rho_x(s) has a square-root branch point at or just
    beyond s = 1, which the substitution smooths. The rule does not
    extrapolate; extrapolation is what misled QUADPACK's QAGS in s itself
    (on the triangle with killing 1e-9 at one vertex, 2.07944154219 with an
    error estimate of 5e-11, against 2.07938676992). The integrand extends
    analytically to s = 0 with value tr(P^2)/2, which is substituted below
    a small threshold.

    The edge system is built once. All nodes of one refinement level are
    solved together by _solve, each from the solution at the nearest
    smaller solved s (rho grows with s, so that is a start from below, and
    rho is 1 at s = 0); they do not enter the solve_rho cache.

    The target is 1e-11, absolute and relative, over at most 200
    intervals. The returned error is the sum of the local |K - G| of the
    Gauss-Kronrod pairs, whether or not the target was met, and nothing is
    printed on a miss. A non-finite integrand, a vertex series on its
    boundary at a node, or a Newton step that leaves the monotone region
    raises NumericError.
    """
    if not any(g.killing) and len(g.edges) == g.num_vertices - 1:
        # every loop of a tree is contractible, so this is the total mass,
        # infinite without killing; the integrand only diverges like 1/t,
        # which the quadrature need not notice before its interval limit
        raise NumericError(
            "massless/recurrent chain: the trivial class of a tree without "
            "killing has infinite mass")
    system = _EdgeSystem(g)
    p = g.transition
    limit0 = float(np.sum(p * p.T)) / 2.0
    # the solved nodes, sorted by s
    solved_s = np.zeros(1)
    solved_r = np.ones((1, system.size))

    def integrand(t: np.ndarray) -> np.ndarray:
        nonlocal solved_s, solved_r
        s = (1.0 - t) * (1.0 + t)
        out = 2.0 * t * limit0
        at = np.flatnonzero(s >= 1e-9)
        s = s[at]
        below = np.searchsorted(solved_s, s, side="right") - 1
        r, _ = _solve(system, s, solved_r[below])
        vertex = system.vertex(r, s)
        diverged = np.isinf(vertex).any(axis=1)
        if diverged.any():
            raise NumericError(
                f"non-summable tree-contour series at "
                f"s={float(s[diverged][0])} (a vertex sum reaches 1)")
        out[at] = t[at] * (vertex - 1.0).sum(axis=1) / s
        order = np.argsort(np.concatenate([solved_s, s]), kind="stable")
        solved_s = np.concatenate([solved_s, s])[order]
        solved_r = np.concatenate([solved_r, r])[order]
        return out

    return _gauss_kronrod(integrand, _QUAD_TOL, _QUAD_LIMIT)


# ---------------------------------------------------------------------------
# determinant identity for geodesic loops on regular graphs
# (exact integer power series)


def _charpoly(neighbors: tuple[tuple[int, ...], ...],
              max_degree: int) -> list[int]:
    """Coefficients [c_0=1, c_1, ..., c_K] of det(t I - A) = sum c_k t^(n-k)
    through K = min(n, max_degree), A the adjacency matrix of the
    neighbour lists, by the trace recursion in exact integers: object
    arrays of Python ints, multiplied by numpy."""
    n = len(neighbors)
    coeffs = [1]
    a = np.zeros((n, n), dtype=object)
    for x, row in enumerate(neighbors):
        a[x, list(row)] = 1
    m = np.zeros((n, n), dtype=object)
    diagonal = np.arange(n)
    for k in range(1, min(n, max_degree) + 1):
        # M_k = A (M_{k-1} + c_{k-1} I); c_k = -tr(M_k) / k is an integer
        m[diagonal, diagonal] += coeffs[-1]
        m = a @ m
        c, rem = divmod(-m.trace(), k)
        assert rem == 0
        coeffs.append(c)
    return coeffs


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
    - log det(I - u A + u^2 (d-1) I) for a d-regular graph, computed on
    integers.

    With f(u) = 1 + (d-1) u^2 and det(t I - A) = sum_k c_k t^(n-k), the
    determinant is p(u) = sum_k c_k u^k f(u)^(n-k), and the binomial
    expansion of f(u)^(n-k) puts C(n-k, j) (d-1)^j c_k at degree k + 2j.
    p has constant term 1, so m_k = k [u^k] log p is the integer
    k p_k - sum_{0<j<k} m_j p_(k-j), from u p' = p u (log p)'. The
    coefficient of degree k is then (2 (|E| - |X|) [k even] - m_k) / k.
    """
    n_v, l = len(neighbors), max_degree
    d = len(neighbors[0])
    p = [0] * (l + 1)
    for k, ck in enumerate(_charpoly(neighbors, l)):
        for j in range(min(n_v - k, (l - k) // 2) + 1):
            p[k + 2 * j] += ck * comb(n_v - k, j) * (d - 1) ** j
    m = [0] * (l + 1)
    for k in range(1, l + 1):
        m[k] = k * p[k] - sum(m[j] * p[k - j] for j in range(1, k))
    chi = n_edges - n_v
    return [Fraction(0)] + [Fraction(2 * chi * (k % 2 == 0) - m[k], k)
                            for k in range(1, l + 1)]


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
    grown, if the non-backtracking walks up to max_degree would take more
    than freegroup._WALK_LETTERS steps in all.
    """
    if max_degree < 1:
        raise ValidationError("max_degree must be >= 1")
    degs = {g.degree(x) for x in range(g.num_vertices)}
    if len(degs) != 1:
        raise ValidationError("determinant identity needs a regular graph")
    if any(c != 1.0 for c in g.conductance.values()):
        raise ValidationError("determinant identity needs unit conductances")
    l = max_degree
    loops = _geodesic_loops(g, l)
    based = np.zeros(l + 1, dtype=np.int64)
    np.add.at(based, loops.lengths, loops.lengths // loops.multiplicity)
    walk = [Fraction(0)] + [Fraction(c, n)
                            for n, c in enumerate(based.tolist()[1:], 1)]
    det = _det_series(g.neighbors, len(g.edges), l)
    return IharaSeries(walk_side=tuple(walk), det_side=tuple(det))
