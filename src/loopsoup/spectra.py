"""Per-homotopy-class intensities of the loop measure.

The mass of a nontrivial homotopy class factorizes over the steps of its
geodesic loop: each step x -> y contributes P(x,y) * rho(x,y), where
rho(x,y) is the generating function of excursions that leave y away from x
and return, counted with a weight s per step pair.

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
deformation parameter s of the per-vertex excursion functions.

On regular graphs everything has closed forms, and the class masses with
the killing parametrized by step weight reproduce a classical determinant
identity for non-backtracking walks, checked here in exact arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import sqrt

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import splu

from .errors import NumericError, ValidationError
from .freegroup import (GeodesicClass, enumerate_geodesic_loops,
                        geodesic_representative, multiplicity)
from .graphs import GraphModel, SpanningTreeFrame

# Newton stops once no entry moves by more than this fraction of max rho.
_STEP = 1e-13
# Dekker's splitting constant 2**27 + 1 for exact float64 products.
_SPLITTER = 134217729.0


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


class _EdgeSystem:
    """The excursion fixed point of one graph on its oriented edges (x, y),
    ordered by x, then y. Built per call, never stored on the graph."""

    def __init__(self, g: GraphModel):
        n = g.num_vertices
        self.num_vertices = n
        self.pairs = [(x, y) for x in range(n) for y in g.neighbors[x]]
        self.size = m = len(self.pairs)
        tail = np.array([x for x, _ in self.pairs], dtype=np.intp)
        head = np.array([y for _, y in self.pairs], dtype=np.intp)
        p = g.transition
        self.tail = tail
        self.weight = p[tail, head] * p[head, tail]
        self._vertex_weight = np.bincount(tail, weights=self.weight,
                                          minlength=n)
        # B in row order, as (row, column, value) triples. The candidate
        # successors of (x, y) are the edges out of y, which sit
        # contiguously at first[y] .. first[y + 1] - 1; (y, x) is dropped.
        first = np.searchsorted(tail, np.arange(n + 1))
        count = first[head + 1] - first[head]
        rows = np.repeat(np.arange(m), count)
        offset = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
        cols = np.repeat(first[head], count) + offset
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
        """B r."""
        return np.bincount(self._rows, self._coef * r[self._cols],
                           minlength=self.size)

    def residual(self, r: np.ndarray, s: float) -> np.ndarray:
        """F(r) - r in double-double arithmetic: accurate to about 1e-16 of
        its own size rather than of |r|, so it still resolves the residual
        e^2 / 4 left at distance e from a double root."""
        hi, lo = _two_prod(self._coef, r[self._cols], self._coef_split)
        row_hi = np.zeros(self.size)
        row_lo = np.zeros(self.size)
        for j, (has, pos) in enumerate(self._slots):
            if j:
                row_hi[has], err = _two_sum(row_hi[has], hi[pos])
                row_lo[has] += err + lo[pos]
            else:
                row_hi[has], row_lo[has] = hi[pos], lo[pos]
        t_hi, t_lo = _two_prod(r, row_hi)
        t_lo = t_lo + r * row_lo
        u_hi, u_lo = _two_prod(s, t_hi)
        u_lo = u_lo + s * t_lo
        a, a_err = _two_sum(1.0, -r)
        b, b_err = _two_sum(a, u_hi)
        return b + (a_err + b_err + u_lo)

    @cached_property
    def _jacobian(self):
        """I + B in CSC form, the row of each stored entry, the diagonal
        mask and the B value of each entry (0 on the diagonal)."""
        m = self.size
        succ = sparse.csr_matrix((self._coef, (self._rows, self._cols)),
                                 shape=(m, m))
        jac = (succ + sparse.identity(m, format="csr")).tocsc()
        rows = jac.indices
        diag = rows == np.repeat(np.arange(m), np.diff(jac.indptr))
        return jac, rows, diag, np.where(diag, 0.0, jac.data)

    def newton_step(self, r: np.ndarray, s: float, f: np.ndarray) -> np.ndarray:
        """d with (I - F'(r)) d = f, where I - F'(r) = I - s diag(B r) -
        s diag(r) B, by a sparse LU. A singular matrix raises NumericError."""
        jac, rows, diag, coef = self._jacobian
        jac.data[:] = np.where(diag, 1.0 - s * self.apply(r)[rows],
                               -s * r[rows] * coef)
        try:
            return splu(jac).solve(f)
        except RuntimeError:  # exactly singular
            raise NumericError(
                f"non-summable tree-contour series at s={s} "
                f"(singular Newton system)") from None

    def vertex(self, r: np.ndarray, s: float) -> np.ndarray:
        """Unrestricted excursions from each vertex,
        1 / (1 - s sum_y P(x,y) rho(x,y) P(y,x)), for r from _solve.

        inf where the sum reaches 1 within the accuracy of r: the series
        diverges there or cannot be told from divergent. Each entry of r
        lies below the fixed point by about the last step at most, so the
        sum is short by at most s sum_y P(x,y) P(y,x) times that; twice
        this is the margin. At a critical edge system, such as the unkilled
        triangle at s = 1, the true sum is 1 and the solve stops just short
        of it."""
        acc = np.bincount(self.tail, weights=self.weight * r,
                          minlength=self.num_vertices)
        denom = 1.0 - s * acc
        margin = 2.0 * _STEP * r.max(initial=1.0) * s * self._vertex_weight
        out = np.full(self.num_vertices, np.inf)
        ok = denom > margin
        out[ok] = 1.0 / denom[ok]
        return out


def _solve(system: _EdgeSystem, s: float,
           start: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Least fixed point of the edge system at step weight s, iterated from
    start (default the constant 1), which must lie below it: rho per
    oriented edge and the number of sweeps plus Newton steps.

    While each sweep at least halves the change, the error left is at most
    the last change, so a halving sweep below the step tolerance ends the
    solve like a Newton step would. Newton takes over from the first sweep
    that does not halve the change.
    """
    r = np.ones(system.size) if start is None else start
    if not system.size:
        return r, 0
    iterations = 0
    last = np.inf
    while True:
        new = 1.0 + s * r * system.apply(r)
        change = abs(new - r).max()
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
        if not np.all(np.isfinite(d)) or d.min() < -tol:
            raise NumericError(
                f"non-summable tree-contour series at s={s} "
                f"(Newton step leaves the monotone region)")
        r = r + d
        if abs(d).max() <= tol:
            return r, iterations


@dataclass(frozen=True)
class RhoTable:
    """Excursion generating functions at a fixed step weight s.

    edge[(x, y)] for ordered adjacent pairs: excursions from y avoiding x
    on the first step. vertex[x]: unrestricted excursions from x, inf
    where that series diverges or sits on its boundary (the unkilled
    triangle at s = 1, whose edge values are the finite double root 2).
    residual is max |F(rho) - rho| at the returned table; iterations counts
    the sweeps and Newton steps.
    """

    s: float
    edge: dict[tuple[int, int], float] = field(hash=False)
    vertex: dict[int, float] = field(hash=False)
    residual: float
    iterations: int


@lru_cache(maxsize=None)
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
    Cached per (graph, s); the quadrature of
    contractible_intensity solves its nodes without this cache.
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"step weight s={s} outside [0, 1]")
    system = _EdgeSystem(g)
    r, iterations = _solve(system, s)
    vertex = system.vertex(r, s)
    residual = float(np.max(np.abs(system.residual(r, s)), initial=0.0))
    return RhoTable(s=s, edge=dict(zip(system.pairs, r.tolist())),
                    vertex=dict(enumerate(vertex.tolist())),
                    residual=residual, iterations=iterations)


def class_intensity(g: GraphModel, frame: SpanningTreeFrame,
                    cls: GeodesicClass, s: float = 1.0,
                    rho: RhoTable | None = None) -> float:
    """Loop-measure mass of a nontrivial homotopy class.

    The product of P(x,y) rho(x,y) over the steps of the class's geodesic
    loop, divided by the class multiplicity. Pass a precomputed RhoTable to
    amortize the solve across classes.
    """
    if cls.is_trivial:
        raise ValidationError(
            "the trivial class has no geodesic; use contractible_intensity")
    if rho is None:
        rho = solve_rho(g, s)
    elif rho.s != s:
        raise ValidationError(f"rho table solved at s={rho.s}, need s={s}")
    cycle = geodesic_representative(cls, frame)
    p = g.transition
    prod = 1.0
    for i, x in enumerate(cycle):
        y = cycle[(i + 1) % len(cycle)]
        prod *= p[x, y] * rho.edge[(x, y)]
    return prod / cls.multiplicity


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


def contractible_intensity(g: GraphModel) -> tuple[float, float]:
    """Mass of the trivial homotopy class, with a quadrature error estimate.

    Integrates sum_x (rho_x(s) - 1) / (2s) over s in [0, 1] by adaptive
    quadrature in t with s = 1 - t^2: near criticality rho_x(s) has a
    square-root branch point at or just beyond s = 1, which the
    substitution smooths, and on which quadrature in s itself extrapolates
    to a wrong value (on the triangle with killing 1e-9 at one vertex,
    2.07944154219 with an error estimate of 5e-11, against 2.07938676992).
    The integrand extends analytically to s = 0 with value tr(P^2)/2,
    which is substituted below a small threshold. The edge system is built
    once; the quadrature nodes solve it directly and do not enter the
    solve_rho cache.

    When the quadrature misses its 1e-11 target it does not warn; the
    returned error then also counts the gap between the extrapolated value
    and the plain sum over the subintervals, plus their local error
    estimates, so that a miss cannot pass for a certified value. A probably
    divergent integral, a vertex series on its boundary at a node, or a
    non-finite value or error raises NumericError.
    """
    if not any(g.killing) and len(g.edges) == g.num_vertices - 1:
        # every loop of a tree is contractible, so this is the total mass,
        # infinite without killing; the integrand only diverges like 1/t,
        # which the quadrature need not notice before its subdivision limit
        raise NumericError(
            "massless/recurrent chain: the trivial class of a tree without "
            "killing has infinite mass")
    system = _EdgeSystem(g)
    p = g.transition
    limit0 = float(np.trace(p @ p)) / 2.0
    # rho grows with s, so the solution at the nearest smaller node is a
    # start from below
    nodes: list[float] = []
    solutions: list[np.ndarray] = []

    def integrand(t: float) -> float:
        s = (1.0 - t) * (1.0 + t)
        if s < 1e-9:
            return 2.0 * t * limit0
        i = bisect_right(nodes, s)
        r, _ = _solve(system, s, solutions[i - 1] if i else None)
        nodes.insert(i, s)
        solutions.insert(i, r)
        vertex = system.vertex(r, s)
        if np.isinf(vertex).any():
            raise NumericError(
                f"non-summable tree-contour series at s={s} "
                f"(a vertex sum reaches 1)")
        return t * float(np.sum(vertex - 1.0)) / s

    # with full_output a missed target comes back as a message instead of
    # an IntegrationWarning on stderr
    value, err, info, *miss = quad(integrand, 0.0, 1.0, epsabs=1e-11,
                                   epsrel=1e-11, limit=200, full_output=1)
    if miss:
        if "divergent" in miss[0]:  # QUADPACK's ier = 5
            raise NumericError(
                f"contractible mass quadrature: {miss[0]} (value {value})")
        last = info["last"]
        err = max(err, abs(value - np.sum(info["rlist"][:last]))
                  + np.sum(info["elist"][:last]))
    if not (np.isfinite(value) and np.isfinite(err)):
        raise NumericError(
            f"contractible mass quadrature failed (value {value}, error {err})")
    return float(value), float(err)


# ---------------------------------------------------------------------------
# determinant identity for geodesic loops on regular graphs
# (exact rational power series)

_Poly = list[Fraction]


def _poly_trim(p: _Poly, n: int) -> _Poly:
    out = p[: n + 1]
    return out + [Fraction(0)] * (n + 1 - len(out))


def _poly_mul(a: _Poly, b: _Poly, n: int) -> _Poly:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_log(p: _Poly, n: int) -> _Poly:
    """log of a power series with constant term 1, truncated at degree n."""
    assert p[0] == 1
    a = _poly_trim(p, n)
    a[0] = Fraction(0)
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        power = _poly_mul(power, a, n)
        coef = Fraction((-1) ** (m + 1), m)
        for i, c in enumerate(power):
            out[i] += coef * c
    return out


def _charpoly(a: list[list[Fraction]]) -> _Poly:
    """Coefficients [c_0=1, c_1, ..., c_n] of det(t I - A) = sum c_k t^(n-k),
    by the trace recursion (exact rationals)."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        shifted = [[m[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
                   for i in range(n)]
        m = [[sum(a[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
        coeffs.append(Fraction(-sum(m[i][i] for i in range(n)), k))
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


def ihara_check(g: GraphModel, max_degree: int) -> IharaSeries:
    """Compare geodesic-loop counts against the determinant series
    -(|E| - |X|) log(1 - u^2) - log det(I - u A + u^2 (d-1) I),
    coefficient by coefficient through max_degree, in exact arithmetic.

    Requires a d-regular graph with unit conductances (the identity is
    stated for the adjacency matrix).
    """
    if max_degree < 1:
        raise ValidationError("max_degree must be >= 1")
    degs = {g.degree(x) for x in range(g.num_vertices)}
    if len(degs) != 1:
        raise ValidationError("determinant identity needs a regular graph")
    if any(c != 1.0 for c in g.conductance.values()):
        raise ValidationError("determinant identity needs unit conductances")
    d = degs.pop()
    n_v = g.num_vertices
    l = max_degree

    walk = [Fraction(0)] * (l + 1)
    for cycle in enumerate_geodesic_loops(g, l):
        walk[len(cycle)] += Fraction(1, multiplicity(cycle))

    adj = [[Fraction(0)] * n_v for _ in range(n_v)]
    for u, v in g.edges:
        adj[u][v] = Fraction(1)
        adj[v][u] = Fraction(1)
    cp = _charpoly(adj)
    # det(f(u) I - u A) with f(u) = 1 + (d-1) u^2 equals
    # sum_k c_k u^k f(u)^(n-k)
    f = [Fraction(1), Fraction(0), Fraction(d - 1)]
    fpow = [[Fraction(1)]]
    for _ in range(n_v):
        fpow.append(_poly_mul(fpow[-1], f, l))
    det = [Fraction(0)] * (l + 1)
    for k, ck in enumerate(cp):
        if k > l or not ck:
            continue
        for i, c in enumerate(fpow[n_v - k]):
            if k + i <= l:
                det[k + i] += ck * c
    one_minus_u2 = _poly_trim([Fraction(1), Fraction(0), Fraction(-1)], l)
    rhs_log = _poly_log(det, l)
    u2_log = _poly_log(one_minus_u2, l)
    chi = len(g.edges) - n_v
    rhs = [-chi * a - b for a, b in zip(u2_log, rhs_log)]
    return IharaSeries(walk_side=tuple(walk), det_side=tuple(_poly_trim(rhs, l)))
