"""Distributions of homology-valued functionals of the loop ensemble.

Twisting the transition matrix by a character of the fundamental group
multiplies each loop's weight by the character of its class, so log
determinants of twisted matrices are Fourier transforms of the loop
measure pushed to homology. Inverting over a torus grid (first homology),
over unitary representations of a finite group (holonomy classes), or over
finite Heisenberg-type representations (second homology mod p) turns
determinant evaluations into masses and field laws.

All twists used here are unitary and compatible with the conductance
symmetry C(x,y) = C(y,x), so every twisted I - P is similar to a Hermitian
positive definite matrix on a killed graph; determinants are evaluated by
its Cholesky factorization, which keeps the logarithms real and on the
principal branch by construction.

Every twist reads an integer edge table omega, one signed generator per
edge of g.edges: a frame's cogenerator i carries i and a tree edge 0
(_frame_letters), and a holonomy twist gives edge i the letter -i. Where
each entry of the twisted matrices goes depends on the topology, omega,
the block size, the rank and the grid alone, so it is one memoized twist
plan of flat indices (_twist_plan); a call only forms the weights, then
per chunk gathers the unitaries, multiplies in the grid phases, scatters
and factorizes.

Every torus grid has one route. Twisted by unitary blocks of size d,
det(I - P) is a Laurent polynomial of degree at most d in each generator
(Forman, Topology 1993; Kenyon, Ann. Probab. 2011, for d = 1), so a grid of
more than 2d + 1 points per generator comes from its (2d+1)^r coefficients,
read exactly off the factorization route on the (2d+1)-point grid, by one FFT.
For first homology (d = 1) the same coefficients give the determinant in
closed form along each real axis, hence a tail bound on every winding that
picks the automatic grid size of the H1 and H2 laws and bounds its aliasing.
_grid_policy checks each such law first. A law computes the coefficients
once, for its bound and its grid, and then itself on its whole group, Z_M^r
or the skew h mod p, which the one-row functions and the CLI index.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._memo import memo
from .errors import ConfigError, NumericError, ValidationError, _count
from .graphs import GraphModel, SpanningTreeFrame
from .soup import total_mass

_IMAG_TOL = 1e-10
# The smallest normal float64.
_TINY = np.finfo(float).tiny
_MASSLESS = "massless/recurrent twist: det(I - {}) vanishes"


def _certified(z: np.ndarray, scale: float | np.ndarray, field: bool,
               what: str) -> np.ndarray:
    """scale z.real, for a Fourier inversion z: the value policy of every law.
    A non-finite entry, a residue above _IMAG_TOL max(1, |z|) in any entry of
    the unscaled z, or a value below -1e-9, raises NumericError; probabilities
    are clamped to [0, 1]."""
    residue = np.abs(z.imag)
    vals = scale * z.real
    if not (np.isfinite(residue).all() and np.isfinite(vals).all()):
        raise NumericError(f"{what} has a non-finite entry")
    # no entry fails unless the largest residue passes _IMAG_TOL: a cheap test first
    if residue.max(initial=0.0) > _IMAG_TOL and np.any(
            residue > _IMAG_TOL * np.maximum(1.0, np.abs(z))):
        raise NumericError(f"{what} has imaginary residue {residue.max():.3e}")
    low = vals.min(initial=0.0)
    if low < -1e-9:
        raise NumericError(f"{what} {low:.3e} is negative")
    return np.minimum(np.maximum(vals, 0.0), 1.0) if field else vals


def _law(t: np.ndarray, alpha: float, field: bool, what: str) -> np.ndarray:
    """A law on the whole of a finite abelian group, from T = -log det(I - P
    twisted) at its characters, one axis per generator: alpha times the
    loop measure, the FFT of T over its size, or with field the soup's, of
    exp(alpha (T - T(0))); _certified."""
    f = np.exp(alpha * (t - t.flat[0])) if field else t
    return _certified(np.fft.fftn(f) / f.size, 1.0 if field else alpha, field,
                      f"{what} {'field law' if field else 'intensity'}")


# Most complex entries in one stack of twisted matrices: a batch of any size
# is assembled and factorized in chunks of at most this many entries. The
# Heisenberg traces also bound their stacks of Schrodinger blocks by it.
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class _TwistPlan:
    """Where the entries of I - S go in a flat size x size matrix, size =
    n d, for one topology, edge table omega, block size d, rank and grid.

    ends: the ends (u, v), u < v, of each edge of g.edges, shape (2, |E|).
    fixed: the flat indices of the diagonal and of both diagonals of each
    untwisted edge's blocks; fixed_edge: 0 at the diagonal, 1 + the edge
    elsewhere. twisted: the edges with omega != 0 and gen, |omega| - 1, the
    unitary each carries. fwd: the flat indices of each twisted edge's
    (s, t) block in C order, (s, t) the edge oriented so that its letter is
    positive; conj: those of the (t, s) block's transposed entries. phase,
    with a grid of m points: exp(2 pi i k_j / m) at each point (C order)
    and twisted edge, k_j the point's coordinate along its generator j.
    """

    ends: np.ndarray
    fixed: np.ndarray
    fixed_edge: np.ndarray
    twisted: np.ndarray
    gen: np.ndarray
    fwd: np.ndarray
    conj: np.ndarray
    phase: np.ndarray | None


@memo
def _twist_plan(n: int, edges: tuple[tuple[int, int], ...], omega: tuple[int, ...],
                d: int, rank: int, m: int | None) -> _TwistPlan:
    """The _TwistPlan of n vertices, the edges and their letters omega,
    with blocks of size d twisted by rank unitaries, on the m^rank grid
    with m. It depends on no weights, so it is memoized (see _memo), which
    makes its arrays read-only."""
    size = n * d
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    letter = np.array(omega, dtype=np.intp)
    diag = np.arange(d)
    tree, twisted = np.flatnonzero(letter == 0), np.flatnonzero(letter)
    u, v = ends[:, tree, None] * d + diag
    fixed = np.concatenate((np.arange(size) * (size + 1), (u * size + v).ravel(),
                            (v * size + u).ravel()))
    fixed_edge = np.concatenate((np.zeros(size, dtype=np.intp),
                                 np.tile(np.repeat(tree + 1, d), 2)))
    forward = letter[twisted] > 0
    s, t = np.where(forward, ends[:, twisted], ends[::-1, twisted])
    rows, cols = s[:, None, None] * d + diag[:, None], t[:, None, None] * d + diag
    gen = np.abs(letter[twisted]) - 1
    phase = None
    if m is not None:
        k = np.arange(m ** rank)[:, None] // m ** (rank - 1 - gen) % m
        phase = np.exp(2j * np.pi * (k / m))
    return _TwistPlan(ends, fixed, fixed_edge, twisted, gen, (rows * size + cols).ravel(),
                      (cols * size + rows).ravel(), phase)


def _twist_weights(g: GraphModel, ends: np.ndarray, what: str) -> np.ndarray:
    """w = -C(u,v) / sqrt(lam_u lam_v) on each edge (u, v) of g.edges.

    C and lam are first scaled by one power of two, which centres the
    binary exponents of lam on 0: the scaling is exact and w does not
    change, but lam_u lam_v no longer overflows or underflows where lam is
    far from 1. A weight that still leaves the normal range of float64, or
    is formed from such a value, raises NumericError. Each |w| <= 1, as
    C <= min(lam_u, lam_v)."""
    lam = g.lam
    shift = -(math.frexp(lam.min())[1] + math.frexp(lam.max())[1]) // 2
    c = np.ldexp(np.fromiter(map(g.conductance.__getitem__, g.edges), float,
                             len(g.edges)), shift)
    u, v = ends
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        lam = np.ldexp(lam, shift)
        prod = lam[u] * lam[v]
        w = -c / np.sqrt(prod)
    # an overflowed lam_u lam_v leaves w = -0, an underflowed one a w that
    # cannot be trusted
    if c.size and not (c.min() >= _TINY and prod.min() >= _TINY and w.max() <= -_TINY):
        bad = np.flatnonzero((c < _TINY) | (prod < _TINY) | (w > -_TINY))[0]
        raise NumericError(f"{what}: the weight of edge {g.edges[bad]} leaves the range "
                           f"of float64")
    return w


def _twisted_log_dets(g: GraphModel, omega: tuple[int, ...], unitaries: np.ndarray,
                      m: int | None, what: str) -> np.ndarray:
    """log det(I - P twisted), one value per twist of a batch.

    omega gives each edge (u, v) of g.edges, u < v, a letter. unitaries has
    shape (b, rank, d, d): b twists, each a d x d unitary per generator.
    Under twist i the step u -> v carries unitaries[i, j - 1] when its
    letter is j > 0, its conjugate transpose when j < 0 and the identity
    when j = 0; the step v -> u carries the adjoint of that. With m, every
    twist is also taken at the m^rank points k of the torus grid in C
    order, unitary j times exp(2 pi i k_j / m); the result is then
    twist-major, b * m^rank values.

    The symmetrized S with (x, y) block C(x,y) U / sqrt(lam_x lam_y) is
    Hermitian and shares its spectrum with the twisted P. A unitary twist
    keeps the numerical range of S inside [-rho(P), rho(P)], so on a killed
    graph A = I - S is Hermitian positive definite with lambda_min(A) >= 1 -
    rho(P), and log det A = 2 sum log L_ii from its Cholesky factor L. A
    grid of more than _GRID_POINTS points raises NumericError first.

    Where each entry of A goes depends on the topology, omega, d, the rank
    and m alone: the memoized _twist_plan. A call forms the edge weights
    w = -C / sqrt(lam_u lam_v) (_twist_weights) and puts the identity and
    the untwisted blocks into a stack of flat matrices once; per chunk of
    the batch it gathers the unitaries of the twisted edges, multiplies
    them by their grid phases and w, scatters them and their adjoints and
    factorizes. A failed factorization or a pivot L_ii^2 <= 1e-14 is the
    massless case.
    """
    twists, rank, dim, _ = unitaries.shape
    points = 1 if m is None else m ** rank
    if points > _GRID_POINTS:
        raise NumericError(f"{what} on a grid of {m}^{rank} points, over the budget of "
                           f"{_GRID_POINTS} points")
    plan = _twist_plan(g.num_vertices, g.edges, omega, dim, rank, m)
    size = g.num_vertices * dim
    batch = twists * points
    chunk = max(1, _CHUNK_ENTRIES // (size * size))
    w = _twist_weights(g, plan.ends, what)
    a = np.zeros((min(batch, chunk), size * size), dtype=complex)
    a[:, plan.fixed] = np.append(1.0, w)[plan.fixed_edge]
    scale = w[plan.twisted, None, None]
    out = np.empty(batch)
    for start in range(0, batch, chunk):
        stop = min(start + chunk, batch)
        twist, point = np.divmod(np.arange(start, stop), points)
        x = unitaries[twist[:, None], plan.gen]
        if m is not None:
            x = x * plan.phase[point][..., None, None]
        x = (scale * x).reshape(stop - start, plan.fwd.size)
        stack = a[:stop - start]
        stack[:, plan.fwd] = x
        stack[:, plan.conj] = x.conj()
        try:
            factor = np.linalg.cholesky(stack.reshape(-1, size, size))
        except np.linalg.LinAlgError:
            raise NumericError(_MASSLESS.format(what)) from None
        pivots = np.diagonal(factor, axis1=1, axis2=2).real
        if np.min(pivots) ** 2 <= 1e-14:
            raise NumericError(_MASSLESS.format(what))
        out[start:stop] = 2.0 * np.sum(np.log(pivots), axis=1)
    return out


def _frame_letters(g: GraphModel, frame: SpanningTreeFrame) -> tuple[int, ...]:
    """omega of the frame: i on its cogenerator i (oriented u < v, as in
    g.edges), 0 on a tree edge."""
    return tuple(map(frame._letter.get, g.edges, itertools.repeat(0)))


def twisted_log_det(g: GraphModel, frame: SpanningTreeFrame,
                    theta: Sequence[float]) -> float:
    """log det(I - P^(theta)), exactly real by the Hermitian route."""
    theta = np.array([float(t) for t in theta])
    if len(theta) != frame.rank:
        raise ValidationError(f"theta has length {len(theta)}, frame rank is {frame.rank}")
    phases = np.exp(2j * np.pi * theta).reshape(1, frame.rank, 1, 1)
    return float(_twisted_log_dets(g, _frame_letters(g, frame), phases, None, "P^theta")[0])


def _laurent_coefficients(g: GraphModel, omega: tuple[int, ...], unitaries: np.ndarray,
                          what: str) -> tuple[np.ndarray, np.ndarray]:
    """The Laurent coefficients c_k, k in {-d..d}^r at index k mod 2d + 1, of
    D = det(I - P twisted) for each twist of a batch (_torus_log_dets),
    scaled by exp(-shift), shift the twist's largest log D on the (2d+1)-grid:
    exact, by one DFT of D there. A (2d+1)-grid of more than _GRID_POINTS
    points raises NumericError before anything is built, as every grid of
    _twisted_log_dets does."""
    b, r, d, _ = unitaries.shape
    logs = _twisted_log_dets(g, omega, unitaries, 2 * d + 1, what).reshape(b, -1)
    shift = logs.max(axis=1)
    dets = np.exp(logs - shift[:, None]).reshape((b,) + (2 * d + 1,) * r)
    return np.fft.fftn(dets, axes=range(1, r + 1), norm="forward"), shift


def _torus_log_dets(g: GraphModel, omega: tuple[int, ...], unitaries: np.ndarray,
                    m: int | None, what: str, laurent=None) -> np.ndarray:
    """log det(I - P twisted), shape (b, m^rank), at the points of the
    m-grid (z = 1 alone with m None) of a batch as in _twisted_log_dets.

    Grids of at most 2d + 1 points per generator are factorized; a larger
    one is one inverse FFT of the Laurent coefficients (laurent, if given),
    with a rounding error of (2d+1)^r u / D + u |log D| up to a few times
    (u = 2^-53, D scaled by the shift); D <= 0 raises.
    """
    b, r, d, _ = unitaries.shape
    if m is None or not r or m <= 2 * d + 1:
        return _twisted_log_dets(g, omega, unitaries, m, what).reshape(b, -1)
    coef, shift = laurent or _laurent_coefficients(g, omega, unitaries, what)
    at = [*range(d + 1), *range(m - d, m)]  # k = 0..d, then -d..-1, mod m
    spectrum = np.zeros((b,) + (m,) * (r - 1) + (m // 2 + 1,), dtype=coef.dtype)
    spectrum[(slice(None), *np.ix_(*[at] * (r - 1)), slice(d + 1))] = coef[..., :d + 1]
    dets = np.fft.irfftn(spectrum, s=(m,) * r, axes=range(1, r + 1), norm="forward")
    if not dets.min() > 0:
        raise NumericError(_MASSLESS.format(what))
    return np.log(dets.reshape(b, -1)) + shift[:, None]


def _h1_coefficients(g: GraphModel, frame: SpanningTreeFrame) -> tuple[np.ndarray, ...]:
    """_laurent_coefficients of P^theta, real since D is real and even. One
    law hands them to its bound and to its grid, so they are read-only."""
    coef, shift = _laurent_coefficients(g, _frame_letters(g, frame),
                                        np.ones((1, frame.rank, 1, 1)), "P^theta")
    coef = coef.real
    coef.flags.writeable = shift.flags.writeable = False
    return coef, shift


def homology1_grid(g: GraphModel, frame: SpanningTreeFrame, m: int,
                   laurent: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """log det(I - P^(k/m)) over the full torus grid, shape (m,) * rank, by
    _torus_log_dets with d = 1: beyond 3 points per dimension, one inverse
    FFT of the _h1_coefficients, laurent if the caller has read them."""
    _check_grid(m)
    if laurent is None and frame.rank and m > 3:
        laurent = _h1_coefficients(g, frame)
    return _torus_log_dets(g, _frame_letters(g, frame), np.ones((1, frame.rank, 1, 1)), m,
                           "P^theta", laurent).reshape((m,) * frame.rank)


# The aliasing bound an automatic grid size meets, and the most points it
# may take.
_ALIAS_TOL = 1e-12
_GRID_POINTS = 1 << 16


def _alias_bounds(coef: np.ndarray, reach: np.ndarray, ms: np.ndarray,
                  alpha: float | None) -> np.ndarray:
    """A bound on the aliasing error of the M-grid law (with alpha, the
    field law) at every h with |h_i| <= reach_i, for each M of ms > 2 reach,
    from coef, the 3^r Laurent coefficients c_k of D = det(I - P^theta).

    Along axis i, D(t e_i) = a_0 + a_1 (t + 1/t), a_j the sum of the
    Laurent coefficients c_k with k_i = j, falls to 0 at t = exp(2x),
    sinh(x)^2 = D(1) / (-4 a_1). For 1 < t < exp(2x), sum_h mu(h) t^(h_i) =
    -log D(t e_i) and the winding laws are symmetric (loop reversal), so
    with L = log(D(1) / D(t e_i)), mu(|H_i| >= k) <= 2 L / (t^k + t^-k - 2)
    and the soup's winding has P(|W_i| >= k) <= 2 t^-k exp(alpha L). An
    alias of h has |h_i'| >= M - |h_i| in some axis i: the bound sums these
    tails over the axes, each minimized over t = exp(2 f x), f = 1 -
    2^(-j/2) for j = 1..100. An axis with a_1 >= 0 carries no winding.
    """
    d1 = coef.sum()
    if not d1 > 0:
        raise NumericError(_MASSLESS.format("P"))
    drop = -np.array([np.moveaxis(coef, i, 0)[1:].sum() for i in range(coef.ndim)]) / 2
    x = np.arcsinh(np.sqrt(d1 / drop[drop > 0]) / 2)[:, None]
    y = (1.0 - 2.0 ** (-np.arange(1, 101) / 2)) * x
    ky = (np.asarray(ms, dtype=float)[:, None, None] - reach[drop > 0, None]) * y
    with np.errstate(divide="ignore"):
        tilt = -np.log1p(-(np.sinh(y) / np.sinh(x)) ** 2)
        # log(2 L / (4 sinh(ky)^2)), or log(2 t^-k exp(alpha L))
        tails = (np.log(2.0 * tilt) - 2.0 * (ky + np.log(-np.expm1(-2.0 * ky)))
                 if alpha is None else np.log(2.0) + alpha * tilt - 2.0 * ky)
    return np.exp(tails.min(axis=-1)).sum(axis=-1)


def _grid_policy(g: GraphModel, frame: SpanningTreeFrame, M: int | None,
                 reach: np.ndarray, alpha: float = 1.0, field: bool = False,
                 p: int | None = None) -> tuple:
    """(M, its aliasing bound, the _h1_coefficients it read or None) of the
    H1 law, or with p of the H2 law mod p: the one check of their inputs and
    budgets. alpha, p, M >= 2 and p's Schrodinger blocks at one point each
    come first; the intensity has no grid, nor has rank 0. A given M has no
    bound; past _GRID_POINTS points (M^r, or _block_points if more) it is a
    ConfigError. Else M is the least power of two above 2 max reach whose
    bound (alpha times the intensity's, or _alias_bounds at alpha for the H1
    field law) is at most _ALIAS_TOL, refused (NumericError) past
    _GRID_POINTS points before the 3^r coefficients are factorized."""
    _check_alpha(alpha)
    if p is not None:
        _check_prime(p)
    _check_grid(M)
    r = frame.rank
    if p is not None and (blocks := _block_points(p, r, 1)) > _GRID_POINTS:
        raise ConfigError(f"p={p}: {_count(blocks)} Schrodinger blocks at rank {r}, over "
                          f"the budget of {_GRID_POINTS} points")
    if p is not None and not field or M is None and not r:
        return None, None, None  # no grid: the H2 intensity, or rank 0

    def points(m: int) -> int:
        return m ** r if p is None else max(m ** r, _block_points(p, r, m))

    if M is not None:
        if (count := points(M)) > _GRID_POINTS:
            need = (f"{M}^{r} grid points" if count == M ** r
                    else f"{_count(count)} Schrodinger block points")
            raise ConfigError(f"grid size M={M}: {need}, over the budget of "
                              f"{_GRID_POINTS} points")
        return M, None, None
    # the smallest candidate: the least power of two above 2 max reach
    least = max(2, 2 ** int(2 * reach.max()).bit_length())
    if max(3 ** r, points(least)) > _GRID_POINTS:
        need = (f"3^{r} Laurent points" if 3 ** r > _GRID_POINTS
                else f"grid size M={least} or more")
        raise NumericError(f"an aliasing bound of {_ALIAS_TOL} at rank {r} needs {need}, "
                           f"over the budget of {_GRID_POINTS} points")
    laurent = _h1_coefficients(g, frame)
    ms = 2 ** np.arange(least.bit_length() - 1, 63)  # least and up: the bound falls
    bounds = (_alias_bounds(laurent[0][0], reach, ms, alpha) if field and p is None
              else alpha * _alias_bounds(laurent[0][0], reach, ms, None))
    i = min(np.count_nonzero(bounds > _ALIAS_TOL), ms.size - 1)
    M, bound = int(ms[i]), float(bounds[i])
    if bound > _ALIAS_TOL or points(M) > _GRID_POINTS:
        raise NumericError(f"an aliasing bound of {_ALIAS_TOL} needs grid size M={M} "
                           f"(bound {bound:.1e}), over the budget of {_GRID_POINTS} points")
    return M, bound, laurent


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")


def _check_grid(M: int | None) -> None:
    if M is not None and M < 2:
        raise ValidationError("grid size must be >= 2")


def _homology1_values(g: GraphModel, frame: SpanningTreeFrame, reach: Sequence[int],
                      alpha: float = 1.0, field: bool = False, M: int | None = None
                      ) -> tuple[np.ndarray, int | None, float | None]:
    """The first-homology law on Z_M^r (0-d on rank 0), with M and its bound
    from _grid_policy, certified at every h with |h_i| <= |reach_i| (one h,
    or (R,) * rank): alpha times the intensity, or with field P(total soup
    winding = h), the entry at h mod M summing it over h' congruent to h."""
    r = frame.rank
    if len(reach) != r:
        raise ValidationError(f"h has length {len(reach)}, frame rank is {r}")
    if any(not isinstance(x, (int, np.integer)) for x in reach):
        raise ValidationError(f"h must be integer, got {tuple(reach)}")
    M, bound, laurent = _grid_policy(g, frame, M, np.abs(np.array(reach, dtype=float)),
                                     alpha, field)
    if not r:
        return np.array(1.0 if field else alpha * total_mass(g)), M, bound
    return _law(-homology1_grid(g, frame, M, laurent), alpha, field, "homology1"), M, bound


def _at(law: np.ndarray, h: Sequence[int]) -> float:
    """The entry of a law at h, each h_i mod its axis."""
    return float(law[tuple(x % n for x, n in zip(h, law.shape))])


def homology1_intensity(g: GraphModel, frame: SpanningTreeFrame,
                        h: Sequence[int], M: int | None = None) -> float:
    """Mass of loops with total winding vector h.

    Fourier inversion of homology1_grid over an M-point torus grid; the
    grid value is the h-aliased sum, i.e. it includes every winding
    congruent to h mod M. With M omitted, M is the smallest power of two
    above 2 max|h_i| whose aliasing bound, a tail bound on the windings, is
    at most 1e-12; one of more than 2^16 grid points raises NumericError.
    """
    return _at(_homology1_values(g, frame, h, M=M)[0], h)


def homology1_field_law(g: GraphModel, frame: SpanningTreeFrame,
                        alpha: float, h: Sequence[int],
                        M: int | None = None) -> float:
    """P(total soup winding = h), h-aliased mod the grid size. With M
    omitted the size is certified as in homology1_intensity, from the tail
    bound P(|W_i| >= k) <= 2 t^-k (D(1) / D(t e_i))^alpha of the soup's
    winding."""
    return _at(_homology1_values(g, frame, h, alpha, field=True, M=M)[0], h)


# ---------------------------------------------------------------------------
# holonomy under a finite-group connection


def _square(mats: Iterable, what: str, name: Callable[[int], str]) -> list[np.ndarray]:
    """The matrices as complex arrays, checked square and of one size."""
    mats = [np.asarray(u, dtype=complex) for u in mats]
    for i, u in enumerate(mats):
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValidationError(f"{name(i)} is not a square matrix")
    if len({u.shape for u in mats}) > 1:
        raise ValidationError(f"{what} have mixed dimensions")
    return mats


def _check_unitary(stack: np.ndarray, name: Callable[[int], str]) -> None:
    """Name the first matrix of the stack that is not unitary (as
    np.allclose, atol 1e-10) in a ValidationError."""
    bad = ~np.isclose(stack @ stack.conj().swapaxes(1, 2), np.eye(stack.shape[-1]),
                      atol=1e-10).all(axis=(1, 2))
    if bad.any():
        raise ValidationError(f"{name(np.argmax(bad))} is not unitary")


def _connection_log_dets(g: GraphModel, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """-(1/d) log det(I - P tensored with the edge unitaries) for a batch
    of b connections: up and down, shape (b, |E|, d, d), hold the unitary
    of each edge (u, v) of g.edges on its steps u -> v and v -> u. Raises
    ValidationError where down is not the adjoint of up."""
    bad = ~np.isclose(down, up.conj().swapaxes(2, 3), atol=1e-10).all(axis=(0, 2, 3))
    if bad.any():
        raise ValidationError("connection on edge ({},{}) is not inverted by "
                              "reversal".format(*g.edges[np.argmax(bad)]))
    # edge i is letter -i on its step up, so its step down from the larger
    # vertex carries down[i - 1]: the lower triangle, the one the Cholesky
    # factorization reads, holds the down unitary and the upper one its adjoint
    omega = tuple(range(-1, -len(g.edges) - 1, -1))
    return -_twisted_log_dets(g, omega, down, None, "holonomy twist") / down.shape[-1]


@dataclass(frozen=True)
class GroupData:
    """A finite group given extensionally: its elements, the partition
    into conjugacy classes, and a complete list of irreducible unitary
    representations as element -> matrix maps."""

    elements: tuple
    classes: tuple[tuple, ...]
    irreps: tuple[dict, ...] = field(hash=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _stacks(self) -> dict[int, tuple[list[int], np.ndarray]]:
        """The irreps of each dimension d, by index, with their matrices at
        every element as one array of shape (count, order, d, d)."""
        ks: dict[int, list[int]] = {}
        for k, rep in enumerate(self.irreps):
            ks.setdefault(len(rep[self.elements[0]]), []).append(k)
        return {d: (group, np.array([[self.irreps[k][e] for e in self.elements]
                                     for k in group], dtype=complex))
                for d, group in ks.items()}

    @functools.cached_property
    def _characters(self) -> dict:
        """The character table: element -> the trace of every irrep there."""
        table = np.empty((len(self.irreps), self.order), dtype=complex)
        for group, stack in self._stacks.values():
            table[group] = np.trace(stack, axis1=2, axis2=3)
        return dict(zip(self.elements, table.T))


def group_data(elements: Iterable, classes: Iterable[Iterable],
               irreps: Iterable[Mapping]) -> GroupData:
    """Validate and pack group data.

    Checks that the classes partition the elements, that every irrep
    assigns a unitary of one size to every element with characters
    constant on classes, that squared dimensions sum to the group order,
    and that characters satisfy row orthogonality, each once: the irreps
    of one dimension as one stack, the characters as one table compared
    with their class representatives in one step. holonomy_class_intensities
    reads the same stacks and does not check them again.
    """
    elements = tuple(elements)
    classes = tuple(tuple(c) for c in classes)
    listed = [e for c in classes for e in c]
    if len(listed) != len(set(listed)) or set(listed) != set(elements):
        raise ValidationError("classes do not partition the elements")
    packed = []
    for k, rep in enumerate(irreps):
        missing = [e for e in elements if e not in rep]
        if missing:
            raise ValidationError(f"irrep {k} is missing element {missing[0]!r}")
        packed.append(dict(zip(elements, _square(
            (rep[e] for e in elements), f"the matrices of irrep {k}",
            lambda i: f"irrep {k} at {elements[i]!r}"))))
    gd = GroupData(elements=elements, classes=classes, irreps=tuple(packed))
    n = gd.order
    for d, (group, stack) in gd._stacks.items():
        _check_unitary(stack.reshape(-1, d, d),
                       lambda i: f"irrep {group[i // n]} at {elements[i % n]!r}")
    if sum(len(rep[elements[0]]) ** 2 for rep in packed) != n:
        raise ValidationError("irrep dimensions do not sum (squared) to |G|")
    sizes = [len(c) for c in classes]
    starts = np.cumsum(sizes) - sizes
    chars = np.array([gd._characters[e] for e in listed]).T
    spread = np.abs(chars - np.repeat(chars[:, starts], sizes, axis=1)) > 1e-8
    if spread.any():
        bad = np.logical_or.reduceat(spread, starts, axis=1)
        c = np.argmax(bad.any(axis=0))
        raise ValidationError(f"character of irrep {np.argmax(bad[:, c])} "
                              f"is not constant on class {classes[c]!r}")
    table = chars[:, starts]
    inner = (table * sizes) @ table.conj().T
    off = np.abs(inner - n * np.eye(len(table))) > 1e-8 * n
    if off.any():
        a, b = np.argwhere(off)[0]
        raise ValidationError(f"character rows {a}, {b} fail orthogonality")
    return gd


def holonomy_class_intensities(g: GraphModel,
                               connection: Mapping[tuple[int, int], object],
                               gd: GroupData,
                               alpha: float = 1.0) -> dict[tuple, float]:
    """Expected number of loops whose holonomy lands in each conjugacy
    class: alpha (|C|/|G|) sum over irreps rho of conj(character) times
    -log det(I - P tensored with rho of the connection), the measure of all
    loops weighted by the trace of their holonomy under rho.

    `connection` maps every oriented edge to a group element, the two
    orientations to mutually inverse ones. Each input is checked once (the
    irreps by group_data); the irreps of one dimension form one batch,
    checked for reversal and evaluated in one call of the assembler. The
    classes are one product with the character table, then _certified.
    """
    _check_alpha(alpha)
    oriented = [(a, b) for u, v in g.edges for a, b in ((u, v), (v, u))]
    for e in oriented:
        if e not in connection:
            raise ValidationError("missing connection on edge ({},{})".format(*e))
        if connection[e] not in gd._characters:
            raise ValidationError(
                f"connection value {connection[e]!r} is not a group element")
    index = {e: i for i, e in enumerate(gd.elements)}
    at = [index[connection[e]] for e in oriented]
    traces = np.empty(len(gd.irreps))  # -log det(I - P (x) rho), per irrep rho
    for d, (group, stack) in gd._stacks.items():
        mats = stack[:, at]
        traces[group] = d * _connection_log_dets(g, mats[:, 0::2], mats[:, 1::2])
    table = np.array([gd._characters[cls[0]] for cls in gd.classes])
    sizes = np.array([len(cls) for cls in gd.classes])
    vals = _certified(table.conj() @ traces, alpha * sizes / gd.order, False,
                      "class intensity")
    return dict(zip(gd.classes, vals.tolist()))


# ---------------------------------------------------------------------------
# finite Heisenberg-type representations and second homology mod p


def _check_prime(p) -> None:
    """An odd prime below 2^32, so that trial division takes at most 2^16
    steps; else ValidationError."""
    if isinstance(p, int) and p >= 2 ** 32:
        raise ValidationError(f"p must be below 2^32, got {p}")
    if not (isinstance(p, int) and p >= 3
            and all(p % f for f in range(2, math.isqrt(p) + 1))):
        raise ValidationError(f"p must be an odd prime, got {p}")


def _check_skew(h, r: int, p: int) -> tuple[tuple[int, ...], ...]:
    mat = [[0] * r for _ in range(r)]
    if isinstance(h, Mapping):
        for key, val in h.items():
            i, j = key if len(key) == 2 else (0, 0)
            if not (1 <= i < j <= r):
                raise ValidationError(f"pair index {tuple(key)} not 1 <= i < j <= {r}")
            mat[i - 1][j - 1] = int(val) % p
            mat[j - 1][i - 1] = (-int(val)) % p
    else:
        rows = [list(row) for row in h]
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValidationError(f"skew matrix must be {r}x{r}")
        mat = [[int(x) % p for x in row] for row in rows]
        for i in range(r):
            if mat[i][i]:
                raise ValidationError("skew matrix has nonzero diagonal")
            for j in range(r):
                if (mat[i][j] + mat[j][i]) % p:
                    raise ValidationError(
                        f"matrix is not skew mod {p} at ({i + 1},{j + 1})")
    return tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class NilpotentRep:
    """Unitary representation, indexed by a skew matrix h mod p, of the
    group of pairs (a, c) with a in (Z_p)^r and c skew, multiplying as
    (a, c)(a', c') = (a + a', c + c' + (a (x) a' - a' (x) a)/2), all mod p.

    Acts on functions on (Z_p)^r by a character times a shear:
    (U[(a,c)] psi)(x) = omega^(<c,h> + <a,x>) psi(x - h a), omega =
    exp(2 pi i / p), with full-sum pairings <c,h> = sum_ij c_ij h_ij and
    <a,x> = sum_i a_i x_i. Normalized traces vanish off a = 0 and equal
    omega^<c,h> there.
    """

    p: int
    r: int
    h: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.p ** self.r

    def matrix(self, a: Sequence[int], c) -> np.ndarray:
        """U[(a, c)] as a dim x dim unitary: row x holds omega^phase(x) in
        column x - h a, basis vectors indexed by x in row-major order."""
        p, r = self.p, self.r
        a = [int(x) % p for x in a]
        if len(a) != r:
            raise ValidationError(f"a has length {len(a)}, expected {r}")
        cm = _check_skew(c, r, p) if not isinstance(c, tuple) else c
        pair_ch = sum(cm[i][j] * self.h[i][j] for i in range(r)
                      for j in range(r)) % p
        omega = np.exp(2j * np.pi / p)
        powers = np.array([omega ** k for k in range(p)])
        shift = np.array([sum(self.h[i][j] * a[j] for j in range(r)) % p
                          for i in range(r)], dtype=np.int64)
        x = np.indices((p,) * r).reshape(r, self.dim)
        cols = np.ravel_multi_index(tuple((x - shift[:, None]) % p), (p,) * r)
        phase = (pair_ch + np.array(a, dtype=np.int64) @ x) % p
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[np.arange(self.dim), cols] = powers[phase]
        return out

    def generator(self, i: int, sign: int = 1) -> np.ndarray:
        """U for the i-th standard generator (e_i, 0) or its inverse."""
        if not 1 <= i <= self.r:
            raise ValidationError(f"generator index {i} out of 1..{self.r}")
        a = [0] * self.r
        a[i - 1] = sign % self.p
        zero = tuple(tuple(0 for _ in range(self.r)) for _ in range(self.r))
        return self.matrix(a, zero)

    def compose(self, ac1, ac2):
        """Group law on pairs ((a, c) given as (vector, skew matrix))."""
        p, r = self.p, self.r
        a1, c1 = [int(x) % p for x in ac1[0]], _check_skew(ac1[1], r, p)
        a2, c2 = [int(x) % p for x in ac2[0]], _check_skew(ac2[1], r, p)
        inv2 = (p + 1) // 2
        c = tuple(tuple(
            (c1[i][j] + c2[i][j] + inv2 * (a1[i] * a2[j] - a2[i] * a1[j])) % p
            for j in range(r)) for i in range(r))
        return (tuple((x + y) % p for x, y in zip(a1, a2)), c)


def nilpotent_rep(p: int, r: int, h) -> NilpotentRep:
    """Build the representation for skew matrix h mod p (p an odd prime),
    verifying unitarity and the homomorphism property on all generator
    pairs before returning it."""
    _check_prime(p)
    if r < 1:
        raise ValidationError("rank must be >= 1")
    rep = NilpotentRep(p=p, r=r, h=_check_skew(h, r, p))
    zero = tuple(tuple(0 for _ in range(r)) for _ in range(r))
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    gens = [rep.generator(i) for i in range(1, r + 1)]
    for i, u in enumerate(gens, start=1):
        if not np.allclose(u @ u.conj().T, np.eye(rep.dim), atol=1e-10):
            raise NumericError(f"generator {i} is not unitary")
    for i, j in itertools.product(range(r), repeat=2):
        prod_elem = rep.compose((units[i], zero), (units[j], zero))
        if not np.allclose(gens[i] @ gens[j], rep.matrix(*prod_elem), atol=1e-10):
            raise NumericError(f"homomorphism fails on generators ({i + 1}, {j + 1})")
    return rep


def _skew_grid(r: int, p: int) -> np.ndarray:
    """Every skew h mod p as its values on the pairs i < j in lex order,
    one row each, in C order: shape (p^q, q) with q = r(r-1)/2."""
    q = r * (r - 1) // 2
    return np.indices((p,) * q).reshape(q, p ** q).T


def _roots(p: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(p) / p)


def _inverse_mod(a: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of an invertible integer matrix mod p, by Gauss-Jordan."""
    r = len(a)
    aug = [row + [int(i == j) for j in range(r)] for i, row in enumerate(a)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for i in range(r):
            c = aug[i][col]
            if i != col and c:
                aug[i] = [(x - c * y) % p for x, y in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]


def _darboux(b: list[list[int]],
             p: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Symplectic Gram-Schmidt over Z_p for a skew form b mod p.

    Returns A in GL_r(Z_p), its inverse and k: the columns of A are f_1,
    g_1, ..., f_k, g_k and then a basis of the radical of b, so that A^T b
    A is the Darboux form.
    """
    r = len(b)

    def image(v):
        return [sum(x * y for x, y in zip(row, v)) for row in b]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v)) % p

    rest = [[int(i == j) for i in range(r)] for j in range(r)]
    basis = []
    while True:
        images = [image(v) for v in rest]
        pair = next(((a, c) for a in range(len(rest))
                     for c in range(a + 1, len(rest)) if dot(rest[a], images[c])),
                    None)
        if pair is None:
            break
        a, c = pair
        f, bf = rest[a], images[a]
        inv = pow(dot(f, images[c]), -1, p)
        g = [x * inv % p for x in rest[c]]
        bg = image(g)
        basis += [f, g]
        # v - b(v, g) f + b(v, f) g is orthogonal to f and g
        rest = [[(x - cg * y + cf * z) % p for x, y, z in zip(v, f, g)]
                for v, cg, cf in ((v, dot(v, bg), dot(v, bf))
                                  for i, v in enumerate(rest) if i not in pair)]
    a = [list(row) for row in zip(*(basis + rest))]
    return a, _inverse_mod(a, p), len(basis) // 2


def _schrodinger_blocks(b: np.ndarray, a: np.ndarray, a_inv: np.ndarray,
                        k: int, p: int) -> np.ndarray:
    """The irreducible blocks of the Heisenberg twists of skew forms b = 2h
    mod p of one rank 2k, shape (H, p^(r-2k), r, p^k, p^k) for b of shape
    (H, r, r), with A and A^-1 from _darboux.

    With (q, p', t) = A^-1 e_j, block s in Z_p^(r-2k) sends generator j
    to omega^<s,t> times the tensor product over the k pairs of
    Z^q_l X^p'_l on C^p (Z = diag(omega^x), X the shift x -> x + 1). Its
    generators commute as U_i U_j = omega^b_ij U_j U_i and have order p,
    and the p^r-dimensional twist is p^k copies of each block: both have
    the character p^r omega^c on the central elements omega^c and 0 off
    them. (A scalar phase per generator, such as the omega^(-q p'/2) of
    the symmetric Weyl operators, only conjugates or relabels the blocks.)

    The construction is certified exactly (A A^-1 = I and A^T b A
    Darboux mod p) and numerically on the s = 0 blocks (U_j^p = I and the
    commutation relations to 1e-12); a failure raises NumericError.
    """
    count, r = b.shape[:2]
    # the Darboux form: k pairs (f_l, g_l) with form(f_l, g_l) = 1 = -form(g_l,
    # f_l), then a radical of dimension r - 2k
    form = np.zeros((r, r), dtype=np.int64)
    form[range(0, 2 * k, 2), range(1, 2 * k, 2)] = 1
    form[range(1, 2 * k, 2), range(0, 2 * k, 2)] = p - 1
    if (np.any(a @ a_inv % p != np.eye(r, dtype=np.int64))
            or np.any(a.swapaxes(1, 2) @ b @ a % p != form)):
        raise NumericError(f"no Darboux basis for a skew form mod {p}")
    coords = a_inv.swapaxes(1, 2)
    q, mom, t = coords[..., 0:2 * k:2], coords[..., 1:2 * k:2], coords[..., 2 * k:]
    # row x of generator j in block s: omega^(<q, x> + <s, t>) in column x - p'
    dim = p ** k
    x = np.indices((p,) * k).reshape(k, dim)
    place = p ** np.arange(k - 1, -1, -1)
    cols = np.einsum("l,hjlx->hjx", place, (x - mom[..., None]) % p)
    s = np.indices((p,) * (r - 2 * k)).reshape(r - 2 * k, p ** (r - 2 * k))
    expo = ((q @ x)[:, None] + (t @ s).swapaxes(1, 2)[..., None]) % p
    roots = _roots(p)
    blocks = np.zeros((count, s.shape[1], r, dim, dim), dtype=complex)
    idx = np.ix_(range(count), range(s.shape[1]), range(r), range(dim))
    blocks[idx + (cols[:, None],)] = roots[expo]
    base = blocks[:, 0]
    power = np.linalg.matrix_power(base, p) - np.eye(dim)
    comm = (base[:, :, None] @ base[:, None, :]
            - roots[b][..., None, None] * (base[:, None, :] @ base[:, :, None]))
    if max(np.max(np.abs(power), initial=0.0),
           np.max(np.abs(comm), initial=0.0)) > 1e-12:
        raise NumericError(f"Schrodinger block fails the relations mod {p}")
    return blocks


@memo
def _heisenberg_blocks(p: int, r: int, lo: int,
                       hi: int) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """The Schrodinger blocks of the skew h in rows lo:hi of _skew_grid(r,
    p), as (k, owners, blocks) per rank 2k of 2h mod p: owners index the
    slice and blocks are _schrodinger_blocks of those h, certified when
    built.

    They depend only on p, r and the slice, so they are memoized (see
    _memo; each holds about max(_CHUNK_ENTRIES, r p^r) complex entries, by
    the slicing of _heisenberg_traces), which makes the arrays read-only.
    """
    forms = np.zeros((hi - lo, r, r), dtype=np.int64)
    forms[(slice(None),) + np.triu_indices(r, 1)] = 2 * _skew_grid(r, p)[lo:hi]
    forms = (forms - forms.swapaxes(1, 2)) % p
    by_rank: dict[int, list] = {}
    for i, b in enumerate(forms.tolist()):
        a, a_inv, k = _darboux(b, p)
        by_rank.setdefault(k, []).append((i, a, a_inv))
    out = []
    for k, group in by_rank.items():
        owners, a, a_inv = zip(*group)
        owners = np.array(owners)
        shape = (len(owners), r, r)
        blocks = _schrodinger_blocks(
            forms[owners], np.array(a, dtype=np.int64).reshape(shape),
            np.array(a_inv, dtype=np.int64).reshape(shape), k, p)
        out.append((k, owners, blocks))
    return tuple(out)


def _block_points(p: int, r: int, m: int) -> int:
    """The points at which _heisenberg_traces factorizes on the m-grid,
    min(m, 2d+1)^r per Schrodinger block of size d = p^k. A skew h with 2h
    mod p of rank 2k has p^(r-2k) of them, and for odd p such h number the
    alternating r x r forms of rank 2k over F_p (MacWilliams 1969):
    p^(k(k-1)) prod_{i<2k} (p^(r-i) - 1) / prod_{i=1..k} (p^(2i) - 1)."""
    return sum(p ** (k * (k - 1)) * math.prod(p ** (r - i) - 1 for i in range(2 * k))
               // math.prod(p ** (2 * i) - 1 for i in range(1, k + 1))
               * p ** (r - 2 * k) * min(m, 2 * p ** k + 1) ** r for k in range(r // 2 + 1))


def _heisenberg_traces(g: GraphModel, frame: SpanningTreeFrame, p: int,
                       m: int | None = None) -> np.ndarray:
    """T(h) = -(1/p^r) log det(I - P twisted by the p^r-dimensional
    Heisenberg representation of h), for every skew h mod p in the order
    of _skew_grid; with m, once per point of the m-point torus grid of
    extra phases on the crossings. Shape (p^q, m^r), or (p^q, 1).

    The twist splits into p^k copies of each of its p^(r-2k) Schrodinger
    blocks, so T(h) = -(p^k / p^r) sum over blocks of log det(I - P twisted
    by the block). The blocks of one size go through _torus_log_dets as one
    batch, h in slices of about _CHUNK_ENTRIES block entries times points.
    """
    r = frame.rank
    count = p ** (r * (r - 1) // 2)
    points = 1 if m is None else m ** r
    step = max(1, _CHUNK_ENTRIES // (max(r, 1) * p ** r * points))
    omega = _frame_letters(g, frame)
    out = np.empty((count, points))
    for lo in range(0, count, step):
        for k, owners, blocks in _heisenberg_blocks(p, r, lo, min(lo + step, count)):
            n, each = blocks.shape[:2]
            logs = _torus_log_dets(g, omega, blocks.reshape((n * each,) + blocks.shape[2:]),
                                   m, "Heisenberg twist")
            out[lo + owners] = -(p ** k) * logs.reshape(n, each, -1).sum(axis=1) / p ** r
    return out


def _homology2_values(g: GraphModel, frame: SpanningTreeFrame, p: int,
                      alpha: float = 1.0, field: bool = False, M: int | None = None
                      ) -> tuple[np.ndarray, int | None, float | None]:
    """The second-homology law mod p on every skew m, one axis per pair i <
    j in lex order, with M and its bound from _grid_policy (None for the
    intensity, which needs no grid): one FFT over skew h, read at 2m, of
    alpha T(h), or with field of exp(alpha (S(h) - S(0))), S the mean of T
    over the M-grid. S keeps loops of nonzero winding in M Z^r, an error of
    at most alpha sum_i mu(|W_i| >= M) (_alias_bounds at reach 0)."""
    r = frame.rank
    M, bound, _ = _grid_policy(g, frame, M, np.zeros(r), alpha, field, p)
    q = r * (r - 1) // 2  # the pairs, in the order of _skew_grid
    law = _law(_heisenberg_traces(g, frame, p, M).mean(axis=1).reshape((p,) * q),
               alpha, field, "homology2")
    return law[np.ix_(*[2 * np.arange(p) % p] * q)], M, bound


def _skew_index(m, r: int, p: int, alpha: float) -> list[int]:
    """The index of the skew m in an H2 law, one entry per pair i < j, with
    alpha, p and m (_check_skew) checked before any budget of the law."""
    _check_alpha(alpha)
    _check_prime(p)
    h = _check_skew(m, r, p)
    return [h[i][j] for i, j in itertools.combinations(range(r), 2)]


def homology2_intensity(g: GraphModel, frame: SpanningTreeFrame,
                        m, p: int, alpha: float = 1.0) -> float:
    """alpha times the mass of loops with winding vector congruent to 0
    and second invariant congruent to m, both mod p.

    Inverse Fourier transform over skew matrices h mod p of the normalized
    Heisenberg-twisted log determinants; the pairing <m, h> is the full
    skew sum, i.e. 2 sum_{i<j} m_ij h_ij. The value is the law mod p: it
    adds the mass of every invariant congruent to m, and of the loops whose
    winding is a nonzero multiple of p. Choosing p beyond twice every
    invariant that carries mass removes that aliasing, but no bound on it
    is computed here; two primes that agree give evidence, not a bound.
    """
    at = _skew_index(m, frame.rank, p, alpha)
    return _at(_homology2_values(g, frame, p, alpha)[0], at)


def homology2_field_law(g: GraphModel, frame: SpanningTreeFrame,
                        alpha: float, m, p: int, M: int | None = None) -> float:
    """P(second-homology field of the soup = m mod p), the field summing
    the invariant over sampled loops with winding exactly zero.

    The zero-winding filter averages extra phases over M points per
    generator, from the (2d+1)^r Laurent coefficients of each block of size
    d, and keeps loops of nonzero winding in lcm(M, p) Z^r: alpha times their
    mass bounds the error. An omitted M is the smallest power of two whose H1
    tail bound on it is at most 1e-12 (past 2^16 points, NumericError). The
    mod-p law is a Fourier inversion of the Poisson characteristic function.
    """
    at = _skew_index(m, frame.rank, p, alpha)
    return _at(_homology2_values(g, frame, p, alpha, field=True, M=M)[0], at)
