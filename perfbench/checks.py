"""Correctness checks, run after the timed phase and not timed.

Each check compares a query's answer with an independent route and its
certificate: enumeration with its tail bound against the Fourier and
transfer-operator routes, closed forms on regular graphs, the total mass
by slogdet, Poisson counts of pooled soups, and the currents route
against the tensor route. A check returns None when the answer agrees and
a one-line description of the disagreement otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import loopsoup as ls

# Enumeration length of the reference route, per graph family.
N_CHECK = {"triangle": 40, "bowtie": 14, "k4": 10, "petersen": 8,
           "torus10": 4}
# Absolute and relative slack for floating-point roundoff.
ATOL = 1e-9
RTOL = 1e-9
# Largest tail probability of a pooled class count that still fails the
# check; with a few thousand classes a run, a false alarm stays below 1e-5.
POISSON_TAIL = 1e-9


def _slack(x: float) -> float:
    return ATOL + RTOL * abs(x)


class References:
    """Graphs and enumerations of one check phase, cached by graph file."""

    def __init__(self):
        self._graphs: dict[str, tuple] = {}
        self._enum: dict[tuple[str, int], ls.EnumeratedMeasure] = {}

    def graph(self, path: str):
        if path not in self._graphs:
            with open(path) as fh:
                g = ls.parse_graph(fh.read())
            self._graphs[path] = (g, ls.spanning_tree_frame(g))
        return self._graphs[path]

    def enumerated(self, gr: dict, n: int | None = None):
        n = n or N_CHECK[gr["family"]]
        key = (gr["path"], n)
        if key not in self._enum:
            g, frame = self.graph(gr["path"])
            self._enum[key] = ls.enumerate_measure(g, frame, n)
        return self._enum[key]


def _last_value(out: str) -> float:
    return float(out.strip().splitlines()[-1].rsplit(",", 1)[1])


def _rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.strip().splitlines()[2:]]


def _class_of(label: str):
    return ls.TRIVIAL if label == "e" else ls.canonical_class(ls.parse_word(label))


def _sandwich(value: float, lo: float, hi: float, what: str) -> str | None:
    if lo - _slack(lo) <= value <= hi + _slack(hi):
        return None
    return f"{what}: {value!r} outside certified [{lo!r}, {hi!r}]"


# ---------------------------------------------------------------------------
# winding

def _alias_bound(g, m: int, h) -> float:
    n = m - max((abs(x) for x in h), default=0) - 1
    return ls.tail_bound(g, n) if n >= 1 else math.inf


def check_h1(q: dict, out: str, refs: References) -> str | None:
    """Grid value against enumerated winding masses: within the tail plus
    the aliasing bound tail_bound(g, M - max|h| - 1)."""
    gr = q["graph"]
    g, frame = refs.graph(gr["path"])
    em = refs.enumerated(gr)
    wind = em.winding(frame.rank)
    h = tuple(q["h"])
    value = _last_value(out)
    if "mod" in q:
        p = q["mod"]
        lo = sum(mass for hh, mass in wind.items()
                 if all((a - b) % p == 0 for a, b in zip(hh, h)))
        return _sandwich(value, lo, lo + em.tail, "h1 --mod")
    if "alpha" in q:
        return _check_h1_field(q, value, wind, em.tail)
    # the automatic grid starts at 64 and settles at 128 or more
    m = q.get("M", 128)
    lo = wind.get(h, 0.0)
    return _sandwich(value, lo, lo + em.tail + _alias_bound(g, m, h), "h1")


def _check_h1_field(q: dict, value: float, wind: dict, tail: float) -> str | None:
    """Field law on the M grid from the enumerated winding intensities.
    The Poisson laws differ by at most alpha * tail in total variation."""
    m, alpha, h = q["M"], q["alpha"], np.array(q["h"])
    hs = np.array(list(wind), dtype=float)
    mass = np.array(list(wind.values()))
    rank = hs.shape[1]
    ks = np.array(np.meshgrid(*([np.arange(m)] * rank), indexing="ij")).reshape(rank, -1).T
    phase = np.exp(2j * np.pi * (ks @ hs.T) / m)
    char = np.exp(alpha * ((phase - 1.0) @ mass))
    prob = float(np.real(np.mean(char * np.exp(-2j * np.pi * (ks @ h) / m))))
    bound = alpha * tail
    if abs(value - prob) <= bound + _slack(prob):
        return None
    return f"h1 --field: {value!r} vs enumerated {prob!r} beyond {bound!r}"


def _h2_of(word, rank: int, p: int) -> tuple[int, ...]:
    h2 = ls.homology2(word, rank=rank)
    return tuple(h2[(i, j)] % p for i in range(1, rank + 1)
                 for j in range(i + 1, rank + 1))


def check_h2(q: dict, out: str, refs: References) -> str | None:
    """Intensity: enumerated zero-winding classes with the second
    invariant = m (mod p) bound it below; adding every enumerated class
    whose nonzero winding vanishes mod p, and the tail, bounds it above.
    Field law: the compound Poisson law of the enumerated zero-winding
    classes, within alpha times the mass it leaves out: the tail and the
    enumerated classes whose nonzero winding vanishes mod p and mod M."""
    gr = q["graph"]
    g, frame = refs.graph(gr["path"])
    em = refs.enumerated(gr)
    r, p = frame.rank, q["p"]
    m = tuple(x % p for x in q["m"])
    value = _last_value(out)
    grid = q.get("M")
    zero, aliased = {}, 0.0
    for cls, mass in em.items():
        h1 = ls.homology1(cls.word, rank=r)
        if not any(h1):
            key = _h2_of(cls.word, r, p)
            zero[key] = zero.get(key, 0.0) + mass
        elif all(x % p == 0 for x in h1) and (grid is None
                                            or all(x % grid == 0 for x in h1)):
            aliased += mass
    if grid is None:
        alpha = float(q.get("alpha", 1.0))
        lo = alpha * zero.get(m, 0.0)
        return _sandwich(value, lo, lo + alpha * (aliased + em.tail), "h2")
    alpha = q["alpha"]
    keys = np.array(list(zero), dtype=float).reshape(len(zero), -1)
    mass = np.array(list(zero.values()))
    hs = np.array(list(np.ndindex(*([p] * len(m)))), dtype=float)
    char = np.exp(alpha * ((np.exp(2j * np.pi * 2 * (hs @ keys.T) / p) - 1.0) @ mass))
    prob = float(np.real(np.mean(char * np.exp(-2j * np.pi * 2 * (hs @ np.array(m)) / p))))
    bound = alpha * (aliased + em.tail)
    if abs(value - prob) <= bound + _slack(prob):
        return None
    return f"h2 --field: {value!r} vs enumerated {prob!r} beyond {bound!r}"


def check_holonomy(q: dict, result: dict, refs: References) -> str | None:
    """Every loop has its holonomy in exactly one class, so the class
    intensities sum to alpha times the total mass (slogdet route)."""
    g, _ = refs.graph(q["graph"]["path"])
    want = q["alpha"] * ls.total_mass(g)
    got = sum(result.values())
    if min(result.values()) < -_slack(want):
        return f"holonomy: negative class intensity {min(result.values())!r}"
    if abs(got - want) <= 1e-8 * abs(want):
        return None
    return f"holonomy: class intensities sum to {got!r}, total mass gives {want!r}"


# ---------------------------------------------------------------------------
# classes

def check_enumerate(q: dict, out: str, refs: References) -> str | None:
    """Each enumerated nontrivial class mass lies below its transfer-operator
    value by at most the tail. The trivial row lies below the total mass
    (slogdet) minus the exact masses of the enumerated nontrivial classes."""
    g, frame = refs.graph(q["graph"]["path"])
    tail = float(out.splitlines()[0].rsplit("tail=", 1)[1].split()[0])
    rho = ls.solve_rho(g, 1.0)
    rest = ls.total_mass(g)
    trivial = None
    for label, _, _, mass in _rows(out):
        cls = _class_of(label)
        if cls.is_trivial:
            trivial = float(mass)
            continue
        exact = ls.class_intensity(g, frame, cls, rho=rho)
        rest -= exact
        bad = _sandwich(exact - float(mass), 0.0, tail, f"enumerate class {label}")
        if bad:
            return bad
    if trivial is not None:
        return _sandwich(trivial, 0.0, rest, "enumerate trivial class")
    return None


def check_homotopy(q: dict, out: str, refs: References) -> str | None:
    """At s = 1 every row lies above its enumerated mass by at most the
    tail; on regular graphs with constant killing every row also matches
    the closed form step_intensity**L / multiplicity."""
    gr = q["graph"]
    g, frame = refs.graph(gr["path"])
    rows = _rows(out)
    if q["s"] == 1.0:
        em = refs.enumerated(gr)
        for label, _, _, value in rows:
            cls = _class_of(label)
            # the trivial row carries the quadrature error, far below 1e-8
            err = 1e-8 if cls.is_trivial else 0.0
            bad = _sandwich(float(value) - em.get(cls), -err, em.tail + err,
                            f"homotopy class {label}")
            if bad:
                return bad
    if "kappa" in gr:
        degree = g.degree(0)
        forms = ls.regular_closed_forms(degree, gr["kappa"], q["s"])
        for label, _, _, value in rows:
            cls = _class_of(label)
            if cls.is_trivial:
                continue
            steps = len(ls.geodesic_representative(cls, frame))
            want = forms.step_intensity ** steps / cls.multiplicity
            if abs(float(value) - want) > 1e-8 * want:
                return f"homotopy class {label}: {value} vs closed form {want!r}"
    return None


def check_zeta(q: dict, out: str, refs: References) -> str | None:
    if "agree=True" not in out.splitlines()[0]:
        return "zeta: series disagree"
    if any(row[3] != "0" for row in _rows(out)):
        return "zeta: nonzero difference row"
    return None


def check_validate(q: dict, out: str, refs: References) -> str | None:
    """Total mass between the truncated trace series and it plus the tail."""
    gr = q["graph"]
    g, _ = refs.graph(gr["path"])
    fields = dict(line.split(": ", 1) for line in out.splitlines()[1:])
    n = 4 * N_CHECK[gr["family"]]
    lo = ls.truncated_mass(g, n)
    return _sandwich(float(fields["mass"]), lo, lo + ls.tail_bound(g, n), "validate mass")


# ---------------------------------------------------------------------------
# soups

def check_occupation(q: dict, out: str, refs: References) -> str | None:
    """Counts balance at every vertex, Ncheck is the net current, and the
    rows equal the occupation of the library's soup for the same seed."""
    g, frame = refs.graph(q["graph"]["path"])
    rows = [tuple(int(x) for x in line.split(",")) for line in out.splitlines()[2:]]
    counts = {(u, v): n for u, v, n, _ in rows}
    balance: dict[int, int] = {}
    for (u, v), n in counts.items():
        balance[u] = balance.get(u, 0) + n
        balance[v] = balance.get(v, 0) - n
    if any(balance.values()):
        return "occupation: counts do not balance at every vertex"
    if any(c != n - counts.get((v, u), 0) for u, v, n, c in rows):
        return "occupation: Ncheck is not the net current"
    cfg = ls.MeasureConfig(alpha=q["alpha"], n_max=q["n_max"],
                           tail_tol=q["tail_tol"], seed=q["seed"])
    want = ls.occupation(ls.sample_soup(g, frame, cfg)).rows()
    if rows != want:
        return "occupation: rows differ from the library soup of the same seed"
    return None


def check_pooled_soup(family: str, gr: dict, n_enum: int, alpha_sum: float,
                      counts: dict, refs: References) -> str | None:
    """Pooled counts of loops with length <= n_enum, per class, against
    Poisson means alpha_sum * enumerated mass: a count in either tail with
    probability below POISSON_TAIL fails. Each loop's tabulated winding
    must be its class's winding."""
    # imported here, after the timed phase, to keep it out of peak_rss_mb
    from scipy.stats import poisson

    em = refs.enumerated(gr, n_enum)
    rank = gr["rank"]
    per_class: dict = {}
    for (cls, h1), n in counts.items():
        if h1 != ls.homology1(cls.word, rank=rank):
            return f"soup {family}: winding {h1} differs from class {cls!r}"
        per_class[cls] = per_class.get(cls, 0) + n
    for cls, mass in em.items():
        mean = alpha_sum * mass
        got = per_class.get(cls, 0)
        if min(poisson.sf(got - 1, mean), poisson.cdf(got, mean)) < POISSON_TAIL:
            return (f"soup {family}: class {cls!r} counted {got}, "
                    f"Poisson mean {mean:.2f}")
    extra = [cls for cls in per_class if cls not in em.masses]
    if extra:
        return f"soup {family}: sampled class {extra[0]!r} has no enumerated mass"
    return None


# ---------------------------------------------------------------------------
# words

def _lie_coords(text: str) -> dict[tuple[int, ...], Fraction]:
    coords = {}
    for line in text.strip().splitlines()[2:]:
        word, value = line.split(",")
        coords[tuple(int(x) for x in word.split())] = Fraction(value)
    return coords


def check_signature(q: dict, out: str, refs: References) -> str | None:
    """The CLI's critical degree and Lyndon coordinates (tensor route)
    equal the leading term from crossing currents, exactly."""
    header = dict(kv.split("=", 1) for kv in out.splitlines()[0].split()[3:]
                  if "=" in kv and not kv.startswith("word="))
    d, rank = int(header["degree"]), int(header["rank"])
    lead = ls.lie_polynomial_via_currents(tuple(q["word"]), d, rank=rank)
    want = {w: c for w, c in lead.sorted_coords() if c}
    got = {w: c for w, c in _lie_coords(out).items() if c}
    if got != want:
        return f"signature: Lyndon coordinates differ from currents at degree {d}"
    return None


def _tensor_invariants(w, r: int, needed: int) -> dict:
    """homology1..needed from the log-signature (tensor route)."""
    series = ls.log_signature(w, needed)
    out = {"h1": tuple(int(series.coefficient((i,))) for i in range(1, r + 1))}
    if needed >= 2:
        coords = ls.lyndon_coordinates(series.component(2), r, 2)
        out["h2"] = {(i, j): int(coords.get((i, j), 0))
                     for i in range(1, r + 1) for j in range(i + 1, r + 1)}
    if needed >= 3:
        want3 = ls.h3_from_lie(series.component(3), r)
        out["h3"] = {k: int(c) for k, c in want3.items()}
    return out


def check_currents(q: dict, result: dict, refs: References) -> str | None:
    """homology1/2/3 from crossing currents equal the tensor route's
    Lyndon and degree-3 coordinates, exactly."""
    want = _tensor_invariants(tuple(q["word"]), q["rank"], len(result))
    for key, value in result.items():
        if value != want[key]:
            return f"words: {key} from currents differs from the tensor route"
    return None


def check_log_signature(q: dict, result: dict, refs: References) -> str | None:
    """Lyndon coordinates of the log-signature at the critical degree
    equal the leading term from crossing currents, and the degree-1 and
    degree-2 coordinates equal homology1 and homology2, exactly."""
    w, r = tuple(q["word"]), q["rank"]
    coords = result["coords"]
    if {(i,): v for (i,), v in coords[1].items() if v} != {
            (i,): Fraction(v) for i, v in enumerate(ls.homology1(w, rank=r), 1) if v}:
        return "words: degree-1 coordinates differ from homology1"
    for d in sorted(coords):
        if coords[d]:
            if d == 2 and not coords[1]:
                h2 = ls.homology2(w, rank=r)
                if {k: v for k, v in coords[2].items() if v} != {
                        k: Fraction(v) for k, v in h2.items() if v}:
                    return "words: degree-2 coordinates differ from homology2"
            lead = ls.lie_polynomial_via_currents(w, d, rank=r)
            if {k: v for k, v in coords[d].items() if v} != {
                    k: v for k, v in lead.sorted_coords() if v}:
                return f"words: degree-{d} coordinates differ from currents"
            break
    return None
