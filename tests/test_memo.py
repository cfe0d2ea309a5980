"""The one memo store of weight-free work: the class words behind
`homotopy`, the enumeration plans behind `enumerate`, the Ihara series
behind `zeta`, the twist plans behind `h1`, `h2` and the holonomy laws,
the canonical classes of words and the Lie expansions.

A call that hits the store must print what a call made after clearing it
prints, byte for byte, on stdout and stderr, with the same exit code; every
budget is checked ahead of the store; and the store stays within its one
entry budget, least recently used out first, over values of every kind,
which are read-only.
"""

import ast
import pkgutil
import random
from pathlib import Path

import numpy as np
import pytest

import loopsoup
from loopsoup import (_memo, build_graph, contractible_intensity, dynkin_map,
                      fourier, freegroup, graphs, group_data,
                      holonomy_class_intensities, homology1_grid,
                      homology2_intensity, load_graph, log_signature,
                      lyndon_coordinates, soup, solve_rho, spectra,
                      spanning_tree_frame)
from loopsoup.cli import main
from loopsoup.freegroup import _class_words, canonical_class
from loopsoup.signature import (_bracket_expansion, _lyndon_words_of_length,
                                bracket_expansion)
from loopsoup.spectra import ihara_check


def _torus_edges(side):
    edges = set()
    for i in range(side):
        for j in range(side):
            a = i * side + j
            for b in (i * side + (j + 1) % side, ((i + 1) % side) * side + j):
                edges.add((min(a, b), max(a, b)))
    return sorted(edges)


_PETERSEN = ([(i, (i + 1) % 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
             + [(i, 5 + i) for i in range(5)])

TOPOLOGIES = {
    "triangle": (3, [(0, 1), (0, 2), (1, 2)]),
    "bowtie": (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    "k4": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
    "petersen": (10, sorted((min(u, v), max(u, v)) for u, v in _PETERSEN)),
    "torus10": (100, _torus_edges(10)),
}

# per verb: its arguments per topology; zeta needs unit conductances
VERBS = {
    "enumerate": lambda name: ["--n-max", str({"triangle": 8, "bowtie": 8,
                                               "k4": 7, "petersen": 7,
                                               "torus10": 6}[name])],
    "homotopy": lambda name: ["--s", "1.0", "--max-len", str(
        {"triangle": 6, "bowtie": 4, "k4": 3, "petersen": 3, "torus10": 1}[name])],
    "homotopy-s": lambda name: ["--s", "0.7", "--max-len", str(
        {"triangle": 6, "bowtie": 4, "k4": 3, "petersen": 3, "torus10": 1}[name])],
    "zeta": lambda name: ["--max-degree", "10"],
    # the Fourier laws at h = 0, and every row mod 3 of the second homology
    "h1-M": lambda name: ["--h-range", "0", "--M", "5"],
    "h1-auto": lambda name: ["--h-range", "0", "--field"],
    "h2": lambda name: ["--p", "3"],
    "h2-field": lambda name: ["--p", "3", "--field"],
    "holonomy": lambda name: [],
    # the edge table alone, read by the dense routines
    "validate": lambda name: [],
}

# The verbs whose memoized value is the twist plan; a Fourier law may still
# fail after building it, when its aliasing bound asks for a grid past the
# point budget (Petersen's automatic grid).
FOURIER_VERBS = {"h1-M", "h1-auto", "h2", "h2-field", "holonomy"}

_EDGE_TABLE = graphs._edge_table.__wrapped__
_HOMOTOPY = (freegroup._build_class_words, spectra._class_steps,
             spectra._pattern, graphs._successors, _EDGE_TABLE)

# per verb: the kinds of value that it keeps, the verb's own first
KINDS = {"enumerate": (soup._build_plan, _EDGE_TABLE),
         "homotopy": _HOMOTOPY, "homotopy-s": _HOMOTOPY,
         "zeta": (spectra._ihara_series, _EDGE_TABLE),
         **dict.fromkeys(FOURIER_VERBS, (fourier._twist_plan.__wrapped__,)),
         "validate": (_EDGE_TABLE,)}


def _write(directory, name, seed, unit=False):
    """A graph file of the topology with weights drawn from seed."""
    rng = random.Random(seed)
    n, edges = TOPOLOGIES[name]
    lines = [f"vertices {n}"]
    lines += [f"edge {a} {b} {1.0 if unit else rng.uniform(0.5, 2.0)!r}"
              for a, b in edges]
    lines += [f"kappa {x} {rng.uniform(0.5, 1.5)!r}" for x in range(n)]
    path = directory / f"{name}-{seed}.graph"
    path.write_text("\n".join(lines) + "\n")
    return path.name


@pytest.fixture
def memos():
    """A fresh store; returns the function that clears it and the rho
    tables of solve_rho."""
    _memo.clear()

    def clear():
        _memo.clear()
        spectra.solve_rho.cache_clear()
    return clear


def _kept(build):
    """The keys that build's values are kept under, least recently used
    first."""
    return [at[1:] for at in _memo._STORE if at[0] is build]


def _check_held():
    """The running total is the sum of the sizes kept, within budget."""
    assert _memo._held == sum(e for _, e in _memo._STORE.values())
    assert _memo._held <= _memo._BUDGET


def _holonomy_law(g, order=5):
    """The class intensities of a Z_order connection, edge i carrying i mod
    order."""
    elements = range(order)
    irreps = [{e: np.array([[np.exp(2j * np.pi * k * e / order)]]) for e in elements}
              for k in elements]
    connection = {}
    for i, (u, v) in enumerate(g.edges):
        connection[(u, v)], connection[(v, u)] = i % order, -i % order
    return holonomy_class_intensities(
        g, connection, group_data(elements, [[e] for e in elements], irreps))


def _holonomy(path):
    """The holonomy law, which has no CLI verb, printed."""
    print(repr(_holonomy_law(load_graph(path))))
    return 0


def _run(capsys, argv):
    code = _holonomy(*argv[1:]) if argv[0] == "holonomy" else main(argv)
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("name", list(TOPOLOGIES))
@pytest.mark.parametrize("verb", list(VERBS))
def test_warm_call_matches_cold(tmp_path, monkeypatch, capsys, memos, verb,
                                name):
    monkeypatch.chdir(tmp_path)
    paths = [_write(tmp_path, name, seed, unit=verb == "zeta")
             for seed in (1, 2)]

    def argv(path):
        return [verb.split("-")[0], path] + VERBS[verb](name)

    cold = []
    for path in paths:
        memos()
        cold.append(_run(capsys, argv(path)))
    # the store now holds the topology's values, built on the other weights;
    # a refused call may have built the edge table before its own value
    if cold[-1][2] == 0:
        assert all(_kept(build) for build in KINDS[verb])
    elif verb not in FOURIER_VERBS:
        assert not _kept(KINDS[verb][0])
    held = set(_memo._STORE)
    for path, want in zip(paths, cold):
        assert _run(capsys, argv(path)) == want
    assert set(_memo._STORE) == held  # warm calls build nothing


def test_over_budget_after_a_warm_hit(tmp_path, monkeypatch, capsys, memos):
    monkeypatch.chdir(tmp_path)
    petersen, k4 = _write(tmp_path, "petersen", 1), _write(tmp_path, "k4", 1,
                                                           unit=True)
    # rank 6 admits --max-len 5, K4 admits --max-degree 14
    for argv, over, message in [
            (["homotopy", petersen, "--max-len", "3"], ["--max-len", "6"],
             "the classes of rank 6 up to length 6"),
            (["zeta", k4, "--max-degree", "10"], ["--max-degree", "15"],
             "the geodesic loops up to length 15")]:
        for _ in range(2):
            assert _run(capsys, argv)[2] == 0
        out, err, code = _run(capsys, argv[:2] + over)
        assert (out, code) == ("", 4)
        assert err.startswith(f"config error: {message} need more than")
    monkeypatch.setattr(soup, "_ENUMERATION_ENTRIES", 2 ** 12)
    for _ in range(2):
        assert _run(capsys, ["enumerate", k4, "--n-max", "5"])[2] == 0
    out, err, code = _run(capsys, ["enumerate", k4, "--n-max", "9"])
    assert (out, code) == ("", 4)
    assert err.startswith("config error: enumerating loops up to n_max=9")


def test_lowered_budget_refuses_a_memoized_key(tmp_path, monkeypatch, capsys,
                                               memos):
    monkeypatch.chdir(tmp_path)
    triangle, k4 = (_write(tmp_path, name, 1, unit=True)
                    for name in ("triangle", "k4"))
    homotopy = ["homotopy", triangle, "--max-len", "4"]
    zeta = ["zeta", k4, "--max-degree", "4"]
    assert _run(capsys, homotopy)[2] == _run(capsys, zeta)[2] == 0
    assert _kept(freegroup._build_class_words) == [(1, 4)]
    assert len(_kept(spectra._ihara_series)) == 1
    # at rank 1 the letters are 2 + 4 + 6 + ...: 12 admits length 3; the
    # walks of K4 take 12, 48 and 144 steps at lengths 1 to 3: 60 admits 2
    monkeypatch.setattr(freegroup, "_CLASS_LETTERS", 12)
    monkeypatch.setattr(freegroup, "_WALK_LETTERS", 60)
    for argv in (homotopy, zeta):
        out, err, code = _run(capsys, argv)
        assert (out, code) == ("", 4)
        assert err.startswith("config error: ")
    assert _run(capsys, homotopy[:3] + ["3"])[2] == 0
    assert _run(capsys, zeta[:3] + ["2"])[2] == 0


# The entries of each kind of value, as its memo site counted them before
# the store counted them itself: the store's own count must agree. An
# enumeration plan is the exception (see tests/test_soup.py).
SITE_COUNTS = {
    freegroup._canonical.__wrapped__: lambda cls: len(cls.word),
    freegroup._build_class_words:  # letters, and 3 per word
        lambda table: table.words.letters.size + 3 * table.words.lengths.size,
    spectra._ihara_series: lambda series: len(series[0]) + len(series[1]),
    _bracket_expansion.__wrapped__:  # words and ints
        lambda terms: sum(len(w) + 1 for w, _ in terms),
    _lyndon_words_of_length.__wrapped__:
        lambda words: sum(map(len, words)),
    fourier._twist_plan.__wrapped__:
        lambda plan: sum(a.size for a in vars(plan).values() if a is not None),
    # and 1 per rank k, which the site did not count
    fourier._heisenberg_blocks.__wrapped__:
        lambda out: sum(1 + owners.size + blocks.size for _, owners, blocks in out),
    # the topology's tables, which had no memo site: every array they hold
    _EDGE_TABLE: lambda table: sum(a.size for a in vars(table).values()),
    graphs._successors: lambda succ: succ.size,
    spectra._pattern: lambda pattern: pattern[0].size + sum(
        a.size for slots in pattern[1:] for slot in slots for a in slot),
    spectra._class_steps: lambda steps: sum(a.size for a in steps),
}


def _class_words_call(rank, max_len):
    build = freegroup._build_class_words
    return (build, (rank, max_len), (rank, max_len), SITE_COUNTS[build],
            lambda: _class_words(rank, max_len))


def _ihara_call(g, degree):
    build = spectra._ihara_series
    return (build, (g.neighbors, degree), (g, degree), SITE_COUNTS[build],
            lambda: ihara_check(g, degree))


def _plan_call(g, n_max):
    frame = spanning_tree_frame(g)
    return (soup._build_plan, (g.neighbors, frame.cogenerators, n_max),
            (g, frame, n_max), _memo._count,
            lambda: soup.enumerate_measure(g, frame, n_max))


def _unit(name):
    n, edges = TOPOLOGIES[name]
    return build_graph(n, [(a, b, 1.0) for a, b in edges], 1.0)


class TestMemoBounds:
    """One kind of value swept past a small store budget: a sweep of keys,
    twice over, least recently used out first, read-only values."""

    def _sweep(self, monkeypatch, budget, build, keys, call, size):
        """Call every key, twice over; check the store after each call. The
        keys whose value was over the budget."""
        monkeypatch.setattr(_memo, "_BUDGET", budget)
        recent, over = [], set()
        for key in keys * 2:
            held = list(_memo._STORE)
            value = call(key)
            at = (build, *key)
            if _memo._entries(key, size(value)) <= budget:
                kept, entries = _memo._STORE[at]
                assert kept is value
                assert entries == _memo._entries(key, size(value))
                recent = [k for k in recent if k != at] + [at]
            else:  # used once and not kept, and nothing else goes
                assert list(_memo._STORE) == held
                over.add(key)
            _check_held()
            # the values kept are the most recently used ones, in order
            assert list(_memo._STORE) == recent[len(recent) - len(_memo._STORE):]
        assert over and len(_memo._STORE) < len(keys) - len(over)
        return over

    def test_class_words(self, monkeypatch, memos):
        builds = []
        build = freegroup._build_class_words

        def counted(rank, max_len):
            builds.append((rank, max_len))
            return build(rank, max_len)

        monkeypatch.setattr(freegroup, "_build_class_words", counted)
        keys = [(rank, max_len) for rank in (1, 2, 3) for max_len in range(6)]
        over = self._sweep(monkeypatch, 2000, counted, keys,
                           lambda key: _class_words(*key), SITE_COUNTS[build])
        # a table over the budget is built on every call
        assert all(builds.count(key) == 2 for key in over)
        for table, _ in _memo._STORE.values():
            for a in table.words:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0
            assert isinstance(table.rows, tuple)
        assert _class_words(2, 4) is _memo._STORE[(counted, 2, 4)][0]

    def test_ihara_series(self, monkeypatch, memos):
        graphs = {n: build_graph(n, [(a, b, 1.0) for a, b in edges], 1.0)
                  for n, edges in (TOPOLOGIES[name] for name in
                                   ("triangle", "k4", "petersen"))}
        # each graph looks its edge table up once, here, so that the sweep
        # keeps Ihara series alone
        for g in graphs.values():
            g._oriented
        memos()
        # 2 (degree + 1) coefficients each, with 2 ints per edge in the
        # key: from 42 entries (triangle, 1) to 88 (Petersen, 12); the
        # triangle at 30 takes 100, over the budget
        keys = [(n, degree) for n in graphs for degree in (1, 4, 8, 12)]
        keys.append((3, 30))
        self._sweep(monkeypatch, 95, spectra._ihara_series,
                    [(graphs[n].neighbors, degree) for n, degree in keys],
                    lambda key: self._series(graphs[len(key[0])], key),
                    SITE_COUNTS[spectra._ihara_series])
        for (based, det), _ in _memo._STORE.values():
            assert isinstance(based, tuple) and isinstance(det, tuple)
            assert all(isinstance(c, int) for c in based)

    @staticmethod
    def _series(g, key):
        assert ihara_check(g, key[1]).agree()
        # the value kept, or for a key over the budget the one it would be
        hit = _memo._STORE.get((spectra._ihara_series, *key))
        return hit[0] if hit else spectra._ihara_series(g, key[1])


class TestOneBudget:
    """Class words, Ihara series and enumeration plans swept past a small
    budget that they share."""

    BUDGET = 2000

    def test_least_recently_used_go_first(self, monkeypatch, memos):
        monkeypatch.setattr(_memo, "_BUDGET", self.BUDGET)
        triangle, k4 = _unit("triangle"), _unit("k4")
        calls = [_class_words_call(rank, max_len)
                 for rank in (1, 2, 3) for max_len in range(6)]
        # 2 (degree + 1) coefficients each; the plans of the triangle grow
        # with n_max, past the budget at 14
        calls += [_ihara_call(g, degree) for g in (triangle, k4)
                  for degree in (1, 4, 8)]
        calls += [_plan_call(triangle, n_max) for n_max in (3, 6, 10, 14)]
        random.Random(5).shuffle(calls)
        # (key, entries) of the values that the store should keep, least
        # recently used first: a value used moves to the end, a value built
        # is added there if it fits the budget, and then the least recently
        # used go until the rest fit; a value over the budget moves nothing
        model, over, kinds = [], set(), set()

        def use(at, entries):
            nonlocal model
            model = [m for m in model if m[0] != at]
            if entries <= self.BUDGET:
                model.append((at, entries))
            while sum(e for _, e in model) > self.BUDGET:
                model.pop(0)

        for build, key, args, size, call in calls * 2:
            at = (build, *key)
            hit = at in _memo._STORE
            g = args[0] if build is not freegroup._build_class_words else None
            # a graph looks its edge table up once, when its build, or the
            # weights after a plan hit, first read it
            table = g is not None and "_oriented" not in vars(g) and (
                build is soup._build_plan or not hit)
            call()
            entries = _memo._entries(key, size(build(*args)))
            if entries > self.BUDGET:
                over.add(at)
            used = [(at, entries)]
            if table:
                used.insert(len(used) if hit else 0, (
                    (_EDGE_TABLE, g.neighbors),
                    _memo._entries((g.neighbors,), _memo._count(g._oriented))))
            for u in used:
                use(*u)
            assert [(k, e) for k, (_, e) in _memo._STORE.items()] == model
            _check_held()
            kinds.add(frozenset(at[0] for at in _memo._STORE))
        assert {at[0] for at in over} == {freegroup._build_class_words,
                                           soup._build_plan}
        assert len(_memo._STORE) < len(calls) - len(over)
        assert any(len(k) == 4 for k in kinds)

    def test_random_sweep_keeps_a_running_total(self, monkeypatch, memos):
        monkeypatch.setattr(_memo, "_BUDGET", 1000)
        rng = random.Random(7)
        triangle = _unit("triangle")

        def word(rank, length):
            return tuple(rng.choice((1, -1)) * rng.randint(1, rank)
                         for _ in range(length))

        calls = [lambda: canonical_class(word(3, rng.randint(0, 12))),
                 lambda: bracket_expansion((1,) + (2,) * rng.randint(0, 5)),
                 lambda: _class_words(rng.randint(0, 2), rng.randint(0, 4)),
                 lambda: ihara_check(triangle, rng.randint(1, 200))]
        for _ in range(400):
            rng.choice(calls)()
            _check_held()
        assert len({at[0] for at in _memo._STORE}) > 1

    def test_lie_sweep_stays_within_budget(self, monkeypatch, memos):
        # Lyndon coordinates of every degree and the Dynkin map of the top
        # one at rank 4, degree 6; each whole Lyndon table is over budget
        rng = random.Random(11)
        words = [[rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(10)]
                 for _ in range(3)]

        def sweep():
            out = []
            for w in words:
                terms = log_signature(w, 6).terms
                for n in range(1, 7):
                    part = {u: c for u, c in terms.items() if len(u) == n}
                    out.append(lyndon_coordinates(part, 4, n))
                    _check_held()
                out.append(dynkin_map(part))
                _check_held()
            return out

        want = sweep()
        memos()
        monkeypatch.setattr(_memo, "_BUDGET", 1000)
        assert sweep() == want
        assert 0 < _memo._held <= 1000


class TestCount:
    """The store counts and freezes what it keeps itself: every kind of
    value counts what its site counted, and every array a memoized build
    returns, kept or not, is read-only."""

    def test_every_kind_counts_what_its_site_counted(self, memos):
        # one call of each memoized kind but the enumeration plan
        bowtie = _unit("bowtie")
        frame = spanning_tree_frame(bowtie)
        spectra._class_intensities(bowtie, frame, 3, solve_rho(bowtie, 0.7))
        contractible_intensity(bowtie)
        canonical_class((2, 1, -2, 1, 1))
        terms = log_signature([1, 2, -1, -2, 1], 3).terms
        lyndon_coordinates({u: c for u, c in terms.items() if len(u) == 3}, 2, 3)
        bracket_expansion((1, 1, 2))
        _class_words(2, 3)
        ihara_check(_unit("triangle"), 6)
        homology1_grid(bowtie, frame, 3)
        _holonomy_law(bowtie)
        homology2_intensity(bowtie, frame, [[0, 0], [0, 0]], 3)
        assert {at[0] for at in _memo._STORE} == set(SITE_COUNTS)
        for at, (value, entries) in _memo._STORE.items():
            assert entries == _memo._entries(at[1:], SITE_COUNTS[at[0]](value)), at[0]
        _check_held()

    def test_keys_count_by_the_value_rule(self, memos):
        # a twist plan kept under m = None: its key counts n, the edges,
        # omega, d and rank, and None counts 0
        triangle = _unit("triangle")
        omega = fourier._frame_letters(triangle, spanning_tree_frame(triangle))
        key = (3, triangle.edges, omega, 1, 1, None)
        plan = fourier._twist_plan(*key)
        at = (fourier._twist_plan.__wrapped__,) + key
        arrays = sum(a.size for a in vars(plan).values() if a is not None)
        assert _memo._STORE[at][1] == arrays + 1 + 6 + 3 + 1 + 1 + _memo._OVERHEAD

    @pytest.mark.parametrize("budget", [_memo._BUDGET, 0])
    def test_kept_and_over_budget_values_are_read_only(self, monkeypatch,
                                                       memos, budget):
        # under a budget of 0 no value is kept, and each is still frozen
        monkeypatch.setattr(_memo, "_BUDGET", budget)
        triangle = _unit("triangle")
        frame = spanning_tree_frame(triangle)
        omega = fourier._frame_letters(triangle, frame)
        twist = fourier._twist_plan(3, triangle.edges, omega, 1, 1, 3)
        table = _class_words(2, 3)
        blocks = fourier._heisenberg_blocks(3, 2, 0, 3)
        plan = _memo.memoized((triangle.neighbors, frame.cogenerators, 6),
                              soup._build_plan, triangle, frame, 6)
        # and the plan's edge table
        assert len(_memo._STORE) == (5 if budget else 0)
        arrays = [a for a in vars(twist).values() if a is not None]
        arrays += list(vars(triangle._oriented).values())
        arrays += list(table.words) + [plan.order, plan.number]
        arrays += [a for step in plan.steps for a in step[:3] + step[4:]]
        arrays += [a for _, owners, b in blocks for a in (owners, b)]
        assert len(arrays) > 20
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = 0


# Caches outside the store, each for a reason given in loopsoup._memo.
_LRU_CACHES = {"solve_rho", "_build_parser"}


def _package_trees():
    root = Path(loopsoup.__file__).parent
    for info in pkgutil.iter_modules([str(root)]):
        yield info.name, ast.parse((root / f"{info.name}.py").read_text())


# Constructors of the containers a side cache would start from.
_CONTAINERS = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}


def _mutable_container(value):
    """Whether an assigned value builds a mutable container: a dict, list
    or set display or comprehension, or a call of one of _CONTAINERS."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    head = value.func if isinstance(value, ast.Call) else None
    return getattr(head, "attr", getattr(head, "id", None)) in _CONTAINERS


def test_no_cache_outside_the_store():
    """No unbounded or stray cache comes back: the only functools caches
    are the two named ones, each with a maxsize, and no module but _memo
    keeps an OrderedDict or any other module-level mutable container
    ({}, dict(), set(), [] and the like)."""
    found = set()
    for module, tree in _package_trees():
        if module != "_memo":
            for node in tree.body:
                value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
                assert value is None or not _mutable_container(value), \
                    (module, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    call = dec if isinstance(dec, ast.Call) else None
                    head = call.func if call else dec
                    name = getattr(head, "attr", getattr(head, "id", None))
                    if name not in ("lru_cache", "cache"):
                        continue
                    found.add(node.name)
                    assert name == "lru_cache" and call, (module, node.name)
                    size = [kw.value for kw in call.keywords
                            if kw.arg == "maxsize"] + call.args[:1]
                    assert size and not (isinstance(size[0], ast.Constant)
                                         and size[0].value is None), \
                        (module, node.name)
            if module != "_memo":
                assert "OrderedDict" not in (getattr(node, "id", None),
                                             getattr(node, "attr", None)), module
    assert found == _LRU_CACHES
