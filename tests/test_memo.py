"""The memos of topology-only work: the class words behind `homotopy`, the
enumeration plans behind `enumerate` and the Ihara series behind `zeta`.

A call that hits a memo must print what a call made after clearing every
memo prints, byte for byte, on stdout and stderr, with the same exit code;
every budget is checked ahead of the memo; and each memo stays within its
entry budget, least recently used out first, with read-only values.
"""

import random
from collections import OrderedDict

import pytest

from loopsoup import build_graph, freegroup, soup, spectra
from loopsoup.cli import main
from loopsoup.freegroup import _geodesic_class_words
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
}


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
def memos(monkeypatch):
    """Fresh memos; returns the function that clears every one of them."""
    monkeypatch.setattr(soup, "_PLANS", OrderedDict())
    monkeypatch.setattr(freegroup, "_WORDS", OrderedDict())
    monkeypatch.setattr(spectra, "_IHARA", OrderedDict())

    def clear():
        for memo in (soup._PLANS, freegroup._WORDS, spectra._IHARA):
            memo.clear()
        spectra.solve_rho.cache_clear()
    return clear


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("name", list(TOPOLOGIES))
@pytest.mark.parametrize("verb", list(VERBS))
def test_warm_call_matches_cold(tmp_path, monkeypatch, capsys, memos, verb,
                                name):
    monkeypatch.chdir(tmp_path)
    memo = {"enumerate": soup._PLANS, "zeta": spectra._IHARA}.get(
        verb, freegroup._WORDS)
    paths = [_write(tmp_path, name, seed, unit=verb == "zeta")
             for seed in (1, 2)]

    def argv(path):
        return [verb.split("-")[0], path] + VERBS[verb](name)

    cold = []
    for path in paths:
        memos()
        cold.append(_run(capsys, argv(path)))
    # the memo now holds the topology's entry, built on the other weights
    held = list(memo)
    assert bool(held) == (cold[-1][2] == 0)
    for path, want in zip(paths, cold):
        assert _run(capsys, argv(path)) == want
    assert list(memo) == held


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
    assert (1, 4) in freegroup._WORDS and len(spectra._IHARA) == 1
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


class TestMemoBounds:
    """Modeled on TestEnumerationPlan.test_cache_holds_at_most_its_entries:
    a sweep of keys past a small budget."""

    def _sweep(self, memo, budget, keys, call, size):
        """Call every key, twice over; check the memo after each call. The
        keys whose value was over the budget."""
        recent, over = [], set()
        for key in keys * 2:
            held = list(memo)
            value = call(key)
            if size(value) <= budget:
                assert memo[key] is value
                recent = [k for k in recent if k != key] + [key]
            else:  # used once and not kept, and nothing else goes
                assert list(memo) == held
                over.add(key)
            assert sum(map(size, memo.values())) <= budget
            # the values kept are the most recently used ones, in order
            assert list(memo) == recent[len(recent) - len(memo):]
        assert over and len(memo) < len(keys) - len(over)
        return over

    def test_class_words(self, monkeypatch):
        monkeypatch.setattr(freegroup, "_WORDS", OrderedDict())
        monkeypatch.setattr(freegroup, "_WORD_ENTRIES", 2000)
        builds = []
        build = freegroup._build_class_words

        def counted(rank, max_len):
            builds.append((rank, max_len))
            return build(rank, max_len)

        monkeypatch.setattr(freegroup, "_build_class_words", counted)
        keys = [(rank, max_len) for rank in (1, 2, 3) for max_len in range(6)]
        over = self._sweep(
            freegroup._WORDS, 2000, keys,
            lambda key: freegroup._class_words(*key),
            lambda table: table.words.letters.size
            + 3 * table.words.lengths.size)
        # a table over the budget is built on every call
        assert all(builds.count(key) == 2 for key in over)
        for table in freegroup._WORDS.values():
            for a in table.words:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0
            assert isinstance(table.rows, tuple)
        assert _geodesic_class_words(2, 4) is freegroup._WORDS[(2, 4)].words

    def test_ihara_series(self, monkeypatch):
        monkeypatch.setattr(spectra, "_IHARA", OrderedDict())
        monkeypatch.setattr(spectra, "_IHARA_ENTRIES", 40)
        graphs = {n: build_graph(n, [(a, b, 1.0) for a, b in edges], 1.0)
                  for n, edges in (TOPOLOGIES[name] for name in
                                   ("triangle", "k4", "petersen"))}
        # 2 (degree + 1) coefficients each; the triangle at 30 is over
        keys = [(n, degree) for n in graphs for degree in (1, 4, 8, 12)]
        keys.append((3, 30))
        self._sweep(spectra._IHARA, 40,
                    [(graphs[n].neighbors, degree) for n, degree in keys],
                    lambda key: self._series(graphs[len(key[0])], key),
                    lambda value: len(value[0]) + len(value[1]))
        for based, det in spectra._IHARA.values():
            assert isinstance(based, tuple) and isinstance(det, tuple)
            assert all(isinstance(c, int) for c in based)

    @staticmethod
    def _series(g, key):
        assert ihara_check(g, key[1]).agree()
        # the value kept, or for a key over the budget the one it would be
        return spectra._IHARA.get(key) or spectra._ihara_series(g, key[1])
