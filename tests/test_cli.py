"""Command line front end: small graph files in, manifest plus CSV out."""

import hashlib
import importlib
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import loopsoup
from loopsoup import cli
from loopsoup import soup
from loopsoup.cli import main

from conftest import UNKILLED

TRIANGLE = """\
vertices 3
edge 0 1 1.0
edge 1 2 1.0
edge 0 2 1.0
kappa 0 1.0
kappa 1 1.0
kappa 2 1.0
"""

BOWTIE = """\
vertices 5
edge 0 1 1.0
edge 0 2 1.0
edge 1 2 1.0
edge 0 3 1.0
edge 0 4 1.0
edge 3 4 1.0
kappa 0 1.0
kappa 1 1.0
kappa 2 1.0
kappa 3 1.0
kappa 4 1.0
"""

ONE_VERTEX = """\
vertices 1
kappa 0 1
"""

TREE = """\
vertices 2
edge 0 1 1
kappa 0 1
"""

K4 = """\
vertices 4
edge 0 1 1.0
edge 0 2 1.0
edge 0 3 1.0
edge 1 2 1.0
edge 1 3 1.0
edge 2 3 1.0
kappa 0 1.0
kappa 1 1.0
kappa 2 1.0
kappa 3 1.0
"""

RANK4 = """\
vertices 5
edge 0 1 1.0
edge 0 2 1.0
edge 0 3 1.0
edge 1 2 1.0
edge 1 3 1.0
edge 2 3 1.0
edge 2 4 1.0
edge 3 4 1.0
kappa 0 1.0
kappa 1 1.0
kappa 2 1.0
kappa 3 1.0
kappa 4 1.0
"""


@pytest.fixture
def tri_path(tmp_path):
    p = tmp_path / "tri.graph"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def bow_path(tmp_path):
    p = tmp_path / "bow.graph"
    p.write_text(BOWTIE)
    return str(p)


@pytest.fixture
def k4_path(tmp_path):
    p = tmp_path / "k4.graph"
    p.write_text(K4)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_ok(self, capsys, tri_path):
        code, out = run_cli(capsys, "validate", tri_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# loopsoup validate version=")
        assert "vertices: 3" in out
        assert "rank: 1" in out
        assert "mass: 0.5232481437645478" in out

    def test_no_killing_reports_infinite(self, capsys, tmp_path):
        p = tmp_path / "free.graph"
        p.write_text("vertices 3\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
        code, out = run_cli(capsys, "validate", str(p))
        assert code == 0
        assert "mass: infinite (kappa == 0)" in out

    def test_bad_graph_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("vertices 2\nedge 0 5 1.0\n")
        code, _ = run_cli(capsys, "validate", str(p))
        assert code == 2

    def test_non_finite_weight_exits_2(self, capsys, tmp_path):
        for line in ("edge 0 1 inf", "edge 0 1 1.0\nkappa 0 nan"):
            p = tmp_path / "nonfinite.graph"
            p.write_text(f"vertices 2\n{line}\n")
            assert main(["validate", str(p)]) == 2
            assert "validation error" in capsys.readouterr().err

    def test_one_vertex_mass_is_zero(self, capsys, tmp_path):
        p = tmp_path / "one.graph"
        p.write_text(ONE_VERTEX)
        code, out = run_cli(capsys, "validate", str(p))
        assert code == 0
        assert "rank: 0" in out
        assert "mass: 0.0" in out.splitlines()

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "validate", str(tmp_path / "nope.graph"))
        assert code == 4

    def test_non_utf8_file_exits_4(self, tmp_path):
        path = tmp_path / "bin.graph"
        path.write_bytes(b"\xff\xfe\x00bad")
        r = subprocess.run([sys.executable, "-m", "loopsoup.cli", "validate", str(path)],
                           capture_output=True, text=True)
        assert r.returncode == 4 and r.stdout == ""
        assert r.stderr.startswith(f"config error: cannot read {path}: ")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [["validate"], ["enumerate", "--n-max", "4"],
                                      ["sample"], ["homotopy"], ["h1", "--h=1"]])
    def test_overflowing_total_rate_exits_2(self, capsys, tmp_path, argv):
        # lam(1) = 1e308 + 1e308 overflows; every verb refuses the graph
        path = tmp_path / "overflow.graph"
        path.write_text("vertices 3\nedge 0 1 1e308\nedge 1 2 1e308\nedge 0 2 1\n"
                        "kappa 0 1\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("validation error: vertex 1 has a total rate lam "
                                "that is not finite\n")

    def test_huge_vertex_count_refused_before_allocation(self, capsys, tmp_path):
        # 10^11 vertices need 10^11 - 1 edges to be connected; the two-line
        # file is refused before anything per vertex is allocated
        p = tmp_path / "huge.graph"
        p.write_text("vertices 100000000000\nkappa 0 1\n")
        t0 = time.perf_counter()
        code = main(["validate", str(p)])
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "validation error: graph is not connected\n"


class TestSample:
    def test_deterministic(self, capsys, tri_path):
        args = ("sample", tri_path, "--seed", "7",
                "--n-max", "42", "--tail-tol", "1e-7")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, capsys, tri_path):
        outs = set()
        for seed in range(6):
            _, out = run_cli(capsys, "sample", tri_path, "--seed", str(seed),
                             "--n-max", "42", "--tail-tol", "1e-7")
            outs.add(out)
        assert len(outs) > 1

    def test_occupation_csv(self, capsys, tri_path):
        code, out = run_cli(capsys, "sample", tri_path, "--seed", "7",
                            "--n-max", "42", "--tail-tol", "1e-7",
                            "--occupation")
        assert code == 0
        assert out.splitlines()[1] == "u,v,N,Ncheck"

    def test_negative_seed_exits_4(self, capsys, tri_path):
        # a tail that n_max 60 certifies, so that only the seed is bad
        code = main(["sample", tri_path, "--seed", "-1", "--n-max", "60"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "config error: seed must be >= 0\n"

    def test_tight_tail_exits_4(self, capsys, tri_path):
        code, _ = run_cli(capsys, "sample", tri_path, "--seed", "1",
                          "--n-max", "5", "--tail-tol", "1e-12")
        assert code == 4

    @pytest.mark.parametrize("alpha", ["1e15", "1e300"])
    def test_over_budget_exits_4(self, capsys, tri_path, alpha):
        code, out = run_cli(capsys, "sample", tri_path, "--alpha", alpha,
                            "--n-max", "60", "--tail-tol", "0.01")
        assert code == 4
        assert out == ""

    def test_powers_over_budget_exits_4(self, capsys, tri_path, monkeypatch):
        # a budget of 1000 entries admits the 111 powers of n_max 220 on
        # the triangle, 999 entries, but not the 112 of n_max 221
        monkeypatch.setattr(soup, "_SAMPLER_ENTRIES", 1000)
        for n_max, want in (("220", 0), ("221", 4)):
            code, _ = run_cli(capsys, "sample", tri_path, "--n-max", n_max,
                              "--tail-tol", "0.01")
            assert code == want

    def test_large_graph_refused_before_the_tail_bound(self, tmp_path):
        # the 100 x 100 torus: the sampler's 11 powers of 10^4 x 10^4 entries
        # are over its budget, refused before the tail bound's eigensolve of
        # a dense 10^4 x 10^4 matrix (800 MB)
        TestH1._torus(tmp_path / "torus.graph", 100)
        start = time.perf_counter()
        r = _run_measured(tmp_path, "sample", "torus.graph", "--n-max", "20")
        assert time.perf_counter() - start < 1.0
        assert (r.returncode, r.stdout) == (4, "")
        err, rss = r.stderr.splitlines()
        assert err == ("config error: the matrix powers up to n_max=20 on 10000 "
                       "vertices need more than 16777216 entries")
        assert int(rss) < 200 * 1024

    @pytest.mark.parametrize("flags", [("--alpha", "nan"), ("--alpha", "inf"),
                                       ("--tail-tol", "nan"), ("--tail-tol", "inf")])
    def test_non_finite_value_exits_4(self, capsys, tri_path, flags):
        # a tail the default n_max certifies, so that only the flag is bad
        code, out = run_cli(capsys, "sample", tri_path, "--n-max", "42",
                            "--tail-tol", "1e-7", *flags)
        assert code == 4
        assert out == ""


class TestUnkilled:
    """Without killing the walk is recurrent: no tail bound, so neither
    enumerate nor sample answers, whatever rounding makes of the spectral
    radius."""

    @pytest.mark.parametrize("name", list(UNKILLED))
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n-max", "4"],
        ["sample", "--n-max", "10", "--tail-tol", "1e20"]])
    def test_exits_3(self, capsys, tmp_path, name, argv):
        n, edges = UNKILLED[name]
        path = tmp_path / f"{name}.graph"
        path.write_text(f"vertices {n}\n"
                        + "".join(f"edge {u} {v} 1.0\n" for u, v in edges))
        assert main([argv[0], str(path)] + argv[1:]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: massless/recurrent chain")


class TestEnumerate:
    def test_header_and_trivial_row(self, capsys, tri_path):
        code, out = run_cli(capsys, "enumerate", tri_path, "--n-max", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "class,length,mult,intensity"
        assert any(l.startswith("e,0,1,") for l in lines)
        assert any(l.startswith("+1,1,1,") for l in lines)

    def test_manifest_records_tail(self, capsys, tri_path):
        _, out = run_cli(capsys, "enumerate", tri_path, "--n-max", "8")
        assert "tail=" in out.splitlines()[0]

    def test_plan_over_its_budget_exits_4(self, capsys, k4_path, monkeypatch):
        # the same path as a deep --n-max at the real budget, without its
        # memory: a config error line, and no traceback
        monkeypatch.setattr(soup, "_ENUMERATION_ENTRIES", 2 ** 12)
        assert main(["enumerate", k4_path, "--n-max", "22"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: enumerating loops up to n_max=22 on 4 vertices "
            "needs more than 4096 index entries"]

    def test_large_graph_refused_without_a_pair_table(self, tmp_path):
        # the 100 x 100 torus: the plan's hop distances come from its own
        # first steps, so no 10^4 x 10^4 table (800 MB) is built before the
        # budget refuses step 6
        TestH1._torus(tmp_path / "torus.graph", 100, kappa=0.05)
        r = _run_measured(tmp_path, "enumerate", "torus.graph", "--n-max", "6")
        assert (r.returncode, r.stdout) == (4, "")
        err, rss = r.stderr.splitlines()
        assert err == ("config error: enumerating loops up to n_max=6 on 10000 "
                       "vertices needs more than 16777216 index entries")
        assert int(rss) < 600 * 1024


class TestHomotopy:
    def test_rows(self, capsys, tri_path):
        code, out = run_cli(capsys, "homotopy", tri_path, "--max-len", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "class,length,mult,intensity"
        # trivial row, then +-1, then the squares with multiplicity 2
        assert lines[2].startswith("e,0,1,")
        body = "\n".join(lines)
        assert "+1 +1,2,2," in body

    def test_damped_skips_trivial_row(self, capsys, tri_path):
        _, out = run_cli(capsys, "homotopy", tri_path, "--max-len", "2",
                         "--s", "0.5")
        assert not any(l.startswith("e,") for l in out.splitlines())
        assert " trivial_err=None " in out.splitlines()[0]

    def test_manifest_records_certificates(self, capsys, tri_path):
        _, out = run_cli(capsys, "homotopy", tri_path, "--max-len", "1")
        fields = dict(kv.split("=", 1) for kv in out.splitlines()[0].split()[3:])
        assert 0.0 <= float(fields["trivial_err"]) < 1e-9
        assert int(fields["rho_iterations"]) >= 1

    def test_negative_max_len_exits_2(self, capsys, tri_path):
        code, out = run_cli(capsys, "homotopy", tri_path, "--max-len", "-1")
        assert code == 2
        assert out == ""
        code, out = run_cli(capsys, "homotopy", tri_path, "--max-len", "0")
        assert code == 0
        assert [l.split(",")[0] for l in out.splitlines()[2:]] == ["e"]

    def test_rows_equal_class_intensity(self, capsys, bow_path):
        code, out = run_cli(capsys, "homotopy", bow_path, "--max-len", "4",
                            "--s", "0.7")
        assert code == 0
        g = loopsoup.load_graph(bow_path)
        frame = loopsoup.spanning_tree_frame(g)
        rho = loopsoup.solve_rho(g, 0.7)
        want = [f"{loopsoup.format_word(c.word)},{c.length},{c.multiplicity},"
                f"{loopsoup.class_intensity(g, frame, c, rho=rho)!r}"
                for c in loopsoup.enumerate_geodesic_classes(frame.rank, 4)]
        assert out.splitlines()[2:] == want

    def test_max_len_over_the_letter_budget_exits_4(self, capsys, tri_path):
        # the reduced words of rank 1 up to length 1024 hold 1024 * 1025 >
        # 2^20 letters
        assert main(["homotopy", tri_path, "--max-len", "1024"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "up to length 1024" in captured.err

    def test_rank_zero_prints_trivial_row(self, capsys, tmp_path):
        p = tmp_path / "one.graph"
        p.write_text(ONE_VERTEX)
        code, out = run_cli(capsys, "homotopy", str(p))
        assert code == 0
        assert out.splitlines()[1:] == ["class,length,mult,intensity",
                                        "e,0,1,0.0"]

    def test_large_torus_without_a_dense_matrix(self, tmp_path):
        # the 100 x 100 torus, rank 10001: P on its 4 * 10^4 oriented edges
        # instead of a dense 10^4 x 10^4 matrix (800 MB)
        TestH1._torus(tmp_path / "torus.graph", 100)
        r = _run_measured(tmp_path, "homotopy", "torus.graph", "--max-len", "1")
        assert r.returncode == 0, r.stderr
        assert int(r.stderr.split()[-1]) < 200 * 1024
        assert len(r.stdout.splitlines()) == 3 + 2 * 10001
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "6e805e10bc9d65266a5bef2175ba8992a6d8bdb70ef0149f341fd64e2599bfa4")


def _fuzz_graph(rng: random.Random) -> str:
    """A random graph file of 1-6 vertices: a random tree, so pendant
    vertices are common, plus up to four extra edges; no killing, killing
    everywhere or killing at some vertices, each rate possibly 0;
    and in three files of ten one bad line: a non-finite, negative or zero
    value, a malformed line or an invalid edge."""
    n = rng.randint(1, 6)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 4) if n > 1 else 0):
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    lines = [f"vertices {n}"]
    lines += [f"edge {u} {v} {rng.uniform(0.1, 3.0):.6g}" for u, v in sorted(pairs)]
    killed = rng.choice(["none", "all", "some"])
    for x in range(n):
        if killed == "all" or (killed == "some" and rng.random() < 0.5):
            rate = rng.choice([rng.uniform(0.01, 2.0), 0.0])
            lines.append(f"kappa {x} {rate:.6g}")
    if rng.random() < 0.3:
        bad = rng.choice(["edge 0 1 inf", "edge 0 1 nan", "edge 0 1 0",
                          "kappa 0 inf", "kappa 0 nan", "kappa 0 -0.5",
                          "edge 0", "kappa", "vertices 2", "loop 0 1",
                          "edge 0 0 1", f"kappa {n} 1"])
        lines.insert(rng.randint(1, len(lines)), bad)
    return "\n".join(lines) + "\n"


class TestFuzz:
    def test_exit_codes_are_documented(self, capsys, tmp_path):
        # seeded, standard library only; each graph gets its own file, since
        # rewriting one file costs a truncation on some file systems
        rng = random.Random(20261018)
        codes = set()
        for i in range(60):
            text = _fuzz_graph(rng)
            path = tmp_path / f"fuzz{i}.graph"
            path.write_text(text)
            for argv in (["validate"], ["homotopy", "--max-len", "2"],
                         ["homotopy", "--max-len", "5000"],
                         ["enumerate", "--n-max", "6"],
                         ["homotopy", "--max-len", "-1"],
                         ["h1", "--h-range", "-1"], ["h2", "--p", "3", "--field"],
                         ["h1", "--field", "--alpha", "nan"], ["h1", "--M", "100000"],
                         ["sample", "--tail-tol", "nan"],
                         ["sample", "--alpha", "1e15", "--n-max", "60",
                          "--tail-tol", "0.01"],
                         ["sample", "--alpha", "1e300", "--n-max", "60",
                          "--tail-tol", "0.01"]):
                try:
                    code = main([argv[0], str(path)] + argv[1:])
                except Exception as exc:  # noqa: BLE001 - what the test looks for
                    pytest.fail(f"{argv[0]} raised {exc!r} on\n{text}")
                assert code in (0, 2, 3, 4), f"{argv[0]} exited {code} on\n{text}"
                codes.add(code)
            capsys.readouterr()
        assert {0, 2, 3} <= codes


class TestH1:
    def test_range_output(self, capsys, tri_path):
        code, out = run_cli(capsys, "h1", tri_path, "--h-range", "2",
                            "--M", "64")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "h1,intensity"
        assert [l.split(",")[0] for l in lines[2:]] == \
            ["-2", "-1", "0", "1", "2"]

    def test_field_mode(self, capsys, tri_path):
        code, out = run_cli(capsys, "h1", tri_path, "--field", "--h", "0",
                            "--M", "64", "--alpha", "1.0")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "h1,probability"
        val = float(lines[2].split(",")[1])
        assert val == pytest.approx(0.8944271909999157, abs=1e-8)

    def test_mod_output(self, capsys, tri_path):
        code, out = run_cli(capsys, "h1", tri_path, "--h", "0", "--mod", "3")
        assert code == 0
        assert out.splitlines()[1] == "h1,intensity"

    def test_rank2_rows(self, capsys, bow_path):
        code, out = run_cli(capsys, "h1", bow_path, "--h-range", "1",
                            "--M", "32")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "h1,h2,intensity"
        assert len(lines) == 2 + 9

    def test_field_rows_stay_in_the_unit_interval(self, capsys, bow_path):
        # the far windings of the unit bowtie are rounding noise around 0:
        # on the 32-grid the unclamped inversion has entries below 0
        g = loopsoup.load_graph(bow_path)
        grid = -loopsoup.homology1_grid(g, loopsoup.spanning_tree_frame(g), 32)
        assert (np.fft.fftn(np.exp(grid - grid.flat[0])).real / grid.size).min() < 0
        code, out = run_cli(capsys, "h1", bow_path, "--field", "--h-range", "15",
                            "--M", "32")
        assert code == 0
        probs = [float(row.split(",")[2]) for row in out.splitlines()[2:]]
        assert len(probs) == 31 ** 2
        assert min(probs) >= 0.0 and max(probs) <= 1.0
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_negative_range_exits_4(self, capsys, tri_path):
        code, out = run_cli(capsys, "h1", tri_path, "--h-range", "-1")
        assert code == 4
        assert out == ""

    def test_unkilled_graph_exits_3(self, capsys, tmp_path):
        p = tmp_path / "free.graph"
        p.write_text("vertices 3\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
        code, _ = run_cli(capsys, "h1", str(p), "--h", "0")
        assert code == 3

    def test_field_mod_reads_the_mod_grid(self, capsys, tri_path):
        # --mod p is the p-point grid for the field law too: the law of
        # the winding mod 3, not the exact P(W = 0) = 0.8944271909999155
        code, out = run_cli(capsys, "h1", tri_path, "--field", "--mod", "3",
                            "--h", "0")
        assert code == 0
        assert out.splitlines()[2] == "0,0.894736842105263"
        _, grid3 = run_cli(capsys, "h1", tri_path, "--field", "--M", "3",
                           "--h", "0")
        assert out.splitlines()[2] == grid3.splitlines()[2]

    def test_mod_with_grid_size_exits_4(self, capsys, tri_path):
        code, _ = run_cli(capsys, "h1", tri_path, "--mod", "3", "--M", "64",
                          "--h", "0")
        assert code == 4

    @pytest.mark.parametrize("flags", [(), ("--field", "--alpha", "2.0")])
    def test_automatic_manifest_records_the_certificate(self, capsys, tri_path,
                                                        flags):
        code, out = run_cli(capsys, "h1", tri_path, "--h", "1", *flags)
        assert code == 0
        fields = dict(f.split("=", 1) for f in out.splitlines()[0].split()[3:])
        assert fields["M"] == "16"
        assert 0 < float(fields["alias_bound"]) <= 1e-12
        _, explicit = run_cli(capsys, "h1", tri_path, "--h", "1", "--M", "16", *flags)
        assert "alias_bound" not in explicit
        assert out.splitlines()[1:] == explicit.splitlines()[1:]

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_bad_alpha_exits_2_on_every_rank(self, capsys, tri_path, tmp_path, alpha):
        tree = tmp_path / "tree.graph"
        tree.write_text(TREE)
        for path in (tri_path, str(tree)):
            for field in (("--field",), ()):
                code, out = run_cli(capsys, "h1", path, *field, "--alpha", alpha)
                assert (code, out) == (2, "")

    def test_intensity_is_alpha_times_the_mass(self, capsys, bow_path, tmp_path):
        # every row at alpha 0.5 is exactly half the row at alpha 1, on a
        # grid and on a tree, where the one row is the total mass
        tree = tmp_path / "tree.graph"
        tree.write_text(TREE)
        for argv in ((bow_path, "--h-range", "1", "--M", "16"),
                     (bow_path, "--h=1,0", "--M", "16"), (str(tree), "--h-range", "0")):
            rows = {}
            for alpha in ("1", "0.5"):
                code, out = run_cli(capsys, "h1", *argv, "--alpha", alpha)
                assert code == 0 and f" alpha={float(alpha)}" in out.splitlines()[0]
                rows[alpha] = [l.split(",") for l in out.splitlines()[2:]]
            assert len(rows["1"]) == len(rows["0.5"]) > 0
            for one, half in zip(rows["1"], rows["0.5"]):
                assert one[:-1] == half[:-1]
                assert float(half[-1]) == 0.5 * float(one[-1]) > 0

    @pytest.mark.parametrize("argv", [
        ("h1", "k4", "--h=0,0,0", "--M", "100000"),
        ("h1", "tri", "--M", "70000"),
        ("h2", "k4", "--p", "3", "--field", "--M", "100000")])
    def test_grid_over_the_point_budget_exits_4(self, capsys, tri_path, k4_path, argv):
        path = {"k4": k4_path, "tri": tri_path}[argv[1]]
        code = main([argv[0], path, *argv[2:]])
        assert code == 4
        assert "over the budget of 65536 points" in capsys.readouterr().err

    def test_grid_budget_message_names_the_points(self, capsys, tmp_path, bow_path):
        # an explicit grid names the count it compares: the M^r points of
        # the grid, or the block points of the H2 twists where those are more
        rank4 = tmp_path / "rank4.graph"
        rank4.write_text(RANK4)
        for argv, need in (
                (("h1", bow_path, "--M", "300"), "300^2 grid points"),
                (("h2", str(rank4), "--p", "3", "--field", "--M", "16"),
                 "36295749 Schrodinger block points")):
            assert main(list(argv)) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"config error: grid size M={argv[-1]}: {need}, over the budget "
                "of 65536 points"]

    def test_near_critical_names_the_certified_size(self, capsys, tmp_path):
        p = tmp_path / "critical.graph"
        p.write_text("vertices 3\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n"
                     "kappa 0 1e-9\n")
        code = main(["h1", str(p), "--h", "1"])
        assert code == 3
        assert "M=1048576" in capsys.readouterr().err

    @staticmethod
    def _torus(path, side, kappa=0.3):
        """The side x side torus, unit conductances, killing kappa (0.3)
        everywhere: rank side^2 + 1."""
        lines = [f"vertices {side * side}"]
        for i in range(side):
            for j in range(side):
                a = i * side + j
                for b in (i * side + (j + 1) % side, (i + 1) % side * side + j):
                    lines.append(f"edge {min(a, b)} {max(a, b)} 1.0")
        lines += [f"kappa {x} {kappa}" for x in range(side * side)]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("side", [4, 10])
    @pytest.mark.parametrize("verb", ["h1", "h2"])
    def test_high_rank_refused_before_any_factorization(self, capsys, tmp_path,
                                                        monkeypatch, side, verb):
        # the 3^r points of the Laurent coefficients and the smallest
        # automatic grid are both over the budget: refused at once, exit 3;
        # the H2 field law checks p's Schrodinger blocks first, and exits 4
        path = self._torus(tmp_path / "torus.graph", side)
        r = side * side + 1
        argv = (["h1", path, "--h=" + ",".join(["1"] + ["0"] * (r - 1))] if verb == "h1"
                else ["h2", path, "--p", "3", "--field",
                      "--m=" + ",".join(["0"] * (r * (r - 1) // 2))])
        factorized = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: factorized.append(len(a)) or cholesky(a))
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out, factorized) == (3 if verb == "h1" else 4, "", [])
        assert elapsed < 1.0
        [line] = captured.err.splitlines()
        assert line == (
            f"numeric error: an aliasing bound of 1e-12 at rank {r} needs 3^{r} Laurent "
            "points, over the budget of 65536 points") if verb == "h1" else re.fullmatch(
            rf"config error: p=3: \d\.\de\+\d+ Schrodinger blocks at rank {r}, over "
            "the budget of 65536 points", line)

    @pytest.mark.parametrize("graph, reach, r, least", [("bow", 2000, 2, 4096),
                                                         ("k4", 60, 3, 128)])
    def test_range_refused_before_its_rows(self, capsys, bow_path, k4_path,
                                           graph, reach, r, least):
        # the (2R+1)^r rows are listed only after the grid policy has run
        # on reach R: refused at once, with the message of the last row
        path = {"bow": bow_path, "k4": k4_path}[graph]
        start = time.perf_counter()
        code = main(["h1", path, "--h-range", str(reach)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.splitlines() == [
            f"numeric error: an aliasing bound of 1e-12 at rank {r} needs grid size "
            f"M={least} or more, over the budget of 65536 points"]

    @pytest.mark.parametrize("reach, rows", [(60, "1771561"), (10 ** 20, "8.0e+60")])
    @pytest.mark.parametrize("flag", ["--M", "--mod"])
    def test_range_rows_over_the_budget_exit_4(self, capsys, k4_path, flag, reach, rows):
        # a given grid of 4^3 points passes, but its (2R+1)^3 rows do not:
        # refused at once, before any row is listed
        start = time.perf_counter()
        code = main(["h1", k4_path, "--h-range", str(reach), flag, "4"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.splitlines() == [
            f"config error: --h-range {reach}: {rows} rows at rank 3, over the budget of "
            "65536 rows"]

    def test_range_rows_inside_the_budget_keep_their_bytes(self, capsys, tmp_path,
                                                           monkeypatch):
        # 7^3 rows of the 4-grid law (digest computed before the row budget)
        (tmp_path / "k4.graph").write_text(K4)
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, "h1", "k4.graph", "--h-range", "3", "--M", "4")
        assert code == 0 and len(out.splitlines()) == 2 + 7 ** 3
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "57897881546e71e5414c529249493ca422b2250c9233225475f47527b7c6a34b")

    def test_winding_past_every_grid_exits_3(self, capsys, tri_path):
        # no power of two up to 2^62 exceeds 2 |h|: refused, not a traceback
        code = main(["h1", tri_path, "--h", str(2 ** 62)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.splitlines() == [
            f"numeric error: an aliasing bound of 1e-12 at rank 1 needs grid size "
            f"M={2 ** 64} or more, over the budget of 65536 points"]

    def test_rank_10_keeps_its_exit_and_message(self, capsys, tmp_path):
        # K6: its 3^10 Laurent points fit the budget, but no grid of M >= 4
        # points per generator does
        p = tmp_path / "k6.graph"
        p.write_text("vertices 6\n" + "".join(
            f"edge {a} {b} 1.0\n" for a in range(6) for b in range(a + 1, 6))
            + "".join(f"kappa {x} 1.0\n" for x in range(6)))
        code = main(["h1", str(p), "--h=" + ",".join(["1"] + ["0"] * 9)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [
            "numeric error: an aliasing bound of 1e-12 at rank 10 needs grid size M=4 "
            "or more, over the budget of 65536 points"]

    @pytest.mark.parametrize("flags", [
        (), ("--M", "32"), ("--mod", "3"), ("--field",),
        ("--field", "--M", "16", "--alpha", "0.7")])
    def test_rows_match_single_rows(self, capsys, bow_path, flags):
        # one invocation indexes one law for all its rows; every row must
        # still equal the row computed on its own, automatic M included
        for reach in (1, 2):
            code, out = run_cli(capsys, "h1", bow_path, "--h-range", str(reach), *flags)
            assert code == 0
            rows = out.splitlines()[2:]
            assert len(rows) == (2 * reach + 1) ** 2
            for row in rows:
                h = ",".join(row.split(",")[:2])
                code, single = run_cli(capsys, "h1", bow_path, f"--h={h}", *flags)
                assert code == 0
                assert single.splitlines()[2] == row


class TestH2:
    @pytest.mark.parametrize("p, code", [("4294967311", 2), ("99999999999999999989", 2),
                                         ("4294967291", 4)])
    def test_huge_prime_answered_at_once(self, capsys, tri_path, p, code):
        # a prime p must be below 2^32, checked before the trial division;
        # the largest such prime passes it and meets the block budget
        t0 = time.perf_counter()
        assert main(["h2", tri_path, "--p", p]) == code
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err == (f"validation error: p must be below 2^32, got {p}\n" if code == 2
                       else f"config error: p={p}: 4294967291 Schrodinger blocks at "
                            f"rank 1, over the budget of 65536 points\n")

    def test_intensity_rows(self, capsys, bow_path):
        code, out = run_cli(capsys, "h2", bow_path, "--p", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "m,p,intensity"
        assert len(lines) == 2 + 5
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "5"
        assert float(first[2]) == pytest.approx(0.5948035524932918, abs=1e-9)

    def test_field_rows_sum_to_one(self, capsys, bow_path):
        code, out = run_cli(capsys, "h2", bow_path, "--p", "5", "--field")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "m,p,probability"
        tot = sum(float(l.split(",")[2]) for l in lines[2:])
        assert tot == pytest.approx(1.0, abs=1e-8)

    def test_automatic_manifest_records_the_certificate(self, capsys, bow_path):
        code, out = run_cli(capsys, "h2", bow_path, "--p", "5", "--field")
        assert code == 0
        fields = dict(f.split("=", 1) for f in out.splitlines()[0].split()[3:])
        assert fields["M"] == "16"
        assert 0 < float(fields["alias_bound"]) <= 1e-12
        _, explicit = run_cli(capsys, "h2", bow_path, "--p", "5", "--field", "--M", "16")
        assert "alias_bound" not in explicit and " M=16" in explicit.splitlines()[0]
        assert out.splitlines()[1:] == explicit.splitlines()[1:]
        _, intensity = run_cli(capsys, "h2", bow_path, "--p", "5")
        assert " M=None" in intensity.splitlines()[0] and "alias_bound" not in intensity

    def test_intensity_records_no_grid(self, capsys, bow_path):
        # the intensity needs no grid, so a given --M is recorded as None
        _, plain = run_cli(capsys, "h2", bow_path, "--p", "3", "--m=1")
        code, given = run_cli(capsys, "h2", bow_path, "--p", "3", "--m=1", "--M", "16")
        assert code == 0
        assert " M=None" in given.splitlines()[0] and "alias_bound" not in given
        assert given == plain
        assert given.splitlines()[2] == "1,3,1.9025350730024944e-06"

    @pytest.mark.parametrize("grid", ["0", "-5"])
    @pytest.mark.parametrize("flags", [("--m=1",), ("--field",)])
    def test_bad_grid_size_exits_2(self, capsys, bow_path, flags, grid):
        # checked as h1 checks it, though the intensity uses no grid
        code = main(["h2", bow_path, "--p", "3", *flags, "--M", grid])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            "validation error: grid size must be >= 2"]

    @pytest.mark.parametrize("flags", [("--alpha", "nan"), ("--alpha", "inf"),
                                       ("--field", "--alpha", "nan")])
    def test_non_finite_alpha_exits_2(self, capsys, bow_path, flags):
        code, out = run_cli(capsys, "h2", bow_path, "--p", "5", *flags)
        assert (code, out) == (2, "")

    def test_block_points_over_the_budget(self, capsys, tmp_path):
        # rank 4, p = 3: the certified M = 16, or an explicit one, would
        # factorize 468 Schrodinger blocks of size 9 at all 16^4 points
        p = tmp_path / "rank4.graph"
        p.write_text(RANK4)
        for flags, want in ((("--field",), 3), (("--field", "--M", "16"), 4)):
            assert main(["h2", str(p), "--p", "3", *flags]) == want
            assert "over the budget of 65536 points" in capsys.readouterr().err

    def test_blocks_over_the_budget_exit_4(self, capsys, k4_path):
        # K4 at p = 17 splits its twists into 88 417 Schrodinger blocks,
        # refused before a row or a block is built: the intensity and the
        # field law, with and without --m
        for flags in ((), ("--m", "0,0,0"), ("--field",), ("--field", "--m", "0,0,0")):
            assert main(["h2", k4_path, "--p", "17", *flags]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "config error: p=17: 88417 Schrodinger blocks at rank 3, over "
                "the budget of 65536 points"]

    @pytest.mark.parametrize("flags", [("--p", "3"), ("--p", "3", "--field"),
                                       ("--p", "11")])
    def test_high_rank_block_count_is_short(self, capsys, tmp_path, flags):
        # the 10 x 10 torus, rank 101: the block count has thousands of
        # digits (past Python's limit for printing an int at p = 11), so the
        # message gives two significant digits
        path = TestH1._torus(tmp_path / "torus.graph", 10)
        assert main(["h2", path, *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert len(line) < 200
        assert line.startswith(f"config error: p={flags[1]}: ")
        assert line.endswith(" Schrodinger blocks at rank 101, over the budget of "
                             "65536 points")
        assert "e+2410 " in line if flags[1] == "3" else "e+5260 " in line

    def test_field_with_m_keeps_its_grid_budget(self, capsys, k4_path):
        # with --m the field law checks the count of m's entries first, then
        # M >= 2 (both at p = 17), then, inside the blocks' budget (p = 3),
        # its own grid budget: 41^3 grid points
        for p, flags, want in (("17", ("--m", "0,0"), 4),
                               ("3", ("--m", "0,0,0", "--M", "41"), 4),
                               ("17", ("--m", "0,0,0", "--M", "1"), 2)):
            assert main(["h2", k4_path, "--p", p, "--field", *flags]) == want
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Schrodinger blocks" not in captured.err

    @pytest.mark.parametrize("flags", [(), ("--field",)])
    def test_unkilled_graph_exits_3(self, capsys, tmp_path, flags):
        p = tmp_path / "free.graph"
        p.write_text("".join(line + "\n" for line in BOWTIE.splitlines()
                             if not line.startswith("kappa")))
        assert main(["h2", str(p), "--p", "3", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: massless/recurrent twist")
        assert "Traceback" not in captured.err

    def test_composite_p_exits_2(self, capsys, bow_path):
        code, _ = run_cli(capsys, "h2", bow_path, "--p", "6")
        assert code == 2

    def test_rank_zero_is_the_whole_mass(self, capsys, tmp_path):
        # a tree has no skew pairs: one row with an empty m, holding alpha
        # times the total mass log 2, and a field that is 0 for certain
        p = tmp_path / "tree.graph"
        p.write_text(TREE)
        code, out = run_cli(capsys, "h2", str(p), "--p", "3", "--alpha", "0.5")
        assert code == 0
        m, prime, val = out.splitlines()[2].split(",")
        assert (m, prime) == ("", "3")
        assert float(val) == pytest.approx(0.5 * math.log(2), rel=1e-14)
        code, out = run_cli(capsys, "h2", str(p), "--p", "3", "--field")
        assert code == 0
        assert out.splitlines()[1:] == ["m,p,probability", ",3,1.0"]


class TestZeta:
    def test_k4(self, capsys, k4_path):
        code, out = run_cli(capsys, "zeta", k4_path, "--max-degree", "8")
        assert code == 0
        lines = out.splitlines()
        assert "agree=True" in lines[0]
        assert lines[1] == "degree,lhs,rhs,diff"
        assert lines[2 + 3] == "3,8,8,0"
        for l in lines[2:]:
            assert l.split(",")[3] == "0"

    def test_irregular_exits_2(self, capsys, bow_path):
        code, _ = run_cli(capsys, "zeta", bow_path, "--max-degree", "4")
        assert code == 2

    def test_deep_series_exits_4(self, capsys, k4_path):
        # the non-backtracking walks of K4 up to length 40 would take
        # 12 (39 * 2^40 + 1) steps; the budget refuses them before any walk
        assert main(["zeta", k4_path, "--max-degree", "40"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: the geodesic loops up to length 40")

    @pytest.mark.parametrize("edges", ["edge 0 1 1.0\n", ""])
    def test_deep_series_without_walks_exits_4(self, capsys, tmp_path, edges):
        # on K2 and K1 the walks die out at once, but the determinant series
        # still takes max_degree steps of its recursion: refused, not computed
        path = tmp_path / "k.graph"
        path.write_text(f"vertices {1 + bool(edges)}\n{edges}kappa 0 1.0\n")
        start = time.perf_counter()
        assert main(["zeta", str(path), "--max-degree", "100000000"]) == 4
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: the determinant series up to "
                              "degree 100000000 needs more than")
        assert main(["zeta", str(path), "--max-degree", "2000"]) == 0

    def test_large_torus_exits_4_before_any_matrix(self, capsys, tmp_path):
        # the 100 x 100 torus passes the walk budget at degree 2 (280000
        # steps), but the determinant series would fill 10^4 x 10^4 matrices
        path = TestH1._torus(tmp_path / "torus.graph", 100)
        start = time.perf_counter()
        assert main(["zeta", path, "--max-degree", "2"]) == 4
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: the determinant series up to "
                              "degree 2 needs more than")
        assert len(err.splitlines()) == 1


class TestSignatureCmd:
    def test_commutator(self, capsys):
        code, out = run_cli(capsys, "signature", "--word", "+1 +2 -1 -2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "lyndon_word,coordinate"
        assert lines[2] == "1 2,1"

    def test_identity_word_exits_2(self, capsys):
        code, _ = run_cli(capsys, "signature", "--word", "+1 -1")
        assert code == 2

    def test_malformed_word_exits_2(self, capsys):
        code, _ = run_cli(capsys, "signature", "--word", "abc")
        assert code == 2

    def test_degree_cap_below_one_exits_2(self, capsys):
        code, _ = run_cli(capsys, "signature", "--word", "+1", "--max-degree", "0")
        assert code == 2


class TestArgHandling:
    def test_unknown_command_exits_4(self, capsys):
        assert main(["frobnicate"]) == 4

    def test_no_args_exits_4(self, capsys):
        assert main([]) == 4

    def test_out_flag_writes_file(self, tmp_path, capsys, tri_path):
        dest = tmp_path / "out.csv"
        code, out = run_cli(capsys, "h1", tri_path, "--h", "0", "--M", "32",
                            "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().splitlines()[1] == "h1,intensity"

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_out_flag_unwritable_exits_4(self, tmp_path, capsys, tri_path, where):
        # a missing parent directory, or a directory as the path: one
        # config error line, as for an unreadable graph, not a traceback
        dest = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
        code = main(["validate", tri_path, "--out", str(dest)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        [line] = captured.err.splitlines()
        assert line.startswith(f"config error: cannot write {dest}: ")

    def test_repeated_calls_share_no_values(self, capsys, tmp_path, tri_path):
        # the parser is built once per process: no flag of one call may carry
        # over into the next, and each call equals a call on a fresh parser
        free = tmp_path / "free.graph"
        free.write_text("vertices 3\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
        h1 = ("h1", tri_path, "--h", "0", "--M", "64")
        sample = ("sample", tri_path, "--seed", "4", "--alpha", "4",
                  "--n-max", "42", "--tail-tol", "1e-7")
        calls = [(h1 + ("--field", "--alpha", "0.5"), 0), (h1, 0),
                 (sample + ("--occupation",), 0), (sample, 0),
                 (("validate", str(tmp_path / "nope.graph")), 4),
                 (("h1", str(free), "--h", "0"), 3),
                 (("signature", "--word", "+1 -1"), 2), (h1, 0)]
        outs = [run_cli(capsys, *argv) for argv, _ in calls]
        assert [code for code, _ in outs] == [code for _, code in calls]
        assert "field=True alpha=0.5" in outs[0][1].splitlines()[0]
        assert "field=False alpha=1.0" in outs[1][1].splitlines()[0]
        assert outs[1][1].splitlines()[1] == "h1,intensity"
        assert outs[2][1].splitlines()[1] == "u,v,N,Ncheck"
        assert "occupation=False" in outs[3][1].splitlines()[0]
        assert outs[3][1].splitlines()[1] != "u,v,N,Ncheck"
        assert outs[7] == outs[1]
        for (argv, _), out in zip(calls, outs):
            cli._build_parser.cache_clear()
            assert run_cli(capsys, *argv) == out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _package_env():
    """The environment with the imported package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(loopsoup.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    return env


def _run_measured(cwd, *argv):
    """The CLI on argv, run in cwd by a child of a fresh process, which
    then reports the child's peak RSS in kB as the last line of stderr."""
    measure = ("import resource, subprocess, sys; "
               "code = subprocess.run([sys.executable, '-m', 'loopsoup.cli', "
               "*sys.argv[1:]]).returncode; "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, "
               "file=sys.stderr); sys.exit(code)")
    return subprocess.run([sys.executable, "-c", measure, *argv], capture_output=True,
                          text=True, env=_package_env(), cwd=cwd)


def install_console_script(name, bin_dir):
    """Write the console script `name` declared in pyproject.toml.

    Does what an installer does with a `[project.scripts]` entry
    `name = "module:attr"`: checks that the target imports and is
    callable, then writes an executable wrapper into `bin_dir` that
    calls it.  Returns an environment that runs the wrapper from PATH
    against the imported package.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        spec = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = spec.partition(":")
    assert callable(getattr(importlib.import_module(module), attr)), spec

    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    script.chmod(0o755)

    env = _package_env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    return env


class TestConsoleScript:
    def test_installed_entry_point(self, tri_path, tmp_path):
        # byte-identical across runs through the real console script,
        # built from the checkout's pyproject.toml as an installer would;
        # the seed and alpha draw a non-empty soup, so loop rows are compared
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        env = install_console_script("loopsoup", bin_dir)
        cmd = ["loopsoup", "sample", tri_path, "--seed", "4", "--alpha", "4",
               "--n-max", "42", "--tail-tol", "1e-7"]
        r1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
        r2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert len(r1.stdout.splitlines()) > 1

    @staticmethod
    def _fresh_main(argv, cwd):
        """main(argv) in a fresh interpreter run in cwd: (exit code,
        stdout, the scipy modules it loaded)."""
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys; from loopsoup.cli import main; code = main(sys.argv[1:]); "
             "sys.stderr.write(' '.join(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))); sys.exit(code)", *argv],
            capture_output=True, text=True, env=_package_env(), cwd=cwd)
        return r.returncode, r.stdout, r.stderr.split()

    @pytest.mark.parametrize("argv", [
        ("validate", "bow.graph"),
        ("sample", "tri.graph", "--seed", "4", "--alpha", "4", "--n-max", "42",
         "--tail-tol", "1e-7"),
        ("h1", "bow.graph", "--h-range", "1"),
        ("h2", "bow.graph", "--p", "3"),
        ("zeta", "tri.graph"),
        ("signature", "--word", "+1 -2 +1 +2"),
        ("homotopy", "bow.graph"),
        # the plan prunes with hop distances from its own first steps
        pytest.param(("enumerate", "bow.graph", "--n-max", "6"), id="enumerate-bowtie"),
        pytest.param(("enumerate", "k4.graph", "--n-max", "6"), id="enumerate-k4")],
        ids=lambda argv: argv[0])
    def test_cli_leaves_out_scipy(self, tmp_path, argv):
        # scipy is imported only by a sparse factorization, the Newton step
        # of a rho solve above the dense limit. Importing it would take over
        # half the start-up of the CLI
        (tmp_path / "tri.graph").write_text(TRIANGLE)
        (tmp_path / "bow.graph").write_text(BOWTIE)
        (tmp_path / "k4.graph").write_text(K4)
        code, out, scipy = self._fresh_main(argv, tmp_path)
        assert code == 0, scipy
        assert out.startswith(f"# loopsoup {argv[0]} ")
        assert scipy == []

    def test_small_newton_step_leaves_out_scipy(self, capsys, tmp_path,
                                                monkeypatch):
        # the triangle killed at one vertex only: its sweeps stop halving,
        # so the solve takes Newton steps, which factorize its 6 unknowns
        # densely with no scipy loaded, and print the same bytes as in a
        # process that has it loaded
        (tmp_path / "newton.graph").write_text(
            "vertices 3\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\nkappa 0 0.1\n")
        argv = ["homotopy", "newton.graph"]
        code, out, scipy = self._fresh_main(argv, tmp_path)
        assert code == 0
        assert scipy == []
        assert " rho_iterations=8" in out.splitlines()[0]
        monkeypatch.chdir(tmp_path)
        importlib.import_module("scipy.sparse.linalg")
        assert run_cli(capsys, *argv) == (0, out)

    def test_newton_step_loads_scipy(self, capsys, tmp_path, monkeypatch):
        # the prism C_40 x K_2 without killing: 240 unknowns, above the
        # dense limit, so its Newton steps import scipy for one sparse LU on
        # first use and print the same bytes as in a process that has it
        # loaded
        n = 40
        edges = ([(i, (i + 1) % n) for i in range(n)]
                 + [(n + i, n + (i + 1) % n) for i in range(n)]
                 + [(i, n + i) for i in range(n)])
        (tmp_path / "prism.graph").write_text(f"vertices {2 * n}\n" + "".join(
            f"edge {u} {v} 1.0\n" for u, v in edges))
        argv = ["homotopy", "prism.graph", "--max-len", "1"]
        code, out, scipy = self._fresh_main(argv, tmp_path)
        assert code == 0
        assert "scipy.sparse.linalg" in scipy
        assert " rho_iterations=8" in out.splitlines()[0]
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (0, out)

    def test_module_invocation(self, tri_path):
        r = subprocess.run(
            [sys.executable, "-m", "loopsoup.cli", "validate", tri_path],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert "vertices: 3" in r.stdout
