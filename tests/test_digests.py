"""Pinned digests of exact outputs.

The signature CLI prints exact rationals, `zeta` exact integer series, and
the class enumeration and geodesic loops are integer tuples: none of them
depends on floating point or BLAS, so a refactor must leave them byte for
byte. The `enumerate` rows are floats, but each is a sum in a fixed order
of products of transition probabilities, with no BLAS call, so they are
pinned too; its manifest is not, since its tail comes from an eigensolve.
The `homotopy` labels (class, length and multiplicity) are pinned, and so
are its nontrivial rows with their intensities on unit-weight graphs killed
at rate 1: there the rho solve ends in sweeps, so each intensity is a
product of P and rho along the geodesic, from bincount sums and products
alone, with no Newton step, no scipy and no BLAS. Its trivial row, a sum of
logarithms, and its manifest are not pinned. Each test hashes the full text
with sha256.
"""

import hashlib

import pytest

from loopsoup.cli import main
from loopsoup.freegroup import (enumerate_geodesic_classes, format_word,
                                geodesic_representative, group_commutator)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _nested(depth: int, a: tuple, b: tuple) -> tuple:
    w = group_commutator(a, b)
    for _ in range(depth - 1):
        w = group_commutator(w, b)
    return w


SIGNATURE_WORDS = [
    (1,), (1, 1, 1), (-1, -1),
    (1, 2), (1, -2, -2, 1), (2, 1, -2, 1, 1, -2),
    (3, -1, 2, 2, -3, 1), (4, -2, 3, 1, -4, -4, 2, 1),
    group_commutator((1,), (2,)),
    group_commutator((1, 2), (2, 1)),
    _nested(2, (1,), (2,)),
    _nested(3, (1,), (2,)),
    _nested(4, (1,), (2,)),
    group_commutator(group_commutator((1,), (2,)), (3,)),
    group_commutator(group_commutator((2,), (3,)), (1,)),
    group_commutator(group_commutator((1,), (2,)), group_commutator((3,), (4,))),
    group_commutator(_nested(2, (1,), (3,)), (4,)),
]

GRAPH_TEXT = {
    "bowtie": "vertices 5\n" + "".join(
        f"edge {a} {b} 1\n" for a, b in ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
    "k4": "vertices 4\n" + "".join(
        f"edge {a} {b} 1\n" for a in range(4) for b in range(a + 1, 4)),
    "petersen": "vertices 10\n" + "".join(
        f"edge {min(u, v)} {max(u, v)} 1\n"
        for u, v in ([(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, 5 + i) for i in range(5)])),
    "cube": "vertices 8\n" + "".join(
        f"edge {a} {a | 1 << i} 1\n" for a in range(8) for i in range(3)
        if not a & 1 << i),
}


def test_signature_stdout(capsys):
    out = []
    for w in SIGNATURE_WORDS:
        assert main(["signature", "--word", format_word(w)]) == 0
        out.append(capsys.readouterr().out)
    assert _digest("".join(out)) == (
        "16dbced218eab23e2968965dd0cf86b5d4f21029af16b7983480981d5f58acdf")


@pytest.mark.parametrize("name, digest", [
    ("k4", "4df62d6ed61fcd87a9eff828b5fb68affcc2061a2e8217a8ad0a2ae95b90b921"),
    ("petersen", "5ccb538b2c532380fdf2095a5c7c828fc0e772a682d26492b43911c3508490fe"),
    ("cube", "8e2cc2cd26d8ffcae90527fd116229cba87298bbf476e69b701c13153e391b53"),
])
def test_zeta_stdout(capsys, tmp_path, monkeypatch, name, digest):
    (tmp_path / f"{name}.graph").write_text(GRAPH_TEXT[name])
    monkeypatch.chdir(tmp_path)
    degree = 10 if name == "cube" else 12
    assert main(["zeta", f"{name}.graph", "--max-degree", str(degree)]) == 0
    assert _digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize("name, n_max, digest", [
    ("k4", 9, "707e6d5e2fcc386ef4c21954bb08075b0e46591c6005af8507ac249dae1dfccd"),
    ("petersen", 8, "9658a40ce20915c82f578ef42604892b97f2c1acae4419cfaf95fe72d9171811"),
])
def test_enumerate_rows(capsys, tmp_path, monkeypatch, name, n_max, digest):
    # unit conductances, killing 1 at every vertex
    n_v = int(GRAPH_TEXT[name].split()[1])
    (tmp_path / f"{name}.graph").write_text(
        GRAPH_TEXT[name] + "".join(f"kappa {x} 1\n" for x in range(n_v)))
    monkeypatch.chdir(tmp_path)
    assert main(["enumerate", f"{name}.graph", "--n-max", str(n_max)]) == 0
    _, rows = capsys.readouterr().out.split("\n", 1)
    assert _digest(rows) == digest


@pytest.mark.parametrize("graph, max_len, digest", [
    ("bowtie", 8, "582df27cd2f2266597e3d7e6cdf6fe854a321290bf688d845e4286cd4e67621d"),
    ("k4", 6, "52e3640e8198298a9161f069f8995193d4779afded087d726ad114a3dcb8a093"),
])
def test_classes_and_geodesics(request, graph, max_len, digest):
    frame = request.getfixturevalue(f"{graph}_frame")
    lines = [f"{format_word(c.word)}:{geodesic_representative(c, frame)}"
             for c in enumerate_geodesic_classes(frame.rank, max_len)]
    assert _digest("\n".join(lines)) == digest


@pytest.mark.parametrize("name, max_len, digest", [
    ("k4", 4, "5ef6a7d13723701483cd892bb5504f5d3f1489ec6bfa7dae49fc9c1630d91050"),
    ("petersen", 3, "e60a2d805c3342150fedf79e58f4a0bf0b4702b47c4887ddaa6f819b97f818f3"),
])
def test_homotopy_labels(capsys, tmp_path, monkeypatch, name, max_len, digest):
    # unit conductances, killing 1 at every vertex; the header and every row
    # without its last column
    n_v = int(GRAPH_TEXT[name].split()[1])
    (tmp_path / f"{name}.graph").write_text(
        GRAPH_TEXT[name] + "".join(f"kappa {x} 1\n" for x in range(n_v)))
    monkeypatch.chdir(tmp_path)
    assert main(["homotopy", f"{name}.graph", "--max-len", str(max_len)]) == 0
    _, rows = capsys.readouterr().out.split("\n", 1)
    labels = "".join(row.rsplit(",", 1)[0] + "\n" for row in rows.splitlines())
    assert _digest(labels) == digest


@pytest.mark.parametrize("name, max_len, s, digest", [
    ("bowtie", 6, "1", "ef167c76d1421bd1ff17fe2ddbe0738ae462286ce7d4c7f98e5de14a6a8e590e"),
    ("bowtie", 6, "0.7", "543ddd3207219bb37b2252795341838b8d0d018e6e387ce2e0f7e590dccc8990"),
    ("k4", 4, "1", "e208e46c5e6a2c08371c84f5767df1bd4bc9763ef9c38678a4469d1e8489479d"),
    ("k4", 4, "0.7", "e349438079441e45192dd00d7b6fcd1a51a1844bfdf06f4f8b5bdc61b31feb14"),
    ("petersen", 3, "1", "74f1fcd285b207f8e3eac4335c59dd8fd9fb2b9d775649b53b1c1329ed583916"),
    ("petersen", 3, "0.7", "1d0ccf810cb16c73e2f746707c19376a73f672f9147bbacc9868d2266be78fb1"),
])
def test_homotopy_rows(capsys, tmp_path, monkeypatch, name, max_len, s, digest):
    # unit conductances, killing 1 at every vertex; the header and every
    # row but the trivial one, intensities included
    n_v = int(GRAPH_TEXT[name].split()[1])
    (tmp_path / f"{name}.graph").write_text(
        GRAPH_TEXT[name] + "".join(f"kappa {x} 1\n" for x in range(n_v)))
    monkeypatch.chdir(tmp_path)
    assert main(["homotopy", f"{name}.graph", "--max-len", str(max_len), "--s", s]) == 0
    _, rows = capsys.readouterr().out.split("\n", 1)
    kept = "".join(row + "\n" for row in rows.splitlines() if not row.startswith("e,"))
    assert _digest(kept) == digest
