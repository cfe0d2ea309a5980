"""Seeded input generator for the loopsoup benchmark.

A workload's query stream is an endless sequence of rounds. Every round
holds the workload's stated query mix once, in shuffled order, with each
query's size parameters drawn from ranges, and writes the graph files its
queries read. Round r depends only on (workload, seed, r), so the client
draws rounds until its time is up, however fast the program gets, and the
same seed always gives byte-identical rounds. Only the standard library is
used, so generation is independent of the numpy version.

    python3 perfbench/gen.py --workload classes --seed 3 --out DIR

writes round 0, the workload's query mix once, to DIR/queries.json, with
its graph files under DIR/graphs/.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

WORKLOADS = ("winding", "classes", "soups", "words")

# Why each workload exists: which layer it loads and which it leaves idle.
WHY = {
    "winding": "Fourier route: H1 grids (many small eigensolves) and "
               "Heisenberg twists (few large ones); fourier does the work, "
               "soup and spectra stay idle",
    "classes": "exact versus transfer-operator routes: soup enumeration DP "
               "and the spectra rho fixed point and quadrature do the work, "
               "fourier stays idle",
    "soups": "Poisson sampler: LoopSoupSampler set-up and bridge draws on "
             "low-killing graphs, then per-loop class and winding "
             "tabulation; fourier and spectra stay idle",
    "words": "algebra toolkit: exact rational tensor algebra of signature, "
             "log-signature and Lyndon coordinates against the currents "
             "route; no graph layer runs and CLI overhead is largest",
}


# ---------------------------------------------------------------------------
# graph families: (vertex count, undirected edges)

def _triangle():
    return 3, [(0, 1), (1, 2), (0, 2)]


def _bowtie():
    return 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]


def _k4():
    return 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, 5 + i) for i in range(5)]
    return 10, sorted((min(u, v), max(u, v)) for u, v in pairs)


def _torus(side):
    edges = set()
    for i in range(side):
        for j in range(side):
            a = i * side + j
            for b in (i * side + (j + 1) % side, ((i + 1) % side) * side + j):
                edges.add((min(a, b), max(a, b)))
    return side * side, sorted(edges)


FAMILIES = {
    "triangle": _triangle,
    "bowtie": _bowtie,
    "k4": _k4,
    "petersen": _petersen,
    "torus6": lambda: _torus(6),
    "torus10": lambda: _torus(10),
}

# First Betti number |E| - |X| + 1 of each family.
RANK = {name: len(f()[1]) - f()[0] + 1 for name, f in FAMILIES.items()}


def _num(x: float) -> str:
    return f"{x:.6g}"


def graph_text(family: str, conductances, killing) -> str:
    """The loopsoup graph format for one family with given weights."""
    n, edges = FAMILIES[family]()
    lines = [f"# {family}", f"vertices {n}"]
    lines += [f"edge {u} {v} {_num(c)}" for (u, v), c in zip(edges, conductances)]
    lines += [f"kappa {x} {_num(k)}" for x, k in enumerate(killing) if k]
    return "\n".join(lines) + "\n"


def rho_upper(family: str, conductances, killing) -> float:
    """Upper bound on the spectral radius of P: its largest row sum."""
    n, edges = FAMILIES[family]()
    deg = [0.0] * n
    for (u, v), c in zip(edges, conductances):
        deg[u] += c
        deg[v] += c
    return max(d / (d + k) for d, k in zip(deg, killing))


class _Graphs:
    """Writes the graph files of one round, named after it."""

    def __init__(self, out: Path, rng: random.Random, prefix: str):
        self.out = out
        self.rng = rng
        self.prefix = prefix
        self.graphs = 0
        (out / "graphs").mkdir(parents=True, exist_ok=True)

    def graph(self, family: str, cond=(1.0, 1.0), kappa=(1.0, 1.0),
              killing=None) -> dict:
        """Write a graph with fresh weights and return its description.
        cond and kappa are ranges; equal ends give constant weights."""
        n, edges = FAMILIES[family]()
        rng = self.rng
        c = [rng.uniform(*cond) if cond[0] != cond[1] else cond[0] for _ in edges]
        k = list(killing) if killing is not None else [
            rng.uniform(*kappa) if kappa[0] != kappa[1] else kappa[0]
            for _ in range(n)]
        c = [float(_num(x)) for x in c]
        k = [float(_num(x)) for x in k]
        path = f"graphs/{self.prefix}{self.graphs:03d}.graph"
        self.graphs += 1
        (self.out / path).write_text(graph_text(family, c, k))
        return {"path": path, "family": family, "rank": RANK[family],
                "rho_upper": rho_upper(family, c, k)}


def _h(rng: random.Random, rank: int, reach: int) -> list[int]:
    return [rng.randint(-reach, reach) for _ in range(rank)]


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


# ---------------------------------------------------------------------------
# workloads: each round() returns one round of queries

def _winding_round(s: _Graphs) -> list[dict]:
    """Queries come in cost tiers so that p50 and p90 fall inside dense
    tiers, not at a gap between them: cheap (under 12 ms, a third of the
    round), the p50 plateau (12-30 ms, a third), 30-120 ms, the p90 tier
    (120-250 ms) and the near-critical query. Grid sizes are drawn from
    ranges within each tier; weights are fresh for every query."""
    rng = s.rng
    q = []

    def g(family):
        return s.graph(family, cond=(0.5, 2.0), kappa=(0.6, 1.5))

    def h1(family, mlo, mhi, reach=2, field=False):
        gr = g(family)
        m = rng.randint(mlo, mhi)
        h = _h(rng, gr["rank"], 1 if field else reach)
        argv = ["h1", gr["path"], f"--h={_csv(h)}", "--M", str(m)]
        entry = {"tag": f"h1.{'field' if field else 'M'}.{family}", "graph": gr,
                 "h": h, "M": m}
        if field:
            entry["alpha"] = round(rng.uniform(0.5, 2.0), 3)
            argv += ["--field", "--alpha", str(entry["alpha"])]
        entry["argv"] = argv
        q.append(entry)

    def h1_mod(family, plo, phi):
        gr = g(family)
        p = rng.randint(plo, phi)
        h = _h(rng, gr["rank"], 2)
        q.append({"tag": f"h1.mod.{family}", "graph": gr, "h": h, "mod": p,
                  "argv": ["h1", gr["path"], f"--h={_csv(h)}", "--mod", str(p)]})

    def h2(family, p, grid=None):
        gr = g(family)
        nq = gr["rank"] * (gr["rank"] - 1) // 2
        m = [rng.randrange(p) for _ in range(nq)]
        argv = ["h2", gr["path"], "--p", str(p), f"--m={_csv(m)}"]
        entry = {"tag": f"h2.{'field' if grid else 'int'}.{family}.p{p}",
                 "graph": gr, "p": p, "m": m}
        if grid:
            entry["M"] = rng.randint(*grid)
            entry["alpha"] = round(rng.uniform(0.5, 2.0), 3)
            argv += ["--field", "--M", str(entry["M"]), "--alpha", str(entry["alpha"])]
        entry["argv"] = argv
        q.append(entry)

    def holonomy():
        family = rng.choice(["triangle", "bowtie", "k4", "petersen"])
        gr = g(family)
        order = rng.randint(3, 7)
        n_edges = len(FAMILIES[family]()[1])
        q.append({"tag": f"holonomy.{family}", "graph": gr, "call": "holonomy",
                  "order": order, "alpha": round(rng.uniform(0.5, 2.0), 3),
                  "connection": [rng.randrange(order) for _ in range(n_edges)]})

    def h1_auto(family, killing=None):
        gr = s.graph(family, killing=killing) if killing else g(family)
        h = _h(rng, 1, 3)
        q.append({"tag": f"h1.auto.{'critical' if killing else family}",
                  "graph": gr, "h": h,
                  "argv": ["h1", gr["path"], f"--h={_csv(h)}"]})

    # cheap
    for _ in range(2):
        h1_mod("triangle", 3, 17)
        h1_mod("bowtie", 3, 9)
        h2("bowtie", 3)
        holonomy()
        h1("triangle", 48, 128, field=True)
    # p50 plateau
    for _ in range(2):
        h1("triangle", 200, 500, reach=3)
        h1("triangle", 200, 500, reach=3)
        h1_auto("triangle")  # automatic M: refinement from M = 64
        h2("bowtie", 5)
        h1_mod("k4", 3, 5)
        h2("bowtie", 3, grid=(2, 4))
    # 30-120 ms
    for _ in range(2):
        h1("bowtie", 20, 32)
        h1("k4", 6, 9, reach=1)
        h1("bowtie", 20, 32, field=True)
    # p90 tier
    h2("k4", 3)
    h2("bowtie", 5, grid=(3, 3))
    h1("bowtie", 40, 48)
    h1("k4", 10, 12, reach=1)
    # near-critical triangle: fails today ("did not settle by M=4096")
    h1_auto("triangle", killing=(1e-9, 0.0, 0.0))
    return q


def _classes_round(s: _Graphs) -> list[dict]:
    """Queries come in cost tiers so that p50 and p90 fall inside dense
    tiers, not at a gap between them: cheap (about 3-10 ms, a third of the
    round), the p50 plateau (15-25 ms, a third), 25-60 ms, the p90 tier
    (60-110 ms) and the two fixed heavy queries. Sizes are narrow where cost
    grows exponentially with them; weights are fresh for every query."""
    rng = s.rng
    q = []

    def enumerate_(family, lo, hi):
        kappa = (0.5, 0.5) if family == "torus10" else (0.5, 1.5)
        gr = s.graph(family, cond=(0.5, 2.0), kappa=kappa)
        n = rng.randint(lo, hi)
        q.append({"tag": f"enumerate.{family}", "graph": gr, "n_max": n,
                  "argv": ["enumerate", gr["path"], "--n-max", str(n)]})

    def homotopy(family, lo, hi, at_one):
        # regular families: unit conductances and a fresh constant killing,
        # so closed forms check every s; the bowtie runs at s = 1 only
        if family == "bowtie":
            gr = s.graph(family, cond=(0.5, 2.0), kappa=(0.5, 1.5))
        else:
            kap = 0.5 if family == "torus10" else 1.0
            kap = round(rng.uniform(0.8 * kap, 1.2 * kap), 4)
            gr = s.graph(family, kappa=(kap, kap))
            gr["kappa"] = kap
        sv = 1.0 if at_one else round(rng.uniform(0.5, 0.999), 4)
        length = rng.randint(lo, hi)
        q.append({"tag": f"homotopy.{family}.{'s1' if at_one else 's'}",
                  "graph": gr, "s": sv, "max_len": length,
                  "argv": ["homotopy", gr["path"], "--s", str(sv),
                           "--max-len", str(length)]})

    def zeta(family, lo, hi):
        gr = s.graph(family, kappa=(1.0, 1.0))
        d = rng.randint(lo, hi)
        q.append({"tag": f"zeta.{family}", "graph": gr, "max_degree": d,
                  "argv": ["zeta", gr["path"], "--max-degree", str(d)]})

    # cheap
    for family in ("triangle", "bowtie", "k4", "petersen", "torus10"):
        gr = s.graph(family, cond=(0.5, 2.0), kappa=(0.3, 1.5))
        q.append({"tag": f"validate.{family}", "graph": gr,
                  "argv": ["validate", gr["path"]]})
    for _ in range(2):
        enumerate_("triangle", 10, 30)
        enumerate_("k4", 6, 7)
        enumerate_("petersen", 6, 7)
        homotopy("triangle", 3, 9, True)
        homotopy("triangle", 3, 9, False)
        homotopy("k4", 2, 3, False)
    # p50 plateau: mostly enumerations, whose cost is set by the length
    # alone (the contractible quadrature's node count jumps between 21, 63
    # and more, which splits homotopy costs into separate modes)
    for _ in range(5):
        enumerate_("petersen", 8, 8)
        enumerate_("bowtie", 12, 13)
    for _ in range(2):
        homotopy("bowtie", 2, 4, True)
        homotopy("k4", 2, 3, True)
        zeta("k4", 9, 10)
    # 25-60 ms
    for _ in range(2):
        enumerate_("k4", 8, 9)
        enumerate_("petersen", 8, 9)
        homotopy("petersen", 1, 2, True)
    homotopy("torus10", 1, 1, False)
    homotopy("k4", 4, 4, False)
    zeta("k4", 11, 11)
    # p90 tier
    for _ in range(2):
        zeta("petersen", 10, 12)
    homotopy("petersen", 3, 3, True)
    homotopy("petersen", 3, 3, False)
    enumerate_("petersen", 10, 10)
    enumerate_("torus10", 5, 6)
    # fixed heavy: the 10x10 torus contractible quadrature, and the
    # near-critical triangle, which exits 3 today after 100 000 Picard
    # iterations
    homotopy("torus10", 1, 1, True)
    gr = s.graph("triangle", killing=(1e-9, 0.0, 0.0))
    q.append({"tag": "homotopy.critical", "graph": gr, "s": 1.0, "max_len": 2,
              "argv": ["homotopy", gr["path"], "--max-len", "2"]})
    return q


# Soups pool class counts over the whole run, so each family keeps one
# graph; n_enum is the enumeration length of the pooled check.
SOUP_FAMILIES = (("k4", 8), ("bowtie", 10), ("torus6", 6))


def _tail(n_vertices: int, rho: float, n_max: int) -> float:
    return n_vertices * rho ** (n_max + 1) / ((n_max + 1) * (1.0 - rho))


def _soups_round(s: _Graphs, soup_graphs: dict) -> list[dict]:
    rng = s.rng
    q = []
    for family, n_enum in SOUP_FAMILIES:
        gr = soup_graphs[family]
        n_vertices = FAMILIES[family]()[0]
        for occ in (False, False, True):
            tol = 10 ** rng.uniform(-3, -1.5)
            n_max = 1
            while _tail(n_vertices, gr["rho_upper"], n_max) > tol:
                n_max += 1
            n_max += rng.randint(0, 20)
            # alpha sets the expected loop count; the torus has more mass
            alpha = round(rng.uniform(4.0, 12.0) if family == "torus6"
                          else rng.uniform(40.0, 120.0), 3)
            seed = rng.randrange(2 ** 31)
            argv = ["sample", gr["path"], "--alpha", str(alpha), "--n-max",
                    str(n_max), "--tail-tol", f"{tol:.4g}", "--seed", str(seed)]
            if occ:
                argv.append("--occupation")
            q.append({"tag": f"sample.{family}{'.occupation' if occ else ''}",
                      "graph": gr, "alpha": alpha, "n_max": n_max,
                      "seed": seed, "tail_tol": float(f"{tol:.4g}"),
                      "n_enum": n_enum, "occupation": occ, "argv": argv})
    return q


def _reduced(rng: random.Random, rank: int, lo: int, hi: int) -> list[int]:
    w: list[int] = []
    n = rng.randint(lo, hi)
    while len(w) < n:
        letter = rng.choice([1, -1]) * rng.randint(1, rank)
        if not w or w[-1] != -letter:
            w.append(letter)
    return w


def _reduce(word) -> list[int]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def _inv(w):
    return [-x for x in reversed(w)]


def _comm(u, v):
    return _reduce(_inv(u) + _inv(v) + u + v)


def _word_text(w) -> str:
    return " ".join(f"{x:+d}" for x in w)


def _words_round(s: _Graphs) -> list[dict]:
    rng = s.rng
    q = []
    words = []
    for rank in (2, 3, 4):
        words.append(("random", rank, _reduced(rng, rank, 6, 18)))
        u = _reduced(rng, rank, 2, 6)
        v = _reduced(rng, rank, 2, 6)
        words.append(("commutator", rank, _comm(u, v) or [1, 2, -1, -2]))
    # nested commutators keep degrees 3 and 4 from going vacuous
    for rank in (2, 3):
        a, b, c = (_reduced(rng, rank, 1, 3) for _ in range(3))
        words.append(("commutator3", rank, _comm(_comm(a, b), c) or [2, 1, -2, -1, 1, 1, 2, -1, -2, -1, -1]))
    a, b = _reduced(rng, 2, 1, 2), _reduced(rng, 2, 1, 2)
    words.append(("commutator4", 2, _comm(_comm(a, b), _comm(a, _reduced(rng, 2, 1, 2)))
                  or [-2, -1, 2, -1, -2, 1, 2, 1]))
    for kind, rank, w in words:
        q.append({"tag": f"signature.{kind}", "word": w, "rank": rank,
                  "argv": ["signature", f"--word={_word_text(w)}"]})
    for kind, rank, w in rng.sample(words, 4):
        deg = rng.randint(2, 5)
        q.append({"tag": f"log_signature.{kind}", "call": "log_signature",
                  "word": w, "rank": rank, "degree": deg})
    for kind, rank, w in rng.sample(words, 4):
        q.append({"tag": f"currents.{kind}", "call": "currents",
                  "word": w, "rank": rank})
    return q


ROUNDS = {"winding": _winding_round, "classes": _classes_round,
          "soups": _soups_round, "words": _words_round}


class Stream:
    """The query stream of one workload run, writing into `out`."""

    def __init__(self, workload: str, seed: int, out: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.out = workload, seed, out
        out.mkdir(parents=True, exist_ok=True)
        # The same graphs for every seed: near criticality their weights set
        # the loop lengths, and so the cost, of every query in the run.
        shared = _Graphs(out, random.Random(f"{workload}:graphs"), "shared-")
        self.soup_graphs = {
            family: shared.graph(family, cond=(0.8, 1.25), kappa=(0.18, 0.22))
            for family, _ in SOUP_FAMILIES} if workload == "soups" else {}

    def round(self, r: int) -> list[dict]:
        """Write round r's graph files; return its queries, shuffled."""
        rng = random.Random(f"{self.workload}:{self.seed}:{r}")
        s = _Graphs(self.out, rng, f"r{r:05d}-")
        make = ROUNDS[self.workload]
        batch = make(s, self.soup_graphs) if self.workload == "soups" else make(s)
        rng.shuffle(batch)
        return batch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    queries = Stream(args.workload, args.seed, args.out).round(0)
    manifest = {"workload": args.workload, "seed": args.seed,
                "why": WHY[args.workload], "queries": queries}
    (args.out / "queries.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    print(f"{args.workload}: round 0 holds {len(queries)} queries -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
