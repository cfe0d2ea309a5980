"""Command-line front end.

Every output starts with a manifest comment line recording the command and
all effective parameters, so a file is reproducible from its own header.
Outputs are deterministic for a fixed (input, flags, seed) triple.

Exit codes: 0 success, 2 malformed input data, 3 numeric failure,
4 bad arguments, or files that cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

import numpy as np

from .errors import ConfigError, NumericError, ValidationError, _count
from .freegroup import _class_words, format_word, parse_word
from .graphs import load_graph, spanning_tree_frame
from .signature import degree_and_lead
from .soup import (MeasureConfig, dumps_soup, enumerate_measure, occupation,
                   sample_soup, spectral_radius, total_mass)
from .spectra import (_class_intensities, contractible_intensity, ihara_check,
                      solve_rho)
from .fourier import _homology1_values, _homology2_values
from . import __version__


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _manifest(command: str, params: dict) -> str:
    body = " ".join(f"{k}={v}" for k, v in params.items())
    return f"# loopsoup {command} version={__version__} {body}".rstrip()


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_validate(args) -> None:
    g = load_graph(args.graph)
    frame = spanning_tree_frame(g)
    lines = [
        _manifest("validate", {"graph": args.graph}),
        f"vertices: {g.num_vertices}",
        f"edges: {len(g.edges)}",
        f"rank: {frame.rank}",
        "lam: " + " ".join(_fmt(v) for v in g.lam),
        f"spectral_radius: {_fmt(spectral_radius(g))}",
    ]
    try:
        lines.append(f"mass: {_fmt(total_mass(g))}")
    except NumericError:
        lines.append("mass: infinite (kappa == 0)")
    _emit(args, lines)


def cmd_sample(args) -> None:
    g = load_graph(args.graph)
    cfg = MeasureConfig(alpha=args.alpha, n_max=args.n_max,
                        tail_tol=args.tail_tol, seed=args.seed)
    soup = sample_soup(g, None, cfg)
    manifest = _manifest("sample", {
        "graph": args.graph, "alpha": args.alpha, "n_max": args.n_max,
        "tail_tol": args.tail_tol, "seed": args.seed,
        "loops": len(soup.loops), "occupation": args.occupation,
    })
    if args.occupation:
        lines = [manifest, "u,v,N,Ncheck"]
        lines += [f"{u},{v},{n},{c}" for u, v, n, c in occupation(soup).rows()]
    else:
        lines = [manifest] + dumps_soup(soup).splitlines()
    _emit(args, lines)


def cmd_enumerate(args) -> None:
    g = load_graph(args.graph)
    frame = spanning_tree_frame(g)
    em = enumerate_measure(g, frame, args.n_max)
    manifest = _manifest("enumerate", {
        "graph": args.graph, "n_max": args.n_max, "tail": _fmt(em.tail),
    })
    # the plan's rows come sorted by (length, word) and carry the class
    # columns; only the masses are formatted here
    masses = list(em.masses.values())
    _emit(args, [manifest, "class,length,mult,intensity"]
          + [prefix + repr(masses[c]) for prefix, c in em._rows])


def cmd_homotopy(args) -> None:
    g = load_graph(args.graph)
    frame = spanning_tree_frame(g)
    # enumerated first, so that a bad --max-len fails before the solves
    table = _class_words(frame.rank, args.max_len)
    rho = solve_rho(g, args.s)
    rows = []
    trivial_err = None
    if args.s == 1.0:
        trivial_val, trivial_err = contractible_intensity(g)
        rows.append(f"e,0,1,{_fmt(trivial_val)}")
    values = _class_intensities(g, frame, args.max_len, rho)
    rows += map(str.__add__, table.rows, map(repr, values.tolist()))
    manifest = _manifest("homotopy", {
        "graph": args.graph, "max_len": args.max_len, "s": args.s,
        "trivial_err": None if trivial_err is None else _fmt(trivial_err),
        "rho_iterations": rho.iterations,
    })
    _emit(args, [manifest, "class,length,mult,intensity"] + rows)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r}") from None


_ROWS = 1 << 16  # the most rows h1 --h-range lists


def _rows(law: np.ndarray, axes: list) -> zip:
    """Each index of the product of axes, in C order, with the law's entry."""
    vals = law[np.ix_(*([x % n for x in a] for a, n in zip(axes, law.shape)))].ravel()
    return zip(itertools.product(*axes), vals)


def cmd_h1(args) -> None:
    g = load_graph(args.graph)
    frame = spanning_tree_frame(g)
    r = frame.rank
    if args.mod is not None and args.grid is not None:
        raise ConfigError("--mod and --M both set the grid size; give one")
    grid = args.grid if args.mod is None else args.mod
    if args.h is not None:
        axes = [[x] for x in _parse_ints(args.h, "--h")]
    elif args.h_range < 0:
        raise ConfigError(f"--h-range must be >= 0, got {args.h_range}")
    else:
        axes = [range(-args.h_range, args.h_range + 1)] * r
    reach = [a[-1] for a in axes]  # the one h, or (R,) * r
    law, M, bound = _homology1_values(g, frame, reach, args.alpha, args.field, grid)
    if args.h is None and (rows := (2 * args.h_range + 1) ** r) > _ROWS:
        raise ConfigError(f"--h-range {args.h_range}: {_count(rows)} rows at rank {r}, "
                          f"over the budget of {_ROWS} rows")
    certified = {} if bound is None else {"alias_bound": _fmt(bound)}
    manifest = _manifest("h1", {
        "graph": args.graph, "M": args.grid if bound is None else M,
        **certified, "mod": args.mod, "field": args.field, "alpha": args.alpha,
    })
    value_col = "probability" if args.field else "intensity"
    lines = [manifest, ",".join([f"h{i}" for i in range(1, r + 1)] + [value_col])]
    lines += [",".join([str(x) for x in h] + [_fmt(val)]) for h, val in _rows(law, axes)]
    _emit(args, lines)


def cmd_h2(args) -> None:
    g = load_graph(args.graph)
    frame = spanning_tree_frame(g)
    q = frame.rank * (frame.rank - 1) // 2
    axes = [range(args.p)] * q if args.m is None else [[x] for x in _parse_ints(args.m, "--m")]
    if len(axes) != q:
        raise ConfigError(f"--m needs {q} entries (pairs i<j in lex order)")
    law, M, bound = _homology2_values(g, frame, args.p, args.alpha, args.field, args.grid)
    certified = {} if bound is None else {"alias_bound": _fmt(bound)}
    manifest = _manifest("h2", {
        "graph": args.graph, "p": args.p, "field": args.field, "alpha": args.alpha,
        "M": M, **certified,
    })
    lines = [manifest, f"m,p,{'probability' if args.field else 'intensity'}"]
    lines += [f"{' '.join(map(str, m))},{args.p},{_fmt(v)}" for m, v in _rows(law, axes)]
    _emit(args, lines)


def cmd_zeta(args) -> None:
    g = load_graph(args.graph)
    series = ihara_check(g, args.max_degree)
    manifest = _manifest("zeta", {
        "graph": args.graph, "max_degree": args.max_degree,
        "agree": series.agree(),
    })
    lines = [manifest, "degree,lhs,rhs,diff"]
    for n, lhs, rhs, diff in series.rows():
        lines.append(f"{n},{lhs},{rhs},{diff}")
    _emit(args, lines)


def cmd_signature(args) -> None:
    word = parse_word(args.word)
    d, poly = degree_and_lead(word, max_degree=args.max_degree)
    manifest = _manifest("signature", {
        "word": format_word(word), "degree": d, "rank": poly.rank,
    })
    lines = [manifest, "lyndon_word,coordinate"]
    for lw, coord in poly.sorted_coords():
        lines.append(f"{' '.join(str(x) for x in lw)},{coord}")
    _emit(args, lines)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The parser, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="loopsoup",
                     description="Loop measures and Poisson loop ensembles "
                                 "on finite weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, graph=True):
        p = sub.add_parser(name, help=help_)
        if graph:
            p.add_argument("graph", help="graph description file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "parse a graph and report its basic data")

    p = add("sample", cmd_sample, "draw one Poisson loop ensemble")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=24, dest="n_max")
    p.add_argument("--tail-tol", type=float, default=1e-8, dest="tail_tol")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--occupation", action="store_true",
                   help="emit the oriented-edge occupation field instead")

    p = add("enumerate", cmd_enumerate, "exhaustive class masses up to a length")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")

    p = add("homotopy", cmd_homotopy, "analytic intensities per homotopy class")
    p.add_argument("--max-len", type=int, default=3, dest="max_len")
    p.add_argument("--s", type=float, default=1.0)

    p = add("h1", cmd_h1, "winding-number intensities or field law")
    p.add_argument("--h", help="single winding vector, e.g. '1,0'")
    p.add_argument("--h-range", type=int, default=3, dest="h_range")
    p.add_argument("--M", type=int, default=None, dest="grid")
    p.add_argument("--mod", type=int, default=None,
                   help="law aliased mod this integer (the grid of that size)")
    p.add_argument("--field", action="store_true")
    p.add_argument("--alpha", type=float, default=1.0)

    p = add("h2", cmd_h2, "second-homology intensities or field law mod p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", help="skew entries for pairs i<j in lex order")
    p.add_argument("--field", action="store_true")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--M", type=int, default=None, dest="grid")

    p = add("zeta", cmd_zeta, "geodesic determinant identity, exact series")
    p.add_argument("--max-degree", type=int, default=8, dest="max_degree")

    p = add("signature", cmd_signature,
            "critical degree and leading Lie term of a word", graph=False)
    p.add_argument("--word", required=True, help="word like '+1 -2 +1 +2'")
    p.add_argument("--max-degree", type=int, default=8, dest="max_degree")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
