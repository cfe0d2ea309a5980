"""One workload run in a fresh process: the closed-loop client, then the
correctness checks, then a result file.

The client is a single thread. It issues the next query only when the
previous one has returned, runs whole rounds of the seeded stream, and
stops at the first round boundary after --seconds of measured time. Each
round's inputs are generated before it, outside the measured time, so the
stream never runs out. Queries go through
loopsoup.cli.main(argv) in process, or through the public library call
where the CLI has no verb. BLAS threads are pinned by the parent through
the environment. Between queries, outside the measured time, the client
times slices of perfbench/reference.py's fixed load, which gauge the
machine's speed during the run.

    python3 perfbench/worker.py --workload words --seed 1 --inputs DIR \
        --seconds 15 --trace 0 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_loopsoup():
    sys.path.insert(0, str(SRC))
    import loopsoup
    import loopsoup.cli  # noqa: F401  (the CLI is not imported by the package)
    origin = Path(loopsoup.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"loopsoup imported from {origin}, not from {SRC}")
    return loopsoup


ls = _import_loopsoup()
import numpy as np  # noqa: E402  (after the path set-up above)

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# queries

def _cyclic_group(order: int):
    """Z_order given extensionally, for holonomy_class_intensities."""
    elements = list(range(order))
    irreps = [{e: np.array([[np.exp(2j * np.pi * k * e / order)]]) for e in elements}
              for k in range(order)]
    return ls.group_data(elements, [[e] for e in elements], irreps)


def _holonomy(q: dict):
    with open(q["graph"]["path"]) as fh:
        g = ls.parse_graph(fh.read())
    order = q["order"]
    connection = {}
    for (u, v), k in zip(g.edges, q["connection"]):
        connection[(u, v)] = k
        connection[(v, u)] = (-k) % order
    result = ls.holonomy_class_intensities(g, connection, _cyclic_group(order),
                                           alpha=q["alpha"])
    return {cls[0]: value for cls, value in result.items()}


def _log_signature(q: dict):
    w, r, deg = tuple(q["word"]), q["rank"], q["degree"]
    series = ls.log_signature(w, deg)
    return {"coords": {d: ls.lyndon_coordinates(series.component(d), r, d)
                       for d in range(1, deg + 1)}}


def _currents(q: dict):
    w, r = tuple(q["word"]), q["rank"]
    out = {"h1": ls.homology1(w, rank=r)}
    if not any(out["h1"]):
        out["h2"] = ls.homology2(w, rank=r)
        if not any(out["h2"].values()):
            out["h3"] = ls.homology3(w, rank=r)
    return out


CALLS = {"holonomy": _holonomy, "log_signature": _log_signature,
         "currents": _currents}


class SoupTally:
    """Per-family counts of sampled loops by (class, winding), pooled over
    the run, with the sum of the alphas that drew them. Only loops with
    length <= n_enum are counted, which the enumeration covers exactly."""

    def __init__(self):
        self.families: dict[str, dict] = {}

    def add(self, q: dict, out: str) -> None:
        gr = q["graph"]
        with open(gr["path"]) as fh:
            g = ls.parse_graph(fh.read())
        frame = ls.spanning_tree_frame(g)
        soup = ls.parse_soup(out, g)
        fam = self.families.setdefault(gr["family"], {
            "graph": gr, "n_enum": q["n_enum"], "alpha": 0.0, "queries": 0,
            "counts": {}})
        fam["alpha"] += q["alpha"]
        fam["queries"] += 1
        counts = fam["counts"]
        for loop in soup.loops:
            cls = ls.canonical_class(ls.loop_to_word(loop, frame))
            key = (cls, ls.homology1(loop, frame))
            if loop.length <= q["n_enum"]:
                counts[key] = counts.get(key, 0) + 1


def run_query(q: dict, tally: SoupTally | None):
    """(ok, output, error). ok is False when the query raised or the CLI
    exited non-zero; output is the CLI's stdout or the call's result."""
    if "call" in q:
        try:
            return True, CALLS[q["call"]](q), None
        except Exception as exc:  # any failure of the program counts
            return False, None, f"{type(exc).__name__}: {exc}"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ls.cli.main(q["argv"])
    except Exception as exc:  # an uncaught traceback is a failure too
        return False, None, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return False, None, f"exit {code}: {err.getvalue().strip()}"
    text = out.getvalue()
    if tally is not None and q["argv"][0] == "sample" and not q["occupation"]:
        tally.add(q, text)
    return True, text, None


# ---------------------------------------------------------------------------
# checks

def _check(q: dict, output, refs) -> str | None:
    if "call" in q:
        fn = {"holonomy": checks.check_holonomy,
              "log_signature": checks.check_log_signature,
              "currents": checks.check_currents}[q["call"]]
        return fn(q, output, refs)
    verb = q["argv"][0]
    if verb == "sample":
        return checks.check_occupation(q, output, refs) if q["occupation"] else None
    fn = {"h1": checks.check_h1, "h2": checks.check_h2,
          "enumerate": checks.check_enumerate,
          "homotopy": checks.check_homotopy, "zeta": checks.check_zeta,
          "validate": checks.check_validate,
          "signature": checks.check_signature}[verb]
    return fn(q, output, refs)


# Measured seconds of queries between two timed slices of the reference
# load; the slices take about a tenth of the run's wall time.
REFERENCE_EVERY_S = 0.4

# Answers kept and checked per query tag, in stream order; the words
# workload answers thousands of queries a run, and checking all would take
# as long. Only these are held until the checks, so the client's memory
# does not grow with the number of queries answered.
CHECKS_PER_TAG = 50


def check_all(answers: list, tally: SoupTally) -> list[tuple[str, str, int]]:
    """Disagreements, as (query tag, description, queries affected), over
    the kept (query, answer) pairs and every pooled soup."""
    refs = checks.References()
    wrong = []
    for q, output in answers:
        try:
            bad = _check(q, output, refs)
        except Exception as exc:  # a reference that cannot be formed
            bad = f"check raised {type(exc).__name__}: {exc}"
        if bad:
            wrong.append((q["tag"], bad, 1))
    for family, fam in tally.families.items():
        bad = checks.check_pooled_soup(family, fam["graph"], fam["n_enum"],
                                       fam["alpha"], fam["counts"], refs)
        if bad:
            wrong.append((f"sample.{family}", bad, fam["queries"]))
    return wrong


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_seen": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the bundled OpenBLAS, where it exports one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--spans", type=Path, help="write the traced spans here")
    args = ap.parse_args(argv)

    result_path = args.result.resolve()
    spans_path = args.spans.resolve() if args.spans else None
    args.inputs.mkdir(parents=True, exist_ok=True)
    os.chdir(args.inputs)
    stream = gen.Stream(args.workload, args.seed, Path("."))
    tally = SoupTally() if args.workload == "soups" else None

    rho_cache = ls.spectra.solve_rho.cache_info
    hits0 = rho_cache().hits
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    reference.load()  # first-call costs stay out of the slices
    slices: list[float] = []
    since_slice = REFERENCE_EVERY_S
    latencies: list[float] = []
    per_tag: dict[str, list[float]] = {}
    answers: list = []  # (query, answer), the first CHECKS_PER_TAG per tag
    errors: dict[str, int] = {}
    raised = 0
    out_bytes = 0
    rounds = 0
    elapsed = 0.0
    while elapsed < args.seconds:
        batch = stream.round(rounds)  # input generation, not measured
        t_round = time.perf_counter()
        in_slices = 0.0
        for q in batch:
            if since_slice >= REFERENCE_EVERY_S:
                t0 = time.perf_counter()
                slices.append(reference.time_slice())
                in_slices += time.perf_counter() - t0
                since_slice = 0.0
            t0 = time.perf_counter()
            if tracer is not None:
                idx = tracer.begin(spans.QUERY)
            ok, output, error = run_query(q, tally)
            if tracer is not None:
                tracer.finish(idx)
            lat = time.perf_counter() - t0
            since_slice += lat
            latencies.append(lat)
            tag_lat = per_tag.setdefault(q["tag"], [])
            tag_lat.append(lat)
            if isinstance(output, str):
                out_bytes += len(output.encode())
            if ok:
                if len(tag_lat) <= CHECKS_PER_TAG:
                    answers.append((q, output))
            else:
                raised += 1
                key = f"{q['tag']}: {error.splitlines()[0][:120]}"
                errors[key] = errors.get(key, 0) + 1
        elapsed += time.perf_counter() - t_round - in_slices
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer, rho_cache().hits - hits0, out_bytes)
        if spans_path is not None:
            tracer.write(spans_path)
        del tracer

    wrong = check_all(answers, tally or SoupTally())

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(latencies),
        "failed": raised + sum(n for _, _, n in wrong),
        "wrong": len(wrong),
        "wrong_examples": [f"{tag}: {why}" for tag, why, _ in wrong[:5]],
        "errors": errors,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "reference_slices": slices,
        "slowdown": reference.slowdown(slices),
        "per_tag": {t: [len(v), statistics.median(v)] for t, v in sorted(per_tag.items())},
        "layers": layers,
        "env": environment(),
    }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
