"""loopsoup benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Measures set-up time as the median of several fresh interpreters
importing loopsoup, then runs the workload in a fresh process
(perfbench/worker.py) with BLAS pinned to one thread, on inputs generated
from the seed, and checks its answers afterwards. Every end-to-end time is
divided by the machine's slowdown during the run, which the worker gauges
with the fixed load of perfbench/reference.py; the report shows the wall
figures too. --trace 1 runs the
workload a second time with every traced loopsoup function wrapped, and
reports the per-layer metrics instead of the end-to-end ones. The last line of stdout
is one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json lists, with the units it gives them.

`correct` is false when any answer disagrees with its independent route
beyond that route's certificate. `failed` also counts queries that raised
or exited non-zero, such as the near-critical queries loopsoup cannot
answer today.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

# Metric names and units, by run kind: end-to-end (--trace 0) or per-layer.
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {trace: {m["name"]: m["unit"] for m in _BENCHMARK[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}

# Fresh interpreters timed per run for setup_s; their median is reported.
SETUP_REPS = 3
# The worker must end well within the 180 s a run may take.
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(reps: int) -> float:
    """Median wall time of a fresh interpreter importing loopsoup (and its
    CLI) until the first query could be issued. The median discards the
    first import, which may fill the bytecode and file caches."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import loopsoup.cli"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(workload: str, seed: int, inputs: Path, seconds: float,
               trace: int, result: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--inputs", str(inputs), "--seconds", str(seconds),
           "--trace", str(trace), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=WORKER_TIMEOUT_S)
    return json.loads(result.read_text())


def wall_figures(res: dict) -> dict[str, float]:
    """The worker's time metrics as measured, before scaling."""
    lat = res["latencies"]
    return {
        "queries_per_s": res["attempted"] / res["elapsed_s"],
        "query_p50_s": statistics.median(lat),
        "query_p90_s": statistics.quantiles(lat, n=10)[-1],
    }


def end_to_end(res: dict, setup_s: float) -> dict[str, float]:
    """End-to-end metrics, times divided by the machine's slowdown during
    the worker's run (a rate multiplied by it). Set-up is timed just before
    that run, too briefly to gauge the machine on its own."""
    k = res["slowdown"]
    wall = wall_figures(res)
    return {
        "setup_s": setup_s / k,
        "queries_per_s": wall["queries_per_s"] * k,
        "query_p50_s": wall["query_p50_s"] / k,
        "query_p90_s": wall["query_p90_s"] / k,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate, run and check one workload; return the printable report."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        report = {"workload": workload, "seed": seed, "why": gen.WHY[workload]}
        if trace:
            plain = run_worker(workload, seed, work / "plain", seconds, 0,
                               work / "plain.json")
            (WORK / "traces").mkdir(exist_ok=True)
            res = run_worker(workload, seed, work / "traced", seconds, 1,
                             work / "traced.json",
                             WORK / "traces" / f"{workload}-seed{seed}.tsv")
            metrics = dict(res["layers"])
            qps = [r["attempted"] / r["elapsed_s"] * r["slowdown"] for r in (plain, res)]
            metrics["trace.overhead_frac"] = (qps[1] - qps[0]) / qps[0]
            runs = (plain, res)
        else:
            setup_s = setup_seconds(SETUP_REPS)
            res = run_worker(workload, seed, work / "plain", seconds, 0,
                             work / "plain.json")
            metrics = end_to_end(res, setup_s)
            report["wall"] = dict(wall_figures(res), setup_s=setup_s)
            runs = (res,)
        report.update(
            metrics=metrics,
            attempted=res["attempted"],
            failed=res["failed"],
            correct=all(r["wrong"] == 0 for r in runs),
            result=res,
            wrong=[w for r in runs for w in r["wrong_examples"]],
        )
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict, trace: int) -> None:
    res = report["result"]
    lat = res["latencies"]
    print(f"workload={report['workload']} seed={report['seed']} "
          f"rounds={res['rounds']} elapsed_s={res['elapsed_s']:.3f} "
          f"slowdown={res['slowdown']:.4f} ({len(res['reference_slices'])} slices)")
    print(f"  why: {report['why']}")
    for name, unit in UNITS[trace].items():
        print(f"  {name:42s} {report['metrics'][name]:14.6g} {unit}")
    for name, value in report.get("wall", {}).items():
        print(f"  {'wall ' + name:42s} {value:14.6g}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted}; {res['wrong']} wrong answers)")
    if not trace and len(lat) >= 2:
        p90 = report["metrics"]["query_p90_s"]
        print(f"  latency samples: {len(lat)}, beyond p90: "
              f"{sum(1 for x in lat if x > p90)}")
    if trace:
        layers = {k[len("layer."):-len(".self_s")]: v
                  for k, v in report["metrics"].items() if k.startswith("layer.")}
        total = sum(layers.values()) or 1.0
        print("  self-time share: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    for key, count in sorted(res["errors"].items()):
        print(f"  error x{count}: {key}")
    for line in report["wrong"]:
        print(f"  wrong: {line}")
    for tag, (n, med) in res["per_tag"].items():
        print(f"  tag {tag:36s} n={n:5d} median_s={med:.5f}")
    print("env " + json.dumps(res["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="loopsoup benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "loopsoup" / "__init__.py").is_file():
        print(f"error: no loopsoup sources at {SRC}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        report = run_workload(workload, args.seed, args.seconds, args.trace)
        print_report(report, args.trace)
        summary[workload] = report
    final = {
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
    }
    listed = {w: {k: {"value": r["metrics"][k], "unit": unit}
                  for k, unit in UNITS[args.trace].items()}
              for w, r in summary.items()}
    final["metrics"] = listed if args.workload == "all" else listed[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
