"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.05", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    result = _run("words", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_times_are_divided_by_the_machine_slowdown():
    res = {"attempted": 10, "elapsed_s": 2.0, "latencies": [0.1] * 5 + [0.3] * 5,
           "peak_rss_mb": 50.0, "slowdown": 2.0}
    metrics = run.end_to_end(res, 1.2)
    assert metrics == pytest.approx({
        "setup_s": 0.6, "queries_per_s": 10.0, "query_p50_s": 0.1,
        "query_p90_s": 0.15, "peak_rss_mb": 50.0})


def test_benchmark_lists_the_generated_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)


def _rounds(workload: str, seed: int, out: Path, order) -> dict:
    stream = gen.Stream(workload, seed, out)
    return {r: stream.round(r) for r in order}


def test_same_seed_same_stream(tmp_path):
    for workload in gen.WORKLOADS:
        a = _rounds(workload, 7, tmp_path / f"{workload}-a", (0, 1, 2))
        # a round does not depend on the rounds drawn before it
        b = _rounds(workload, 7, tmp_path / f"{workload}-b", (2, 0, 1))
        c = _rounds(workload, 8, tmp_path / f"{workload}-c", (0, 1, 2))
        assert a == b
        assert a != c
        assert a[0] != a[1]
        files_a = sorted(p.relative_to(tmp_path / f"{workload}-a")
                         for p in (tmp_path / f"{workload}-a").rglob("*") if p.is_file())
        for rel in files_a:
            assert ((tmp_path / f"{workload}-a" / rel).read_bytes()
                    == (tmp_path / f"{workload}-b" / rel).read_bytes())


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    # root [0, 10] -> child [1, 4] -> grandchild [2, 3]; child [5, 6]
    for name, start, end, parent in (("a", 0, 10, -1), ("b", 1, 4, 0),
                                     ("c", 2, 3, 1), ("b", 5, 6, 0)):
        tracer.name_id.append(tracer._ids.setdefault(name, len(tracer._ids)))
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    self_s, calls = tracer.self_times()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


# ---------------------------------------------------------------------------
# perturbed answers must be counted as failed

def _perturb_text(q: dict, out: str) -> str:
    lines = out.splitlines()
    verb = q["argv"][0]
    if verb == "zeta":
        return out.replace("agree=True", "agree=False")
    if verb == "signature":
        word, value = lines[2].split(",")
        lines[2] = f"{word},{Fraction(value) + 1}"
    elif verb == "enumerate":
        row = lines[-1].split(",")
        row[-1] = repr(float(row[-1]) + 1.0)
        lines[-1] = ",".join(row)
    elif verb == "validate":
        lines = [("mass: -1.0" if line.startswith("mass:") else line) for line in lines]
    elif verb == "sample":
        row = lines[2].split(",")
        row[2] = str(int(row[2]) + 1)
        lines[2] = ",".join(row)
    else:  # h1, h2, homotopy: push the value below any certified lower bound
        row = lines[-1].split(",")
        row[-1] = repr(-0.5 - abs(float(row[-1])))
        lines[-1] = ",".join(row)
    return "\n".join(lines) + "\n"


def _perturb_result(q: dict, result: dict) -> dict:
    if q["call"] == "holonomy":
        key = next(iter(result))
        return {**result, key: result[key] * 1.5 + 1.0}
    if q["call"] == "currents":
        h1 = result["h1"]
        return {**result, "h1": (h1[0] + 1,) + h1[1:]}
    coords = {d: dict(c) for d, c in result["coords"].items()}
    coords[1][(1,)] = coords[1].get((1,), Fraction(0)) + 1
    return {"coords": coords}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_perturbed_answers_count_as_failed(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    queries = gen.Stream(workload, 3, Path(".")).round(0)
    tally = worker.SoupTally()
    answers = []
    for q in queries:
        if q["tag"].endswith("critical") or "torus10" in q["tag"]:
            continue  # the slowest queries add nothing to this test
        ok, output, error = worker.run_query(q, tally)
        assert ok, error
        answers.append((q, output))
    assert worker.check_all(answers, tally) == []

    # loop-listing soups are checked only when pooled, below
    perturbed = [(q, _perturb_text(q, out) if isinstance(out, str)
                  else _perturb_result(q, out))
                 for q, out in answers if not q["tag"].startswith("sample.")
                 or q["occupation"]]
    wrong = worker.check_all(perturbed, worker.SoupTally())
    assert len(wrong) == len(perturbed), [tag for tag, _, _ in wrong]

    if workload == "soups":
        for fam in tally.families.values():
            fam["counts"] = {k: 5 * n + 5 for k, n in fam["counts"].items()}
        wrong = worker.check_all(answers, tally)
        assert {tag for tag, _, _ in wrong} == {f"sample.{f}" for f in tally.families}
        assert sum(n for _, _, n in wrong) == sum(
            fam["queries"] for fam in tally.families.values())


def test_fails_without_sources(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "words",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
