"""The benchmark's own tests; run with ``python3 -m pytest perfbench``.

They run every workload at smoke size, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402
from run import tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# traced counts that must repeat exactly for one seed
COUNTS = ("hermspace.svd_calls", "hermspace.null_space_calls", "hermspace.eig_calls",
          "causobj.objects_built", "causobj.distinct_ratio",
          "sampling.draws_per_sample", "hermspace.factor_flop_est", "cpmaps.choi_ops")


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke():
    """Untraced once and traced twice per workload, same seed."""
    out = {}
    for w in WORKLOADS:
        for key, trace in (("e2e", 0), ("trace_a", 1), ("trace_b", 1)):
            proc = _run(w, trace)
            assert proc.returncode == 0, proc.stderr
            out[w, key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("key,section", [("e2e", "end_to_end"), ("trace_a", "per_layer")])
def test_every_metric_printed_with_its_unit(smoke, workload, key, section):
    result = smoke[workload, key]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_end_to_end_metrics_are_nonzero(smoke):
    for w in WORKLOADS:
        for name, m in smoke[w, "e2e"]["metrics"].items():
            assert m["value"] > 0, (w, name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(smoke, workload):
    a = smoke[workload, "trace_a"]["metrics"]
    b = smoke[workload, "trace_b"]["metrics"]
    for name in COUNTS:
        assert a[name]["value"] == b[name]["value"], name


def test_traced_counts_are_exercised(smoke):
    # the repeat test means something only if every count moves somewhere
    for name in COUNTS:
        assert any(smoke[w, "trace_a"]["metrics"][name]["value"] for w in WORKLOADS), name


def test_rank_table_matches_closed_forms():
    table = W.load_ranks()
    for template in W.TYPE_ROUND + W.TYPE_ONCE + W.TYPE_SMOKE + (W.SEQ_T,):
        assert W.canonical(W.spell(template, W.n_spellings(template) - 1)) in table
    closed = 0
    for expr, row in table.items():
        if m := re.fullmatch(r"FO\((\d+)\)[*@<]FO\((\d+)\)", expr):
            d = int(m[1]) * int(m[2])                     # first order FO(D)
            assert row == {"dim": d, "rank": d * d - 1}, expr
            closed += 1
        elif m := re.fullmatch(r"\[FO\((\d+)\),FO\((\d+)\)\]", expr):
            a, b = int(m[1]), int(m[2])
            assert row == {"dim": a * b, "rank": a * a * b * b - a * a}, expr
            closed += 1
        elif expr.startswith("(") and expr.endswith(")^") and expr[1:-2] in table:
            inner = table[expr[1:-2]]                     # dual: complement rank
            assert row["rank"] == row["dim"] ** 2 - 1 - inner["rank"], expr
            closed += 1
    assert closed >= 4
    # tensor states sit inside seq states sit inside par states
    for a, b in (("[FO(2),FO(2)]", "[FO(2),FO(2)]"), ("[FO(2),FO(3)]", "[FO(2),FO(3)]")):
        ranks = [table[f"{a}{op}{b}"]["rank"] for op in "*<@"]
        assert ranks == sorted(ranks)


def test_tail_percentile_leaves_ten_ops_beyond():
    for n in (20, 27, 94, 143, 1740):
        p = tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        assert p == 50 or n * (100 - p - 1) / 100 < 10
    assert tail_percentile(5) == 50


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("typebuild", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
