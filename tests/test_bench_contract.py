"""The names the benchmark reaches in caustyk, exercised in process.

``perfbench/`` wraps caustyk functions and methods by attribute and runs
workloads whose every op is checked against a known answer.  Deleting or
renaming a name it needs, or changing an answer it checks, breaks the
benchmark without failing any other test; this module catches both.  It
also elaborates every type in ``perfbench/ranks.json`` and checks its dim
and rank, so a broken hull algebra fails here before the benchmark runs.
The ``cli`` workload spawns processes and writes files, so it is left to
``tests/test_cli.py``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

from caustyk import dsl  # noqa: E402


def test_tracer_resolves_every_patched_name():
    tracing.Tracer()        # looks up every name it wraps; raises if one is gone


@pytest.mark.parametrize("name", ["typebuild", "verdicts", "families"])
def test_smoke_round_answers(name):
    plan = workloads.WORKLOADS[name].setup(seed=1, rounds=1, smoke=True,
                                           in_process=True)
    try:
        ops = plan.rounds[0] + plan.fixed
        assert ops
        for op in ops:
            assert op.check(op.fn(*op.args)) is None, op.kind
    finally:
        plan.close()


def test_rank_table_answers():
    # the reference dim and state rank of every benchmark type template
    table = workloads.load_ranks()
    assert table
    for expr, want in table.items():
        obj = dsl.elaborate(dsl.parse_type(expr))
        assert {"dim": obj.dim, "rank": obj.states.rank()} == want, expr
