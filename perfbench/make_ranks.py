"""Regenerate ranks.json, the expected dim and state rank of each type template.

    python3 perfbench/make_ranks.py

Each template, and the operand of each dual, is elaborated twice: spelled
with all atoms FO(d) and with all atoms ANY(d); the two must agree.  The benchmark's own tests check the
table against the closed forms it contains.  Run this only when a template
is added: the table is the reference answer, not something to refresh
after a change to the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from caustyk import dsl  # noqa: E402

import workloads as W  # noqa: E402


def main() -> int:
    table = {}
    templates = W.TYPE_ROUND + W.TYPE_ONCE + W.TYPE_SMOKE + (W.SEQ_T,)
    # operands of the duals too, so the tests can check rank(A^) against A
    templates += tuple(t[1:-2] for t in templates if t.startswith("(") and t.endswith(")^"))
    for template in dict.fromkeys(templates):
        seen = set()
        for variant in (0, W.n_spellings(template) - 1):
            obj = dsl.elaborate(dsl.parse_type(W.spell(template, variant)))
            seen.add((obj.dim, obj.states.rank()))
        if len(seen) != 1:
            print(f"{template}: spellings disagree {seen}", file=sys.stderr)
            return 1
        (dim, rank), = seen
        table[W.canonical(W.spell(template, 0))] = {"dim": dim, "rank": rank}
        print(f"{template:28s} dim {dim:3d} rank {rank}", flush=True)
    W.RANKS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
