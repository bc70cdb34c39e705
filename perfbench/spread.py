"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10                 # every workload
    python3 perfbench/spread.py --workloads verdicts --seeds 1-5 --out s.json

For each end-to-end metric this prints the median of the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound in BENCHMARK.json.  A
spread above a third of the bound is flagged ``wide``, above the bound
``OVER``; set-up time is exempt from the spread rule and only listed.  Use
the same command on a parent and a change to cite a before and after.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": time.perf_counter() - t0,
            "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every run and the summary as JSON")
    args = p.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"runs": {}, "summary": {}}
    worst = "ok"
    for w in args.workloads.split(","):
        runs = [run_once(w, s, args.seconds, args.trace) for s in _seeds(args.seeds)]
        report["runs"][w] = runs
        bad = sum(not r["result"]["correct"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"# {w}: {len(runs)} runs, {bad} with failures, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(vals)
            report["summary"][f"{w}/{m['name']}"] = s
            flag = ""
            bound = m.get("bound")
            if bound is not None and m["name"] != "setup_s":
                flag = ("OVER" if s["spread"] > bound else
                        "wide" if s["spread"] > bound / 3 else "ok")
                if flag == "OVER" or (flag == "wide" and worst == "ok"):
                    worst = flag
            print(f"{w:10s} {m['name']:32s} median {s['median']:12.6g} {m['unit']:6s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:6.3f}"
                  + (f" bound {bound} {flag}" if bound is not None else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 1 if worst == "OVER" else 0


if __name__ == "__main__":
    sys.exit(main())
