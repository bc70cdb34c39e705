"""caustyk benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload typebuild --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                    # every workload, table
    python3 perfbench/run.py --all --trace 1          # per-layer table

A run builds the workload's inputs from the seed (set-up, repeated at
least five times and for at least a second, reported as the median), then
runs its fixed op list in a closed loop with one client: each op starts
when the previous one has returned.
The op list holds as many rounds as fit in ``--seconds`` on a 2-core
reference box, so the input size is fixed by ``--seconds`` and not by the
speed of the machine.  Every op's answer is checked after the timed phase.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` even rounds run untraced and odd rounds traced, and the
last line carries the per-layer metrics of the traced rounds.  The line
before it is a ``{"detail": ...}`` object with machine facts, the op count,
the tail percentile used and any failures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up runs at least SETUP_REPS times and for SETUP_MIN_S in all, so that
# the median of a set-up of a few ms is as steady as that of one of seconds
SETUP_REPS = 5
SETUP_MIN_S = 1.0
SETUP_BUDGET_S = 30.0    # stop repeating set-up once it has taken this long
DEADLINE_S = 120.0       # start no new op after this much timed work


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten ops beyond it (50 at least)."""
    return max(50, int(100 * (1 - 10 / n))) if n else 50


def _percentile(values, p):
    import numpy as np
    return float(np.percentile(values, p)) if values else 0.0


def _cli_import_ms(reps: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import caustyk.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def run_workload(args) -> int:
    if not (SRC / "caustyk" / "__init__.py").is_file():
        return _fail(f"no caustyk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import caustyk
    if Path(caustyk.__file__).resolve().parent != SRC / "caustyk":
        return _fail(f"imported caustyk from {caustyk.__file__}, not {SRC}")
    import workloads as W
    spec = _spec()
    wl = W.WORKLOADS[args.workload]
    traced = bool(args.trace)
    rounds = wl.rounds_for(args.seconds, args.smoke)

    W.warm_up()
    setup_times = []
    plan = None
    try:
        while (len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S) \
                and sum(setup_times) < SETUP_BUDGET_S:
            if plan is not None:
                plan.close()
                plan = None
            t0 = time.perf_counter()
            plan = wl.setup(args.seed, rounds, args.smoke, traced)
            setup_times.append(time.perf_counter() - t0)

        tracer = None
        if traced:
            from tracing import Tracer
            tracer = Tracer()
        # (op, traced?, round) in run order; the fixed ops come last, so the
        # memory the rounds leave behind is the same when they run
        schedule = [(op, traced and r % 2 == 1, r)
                    for r, ops in enumerate(plan.rounds) for op in ops]
        schedule += [(op, traced, -1) for op in plan.fixed]

        lat_ns, results = [], []
        installed = False
        errors = 0
        t_start = time.perf_counter()
        for i, (op, on, _) in enumerate(schedule):
            if time.perf_counter() - t_start > DEADLINE_S:
                break
            if on and not installed:
                tracer.install()
            elif installed and not on:
                tracer.remove()
            installed = on
            t0 = time.perf_counter_ns()
            try:
                if on:
                    got = tracer.run_op(i, op.kind, op.fn, op.args)
                else:
                    got = op.fn(*op.args)
            except Exception as err:          # an unexpected error is a failed op
                got = err
                errors += 1
            t1 = time.perf_counter_ns()
            lat_ns.append(t1 - t0)
            results.append(got)
        wall = time.perf_counter() - t_start
        if installed:
            tracer.remove()

        failures = []
        for (op, _, _), got in zip(schedule, results):
            if isinstance(got, Exception):
                failures.append((op.kind, f"{type(got).__name__}: {got}"))
                continue
            try:
                why = op.check(got)
            except Exception as err:          # a malformed answer is a wrong one
                why = f"check raised {type(err).__name__}: {err}"
            if why:
                failures.append((op.kind, why))
        attempted = len(results)
    finally:
        if plan is not None:
            plan.close()

    lat_ms = [x / 1e6 for x in lat_ns]
    p_tail = tail_percentile(len(lat_ms))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(traced), "smoke": args.smoke, "rounds": rounds,
        "attempted": attempted, "scheduled": len(schedule),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:5], "tail_percentile": p_tail,
        "setup_runs": len(setup_times), "timed_wall_s": wall,
        "kind_p50_ms": _by_kind(schedule, lat_ms, 50),
        "kind_max_ms": _by_kind(schedule, lat_ms, 100),
        "machine": machine_facts(),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if traced:
        values = tracer.layer_metrics()
        # compare whole pairs of rounds (untraced, traced) with the same
        # work; the fixed ops and an unpaired last round run one way only
        paired = rounds - rounds % 2
        on = [t for t, (_, f, r) in zip(lat_ns, schedule) if f and 0 <= r < paired]
        off = [t for t, (_, f, r) in zip(lat_ns, schedule) if not f and 0 <= r < paired]
        values["trace.overhead_frac"] = sum(on) / sum(off) - 1.0 if on and off else 0.0
        values["cli.import_ms"] = _cli_import_ms() if args.workload == "cli" else 0.0
        names = [m["name"] for m in spec["per_layer"]]
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        detail["span_file"] = str(span_file.relative_to(ROOT))
        detail["traced_ops"] = sum(f for _, f, _ in schedule[:attempted])
    else:
        if args.workload == "cli":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = attempted - errors
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": done / wall,
            "op_p50_ms": _percentile(lat_ms, 50),
            "op_tail_ms": _percentile(lat_ms, p_tail),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


def _by_kind(schedule, lat_ms, p) -> dict:
    groups: dict[str, list[float]] = {}
    for (op, _, _), x in zip(schedule, lat_ms):
        groups.setdefault(op.kind, []).append(x)
    return {k: round(_percentile(v, p), 3) for k, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    spec = _spec()
    failed = False
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed = True
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        print(f"# {w['name']}: {result['attempted']} ops, "
              f"failed_frac {detail['failed_frac']:.4g} ratio, "
              f"tail = p{detail['tail_percentile']}")
        for f in detail["failures"]:
            print(f"#   failure {f[0]}: {f[1]}")
        for name, m in result["metrics"].items():
            print(f"{w['name']:10s} {name:32s} {m['value']:14.6g} {m['unit']}")
        failed |= not result["correct"]
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in _spec()["workloads"]])
    p.add_argument("--all", action="store_true",
                   help="run every workload of BENCHMARK.json, one process each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
