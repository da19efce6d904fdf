"""polyelast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload, each in a fresh process (worker.py), until
the rounds have measured at least --seconds of set-up and solve time, then
prints every metric by name with its unit and, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are the end-to-end ones (medians over the rounds); with --trace 1
one traced round follows and the metrics are the per-layer ones, plus the
time the span hooks spent on their own bookkeeping.  Outputs (CSV, VTK, POLYMESH,
trace spans) go to perfbench/out/.  Exits 1 without a result if any round
fails to run.
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

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-solve", "lambda-sweep", "polytopal")
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
# every run, its rounds and its traced round end within this many seconds
DEADLINE_S = 170.0
# span names a traced round of each workload must record; a missing one
# means the benchmark no longer sees the calls the program makes
EXPECTED_SPANS = {
    "cold-solve": {"mesh.build", "assembly.matrix", "assembly.load",
                   "assembly.lifting", "assembly.reduce", "solver.cg",
                   "space.interpolate", "analysis.error"},
    "lambda-sweep": {"mesh.build", "analysis.study", "assembly.matrix",
                     "assembly.load", "assembly.lifting", "assembly.reduce",
                     "solver.cg", "space.interpolate", "analysis.error"},
    "polytopal": {"mesh.build", "cli.check_suite", "mesh.validate",
                  "assembly.matrix", "assembly.load", "assembly.lifting",
                  "assembly.reduce", "solver.cg", "space.interpolate",
                  "analysis.error", "vtk_io.write"},
}


class RoundError(RuntimeError):
    """A worker process failed or did not finish in time."""


def worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: steadier on a shared machine, and within nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_round(workload: str, seed: int, check: bool, trace: bool, out: Path,
              timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--check", str(int(check)), "--trace", str(int(trace)),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundError(f"{workload} round exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RoundError(f"{workload} round printed no result")
    return json.loads(lines[-1])


def measured(round_: dict) -> float:
    return sum(round_["setup_s"]) + round_["solve_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.perf_counter()
    rounds = []
    slowest = 0.0
    try:
        while not rounds or sum(map(measured, rounds)) < args.seconds:
            elapsed = time.perf_counter() - start
            # with --trace 1 a traced round of about the same length follows
            reserve = slowest * (2 if args.trace else 1)
            if rounds and elapsed + reserve > DEADLINE_S:
                break
            began = time.perf_counter()
            rounds.append(run_round(args.workload, args.seed, not rounds, False,
                                    out, DEADLINE_S - elapsed))
            slowest = max(slowest, time.perf_counter() - began)
        traced = None
        if args.trace:
            traced = run_round(args.workload, args.seed, False, True, out,
                               DEADLINE_S - (time.perf_counter() - start))
    except (RoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # only the first round checks its outputs; the outputs are deterministic,
    # so a later round that reproduces them exactly earns the same verdicts
    ops = rounds[0]["ops"]
    failed = [op for op in ops if not op["ok"]]
    repeatable = all(r["outputs"] == rounds[0]["outputs"] for r in rounds)
    correct = repeatable and all(op["known_fault"] for op in failed)
    attempted = len(rounds) * len(ops)
    n_failed = len(rounds) * len(failed)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations, {n_failed} failed")
    for op in failed:
        note = " (known fault)" if op["known_fault"] else ""
        print(f"FAILED{note} {op['id']}: {op['detail']}")
    if not repeatable:
        print("FAILED rounds did not reproduce the same outputs")
    for k, r in enumerate(rounds, 1):
        print(f"round {k}: setup {' '.join(f'{s:.3f}' for s in r['setup_s'])} s, "
              f"solve {r['solve_s']:.3f} s, peak RSS {r['peak_rss_mb']:.1f} MB")

    setups = [s for r in rounds for s in r["setup_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    units = dict(END_TO_END)
    if traced is not None:
        missing = EXPECTED_SPANS[args.workload] - {s["name"] for s in traced["spans"]}
        stale = bool(missing) or traced["outputs"] != rounds[0]["outputs"]
        if stale:
            print(f"trace is stale: missing spans {sorted(missing)} or outputs "
                  "differ from the untraced rounds")
        # for information only: on a machine whose speed drifts, the gap
        # between a traced and an untraced round is mostly that drift
        gap = measured(traced) - statistics.median(measured(r) for r in rounds)
        print(f"traced round took {gap:+.3f} s more than the untraced median; "
              f"the span hooks' own bookkeeping took {traced['overhead_s']:.6f} s")
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["overhead_s"]
        values["trace.stale"] = int(stale)
        units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
        units.update({"trace.overhead_s": "s", "trace.stale": "count"})
        (out / "trace.json").write_text(json.dumps(
            {"spans": traced["spans"], "metrics": values}, indent=1))

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
