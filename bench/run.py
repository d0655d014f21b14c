"""Benchmark of factorbench: three long, CPU-bound workloads.

    python3 bench/run.py --workload report|zfamily|counting|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``. Each
round of a workload runs in a fresh single-threaded process
(``bench/workloads.py``), and rounds repeat until about ``--seconds`` have
passed, with at least three rounds, or one untraced and traced pair.

With ``--trace 0`` the last line of standard output is one JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``, each the median
over the rounds. With ``--trace 1`` rounds alternate untraced and traced; the
metrics are the per-layer metrics, each the median over the traced rounds,
and ``trace.overhead_s`` is the median traced wall time minus the median
untraced one. ``--workload all`` runs each workload in turn and prints their
metrics prefixed by the workload's name.

The exit code is 0 when every round ran to its end, whether or not its
operations failed or its checks passed (``failed`` and ``correct`` say so),
and 1 when a round crashed or timed out, or the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "runs"
WORKLOADS = ("report", "zfamily", "counting")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 170


class RoundError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"  # one thread: no BLAS pool competes with the timed loop
    env["PYTHONHASHSEED"] = "0"
    return env


def one_round(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out-dir", str(OUT_DIR)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["round_s"] = time.monotonic() - t0
    return result


def rounds_for(seconds: float, per_set, min_sets: int = MIN_ROUNDS) -> list:
    """Run ``per_set()`` until another set would end past ``seconds``."""
    start = time.monotonic()
    sets = []
    while True:
        sets.append(per_set())
        elapsed = time.monotonic() - start
        if len(sets) >= min_sets and elapsed * (len(sets) + 1) / len(sets) > seconds:
            return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        pairs = rounds_for(seconds, lambda: (one_round(workload, seed, False), one_round(workload, seed, True)),
                           min_sets=1)
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        wanted = spec["per_layer"]
        values = {m["name"]: [r["layers"].get(m["name"], 0) for r in traced] for m in wanted}
        values["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
        ]
        rounds = plain + traced
    else:
        rounds = rounds_for(seconds, lambda: one_round(workload, seed, False))
        wanted = spec["end_to_end"]
        values = {m["name"]: [r[m["name"]] for r in rounds] for m in wanted}

    metrics = {}
    print(f"{workload} seed={seed} trace={int(trace)}: {len(rounds)} rounds in "
          f"{sum(r['round_s'] for r in rounds):.1f} s, {rounds[0]['checks']} checks "
          f"and {rounds[0]['attempted']} operations per round")
    for m in wanted:
        q1, med, q3 = quartiles(values[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"  {m['name']:<48} {med:14.6g} {m['unit']:<6} (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={len(values[m['name']])})")
    failures = sorted({f for r in rounds for f in r["op_failures"] + r["check_failures"]})
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    return {
        "correct": all(not r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "factorbench" / "__init__.py").is_file():
        print(f"no factorbench sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
