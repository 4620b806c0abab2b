"""The powerlat benchmark: one command per workload, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root.  Each workload runs in fresh worker
processes (perfbench/worker.py) with PYTHONHASHSEED fixed to HASH_SEED and
the package imported from ./src.  With --trace 0 the set-up is repeated
in SETUP_RUNS processes and its median reported, then one process measures
the end-to-end metrics.  With --trace 1 one process runs every item once
untraced and once traced and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

WORKLOADS = ("lattice_axioms", "chain_shelling", "sr_polarize", "cli_requests")
HASH_SEED = "0"
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")



class BenchError(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--out", OUT,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_workload(spec: dict, workload: str, seed: int, seconds: float, traced: bool):
    """Returns (attempted, failed, metrics as name -> (value, unit)), with
    the metric names and units that BENCHMARK.json declares."""
    if traced:
        res = worker(workload, seed, seconds, "trace")
        values, declared = res["layers"], spec["per_layer"]
    else:
        setups = [worker(workload, seed, seconds, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
        res = worker(workload, seed, seconds, "measure")
        setups.append(res["setup_s"])
        res["setup_s"] = stats.median(setups)
        values, declared = res, spec["end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    for name, (value, unit) in metrics.items():
        print(f"{workload:15s} {name:52s} {value:14.6g} {unit}")
    failed_frac = res["failed"] / res["attempted"]
    detail = f"samples {res['samples']}, {res['beyond_p90']} beyond p90" if not traced else "traced pass"
    detail += f"; {res['waited']} items charged wall time"
    print(
        f"{workload:15s} failed_frac {failed_frac:.4g} ({res['failed']} of {res['attempted']});"
        f" {detail}; PYTHONHASHSEED={HASH_SEED}"
    )
    for reason in res["reasons"]:
        print(f"{workload:15s} failure: {reason}")
    return res["attempted"], res["failed"], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "powerlat", "__init__.py")):
        print(f"error: no powerlat sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = one_workload(spec, name, args.seed, args.seconds, bool(args.trace))
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
