"""One workload in one fresh process; prints one JSON object.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/worker.py \\
        --workload NAME --seed N --seconds S --mode setup|measure|trace --out DIR

`run.py` starts this with a fixed PYTHONHASHSEED, because HasseLattice
keys are strings and set iteration order would otherwise change between
processes.

An item's time is the CPU time of the whole process, every thread and
every reaped child process included, unless the process waited during the
item: a voluntary context switch (sleep, I/O wait, lock wait, waiting on
another thread or process) charges the item its wall time instead.  The
seed library never waits inside an item, so the figures are CPU times,
which leave out the time the host takes from a virtual CPU (see
README.md); work moved to another thread or process is still counted,
and waiting is counted as the wall time it takes.  Set-up is the CPU time,
children included, from interpreter start to the first timed item.  A
child process still alive at the end fails the run, since its CPU time
cannot be counted.
"""

import argparse
import json
import os
import resource
import sys
import time

import stats
import workloads as W

P90 = 90
TRACE_CLOCK = time.thread_time  # spans, taken inside the one calling thread


def _cpu_s() -> float:
    """CPU time of this process and of its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _waits() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


def _has_children() -> bool:
    """Whether a child process, running or not yet reaped, exists."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def _workload(name: str, out_dir: str):
    """(items(seed), run(item), check(item, answer), close())"""
    if name == "lattice_axioms":
        return W.lattice_items, W.lattice_run, W.lattice_check, lambda: None
    if name == "chain_shelling":
        return W.chain_items, W.chain_run, W.chain_check, lambda: None
    if name == "sr_polarize":
        return W.sr_items, W.sr_run, W.sr_check, lambda: None
    if name == "cli_requests":
        reqs = W.CliRequests(os.path.join(out_dir, f"cli-{os.getpid()}"))
        return reqs.items, W.cli_run, W.cli_check, reqs.close
    raise SystemExit(f"unknown workload {name!r}")


class Tally:
    """Attempts, failures, the first few failure reasons, and the items
    charged wall time because the process waited."""

    def __init__(self, run, check):
        self.run = run
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.waited = 0
        self.reasons: list = []

    def one(self, item):
        """Answer one item, time it, then check it outside the timed span.
        Returns the time taken and the answer (None when it failed)."""
        waits, wall, cpu = _waits(), time.perf_counter(), _cpu_s()
        try:
            ans = self.run(item)
            err = None
        except Exception as exc:  # an unexpected raise is a failed query
            ans, err = None, f"{type(exc).__name__}: {exc}"
        cpu, wall = _cpu_s() - cpu, time.perf_counter() - wall
        if _waits() != waits:
            self.waited += 1
            took = wall
        else:
            took = cpu
        self.attempted += 1
        reason = err if err is not None else self.check(item, ans)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
            return took, None
        return took, ans


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(items, tally: Tally, seconds: float) -> dict:
    """Closed loop, one caller: whole passes over the items until the run
    time is less than half a mean pass away and the sample-count rule of
    the 90th percentile is met, so that a run ends within half a pass of
    the run time."""
    need = stats.min_samples(P90)
    lat: list = []
    passes = 0
    begun = time.perf_counter()
    while True:
        lat += [tally.one(item)[0] for item in items]
        passes += 1
        elapsed = time.perf_counter() - begun
        if elapsed + elapsed / passes / 2 >= seconds and len(lat) >= need:
            break
    return {
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": stats.percentile(lat, 50) * 1e3,
        "latency_p90_ms": stats.percentile(lat, P90) * 1e3,
        "samples": len(lat),
        "beyond_p90": stats.beyond(P90, len(lat)),
    }


def trace(name, items, tally: Tally, out_dir: str, seed: int) -> dict:
    """One pass in which each item runs untraced and then traced, so that
    drift in the machine's speed cancels out of the tracing overhead."""
    import tracer as T

    tr = T.Tracer(clock=TRACE_CLOCK, costs=T.calibrate(TRACE_CLOCK))
    groups, modules = T.powerlat_groups(), T.powerlat_modules()
    plain = traced = 0.0
    answers = []
    for k, item in enumerate(items):
        plain += tally.one(item)[0]
        tr.item = k
        tr.install(groups, modules)
        try:
            took, ans = tally.one(item)
        finally:
            tr.uninstall()
        traced += took
        answers.append(ans)
    os.makedirs(out_dir, exist_ok=True)
    tr.write(os.path.join(out_dir, f"trace-{name}-{seed}.json"))
    metrics = layer_metrics(tr, answers)
    metrics["trace.overhead_ratio"] = traced / plain - 1.0
    metrics["trace.calibrated_overhead_ratio"] = T.wrapper_seconds(tr) / plain
    return metrics


def layer_metrics(tr, answers) -> dict:
    out = {}
    for group, st in tr.stats.items():
        out[f"{group}.calls"] = st.calls
        out[f"{group}.self_s"] = st.self_s
        out[f"{group}.total_s"] = st.total_s
    for counter in ("lattice.verify_ops", "ordercomplex.chains", "stanley_reisner.polar_subsets"):
        out[counter] = tr.counters.get(counter, 0)
    chains = tr.stats["ordercomplex.maximal_chains"]
    out["ordercomplex.within_budget_ratio"] = (
        (chains.calls - chains.raised) / chains.calls if chains.calls else 0.0
    )
    lifted = [a["lifted_ok"] for a in answers if isinstance(a, dict) and "lifted_ok" in a]
    out["stanley_reisner.lifted_order_ok_ratio"] = sum(lifted) / len(lifted) if lifted else 0.0
    for code in (0, 1, 2):
        out[f"cli.exit_code.{code}"] = sum(
            1 for a in answers if isinstance(a, dict) and a.get("code") == code
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    make, run, check, close = _workload(args.workload, args.out)
    try:
        items = make(args.seed)
        result = {"setup_s": _cpu_s()}
        if args.mode != "setup":
            tally = Tally(run, check)
            if args.mode == "measure":
                result.update(measure(items, tally, args.seconds))
            else:
                result["layers"] = trace(args.workload, items, tally, args.out, args.seed)
            result.update(
                attempted=tally.attempted,
                failed=tally.failed,
                waited=tally.waited,
                reasons=tally.reasons,
                peak_rss_mib=_peak_rss_mib(),
            )
    finally:
        close()
    if _has_children():
        print("a child process outlived the run; its CPU time cannot be counted", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
