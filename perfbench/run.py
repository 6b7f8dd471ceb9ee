"""Benchmark runner for the kromfac pipeline.

    python3 perfbench/run.py --workload ff-search --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each call of ``kromfac()`` runs in a fresh process (``measure.py``) with
BLAS pinned to one thread. A run keeps starting calls until the next one
would overrun ``--seconds``; the instances of the seed are visited in
turn, each at least once and the first twice, and an instance's output
fingerprints must repeat. With ``--trace 1`` the calls are traced except
one untraced call of the first instance, for the tracing overhead. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
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

from spans import self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0  # a run must end well inside 180 s

E2E = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "kron.fit_s", "kron.mstep_s", "kron.estep_s", "kron.loglik_s", "kron.grad_s",
    "completion.realize_s", "completion.as_graph_s", "ranking.rank_s",
    "community.detect_s", "community.detect_p50_s", "pipeline.self_s",
)
LAYER_COUNTS = (
    "kron.loglik_evals", "kron.grad_evals", "kron.mstep_calls", "kron.ls_trials_per_step",
    "completion.realized_edges", "completion.as_graph_calls", "ranking.h",
    "community.detect_calls", "community.passes", "community.unconverged",
)
LAYER_UNITS = {
    **{k: "s" for k in LAYER_TIMES},
    **{k: "count" for k in LAYER_COUNTS},
    "kron.ls_trials_per_step": "1/step",
    "graph.load_s": "s",
    "trace.overhead_s": "s",
}


def steal_ticks() -> int | None:
    """Host-wide steal ticks from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def one_call(workload: str, seed: int, traced: bool, timeout: float) -> tuple[dict | None, str]:
    """Run measure.py once; return (record, error)."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    s0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"call timed out after {timeout:.0f}s"
    s1 = steal_ticks()
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "no JSON record on stdout"
    record["steal_ticks"] = None if s0 is None or s1 is None else s1 - s0
    return record, ""


def verify(record: dict, first: dict) -> str:
    """Output-check problems plus any fingerprint that differs from the
    first call of the same instance; empty when the call passes."""
    problems = list(record["problems"])
    ref = first.setdefault(record["seed"], record)
    for key in ("input", "cover_sha256", "trace_sha256"):
        if record[key] != ref[key]:
            problems.append(f"{key} differs from the first call of seed {record['seed']}")
    return "; ".join(problems)


def measure(workload: str, count: int, seed: int, seconds: float, traced: bool,
            call=one_call) -> dict:
    """Calls in turn over the seed's `count` instances until the next call
    would overrun `seconds`; every instance runs at least once and the
    first runs twice.

    With tracing, every instance gets a traced call and the first also an
    untraced one, so their difference is the tracing overhead."""
    instances = [seed * count + j for j in range(count)]
    plan = [(s, traced) for s in instances]
    if traced:
        plan.insert(0, (instances[0], False))
    min_calls = len(plan) + (0 if traced else 1)
    calls: list[dict] = []
    first: dict = {}
    last_dur: dict = {}
    start = time.perf_counter()
    while True:
        inst, kind = plan[len(calls) % len(plan)]
        elapsed = time.perf_counter() - start
        if len(calls) >= min_calls and elapsed + last_dur.get(kind, 0.0) > seconds:
            break
        if elapsed >= HARD_LIMIT_S - 5:
            break
        t0 = time.perf_counter()
        record, error = call(workload, inst, kind, HARD_LIMIT_S - elapsed)
        last_dur[kind] = time.perf_counter() - t0
        if record is not None:
            error = verify(record, first)
        calls.append({"instance": inst, "traced": kind, "error": error, "record": record})
        if record is None:
            break  # a crash or timeout would repeat; stop the run
    return {"workload": workload, "seed": seed, "traced": traced, "calls": calls}


def per_instance(calls: list[dict], key, traced: bool) -> float:
    """Mean over instances of the median of `key` over that instance's calls."""
    by_inst: dict[int, list[float]] = {}
    for c in calls:
        if c["traced"] == traced and not c["error"]:
            by_inst.setdefault(c["instance"], []).append(key(c["record"]))
    return statistics.fmean(statistics.median(v) for v in by_inst.values())


def metrics_of(run: dict) -> dict:
    calls = run["calls"]
    if not run["traced"]:
        return {name: per_instance(calls, lambda r, n=name: r[n], False) for name in E2E}
    out = {name: per_instance(calls, lambda r, n=name: r["layers"][n], True)
           for name in LAYER_TIMES + LAYER_COUNTS}
    out["graph.load_s"] = per_instance(calls, lambda r: r["load_s"], True)
    both = [c for c in calls if c["instance"] == calls[0]["instance"]]
    out["trace.overhead_s"] = (per_instance(both, lambda r: r["pipeline_s"], True)
                               - per_instance(both, lambda r: r["pipeline_s"], False))
    return out


def report(run: dict) -> dict:
    """Print the human-readable lines for one run and return its result."""
    calls = run["calls"]
    failed = sum(1 for c in calls if c["error"])
    tag = f"{run['workload']} seed={run['seed']} trace={int(run['traced'])}"
    for c in calls:
        r = c["record"] or {}
        print(f"[{tag}] call seed={c['instance']} traced={int(c['traced'])} "
              f"pipeline_s={r.get('pipeline_s', float('nan')):.3f} "
              f"cpu_s={r.get('pipeline_cpu_s', float('nan')):.3f} "
              f"steal_ticks={r.get('steal_ticks')} {'FAIL ' + c['error'] if c['error'] else 'ok'}")
    ok = [c for c in calls if not c["error"]]
    metrics: dict = {}
    if {c["traced"] for c in ok} == {False, run["traced"]}:
        metrics = metrics_of(run)
        if run["traced"]:
            for name, agg in sorted(self_times_of(ok).items()):
                print(f"[{tag}] self {name}: calls={agg['calls']:g} total_s={agg['total_s']:.4f} "
                      f"self_s={agg['self_s']:.4f} (mean per traced call)")
        elif all(c["record"]["nmi"] is not None for c in ok):
            nmi = per_instance(calls, lambda r: r["nmi"], False)
            print(f"[{tag}] nmi = {nmi:.6g} (planted truth, observed nodes, n={len(ok)})")
    units = LAYER_UNITS if run["traced"] else E2E
    for name, value in metrics.items():
        print(f"[{tag}] {name} = {value:.6g} {units[name]} (n={len(ok)})")
    print(f"[{tag}] failed_ratio = {failed / len(calls):.3f} ({failed}/{len(calls)})")
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def self_times_of(calls: list[dict]) -> dict:
    """Per span name, the mean over traced calls of calls, total and self seconds."""
    traced = [c for c in calls if c["traced"]]
    out: dict = {}
    for c in traced:
        for name, agg in self_times(c["record"]["spans"]).items():
            acc = out.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k] / len(traced)
    return out


def save(run: dict) -> None:
    """Write the run's call records (and spans, when traced) under .perfbench_out/."""
    OUT.mkdir(exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{int(run['traced'])}"
    spans = [{"instance": c["instance"], "spans": c["record"].pop("spans")}
             for c in run["calls"] if c["record"] and "spans" in c["record"]]
    if spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(run, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kromfac" / "__init__.py").is_file():
        print(f"error: no kromfac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        jobs = [(name, t) for name in WORKLOADS for t in (0, 1)]
    elif args.workload in WORKLOADS:
        jobs = [(args.workload, args.trace)]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    results = []
    for name, t in jobs:
        run = measure(name, WORKLOADS[name].instances, args.seed, args.seconds, bool(t))
        results.append((name, report(run)))
        save(run)
    if len(results) == 1:
        result = results[0][1]
    else:
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    if not result["metrics"]:
        print("error: no call succeeded; no metrics", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
