"""One measured call: set up a workload instance, run ``kromfac()`` once,
check its outputs and print one JSON record on stdout.

Run as a fresh process per call by ``run.py``; the environment pins
BLAS to one thread and puts the checkout's ``src/`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

from kromfac import kron, pipeline
from kromfac.community import Cover, DetectConfig
from kromfac.evaluation import nmi
from kromfac.graph import NodeIdMap, load_edge_list
from kromfac.kron import EmConfig
from kromfac.pipeline import KromfacConfig

from spans import Recorder, self_times
from workloads import WORKLOADS, Workload, make_instance

# Set-up is repeated (at least 3 times, at most 25, stopping once 0.25 s
# is spent) so that its median is steady even when one pass takes 1 ms.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 0.25


def cover_text(cover: Cover, id_map: NodeIdMap) -> str:
    """cover.txt exactly as ``kromfac detect`` writes it."""
    lines = []
    for com in cover.communities:
        ids = [
            str(id_map.external(u)) if u < len(id_map.to_external) else f"rec{u}"
            for u in sorted(com)
        ]
        lines.append(" ".join(ids))
    return "\n".join(lines) + "\n"


def check_outputs(cover: Cover, trace, n_observed: int, c: int) -> list[str]:
    """Problems with one kromfac() result; empty when it passes."""
    problems = []
    if len(cover.communities) != c:
        problems.append(f"cover has {len(cover.communities)} communities, expected {c}")
    if cover.universe != n_observed + trace.i_hat:
        problems.append(
            f"cover universe {cover.universe} != N + i_hat = {n_observed + trace.i_hat}"
        )
    listed = [e.i for e in trace.entries]
    if listed != list(range(trace.h + 1)):
        problems.append(f"trace lists candidates {listed}, expected 0..{trace.h}")
    if trace.entries:
        best = min(trace.entries, key=lambda e: (e.reg_loss, e.i))
        if best.i != trace.i_hat:
            problems.append(f"i_hat={trace.i_hat} but argmin reg_loss is i={best.i}")
    return problems


def setup(wl: Workload, seed: int):
    """Generate the input and load it; repeated so the set-up time is a median."""
    totals, loads = [], []
    while len(totals) < SETUP_MIN or (len(totals) < SETUP_MAX and sum(totals) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        inst = make_instance(wl, seed)
        t1 = time.perf_counter()
        g, id_map = load_edge_list(inst.edge_text.splitlines())
        t2 = time.perf_counter()
        totals.append(t2 - t0)
        loads.append(t2 - t1)
    return inst, g, id_map, statistics.median(totals), statistics.median(loads)


def install_tracing(rec: Recorder) -> None:
    rec.wrap(pipeline, "kronem_fit", "kronem_fit")
    rec.wrap(kron, "ascend_theta", "ascend_theta")
    rec.wrap(kron, "kron_log_likelihood", "kron_log_likelihood")
    rec.wrap(kron, "kron_ll_gradient", "kron_ll_gradient")
    rec.wrap(pipeline, "realize_missing", "realize_missing",
             lambda rg: {"edges": len(rg.z1) + len(rg.z2)})
    rec.wrap(pipeline, "default_epsilon", "default_epsilon")
    rec.wrap(pipeline, "select_influential", "select_influential", lambda r: {"h": r.h})
    rec.wrap(pipeline, "as_graph", "as_graph")
    rec.wrap(pipeline, "commun_det", "commun_det",
             lambda r: {"passes": r.passes, "converged": bool(r.converged)})


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer counts and seconds of one traced call."""
    def of(name):
        return [s for s in spans if s["name"] == name]

    def secs(name):
        return sum(s["end"] - s["start"] for s in of(name))

    fit, mstep = secs("kronem_fit"), secs("ascend_theta")
    ll, grad = of("kron_log_likelihood"), of("kron_ll_gradient")
    mstep_calls = len(of("ascend_theta"))
    det = of("commun_det")
    det_secs = [s["end"] - s["start"] for s in det]
    return {
        "kron.fit_s": fit,
        "kron.mstep_s": mstep,
        "kron.estep_s": fit - mstep,
        "kron.loglik_evals": len(ll),
        "kron.loglik_s": secs("kron_log_likelihood"),
        "kron.grad_evals": len(grad),
        "kron.grad_s": secs("kron_ll_gradient"),
        "kron.mstep_calls": mstep_calls,
        "kron.ls_trials_per_step": (len(ll) - mstep_calls) / len(grad) if grad else 0.0,
        "completion.realize_s": secs("realize_missing"),
        "completion.realized_edges": sum(s["edges"] for s in of("realize_missing")),
        "completion.as_graph_s": secs("as_graph"),
        "completion.as_graph_calls": len(of("as_graph")),
        "ranking.rank_s": secs("default_epsilon") + secs("select_influential"),
        "ranking.h": sum(s["h"] for s in of("select_influential")),
        "community.detect_s": sum(det_secs),
        "community.detect_calls": len(det),
        "community.detect_p50_s": statistics.median(det_secs) if det_secs else 0.0,
        "community.passes": sum(s["passes"] for s in det),
        "community.unconverged": sum(not s["converged"] for s in det),
        "pipeline.self_s": self_times(spans)["kromfac"]["self_s"],
    }


def config(wl: Workload, inst, seed: int) -> KromfacConfig:
    return KromfacConfig(
        m=inst.m,
        c=wl.c,
        seed=seed,
        em=EmConfig(**wl.em),
        detect=DetectConfig(**wl.detect),
        **({} if wl.epsilon is None else {"epsilon": wl.epsilon}),
    )


def run_call(wl: Workload, seed: int, traced: bool) -> dict:
    inst, g, id_map, setup_s, load_s = setup(wl, seed)
    cfg = config(wl, inst, seed)
    rec = Recorder()
    if traced:
        install_tracing(rec)
    try:
        root = rec.open("kromfac")
        c0, t0 = time.process_time(), time.perf_counter()
        cover, trace = pipeline.kromfac(g, cfg)
        t1, c1 = time.perf_counter(), time.process_time()
        rec.close(root)
    finally:
        rec.unwrap_all()
    cover_bytes = cover_text(cover, id_map).encode()
    trace_bytes = (trace.to_json() + "\n").encode()
    truth = Cover(
        tuple(
            frozenset(id_map.internal(u) for u in com if u in id_map.to_internal)
            for com in inst.truth
        ),
        g.n,
    )
    score = nmi(truth, cover.restrict(g.n)) if inst.truth else None
    record = {
        "seed": seed,
        "input": inst.fingerprint(g.n, g.edge_count),
        "setup_s": setup_s,
        "load_s": load_s,
        "pipeline_s": t1 - t0,
        "pipeline_cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nmi": score,
        "problems": check_outputs(cover, trace, g.n, wl.c),
        "cover_sha256": hashlib.sha256(cover_bytes).hexdigest(),
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
        "h": trace.h,
        "i_hat": trace.i_hat,
    }
    if traced:
        record["layers"] = layer_metrics(rec.spans)
        record["spans"] = rec.spans
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = run_call(WORKLOADS[args.workload], args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
