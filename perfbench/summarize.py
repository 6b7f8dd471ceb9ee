"""Summarise saved runs into a baseline record.

    python3 perfbench/summarize.py > baseline.json

Reads every run that ``run.py`` saved under ``.perfbench_out/`` and prints,
per workload: each end-to-end metric's median, quartiles and spread
(interquartile distance over the median, as in
``statistics.quantiles(values, n=4)``) across runs; nmi the same way; the
layer shares of the traced ``pipeline_s``; the exact per-layer counts per
seed; and the input and output fingerprints per instance.
"""
from __future__ import annotations

import json
import statistics
import sys

from run import E2E, LAYER_COUNTS, OUT, per_instance, metrics_of

SHARES = ("kron.estep_s", "kron.mstep_s", "completion.realize_s", "ranking.rank_s",
          "completion.as_graph_s", "community.detect_s", "pipeline.self_s")


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": len(values)}


def summarize(runs: list[dict]) -> dict:
    out: dict = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r["traced"], r["seed"])):
        if any(c["error"] for c in run["calls"]):
            continue
        w = out.setdefault(run["workload"], {"untraced": [], "traced": [], "inputs": {}, "outputs": {},
                                             "counts": {}, "nmi": []})
        for c in run["calls"]:
            r = c["record"]
            w["inputs"][str(r["seed"])] = r["input"]
            w["outputs"][str(r["seed"])] = {"cover_sha256": r["cover_sha256"],
                                            "trace_sha256": r["trace_sha256"]}
        m = metrics_of(run)
        if run["traced"]:
            traced_s = per_instance(run["calls"], lambda r: r["pipeline_s"], True)
            w["traced"].append({k: m[k] / traced_s for k in SHARES})
            w["counts"][str(run["seed"])] = {k: m[k] for k in LAYER_COUNTS}
        else:
            w["untraced"].append(m)
            if run["calls"][0]["record"]["nmi"] is not None:
                w["nmi"].append(per_instance(run["calls"], lambda r: r["nmi"], False))
    result = {}
    for name, w in out.items():
        entry = {"end_to_end": {k: spread([m[k] for m in w["untraced"]]) for k in E2E}
                 if w["untraced"] else {}}
        if w["nmi"]:
            entry["nmi"] = spread(w["nmi"])
        if w["traced"]:
            entry["layer_share"] = {k: statistics.median(s[k] for s in w["traced"]) for k in SHARES}
        entry.update(counts=w["counts"], inputs=w["inputs"], outputs=w["outputs"])
        result[name] = entry
    return result


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    if not runs:
        print(f"error: no saved runs under {OUT}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(runs), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
