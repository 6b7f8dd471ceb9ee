"""Self-test of the benchmark on tiny inputs; takes well under a minute.

    python3 perfbench/selftest.py

Checks that a run of every workload prints each metric BENCHMARK.json
names, with its unit, and that the output checks catch a corrupted
cover, a wrong i_hat, a gap in the candidate list and a fingerprint
that does not repeat. Exits 0 when all checks pass.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kromfac import pipeline  # noqa: E402
from kromfac.community import Cover  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_EM = {"em_iters": 2, "grad_steps": 3, "mcmc_samples": 40}
TINY = {
    "planted-em": replace(WORKLOADS["planted-em"], params={**WORKLOADS["planted-em"].params, "n": 20},
                          em=SMALL_EM),
    "ff-search": replace(WORKLOADS["ff-search"], params={**WORKLOADS["ff-search"].params, "n": 24},
                         em=SMALL_EM, detect={"max_iters": 5, "eta_detect": 1e-12}),
    "sparse-cutover": replace(WORKLOADS["sparse-cutover"], params={"n": 64, "edges": 160, "m": 2},
                              em=SMALL_EM, detect={"max_iters": 2}),
}
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def in_process(name: str, seed: int, traced: bool, timeout: float):
    record = measure.run_call(TINY[name], seed, traced)
    record["steal_ticks"] = None
    return record, ""


def check_metrics_printed(spec: dict) -> None:
    for name, wl in WORKLOADS.items():
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = run.report(run.measure(name, wl.instances, 1, 0.0, traced, call=in_process))
            text = out.getvalue()
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={int(traced)}: result lists exactly the {section} metrics with units")
            expect(all(f"] {k} = " in text for k in want), f"{name} trace={int(traced)}: every metric printed")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={int(traced)}: outputs pass")


def check_output_checks() -> None:
    wl = TINY["ff-search"]
    inst, g, _, _, _ = measure.setup(wl, 3)
    cover, trace = pipeline.kromfac(g, measure.config(wl, inst, 3))

    def trips(cv, tr, phrase: str) -> bool:
        return any(phrase in p for p in measure.check_outputs(cv, tr, g.n, wl.c))

    expect(measure.check_outputs(cover, trace, g.n, wl.c) == [], "a real result passes the output checks")
    expect(trips(Cover(cover.communities[:-1], cover.universe), trace, "communities"),
           "a cover missing a community fails")
    expect(trips(Cover(cover.communities, cover.universe + 1), trace, "universe"),
           "a cover over the wrong universe fails")
    shifted = replace(trace, i_hat=trace.i_hat + 1)
    expect(trips(Cover(cover.communities, cover.universe + 1), shifted, "argmin"),
           "an i_hat that is not the argmin fails")
    expect(trips(cover, replace(trace, entries=trace.entries[1:]), "candidates"),
           "a trace that skips a candidate fails")

    calls = iter(range(10))

    def drifting(name, seed, traced, timeout):
        record, _ = in_process(name, seed, traced, timeout)
        record["cover_sha256"] = str(next(calls))
        return record, ""

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report(run.measure("planted-em", 1, 1, 0.0, False, call=drifting))
    expect(not result["correct"] and result["failed"] == 1,
           "a cover fingerprint that changes between calls of one seed counts as failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics_printed(spec)
    check_output_checks()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
