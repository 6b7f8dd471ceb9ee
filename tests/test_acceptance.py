"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them all).
The slow criteria — parameter recovery, the comparative study, and the
runtime-scaling fit — take a few minutes combined.
"""
import itertools
import math
import time

import numpy as np
import pytest

import kromfac.kron as kron_mod
from kromfac.cli import run_command
from kromfac.community import Cover, DetectConfig, agm_log_likelihood, _gradient
from kromfac.evaluation import SampleSpec, agm_generate, nmi, restrict_truth, rn_sample
from kromfac.graph import Graph
from kromfac.kron import (
    EmConfig,
    KroneckerModel,
    NodeMapping,
    kron_entry,
    kron_ll_gradient,
    kron_log_likelihood,
    kronem_fit,
)
from kromfac.pipeline import (
    KromfacConfig,
    baseline1,
    baseline2,
    kromfac,
    search,
    select,
)
from test_graph import adjacent, neighbours


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def materialize(model: KroneckerModel) -> np.ndarray:
    out = model.theta
    for _ in range(model.k - 1):
        out = np.kron(out, model.theta)
    return out


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# --- analytic oracles -------------------------------------------------------


def test_kronecker_entry_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 6))
        theta = rng.uniform(0.05, 0.95, (2, 2))
        model = KroneckerModel(2, theta, k)
        full = materialize(model)
        n = 2**k
        got = np.array([[kron_entry(model, a, b) for b in range(n)] for a in range(n)])
        worst = max(worst, float(np.abs(got - full).max()))
    check("kronecker-entry oracle", worst <= 1e-12, f"max |err|={worst:.2e}")


def test_likelihood_cache_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 51))
        g = random_graph(n, float(rng.uniform(0.1, 0.5)), trial)
        c = int(rng.integers(1, 5))
        f = rng.uniform(0, 1.2, size=(n, c))
        fast = agm_log_likelihood(g, f)
        direct = 0.0
        for u in range(n):
            for v in range(u + 1, n):
                s = max(float(f[u] @ f[v]), 1e-10)
                if adjacent(g, u, v):
                    direct += math.log(-math.expm1(-s))
                else:
                    direct -= float(f[u] @ f[v])
        worst = max(worst, abs(fast - direct))
    check("likelihood cache oracle", worst <= 1e-9, f"max |err|={worst:.2e}")


def test_gradient_checks():
    rng = np.random.default_rng(2)
    h = 1e-5
    worst_kron = 0.0
    kron_points = 0
    for trial in range(6):
        n = 14
        model = KroneckerModel(2, rng.uniform(0.2, 0.8, (2, 2)), 4)
        mapping = NodeMapping(rng.choice(16, size=n, replace=False))
        g = random_graph(n, 0.3, 100 + trial)
        grad = kron_ll_gradient(g, mapping, model)
        for i in range(2):
            for j in range(2):
                tp = model.theta.copy()
                tp[i, j] += h
                tm = model.theta.copy()
                tm[i, j] -= h
                fd = (
                    kron_log_likelihood(g, mapping, KroneckerModel(2, tp, 4))
                    - kron_log_likelihood(g, mapping, KroneckerModel(2, tm, 4))
                ) / (2 * h)
                worst_kron = max(worst_kron, abs(grad[i, j] - fd) / max(abs(fd), 1e-8))
                kron_points += 1

    worst_agm = 0.0
    agm_points = 0
    fh = 1e-6
    for trial in range(4):
        n, c = 12, 3
        g = random_graph(n, 0.35, 200 + trial)
        f = rng.uniform(0.1, 1.0, size=(n, c))
        total = f.sum(axis=0)
        for u in rng.choice(n, size=2, replace=False).tolist():
            nbr_rows = f[neighbours(g, u)]
            grad = _gradient(nbr_rows @ f[u], nbr_rows, total - f[u])
            for comp in range(c):
                fp = f.copy()
                fp[u, comp] += fh
                fm = f.copy()
                fm[u, comp] -= fh
                fd = (agm_log_likelihood(g, fp) - agm_log_likelihood(g, fm)) / (2 * fh)
                worst_agm = max(worst_agm, abs(grad[comp] - fd) / max(abs(fd), 1e-6))
                agm_points += 1

    ok = worst_kron <= 1e-4 and worst_agm <= 1e-4 and kron_points >= 20 and agm_points >= 20
    check(
        "gradient checks",
        ok,
        f"kron rel={worst_kron:.2e} @{kron_points}pts, agm rel={worst_agm:.2e} @{agm_points}pts",
    )


# --- detection and recovery -------------------------------------------------


def test_detector_correctness():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    g = Graph(8, edges)
    planted = Cover((frozenset(range(4)), frozenset(range(4, 8))), 8)
    hits = sum(
        nmi(planted, baseline1(g, 2, seed=s)) == 1.0
        for s in range(10)
    )
    check("detector correctness", hits >= 8, f"exact recoveries {hits}/10")


def aligned_error(theta_hat, theta_true):
    best = np.inf
    for perm in itertools.permutations(range(theta_true.shape[0])):
        p = np.asarray(perm)
        best = min(best, float(np.abs(theta_hat[np.ix_(p, p)] - theta_true).mean()))
    return best


def test_parameter_recovery():
    # The model is identifiable only up to a simultaneous row/column
    # relabeling of the base matrix; the error is aligned over those.
    theta_true = np.array([[0.9, 0.6], [0.6, 0.2]])
    full = materialize(KroneckerModel(2, theta_true, 8))
    n = 256
    errs = []
    for s in range(5):
        rng = np.random.default_rng(1000 + s)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < full[u, v]
        ]
        g = Graph(n, edges)
        model, _ = kronem_fit(
            g, 0, 2, None, EmConfig(em_iters=8, grad_steps=20, mcmc_samples=400), seed=s
        )
        errs.append(aligned_error(model.theta, theta_true))
    mean_err = float(np.mean(errs))
    check("parameter recovery", mean_err <= 0.15, f"mean aligned error {mean_err:.3f}")


# --- end-to-end comparative study -------------------------------------------

STUDY_EM = EmConfig(em_iters=6, grad_steps=15, mcmc_samples=300)
STUDY_DETECT = DetectConfig(max_iters=100)


def planted_memberships(n, c, strength, overlap_frac, seed):
    f = np.zeros((n, c))
    size = n // c
    ov = int(size * overlap_frac)
    for j in range(c):
        f[j * size : min(n, (j + 1) * size + ov), j] = strength
    return f


def study_seed(seed, n=150, c=3, strength=1.0, overlap=0.3):
    """One trial: plant, delete 30% of the nodes uniformly, run all methods.

    Returns (per-i NMI curve, chosen i, chosen NMI, baseline NMIs).
    """
    f_true = planted_memberships(n, c, strength, overlap, seed * 977 + 1)
    g_true, truth = agm_generate(f_true, seed=seed * 31 + 5)
    g_obs, kept = rn_sample(g_true, SampleSpec("rn", fraction=0.7), seed * 13 + 2)
    truth_obs, _ = restrict_truth(truth, kept)
    n_obs = g_obs.n
    cfg = KromfacConfig(m=g_true.n - n_obs, c=c, seed=seed, em=STUDY_EM, detect=STUDY_DETECT)
    found = search(g_obs, cfg)
    i_hat = select(found, cfg.resolve_lambda(n_obs), cfg.include_i0).i_hat
    curve = [
        nmi(truth_obs, found.cover(i, cfg.delta).restrict(n_obs))
        for i in range(len(found.results))
    ]
    # Baseline 1 is the search's i = 0 candidate.
    b2 = nmi(truth_obs, baseline2(g_obs, cfg, found.rg).restrict(n_obs))
    return curve, i_hat, curve[i_hat], curve[0], b2


@pytest.fixture(scope="module")
def study_results():
    return [study_seed(s) for s in range(10)]


def test_comparative_advantage(study_results):
    k = float(np.mean([r[2] for r in study_results]))
    b1 = float(np.mean([r[3] for r in study_results]))
    b2 = float(np.mean([r[4] for r in study_results]))
    check(
        "comparative advantage",
        k >= b1 and k >= b2,
        f"mean NMI: full pipeline {k:.3f}, observed-only {b1:.3f}, full-completion {b2:.3f}",
    )


def test_selection_curve_shape(study_results):
    interior = 0
    gaps = []
    for curve, i_hat, chosen, _, _ in study_results:
        h = len(curve) - 1
        i_star = int(np.argmax(curve))
        interior += int(0 < i_star < h)
        gaps.append(max(curve) - chosen)
    mean_gap = float(np.mean(gaps))
    ok = interior > len(study_results) // 2 and mean_gap <= 0.05
    check(
        "selection curve shape",
        ok,
        f"interior max {interior}/{len(study_results)} seeds, mean NMI gap to best {mean_gap:.3f}",
    )


# --- runtime scaling --------------------------------------------------------


def scaling_graph(n_edges, seed, avg_deg=16):
    n = max(2 * n_edges // avg_deg, 16)
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < n_edges:
        us = rng.integers(0, n, size=2 * (n_edges - len(edges)))
        vs = rng.integers(0, n, size=len(us))
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v:
                edges.add((min(u, v), max(u, v)))
            if len(edges) == n_edges:
                break
    return Graph(n, edges)


def test_runtime_scaling(monkeypatch):
    # Pin the large-scale likelihood path at every size so one algorithm
    # is measured across the whole range.
    monkeypatch.setattr(kron_mod, "EXACT_PAIR_LIMIT", 1)
    cfg_em = EmConfig(em_iters=2, grad_steps=3, mcmc_samples=64)

    def run_once(e_exp, seed):
        g = scaling_graph(2**e_exp, seed)
        # epsilon is pinned low so the candidate count is the same at every
        # size and the measurement tracks input size, not selection noise.
        cfg = KromfacConfig(
            m=6, c=2, seed=seed, epsilon=1.0, em=cfg_em,
            detect=DetectConfig(max_iters=20),
        )
        t0 = time.perf_counter()
        kromfac(g, cfg)
        return time.perf_counter() - t0

    run_once(12, 99)  # warm-up
    exponents = range(12, 17)
    medians = [float(np.median([run_once(e, s) for s in range(2)])) for e in exponents]
    slope = float(np.polyfit(np.log([2.0**e for e in exponents]), np.log(medians), 1)[0])
    check(
        "runtime scaling",
        slope <= 1.25,
        "log-log slope {:.2f}, medians {}".format(
            slope, [round(t, 2) for t in medians]
        ),
    )


# --- scoring ----------------------------------------------------------------


def test_nmi_axioms():
    rng = np.random.default_rng(3)

    def random_cover(n):
        groups = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, n))
            groups.append(frozenset(rng.choice(n, size=size, replace=False).tolist()))
        return Cover(tuple(groups), n)

    ok = True
    detail = ""
    for _ in range(50):
        n = int(rng.integers(5, 41))
        x, y = random_cover(n), random_cover(n)
        s = nmi(x, y)
        if nmi(x, x) != 1.0:
            ok, detail = False, "identity violated"
            break
        if nmi(y, x) != s:
            ok, detail = False, "symmetry violated"
            break
        if not (0.0 <= s <= 1.0):
            ok, detail = False, f"range violated: {s}"
            break
        shuffled = Cover(tuple(reversed(y.communities)), n)
        if abs(nmi(x, shuffled) - s) > 1e-12:
            ok, detail = False, "permutation invariance violated"
            break
    check("nmi axioms", ok, detail or "50 random cover pairs")


# --- cli reproducibility ----------------------------------------------------


def test_cli_determinism(tmp_path, capsys):
    fast = [
        "--em-iters", "2", "--grad-steps", "4", "--mcmc-samples", "40",
    ]
    edges_lines = []
    for base in (0, 5):
        for u in range(5):
            for v in range(u + 1, 5):
                edges_lines.append(f"{base + u} {base + v}")
    edges = tmp_path / "g.txt"
    edges.write_text("\n".join(edges_lines) + "\n", encoding="utf-8")
    truth = tmp_path / "truth.txt"
    truth.write_text("0 1 2 3 4\n5 6 7 8 9\n", encoding="utf-8")

    commands = {
        "detect": [
            "detect", "--edges", str(edges), "--communities", "2",
            "--missing", "2", "--seed", "3", "--max-iters", "40", *fast,
        ],
        "baseline1": [
            "baseline1", "--edges", str(edges), "--communities", "2",
            "--seed", "3", "--max-iters", "40",
        ],
        "baseline2": [
            "baseline2", "--edges", str(edges), "--communities", "2",
            "--missing", "2", "--seed", "3", "--max-iters", "40", *fast,
        ],
        "complete": [
            "complete", "--edges", str(edges), "--missing", "2", "--seed", "3", *fast,
        ],
        "sample": [
            "sample", "--edges", str(edges), "--strategy", "ff",
            "--fraction", "0.6", "--seed", "3",
        ],
        "experiment": [
            "experiment", "--edges", str(edges), "--truth", str(truth),
            "--communities", "2", "--seed", "3", "--max-iters", "40", *fast,
        ],
    }

    stable = True
    detail = []
    for name, args in commands.items():
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}"
            code = run_command([*args, "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        same = files == sorted(p.name for p in outs[1].iterdir()) and all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files
        )
        stable &= same
        detail.append(f"{name}:{'ok' if same else 'DIFFERS'}")

    # eval writes nothing; its printed score must be reproducible.
    cover = tmp_path / "detect-a" / "cover.txt"
    capsys.readouterr()
    assert run_command(["eval", "--pred", str(cover), "--truth", str(truth)]) == 0
    first = capsys.readouterr().out
    assert run_command(["eval", "--pred", str(cover), "--truth", str(truth)]) == 0
    same = capsys.readouterr().out == first
    stable &= same
    detail.append(f"eval:{'ok' if same else 'DIFFERS'}")

    with capsys.disabled():
        check("cli determinism", stable, " ".join(detail))
