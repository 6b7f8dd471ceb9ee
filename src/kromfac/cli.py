"""Command-line front end.

Subcommands: detect, baseline1, baseline2, complete, sample, eval,
experiment. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import io
import math
import secrets
import sys
from pathlib import Path

from .community import Cover, DetectConfig
from .evaluation import SampleSpec, ff_sample, nmi, rn_sample, run_experiment
from .graph import NodeIdMap, load_edge_list, write_edge_list
from .kron import EmConfig
from .pipeline import AUTO, KromfacConfig, baseline1, baseline2, complete, detect_seed, kromfac


def _threshold(value: str) -> float | str:
    if value == AUTO:
        return AUTO
    return float(value)


def _positive(value: str) -> float:
    """argparse type: a float with 0 < x < inf (so not 0, negative, nan or inf)."""
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return x


def _count(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def count(value: str) -> int:
        n = int(value)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n
    return count


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True, help="edge-list input file")
    p.add_argument("--out", default=".", help="output directory (default: cwd)")
    p.add_argument("--seed", type=_count(0), default=None,
                   help="master RNG seed; a random seed is drawn and printed if omitted")
    p.add_argument("-v", "--verbose", action="store_true")


def _add_em_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n0", type=_count(2), default=2, help="Kronecker base dimension (default 2)")
    p.add_argument("--em-iters", type=_count(1), default=30)
    p.add_argument("--mcmc-samples", type=_count(0), default=None,
                   help="placement proposals per E-step (default 10*(N+M))")
    p.add_argument("--grad-steps", type=_count(0), default=50)
    p.add_argument("--learning-rate", type=float, default=1e-5)


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--communities", type=_count(1), required=True, help="community count C")
    p.add_argument("--delta", type=_threshold, default=AUTO,
                   help="membership threshold, or 'auto' (default)")
    p.add_argument("--eta-detect", type=_positive, default=None,
                   help="convergence threshold (default: relative-absolute hybrid)")
    p.add_argument("--max-iters", type=_count(1), default=200)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=_threshold, default=AUTO,
                   help="influential-node threshold, or 'auto' = k_max/2 (default)")
    p.add_argument("--lambda-coef", type=float, default=10.0,
                   help="regularization coefficient c in lambda = c*N (default 10)")
    p.add_argument("--lambda", dest="lambda_abs", type=float, default=None,
                   help="absolute lambda override")
    p.add_argument("--no-i0", action="store_true", help="exclude i=0 from the search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kromfac",
        description="Overlapping community detection in partially observable networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="full pipeline with influential-node search")
    _add_common(p)
    _add_detect_flags(p)
    _add_em_flags(p)
    p.add_argument("--missing", type=_count(0), required=True, help="missing-node count M")
    _add_search_flags(p)

    p = sub.add_parser("baseline1", help="detection on the observed graph only")
    _add_common(p)
    _add_detect_flags(p)

    p = sub.add_parser("baseline2", help="detection on the fully completed graph")
    _add_common(p)
    _add_detect_flags(p)
    _add_em_flags(p)
    p.add_argument("--missing", type=_count(0), required=True)

    p = sub.add_parser("complete", help="fit the Kronecker model and realize the missing part")
    _add_common(p)
    _add_em_flags(p)
    p.add_argument("--missing", type=_count(0), required=True)

    p = sub.add_parser("sample", help="RN/FF subsample of a graph")
    _add_common(p)
    p.add_argument("--strategy", choices=("rn", "ff"), required=True)
    p.add_argument("--fraction", type=float, default=0.7)
    p.add_argument("--p-forward", type=float, default=0.7)

    p = sub.add_parser("eval", help="NMI between two cover files")
    p.add_argument("--pred", required=True, help="predicted cover file")
    p.add_argument("--truth", required=True, help="ground-truth cover file")
    p.add_argument("--universe", type=_count(0), default=None,
                   help="node-universe size (default: max id + 1 across both covers; "
                        "with non-integer labels, the number of distinct labels)")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("experiment", help="sample, run all methods, and report NMIs")
    _add_common(p)
    _add_detect_flags(p)
    _add_em_flags(p)
    p.add_argument("--truth", required=True, help="ground-truth community file (external ids)")
    p.add_argument("--strategy", choices=("rn", "ff"), default="rn")
    p.add_argument("--fraction", type=float, default=0.7)
    p.add_argument("--p-forward", type=float, default=0.7)
    _add_search_flags(p)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is None:
        seed = secrets.randbelow(2**32)
        print(f"seed: {seed} (randomly drawn; pass --seed {seed} to reproduce)")
        return seed
    return args.seed


def _load_graph(path: str):
    with open(path, encoding="utf-8") as f:
        return load_edge_list(f)


def _em_config(args) -> EmConfig:
    """EM settings from the flags; `complete` derives the EM seed."""
    return EmConfig(
        em_iters=args.em_iters,
        mcmc_samples=args.mcmc_samples,
        grad_steps=args.grad_steps,
        learning_rate=args.learning_rate,
    )


def _detect_config(args) -> DetectConfig:
    return DetectConfig(eta_detect=args.eta_detect, max_iters=args.max_iters)


def _kromfac_config(args, m: int, seed: int) -> KromfacConfig:
    return KromfacConfig(
        m=m,
        c=args.communities,
        n0=args.n0,
        lambda_coef=args.lambda_coef,
        lambda_abs=args.lambda_abs,
        epsilon=args.epsilon,
        delta=args.delta,
        em=_em_config(args),
        detect=_detect_config(args),
        include_i0=not args.no_i0,
        seed=seed,
    )


def _sample_spec(args) -> SampleSpec:
    """Sampler settings from the flags; the seed is passed to the sampler."""
    return SampleSpec(strategy=args.strategy, fraction=args.fraction, p_forward=args.p_forward)


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _cover_text(cover: Cover, id_map: NodeIdMap) -> str:
    lines = []
    for com in cover.communities:
        ids = [
            str(id_map.external(u)) if u < len(id_map.to_external) else f"rec{u}"
            for u in sorted(com)
        ]
        lines.append(" ".join(ids))
    return "\n".join(lines) + "\n"


def _cmd_detect(args) -> int:
    seed = _resolve_seed(args)
    g, id_map = _load_graph(args.edges)
    cover, trace = kromfac(g, _kromfac_config(args, args.missing, seed))
    out = Path(args.out)
    _write(out, "cover.txt", _cover_text(cover, id_map))
    _write(out, "trace.json", trace.to_json() + "\n")
    print(f"detect: i_hat={trace.i_hat} H={trace.h} communities={len(cover.communities)}")
    return 0


def _cmd_baseline1(args) -> int:
    seed = _resolve_seed(args)
    g, id_map = _load_graph(args.edges)
    cover = baseline1(g, args.communities, args.delta, _detect_config(args), detect_seed(seed, 0))
    _write(Path(args.out), "cover.txt", _cover_text(cover, id_map))
    print(f"baseline1: communities={len(cover.communities)}")
    return 0


def _cmd_baseline2(args) -> int:
    seed = _resolve_seed(args)
    g, id_map = _load_graph(args.edges)
    cfg = KromfacConfig(
        m=args.missing,
        c=args.communities,
        n0=args.n0,
        delta=args.delta,
        em=_em_config(args),
        detect=_detect_config(args),
        seed=seed,
    )
    cover = baseline2(g, cfg)
    _write(Path(args.out), "cover.txt", _cover_text(cover, id_map))
    print(f"baseline2: communities={len(cover.communities)}")
    return 0


def _cmd_complete(args) -> int:
    seed = _resolve_seed(args)
    g, _ = _load_graph(args.edges)
    model, mapping, rg = complete(g, args.missing, args.n0, _em_config(args), seed)
    out = Path(args.out)
    _write(out, "theta.json", model.to_json() + "\n")
    _write(out, "mapping.json", mapping.to_json() + "\n")
    buf = io.StringIO()
    rg.write(buf)
    _write(out, "recovered.txt", buf.getvalue())
    print(f"complete: m={args.missing} z1={len(rg.z1)} z2={len(rg.z2)}")
    return 0


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    g, id_map = _load_graph(args.edges)
    sub, kept = (rn_sample if args.strategy == "rn" else ff_sample)(g, _sample_spec(args), seed)
    labels = [id_map.external(u) for u in kept.to_external]
    buf = io.StringIO()
    write_edge_list(sub, buf, NodeIdMap({label: new for new, label in enumerate(labels)}, labels))
    out = Path(args.out)
    _write(out, "sampled.txt", buf.getvalue())
    _write(out, "kept.txt", "\n".join(map(str, labels)) + "\n")
    print(f"sample: strategy={args.strategy} kept={sub.n}/{g.n}")
    return 0


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _cmd_eval(args) -> int:
    texts = []
    for path in (args.pred, args.truth):
        with open(path, encoding="utf-8") as f:
            texts.append(f.read().splitlines())
    tokens = [
        tok for lines in texts for line in lines
        if not line.strip().startswith("#") for tok in line.split()
    ]
    universe = args.universe
    id_map = None
    if not all(_is_int(tok) for tok in tokens):
        # Labels that are not all integers go through one table shared by both files.
        labels = list(dict.fromkeys(tokens))
        id_map = NodeIdMap({label: i for i, label in enumerate(labels)}, labels)
        universe = max(len(labels), universe or 0)
    pred, truth = (Cover.read(lines, id_map=id_map) for lines in texts)
    if universe is None:
        universe = max(pred.universe, truth.universe)
    pred = Cover(pred.communities, universe)
    truth = Cover(truth.communities, universe)
    score = nmi(truth, pred)
    print(f"eval: nmi={score:.6f}")
    return 0


def _cmd_experiment(args) -> int:
    seed = _resolve_seed(args)
    g, id_map = _load_graph(args.edges)
    with open(args.truth, encoding="utf-8") as f:
        try:
            truth = Cover.read(f, id_map=id_map, universe=g.n)
        except KeyError as exc:
            raise ValueError(f"truth label '{exc.args[0]}' not in the edge list") from None
    # m=0 is a placeholder: run_experiment sets m to the sampler's deletion count.
    report = run_experiment(g, truth, _sample_spec(args), _kromfac_config(args, 0, seed))
    out = Path(args.out)
    _write(out, "report.json", report.to_json() + "\n")
    rows = ["i,loss,reg_loss"]
    rows += [f"{e.i},{e.loss!r},{e.reg_loss!r}" for e in report.trace.entries]
    _write(out, "curves.csv", "\n".join(rows) + "\n")
    s = report.scores
    print(
        "experiment: i_hat={} nmi kromfac={:.4f} baseline1={:.4f} baseline2={:.4f}".format(
            report.trace.i_hat, s["kromfac"], s["baseline1"], s["baseline2"]
        )
    )
    if args.verbose:
        for name, sec in report.timing.items():
            print(f"  {name}: {sec:.2f}s")
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "baseline1": _cmd_baseline1,
    "baseline2": _cmd_baseline2,
    "complete": _cmd_complete,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
