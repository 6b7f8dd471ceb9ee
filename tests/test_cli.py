import hashlib
import io
import json

import pytest

from kromfac import pipeline
from kromfac.cli import build_parser, run_command
from kromfac.graph import load_edge_list
from kromfac.kron import EmConfig
from kromfac.pipeline import complete

FAST_EM = ["--em-iters", "2", "--grad-steps", "4", "--mcmc-samples", "40"]
FAST_DETECT = ["--max-iters", "40"]


def no_fit(*args, **kwargs):
    raise AssertionError("the Kronecker fit ran")


def two_cliques_file(tmp_path, name="g.txt", size=4):
    lines = []
    for base in (0, size):
        for u in range(size):
            for v in range(u + 1, size):
                lines.append(f"{base + u} {base + v}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestUsageErrors:
    def test_no_arguments(self):
        assert run_command([]) == 2

    def test_unknown_subcommand(self):
        assert run_command(["frobnicate"]) == 2

    def test_missing_required_flag(self, tmp_path):
        edges = two_cliques_file(tmp_path)
        assert run_command(["detect", "--edges", str(edges)]) == 2

    def test_help_exits_zero(self):
        assert run_command(["--help"]) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--em-iters", "0"), ("--grad-steps", "-1"), ("--max-iters", "0"),
        ("--n0", "1"), ("--mcmc-samples", "-1"),
    ])
    def test_rejects_bad_count(self, tmp_path, capsys, flag, value):
        edges = two_cliques_file(tmp_path)
        args = [
            "detect", "--edges", str(edges), "--out", str(tmp_path / "o"),
            "--communities", "2", "--missing", "2", "--seed", "0", flag, value,
        ]
        assert run_command(args) == 2
        assert f"{flag}: must be >=" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_rejects_non_positive_eta_detect(self, tmp_path, capsys, value):
        edges = two_cliques_file(tmp_path)
        args = [
            "detect", "--edges", str(edges), "--out", str(tmp_path / "o"),
            "--communities", "2", "--missing", "2", "--seed", "0", "--eta-detect", value,
        ]
        assert run_command(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == f"kromfac detect: error: argument --eta-detect: must be > 0, got {value}"
        assert not (tmp_path / "o").exists()

    def test_complete_rejects_n0_below_two(self, tmp_path, capsys):
        edges = two_cliques_file(tmp_path)
        args = [
            "complete", "--edges", str(edges), "--out", str(tmp_path / "o"),
            "--missing", "2", "--seed", "0", "--n0", "0",
        ]
        assert run_command(args) == 2
        assert "--n0: must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_accepts_smallest_counts(self):
        args = build_parser().parse_args([
            "detect", "--edges", "g.txt", "--communities", "2", "--missing", "2",
            "--em-iters", "1", "--grad-steps", "0", "--max-iters", "1",
        ])
        assert (args.em_iters, args.grad_steps, args.max_iters) == (1, 0, 1)

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        edges = two_cliques_file(tmp_path)
        args = [
            "detect", "--edges", str(edges), "--out", str(tmp_path / "o"),
            "--communities", "2", "--missing", "2", "--seed", "0", "--threads", "2",
        ]
        assert run_command(args) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRuntimeErrors:
    @pytest.mark.parametrize("command, flag, value, name", [
        ("complete", "--learning-rate", "nan", "learning_rate"),
        ("detect", "--learning-rate", "inf", "learning_rate"),
        ("detect", "--delta", "nan", "delta"),
        ("detect", "--lambda", "nan", "lambda_abs"),
        ("detect", "--lambda-coef", "nan", "lambda_coef"),
        ("detect", "--epsilon", "nan", "epsilon"),
        ("detect", "--epsilon", "-1", "epsilon"),
        ("baseline1", "--delta", "nan", "delta"),
    ])
    def test_rejects_non_finite_setting(self, tmp_path, capsys, monkeypatch, command, flag, value, name):
        # One error line and no artefact: accepted, each of these would
        # exit 0 with theta frozen, empty communities or i_hat forced to 0.
        monkeypatch.setattr(pipeline, "kronem_fit", no_fit)
        edges = two_cliques_file(tmp_path)
        sizes = {"complete": ["--missing", "2"], "detect": ["--communities", "2", "--missing", "2"],
                 "baseline1": ["--communities", "2", *FAST_DETECT]}[command]
        args = [command, "--edges", str(edges), "--out", str(tmp_path / "o"), "--seed", "0",
                *sizes, flag, value]
        assert run_command(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name} must be positive and finite")
        assert not (tmp_path / "o").exists()

    def test_missing_input_file(self, tmp_path):
        args = [
            "baseline1", "--edges", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path), "--communities", "2", "--seed", "0",
        ]
        assert run_command(args) == 1

    def test_malformed_edge_list(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n", encoding="utf-8")
        args = [
            "baseline1", "--edges", str(bad),
            "--out", str(tmp_path), "--communities", "2", "--seed", "0",
        ]
        assert run_command(args) == 1

    def test_truth_label_not_in_edge_list(self, tmp_path, capsys):
        edges = two_cliques_file(tmp_path)
        truth = tmp_path / "truth.txt"
        truth.write_text("0 1 2 3\n4 5 6 99\n", encoding="utf-8")
        args = [
            "experiment", "--edges", str(edges), "--truth", str(truth),
            "--out", str(tmp_path / "o"), "--communities", "2", "--seed", "0",
        ]
        assert run_command(args) == 1
        assert capsys.readouterr().err == "error: truth label '99' not in the edge list\n"


    @pytest.mark.parametrize("command", [
        ["detect", "--missing", "1", *FAST_EM],
        ["baseline1"],
        ["baseline2", "--missing", "1", *FAST_EM],
    ], ids=["detect", "baseline1", "baseline2"])
    def test_empty_edge_list(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(pipeline, "kronem_fit", no_fit)
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        args = [
            *command, "--edges", str(empty), "--out", str(tmp_path / "o"),
            "--communities", "2", "--seed", "0",
        ]
        assert run_command(args) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot detect communities on an empty graph (0 nodes)\n"

    def test_complete_on_empty_edge_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "kronem_fit", no_fit)
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        args = [
            "complete", "--edges", str(empty), "--out", str(tmp_path / "o"),
            "--missing", "3", "--seed", "0",
        ]
        assert run_command(args) == 1
        assert capsys.readouterr().err == "error: cannot complete an empty observed graph (0 nodes)\n"
        assert not (tmp_path / "o").exists()


class TestSample:
    def test_outputs_and_determinism(self, tmp_path):
        edges = two_cliques_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_command([
                "sample", "--edges", str(edges), "--out", str(out),
                "--strategy", "rn", "--fraction", "0.75", "--seed", "5",
            ])
            assert code == 0
        assert (out1 / "sampled.txt").read_bytes() == (out2 / "sampled.txt").read_bytes()
        assert (out1 / "kept.txt").read_bytes() == (out2 / "kept.txt").read_bytes()
        kept = (out1 / "kept.txt").read_text().split()
        assert len(kept) == 6
        with open(out1 / "sampled.txt", encoding="utf-8") as f:
            sub, id_map = load_edge_list(f)
        assert sub.n <= 6
        assert set(id_map.to_external) <= set(kept)

    def test_ff_strategy(self, tmp_path):
        edges = two_cliques_file(tmp_path)
        out = tmp_path / "ff"
        code = run_command([
            "sample", "--edges", str(edges), "--out", str(out),
            "--strategy", "ff", "--fraction", "0.5", "--seed", "1",
        ])
        assert code == 0
        assert len((out / "kept.txt").read_text().split()) == 4


class TestBaseline1:
    def test_recovers_cliques(self, tmp_path, capsys):
        edges = two_cliques_file(tmp_path)
        out = tmp_path / "out"
        code = run_command([
            "baseline1", "--edges", str(edges), "--out", str(out),
            "--communities", "2", "--seed", "0", *FAST_DETECT,
        ])
        assert code == 0
        assert "baseline1:" in capsys.readouterr().out
        groups = [
            frozenset(line.split())
            for line in (out / "cover.txt").read_text().splitlines()
        ]
        assert len(groups) == 2


class TestDetect:
    def detect_args(self, edges, out, seed="3"):
        return [
            "detect", "--edges", str(edges), "--out", str(out),
            "--communities", "2", "--missing", "2", "--seed", seed,
            *FAST_DETECT, *FAST_EM,
        ]

    def test_artifacts_and_byte_identical_rerun(self, tmp_path):
        edges = two_cliques_file(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_command(self.detect_args(edges, out1)) == 0
        assert run_command(self.detect_args(edges, out2)) == 0
        for name in ("cover.txt", "trace.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        trace = json.loads((out1 / "trace.json").read_text())
        assert {"i_hat", "h", "trace", "lambda"} <= set(trace)

    def test_random_seed_announced_when_omitted(self, tmp_path, capsys):
        edges = two_cliques_file(tmp_path)
        args = [
            "detect", "--edges", str(edges), "--out", str(tmp_path / "o"),
            "--communities", "2", "--missing", "0", *FAST_DETECT, *FAST_EM,
        ]
        assert run_command(args) == 0
        assert "seed:" in capsys.readouterr().out


class TestComplete:
    def test_artifacts(self, tmp_path):
        edges = two_cliques_file(tmp_path)
        out = tmp_path / "c"
        code = run_command([
            "complete", "--edges", str(edges), "--out", str(out),
            "--missing", "2", "--seed", "1", *FAST_EM,
        ])
        assert code == 0
        theta = json.loads((out / "theta.json").read_text())
        assert theta["n0"] == 2
        assert (out / "mapping.json").exists()
        text = (out / "recovered.txt").read_text()
        assert "#BASE" in text and "#Z1" in text and "#Z2" in text

    def test_artifacts_match_complete(self, tmp_path):
        edges = two_cliques_file(tmp_path)
        out = tmp_path / "c"
        code = run_command([
            "complete", "--edges", str(edges), "--out", str(out),
            "--missing", "2", "--seed", "7", *FAST_EM,
        ])
        assert code == 0
        with open(edges, encoding="utf-8") as f:
            g, _ = load_edge_list(f)
        em = EmConfig(em_iters=2, grad_steps=4, mcmc_samples=40)
        model, mapping, rg = complete(g, 2, 2, em, 7)
        buf = io.StringIO()
        rg.write(buf)
        assert (out / "theta.json").read_text() == model.to_json() + "\n"
        assert (out / "mapping.json").read_text() == mapping.to_json() + "\n"
        assert (out / "recovered.txt").read_text() == buf.getvalue()


# sha256 of the files that `complete` and `sample` write for the two
# 5-cliques of test_cli_determinism with seed 3 and its fast EM flags.
# `sample` draws no floats; `complete` rests on the same exact-sigma
# stability as test_golden_fit. A change to these values changes a CLI
# artefact: update them only together with a note on why the bytes moved.
# `complete` was re-pinned when MH over sigma took one up-front uniform
# per proposal, which forked the EM stream (the recovered block is now
# empty for this input and seed).
GOLDEN_ARTEFACTS = {
    "complete": {
        "recovered.txt": "c7fe1922bffe3b100207e1460fbf832f46339d303b28b335cd109f0368a893a1",
        "mapping.json": "e84fd50011cecdbe66369d8e9caa3893d4202d3352106789c9110949d9f02548",
    },
    "sample": {
        "sampled.txt": "adef35f24f011f263e5e5daedb827096129933775de684391d74e888ad2cbc3a",
        "kept.txt": "392306f996c5ec31929420a36d7e67517d9235484e90bc2299af0698c82fde60",
    },
}


class TestGoldenArtefacts:
    @pytest.mark.parametrize("command", sorted(GOLDEN_ARTEFACTS))
    def test_sha256(self, tmp_path, command):
        edges = two_cliques_file(tmp_path, size=5)
        args = {
            "complete": ["complete", "--missing", "2", *FAST_EM],
            "sample": ["sample", "--strategy", "ff", "--fraction", "0.6"],
        }[command]
        out = tmp_path / "out"
        assert run_command([*args, "--edges", str(edges), "--seed", "3", "--out", str(out)]) == 0
        got = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_ARTEFACTS[command]
        }
        assert got == GOLDEN_ARTEFACTS[command]


class TestEval:
    def test_perfect_agreement(self, tmp_path, capsys):
        cover = tmp_path / "cover.txt"
        cover.write_text("0 1 2\n3 4 5\n", encoding="utf-8")
        code = run_command(["eval", "--pred", str(cover), "--truth", str(cover)])
        assert code == 0
        assert "nmi=1.000000" in capsys.readouterr().out

    def test_universe_override(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1\n", encoding="utf-8")
        b.write_text("0 1\n2 3\n", encoding="utf-8")
        code = run_command([
            "eval", "--pred", str(a), "--truth", str(b), "--universe", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        score = float(out.strip().split("nmi=")[1])
        assert 0.0 <= score <= 1.0


    def eval_out(self, capsys, pred, truth, *extra):
        assert run_command(["eval", "--pred", str(pred), "--truth", str(truth), *extra]) == 0
        return capsys.readouterr().out

    def test_detect_then_eval_with_string_labels(self, tmp_path, capsys):
        labels = "abcdefgh"
        edges = tmp_path / "g.txt"
        edges.write_text(
            "".join(
                f"{labels[base + u]} {labels[base + v]}\n"
                for base in (0, 4) for u in range(4) for v in range(u + 1, 4)
            ),
            encoding="utf-8",
        )
        truth = tmp_path / "truth.txt"
        truth.write_text("a b c d\ne f g h\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run_command([
            "detect", "--edges", str(edges), "--out", str(out), "--communities", "2",
            "--missing", "2", "--seed", "3", *FAST_DETECT, *FAST_EM,
        ]) == 0
        capsys.readouterr()
        score = float(self.eval_out(capsys, out / "cover.txt", truth).split("nmi=")[1])
        assert 0.0 <= score <= 1.0
        assert self.eval_out(capsys, truth, truth) == "eval: nmi=1.000000\n"

    def test_label_universe(self, tmp_path, capsys):
        # Labels share one table across both files; the universe is the
        # number of distinct labels, or --universe if that is larger.
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("x rec7\n", encoding="utf-8")
        b.write_text("x rec7\nz w\n", encoding="utf-8")
        ia, ib = tmp_path / "ia.txt", tmp_path / "ib.txt"
        ia.write_text("0 1\n", encoding="utf-8")
        ib.write_text("0 1\n2 3\n", encoding="utf-8")
        assert self.eval_out(capsys, a, b) == self.eval_out(capsys, ia, ib)
        assert self.eval_out(capsys, a, b, "--universe", "2") == self.eval_out(capsys, ia, ib)
        assert (
            self.eval_out(capsys, a, b, "--universe", "6")
            == self.eval_out(capsys, ia, ib, "--universe", "6")
        )


class TestExperiment:
    def test_report_and_determinism(self, tmp_path):
        edges = two_cliques_file(tmp_path, size=5)
        truth = tmp_path / "truth.txt"
        truth.write_text(
            " ".join(str(u) for u in range(5)) + "\n"
            + " ".join(str(u) for u in range(5, 10)) + "\n",
            encoding="utf-8",
        )
        outs = []
        for label in ("e1", "e2"):
            out = tmp_path / label
            code = run_command([
                "experiment", "--edges", str(edges), "--truth", str(truth),
                "--out", str(out), "--communities", "2", "--seed", "7",
                "--strategy", "rn", "--fraction", "0.8",
                *FAST_DETECT, *FAST_EM,
            ])
            assert code == 0
            outs.append(out)
        for name in ("report.json", "curves.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        report = json.loads((outs[0] / "report.json").read_text())
        assert set(report["scores"]) == {"kromfac", "baseline1", "baseline2"}
        header = (outs[0] / "curves.csv").read_text().splitlines()[0]
        assert header == "i,loss,reg_loss"
