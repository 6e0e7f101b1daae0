"""CLI surface: gen / train / parse / eval / gradcheck round trips."""

import json

import numpy as np
import pytest

from mmgi.cli import main
from mmgi.corpus import load_corpus
from mmgi.trees import parse_sexpr

SMALL_DIMS = ["--set", "d=6", "--set", "d_w=6", "--set", "d_v=8",
              "--set", "d_s=5", "--set", "d_a=4", "--set", "dropout=0.0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({
        "d_s": 5, "d_v": 8, "distractor_count": 1, "scene_count": 2,
    }))
    assert main(["gen", "--config", str(synth_cfg), "--out", str(root / "corpus.jsonl"),
                 "--count", "8", "--seed", "4",
                 "--gold-trees", str(root / "gold.txt"),
                 "--gold-clip-trees", str(root / "gold_clips.txt")]) == 0
    assert main(["train", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(root / "run"), "--epochs", "1", "--batch", "4",
                 "--lr", "0.001", "--seed", "1", *SMALL_DIMS]) == 0
    return root


def test_gen_emits_requested_count(workdir):
    assert len(load_corpus(workdir / "corpus.jsonl", "full")) == 8
    assert len((workdir / "gold.txt").read_text().splitlines()) == 8


def test_gen_self_f1_is_one(workdir, capsys):
    assert main(["eval", "--pred", str(workdir / "gold.txt"),
                 "--gold", str(workdir / "gold.txt")]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report == {"corpus_f1": 1.0, "sent_f1": 1.0}


def test_gen_seed_reproducible(workdir, tmp_path):
    synth_cfg = workdir / "synth.json"
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    main(["gen", "--config", str(synth_cfg), "--out", str(out_a),
          "--count", "5", "--seed", "9"])
    main(["gen", "--config", str(synth_cfg), "--out", str(out_b),
          "--count", "5", "--seed", "9"])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_epochs_zero_equals_init(workdir, tmp_path):
    out = tmp_path / "run0"
    assert main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                 "--out", str(out), "--epochs", "0", "--seed", "1",
                 *SMALL_DIMS]) == 0
    from mmgi.params import build_params, load_checkpoint
    params, cfg, vocab, step, _, _ = load_checkpoint(out / "checkpoint.npz")
    assert step == 0
    init = build_params(cfg, len(vocab), np.random.default_rng([cfg.seed, 0]))
    for name in params:
        assert np.array_equal(params[name].data, init[name].data)


def test_train_smoke_writes_two_epoch_log(workdir, tmp_path):
    out = tmp_path / "run2"
    assert main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                 "--out", str(out), "--epochs", "2", "--batch", "4",
                 "--seed", "2", *SMALL_DIMS]) == 0
    records = [json.loads(line) for line in
               (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [0, 1]


def test_parse_deterministic_and_scored(workdir, tmp_path):
    ck = workdir / "run" / "checkpoint.npz"
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["parse", "--checkpoint", str(ck),
                 "--corpus", str(workdir / "corpus.jsonl"),
                 "--out", str(out_a), "--scores", str(tmp_path / "sc.jsonl")]) == 0
    assert main(["parse", "--checkpoint", str(ck),
                 "--corpus", str(workdir / "corpus.jsonl"),
                 "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    dumps = [json.loads(line) for line in
             (tmp_path / "sc.jsonl").read_text().splitlines()]
    assert all("q" in d and "argmax_k" in d and "id" in d for d in dumps)
    for line in out_a.read_text().splitlines():
        ex_id, tree_text = line.split("\t", 1)
        tree, leaves = parse_sexpr(tree_text)
        assert len(leaves) >= 2


def test_parse_baseline_right_ignores_checkpoint(workdir, tmp_path, capsys):
    out = tmp_path / "rb.txt"
    assert main(["parse", "--baseline", "right",
                 "--corpus", str(workdir / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    from mmgi.trees import right_branching
    for line in out.read_text().splitlines():
        _, tree_text = line.split("\t", 1)
        tree, leaves = parse_sexpr(tree_text)
        assert tree == right_branching(len(leaves))


def test_eval_scf1_identity_and_disjoint(workdir, tmp_path, capsys):
    gold_clips = workdir / "gold_clips.txt"
    assert main(["eval", "--pred", str(gold_clips), "--gold", str(gold_clips),
                 "--mode", "scf1"]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report == {"corpus_scf1": 1.0, "sent_scf1": 1.0}

    shifted = tmp_path / "shifted.txt"
    lines = []
    for line in gold_clips.read_text().splitlines():
        ex_id, text = line.split("\t", 1)
        tree, leaves = parse_sexpr(text)
        moved = [f"{float(tok.split(':')[0]) + 100.0:.6g}:"
                 f"{float(tok.split(':')[1]) + 100.5:.6g}" for tok in leaves]
        from mmgi.trees import to_sexpr
        lines.append(f"{ex_id}\t{to_sexpr(tree, moved)}")
    shifted.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--pred", str(shifted), "--gold", str(gold_clips),
                 "--mode", "scf1"]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["corpus_scf1"] == 0.0


def test_eval_id_mismatch_fails(workdir, tmp_path, capsys):
    partial = tmp_path / "partial.txt"
    partial.write_text(
        (workdir / "gold.txt").read_text().splitlines()[0] + "\n")
    assert main(["eval", "--pred", str(partial),
                 "--gold", str(workdir / "gold.txt")]) == 1
    assert "id mismatch" in capsys.readouterr().err


def test_missing_corpus_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--out", "/tmp/nowhere"])
    assert excinfo.value.code == 2


def test_checkpoint_dim_mismatch_fails(workdir, tmp_path, capsys):
    other = tmp_path / "wide.jsonl"
    main(["gen", "--out", str(other), "--count", "2", "--seed", "1"])
    code = main(["parse", "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                 "--corpus", str(other), "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "dim" in capsys.readouterr().err


def test_parse_mixed_dims_names_example(workdir, tmp_path, capsys):
    from mmgi.corpus import save_corpus

    corpus = load_corpus(workdir / "corpus.jsonl", "full")
    odd = corpus[3]
    odd.speech.clip_features = np.hstack([odd.speech.clip_features,
                                          odd.speech.clip_features[:, :1]])
    mixed = tmp_path / "mixed.jsonl"
    save_corpus(corpus, mixed)
    code = main(["parse", "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                 "--corpus", str(mixed), "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert f"example {odd.id}: clip features have dim 6" in capsys.readouterr().err


def test_parse_single_token_emits_leaf(workdir, tmp_path):
    import numpy as np
    from mmgi.corpus import save_corpus
    from tests.conftest import random_bundle, tiny_config

    from mmgi.params import load_checkpoint

    cfg = tiny_config(d_s=5, d_v=8)
    bundle = random_bundle(np.random.default_rng(0), 1, cfg, ex_id="solo")
    _, _, vocab, _, _, _ = load_checkpoint(workdir / "run" / "checkpoint.npz")
    bundle.tokens = [vocab[0]]
    path = tmp_path / "one.jsonl"
    save_corpus([bundle], path)
    out = tmp_path / "one.txt"
    assert main(["parse", "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                 "--corpus", str(path), "--out", str(out)]) == 0
    ex_id, tree_text = out.read_text().strip().split("\t")
    assert ex_id == "solo"
    tree, leaves = parse_sexpr(tree_text)
    assert tree == 1 and len(leaves) == 1


def test_eval_matches_library_fixture(tmp_path, capsys):
    # the n=3 hand-worked case: gold right-branching vs pred left-branching
    (tmp_path / "pred.txt").write_text("s0\t((a b) c)\n")
    (tmp_path / "gold.txt").write_text("s0\t(a (b c))\n")
    assert main(["eval", "--pred", str(tmp_path / "pred.txt"),
                 "--gold", str(tmp_path / "gold.txt")]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    from mmgi.metrics import bracketing_f1
    from mmgi.trees import left_branching, right_branching
    assert report["corpus_f1"] == bracketing_f1(
        [left_branching(3)], [right_branching(3)], "corpus") == 0.5
    assert report["sent_f1"] == 0.5


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("mode", ["f1", "scf1"])
def test_eval_on_empty_files_prints_json(tmp_path, capsys, mode):
    for name in ("pred.txt", "gold.txt"):
        (tmp_path / name).write_text("")
    assert main(["eval", "--pred", str(tmp_path / "pred.txt"),
                 "--gold", str(tmp_path / "gold.txt"), "--mode", mode]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject)
    assert list(report.values()) == [1.0, 1.0]


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "end_to_end_total_loss" in out and "FAIL" not in out
