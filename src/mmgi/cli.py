"""Command-line entry points: train, parse, eval, gen, gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .corpus import load_corpus, save_corpus
from .errors import MMGIError
from .features import PairRelevanceMatrix
from .inference import parse_example
from .metrics import bracketing_f1, scf1
from .params import load_checkpoint
from .synth import SynthConfig, default_grammar, generate_synthetic, right_chain_grammar
from .train import train
from .trees import baseline_tree, format_interval, parse_interval, parse_sexpr, to_sexpr
from .verify import TOLERANCE, verification_suite

__all__ = ["main"]


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def cmd_train(args) -> int:
    overrides = _parse_overrides(args.set)
    for key in ("epochs", "lr", "batch", "seed", "mode"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    cfg = load_config(args.config, overrides)
    corpus = load_corpus(args.corpus, mode=cfg.mode)
    heldout = load_corpus(args.heldout, mode=cfg.mode) if args.heldout else None
    train(cfg, corpus, heldout=heldout, out_dir=args.out, quiet=False)
    return 0


def _write_trees(path: Path, ids, trees, leaves_per_tree) -> None:
    with path.open("w") as fh:
        for ex_id, tree, leaves in zip(ids, trees, leaves_per_tree):
            fh.write(f"{ex_id}\t{to_sexpr(tree, leaves)}\n")


def _leaf_strings(example, mode: str) -> list[str]:
    if mode == "textless" or example.tokens is None:
        return [format_interval(s, e) for s, e in example.speech.clips]
    return list(example.tokens)


def cmd_parse(args) -> int:
    if args.baseline is not None:
        cfg = RunConfig(mode=args.mode or "full").resolved()
        corpus = load_corpus(args.corpus, mode=cfg.mode)
        seed = args.seed or 0
        trees = [baseline_tree(ex.n, args.baseline, seed=seed + idx)
                 for idx, ex in enumerate(corpus)]
        _write_trees(Path(args.out), [ex.id for ex in corpus], trees,
                     [_leaf_strings(ex, cfg.mode) for ex in corpus])
        return 0
    params, cfg, vocab, _, _, pair_values = load_checkpoint(args.checkpoint)
    cfg = cfg.resolved()
    corpus = load_corpus(args.corpus, mode=cfg.mode)
    pair = PairRelevanceMatrix(pair_values) if pair_values is not None else None
    vocab_index = {t: i for i, t in enumerate(vocab)} if vocab else None
    trees = []
    dumps = []
    for ex in corpus:
        if args.scores:
            tree, dump = parse_example(ex, params, cfg, vocab_index, pair,
                                       with_scores=True)
            dump["id"] = ex.id
            dumps.append(dump)
        else:
            tree = parse_example(ex, params, cfg, vocab_index, pair)
        trees.append(tree)
    _write_trees(Path(args.out), [ex.id for ex in corpus], trees,
                 [_leaf_strings(ex, cfg.mode) for ex in corpus])
    if args.scores:
        with Path(args.scores).open("w") as fh:
            for dump in dumps:
                fh.write(json.dumps(dump) + "\n")
    return 0


def _read_tree_file(path: str) -> dict[str, tuple]:
    out = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise MMGIError(f"{path}:{line_no}: expected '<id>\\t<tree>'")
        ex_id, text = line.split("\t", 1)
        out[ex_id] = parse_sexpr(text)
    return out


def cmd_eval(args) -> int:
    preds = _read_tree_file(args.pred)
    golds = _read_tree_file(args.gold)
    missing = sorted(set(golds) - set(preds))
    extra = sorted(set(preds) - set(golds))
    if missing or extra:
        raise MMGIError(
            f"id mismatch between files; missing from pred: {missing[:10]}, "
            f"unmatched in pred: {extra[:10]}"
        )
    ids = sorted(golds)
    if args.mode == "f1":
        pred_trees = [preds[i][0] for i in ids]
        gold_trees = [golds[i][0] for i in ids]
        report = {
            "corpus_f1": bracketing_f1(pred_trees, gold_trees, "corpus"),
            "sent_f1": bracketing_f1(pred_trees, gold_trees, "sentence"),
        }
    else:
        pairs = []
        for i in ids:
            pred_tree, pred_leaves = preds[i]
            gold_tree, gold_leaves = golds[i]
            pairs.append((
                pred_tree, [parse_interval(tok) for tok in pred_leaves],
                gold_tree, [parse_interval(tok) for tok in gold_leaves],
            ))
        report = {
            "corpus_scf1": scf1(pairs, args.threshold, "corpus"),
            "sent_scf1": scf1(pairs, args.threshold, "sentence"),
        }
    print(json.dumps(report))
    return 0


def cmd_gen(args) -> int:
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MMGIError(f"synth config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise MMGIError(f"synth config {args.config}: expected a JSON object")
    if args.grammar == "right_chain":
        values["grammar"] = right_chain_grammar()
    elif args.grammar == "default" or "grammar" not in values:
        values["grammar"] = default_grammar()
    else:
        values["grammar"] = {
            lhs: [tuple(rule) for rule in rules]
            for lhs, rules in values["grammar"].items()
        }
    if args.count is not None:
        values["sentence_count"] = args.count
    if args.seed is not None:
        values["seed"] = args.seed
    known = {f.name for f in dataclasses.fields(SynthConfig)}
    unknown = set(values) - known
    if unknown:
        raise MMGIError(f"unknown synth config fields: {sorted(unknown)}")
    if "image_size" in values:
        values["image_size"] = tuple(values["image_size"])
    cfg = SynthConfig(**values)
    examples = generate_synthetic(cfg)
    save_corpus(examples, args.out)
    if args.gold_trees:
        _write_trees(Path(args.gold_trees), [ex.id for ex in examples],
                     [ex.gold_tree() for ex in examples],
                     [ex.tokens for ex in examples])
    if args.gold_clip_trees:
        _write_trees(Path(args.gold_clip_trees), [ex.id for ex in examples],
                     [ex.gold_tree() for ex in examples],
                     [[format_interval(s, e) for s, e in ex.speech.clips]
                      for ex in examples])
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = verification_suite(seed=args.seed or 0)
    failed = False
    for name, err in results.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name}: max_rel_err={err:.3e} [{status}]")
        failed = failed or err >= TOLERANCE
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmgi",
        description="Multimodal grammar induction: train, parse, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a corpus, write a checkpoint")
    p_train.add_argument("--config", help="flat JSON config file")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--heldout")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--batch", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--mode", choices=["full", "textless"])
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override any config field")
    p_train.set_defaults(func=cmd_train)

    p_parse = sub.add_parser("parse", help="decode trees from a checkpoint")
    p_parse.add_argument("--checkpoint")
    p_parse.add_argument("--corpus", required=True)
    p_parse.add_argument("--out", required=True)
    p_parse.add_argument("--scores", help="write per-span chart dumps (JSONL)")
    p_parse.add_argument("--baseline", choices=["left", "right", "random"],
                         help="emit a rule-based tree instead of using the model")
    p_parse.add_argument("--mode", choices=["full", "textless"],
                         help="with --baseline: leaf format to emit")
    p_parse.add_argument("--seed", type=int)
    p_parse.set_defaults(func=cmd_parse)

    p_eval = sub.add_parser("eval", help="score predictions against references")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--mode", choices=["f1", "scf1"], default="f1")
    p_eval.add_argument("--threshold", type=float, default=0.5,
                        help="tIoU threshold for scf1")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen", help="generate a synthetic corpus")
    p_gen.add_argument("--config", help="JSON synth config")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--grammar", choices=["default", "right_chain"])
    p_gen.add_argument("--gold-trees", help="also write gold trees (token leaves)")
    p_gen.add_argument("--gold-clip-trees",
                       help="also write gold trees with clip-interval leaves")
    p_gen.set_defaults(func=cmd_gen)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--seed", type=int)
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "parse" and not args.baseline and not args.checkpoint:
        parser.error("parse requires --checkpoint (or --baseline)")
    try:
        return args.func(args)
    except MMGIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
