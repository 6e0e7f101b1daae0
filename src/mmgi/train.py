"""Unsupervised training loop over multimodal example bundles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward
from .chart import check_dims, run_chart
from .config import RunConfig
from .corpus import ExampleBundle
from .errors import ChartError, TrainingError
from .features import PairRelevanceMatrix
from .inference import build_vocab, corpus_pair_matrix, heldout_sent_f1
from .losses import batch_loss
from .optim import Adam
from .params import build_params, save_checkpoint

__all__ = ["TrainResult", "train", "usable_examples"]


def usable_examples(cfg: RunConfig, examples: list[ExampleBundle]) -> list[ExampleBundle]:
    """Drop single-position sentences (no spans to score) and over-long ones."""
    return [ex for ex in examples if 2 <= ex.n <= cfg.max_text_length]


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    vocab: list[str] | None
    pair_matrix: PairRelevanceMatrix
    metrics: list[dict]
    optimizer: Adam


def train(cfg: RunConfig, examples: list[ExampleBundle],
          heldout: list[ExampleBundle] | None = None,
          out_dir: str | Path | None = None,
          quiet: bool = True) -> TrainResult:
    """Adam on the total loss; deterministic for a fixed (config, corpus, seed).

    Sentences longer than `max_text_length` or shorter than two positions are
    skipped. Emits one metrics record per epoch with the loss components and,
    when the held-out slice carries gold trees, its sentence-level F1; with
    `out_dir`, appends each to metrics.jsonl there as its epoch ends.
    """
    cfg = cfg.resolved()
    usable = usable_examples(cfg, examples)
    if not usable:
        raise TrainingError("no usable examples after length filtering")
    check_dims(cfg, usable + (heldout or []))

    vocab: list[str] | None = None
    vocab_index = None
    if cfg.mode == "full":
        vocab = build_vocab(usable + (heldout or []))
        vocab_index = {t: i for i, t in enumerate(vocab)}
    pair_matrix = corpus_pair_matrix(usable)

    init_rng = np.random.default_rng([cfg.seed, 0])
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    sample_rng = np.random.default_rng([cfg.seed, 2])
    dropout_rng = np.random.default_rng([cfg.seed, 3])

    params = build_params(cfg, len(vocab) if vocab else 1, init_rng)
    optimizer = Adam(params, lr=cfg.lr)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.jsonl").write_text("")

    metrics: list[dict] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(usable))
        sums = {"l_rec": 0.0, "l_cl": 0.0, "l_rep": 0.0, "total": 0.0}
        seen = 0
        for lo in range(0, len(order), cfg.batch):
            chunk = [usable[idx] for idx in order[lo:lo + cfg.batch]]
            try:
                chart, ctx = run_chart(chunk, params, cfg, vocab_index, pair_matrix,
                                       training=True, rng=dropout_rng)
                total, report = batch_loss(chart, ctx, params, cfg, sample_rng)
            except ChartError as exc:
                raise TrainingError(str(exc)) from exc
            if not np.isfinite(total.data):
                raise TrainingError(
                    f"non-finite loss in batch of ids "
                    f"{[ex.id for ex in chunk]} at epoch {epoch}"
                )
            optimizer.zero_grad()
            backward(total)
            # Adam reads only the gradients: free the graph before its step,
            # and before the next step's graph is built
            del chart, ctx, total
            optimizer.step()
            for name, p in params.items():
                if not np.all(np.isfinite(p.data)):
                    raise TrainingError(
                        f"parameter {name} became non-finite at epoch {epoch}"
                    )
            for key, value in (("l_rec", report.l_rec), ("l_cl", report.l_cl),
                               ("l_rep", report.l_rep), ("total", report.total)):
                sums[key] += value * len(chunk)
            seen += len(chunk)

        record = {"epoch": epoch}
        record.update({k: v / seen for k, v in sums.items()})
        if heldout:
            f1 = heldout_sent_f1(heldout, params, cfg, vocab, pair_matrix)
            if f1 is not None:
                record["heldout_sent_f1"] = f1
        metrics.append(record)
        if out_dir is not None:
            with (out_dir / "metrics.jsonl").open("a") as fh:
                fh.write(json.dumps(record) + "\n")
        if not quiet:
            print(json.dumps(record))

    if out_dir is not None:
        save_checkpoint(out_dir / "checkpoint.npz", params, cfg, vocab,
                        optimizer=optimizer, pair_matrix=pair_matrix.values)
        (out_dir / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2))

    return TrainResult(params, vocab, pair_matrix, metrics, optimizer)
