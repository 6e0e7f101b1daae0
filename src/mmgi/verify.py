"""Gradient verification suite: named finite-difference checks, CLI-facing."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chart import build_context, init_terminals, run_chart
from .config import RunConfig
from .gradcheck import grad_check
from .inference import build_vocab, corpus_pair_matrix
from .losses import batch_loss
from .nn import chart_step, dropout_mask, lstm_forward
from .params import build_params
from .synth import SynthConfig, generate_synthetic

__all__ = ["three_token_grammar", "end_to_end_fixture", "verification_suite"]

TOLERANCE = 1e-4


def three_token_grammar() -> dict:
    """Deterministic 3-word yield: determiner, adjective, noun."""
    return {"S": [("Det", "NBAR", 1.0)], "NBAR": [("Adj", "Noun", 1.0)]}


def end_to_end_fixture(seed: int = 0, batch_size: int = 2):
    """A tiny batch plus a closure computing the full training loss.

    Every fusion path is active (visual span features, pair scores, pitch,
    voice activity) and all three loss terms contribute. The negative-sample
    rng is re-seeded inside the closure so repeated evaluations (as in
    finite differencing) see identical sampling.
    """
    scfg = SynthConfig(
        sentence_count=batch_size, seed=seed, vocab_size=12, d_s=6, d_v=10,
        grammar=three_token_grammar(), scene_count=2, distractor_count=1,
        companion_prob=1.0, pause_depth=1, pause_seconds=0.1,
    )
    examples = generate_synthetic(scfg)
    cfg = RunConfig(d=6, d_w=6, d_v=10, d_s=6, d_a=5, batch=batch_size,
                    dropout=0.0, seed=seed, mode="full").resolved()
    vocab = build_vocab(examples)
    vocab_index = {t: i for i, t in enumerate(vocab)}
    pair = corpus_pair_matrix(examples)
    params = build_params(cfg, len(vocab), np.random.default_rng([seed, 7]))

    def loss_fn() -> Tensor:
        chart, ctx = run_chart(examples, params, cfg, vocab_index, pair, training=False)
        total, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng([seed, 11]))
        return total

    return loss_fn, params, examples, cfg


def _probe_sum(outputs: tuple[Tensor, ...], probes: list[np.ndarray]) -> Tensor:
    """The sum of each output's entries weighted by its fixed probe, as one
    node: the scalar a check differentiates."""
    data = sum((out.data * probe).sum() for out, probe in zip(outputs, probes))
    return ad._from_op(np.asarray(data), tuple(outputs),
                       lambda g: tuple(g * probe for probe in probes))


def verification_suite(seed: int = 0, probes_per_tensor: int = 4) -> dict[str, float]:
    """Max relative FD error per named check; all should fall below 1e-4."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    # the context of a full-mode batch as training builds it: 5, 5 and 6
    # positions and 4, 5 and 4 regions, so the terminals' attention masks
    # padding clips and the region features pad one image
    examples = generate_synthetic(SynthConfig(sentence_count=3, seed=1, vocab_size=12, d_s=6,
                                              d_v=10, max_length=6))
    cfg = RunConfig(d=6, d_w=6, d_v=10, d_s=6, d_a=5, batch=3).resolved()
    vocab_index = {t: i for i, t in enumerate(build_vocab(examples))}
    params = build_params(cfg, len(vocab_index), rng)
    pair = corpus_pair_matrix(examples)

    def context() -> tuple[Tensor, ...]:
        ctx = build_context(examples, params, cfg, vocab_index, pair)
        return init_terminals(ctx, params, cfg), ctx.v_proj, ctx.region_sum

    probes = [rng.normal(size=out.data.shape) for out in context()]
    names = ("word_embeddings", "word_projection", "clip_projection", "attn_q", "attn_k",
             "attn_v", "vision_projection", "bbox_embed_w", "bbox_embed_b")
    results["context"] = grad_check(lambda: _probe_sum(context(), probes),
                                    {name: params[name] for name in names},
                                    probes_per_tensor=6)

    # an outside step as training runs it: 2 spans of 3 contexts, with dropout
    d, hidden, cells, pairs = 4, 5, 2, 6
    step = {
        "parents": Tensor(rng.normal(size=(pairs, d + 1)), requires_grad=True),
        "siblings": Tensor(rng.normal(size=(pairs, d + 1)), requires_grad=True),
        "w1": Tensor(rng.normal(size=(2 * d, hidden)) * 0.4, requires_grad=True),
        "b1": Tensor(rng.normal(size=(hidden,)) * 0.4, requires_grad=True),
        "w2": Tensor(rng.normal(size=(hidden, d)) * 0.4, requires_grad=True),
        "b2": Tensor(rng.normal(size=(d,)) * 0.4, requires_grad=True),
        "w_bil": Tensor(rng.normal(size=(d, d)) * 0.4, requires_grad=True),
    }
    keep = dropout_mask(rng, (pairs, hidden), 0.3)
    probe = [rng.normal(size=(cells, d + 1))]
    weights = tuple(step[name] for name in ("w1", "b1", "w2", "b2", "w_bil"))

    def outside_step() -> Tensor:
        """The step as a node of its own, reading every row of each side."""
        sides = (step["parents"], step["siblings"])
        out, _, vjp = chart_step(*((t.data, slice(None), slice(None)) for t in sides),
                                 tuple(w.data for w in weights), cells=cells, keep=keep,
                                 rate=0.3)

        def node_vjp(g):
            rows = [np.zeros((pairs, d + 1)) for _ in sides]
            return (*rows, *vjp(g, *rows)[1:])

        return ad._from_op(out, sides + weights, node_vjp)

    results["outside_step"] = grad_check(lambda: _probe_sum((outside_step(),), probe), step,
                                         probes_per_tensor=6)

    # pitch sequences of 4 and 2 clips, padded: no state after an end is read
    lstm = {
        "wx": Tensor(rng.normal(size=(3, 12)) * 0.4, requires_grad=True),
        "wh": Tensor(rng.normal(size=(3, 12)) * 0.4, requires_grad=True),
        "b": Tensor(rng.normal(size=(12,)) * 0.4, requires_grad=True),
        "x": Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True),
    }
    real = rng.normal(size=(2, 4, 3))
    real[1, 2:] = 0.0
    results["lstm"] = grad_check(
        lambda: _probe_sum((lstm_forward(lstm["x"], lstm["wx"], lstm["wh"], lstm["b"]),),
                           [real]),
        lstm, probes_per_tensor=8)

    loss_fn, params, _, _ = end_to_end_fixture(seed=seed)
    results["end_to_end_total_loss"] = grad_check(
        loss_fn, params, probes_per_tensor=probes_per_tensor,
        rng=np.random.default_rng([seed, 13]))
    return results
