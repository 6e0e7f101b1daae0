"""Model parameters: construction and checkpoint round-trips."""

from __future__ import annotations

import dataclasses
import json
import lzma
import zipfile
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, config_hash
from .errors import CheckpointError, ConfigError
from .nn import glorot_uniform
from .optim import Adam

__all__ = [
    "PITCH_VOCAB",
    "build_params",
    "save_checkpoint",
    "load_checkpoint",
]

# 451 voiced pitch bins (50..500 Hz inclusive) plus one reserved unvoiced row.
PITCH_VOCAB = 452
# Tensors only words read: a textless model draws them and then drops them.
TEXT_ONLY = frozenset({"word_embeddings", "word_projection", "attn_q", "attn_k", "attn_v",
                       "align_proj_text"})


def _draws(cfg: RunConfig, vocab_size: int) -> list[tuple[str, tuple[int, ...], tuple[int, int]]]:
    """(name, shape, (fan_in, fan_out)) for every tensor `build_params` draws,
    in a fixed order, whatever the mode."""
    d, d_w, d_v, d_s, d_a = cfg.d, cfg.d_w, cfg.d_v, cfg.d_s, cfg.d_a
    return [
        ("word_embeddings", (vocab_size, d_w), (vocab_size, d_w)),
        ("word_projection", (d_w, d), (d_w, d)),
        ("clip_projection", (d_s, d), (d_s, d)),
        ("vision_projection", (d_v, d), (d_v, d)),
        ("attn_q", (d, d), (d, d)),
        ("attn_k", (d, d), (d, d)),
        ("attn_v", (d, d), (d, d)),
        ("compose_in_w1", (2 * d, d), (2 * d, d)),
        ("compose_in_b1", (d,), (2 * d, d)),
        ("compose_in_w2", (d, d), (d, d)),
        ("compose_in_b2", (d,), (d, d)),
        ("compose_out_w1", (2 * d, d), (2 * d, d)),
        ("compose_out_b1", (d,), (2 * d, d)),
        ("compose_out_w2", (d, d), (d, d)),
        ("compose_out_b2", (d,), (d, d)),
        ("bilinear_inside", (d, d), (d, d)),
        ("bilinear_outside", (d, d), (d, d)),
        ("pitch_embedding", (PITCH_VOCAB, d), (PITCH_VOCAB, d)),
        ("pitch_lstm_wx", (d, 4 * d), (d, 4 * d)),
        ("pitch_lstm_wh", (d, 4 * d), (d, 4 * d)),
        ("pitch_lstm_b", (4 * d,), (d, 4 * d)),
        ("bbox_embed_w", (4, d), (4, d)),
        ("bbox_embed_b", (d,), (4, d)),
        ("root_outside_bias", (d,), (d, d)),
        ("align_proj_speech", (d_s, d_a), (d_s, d_a)),
        ("align_proj_vision", (d_v, d_a), (d_v, d_a)),
        ("align_proj_text", (d_w, d_a), (d_w, d_a)),
    ]


def _shapes(cfg: RunConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """{name: shape} of every tensor a model of `cfg` keeps: all that
    `_draws` lists but the `TEXT_ONLY` ones in textless mode."""
    textless = cfg.mode == "textless"
    return {name: shape for name, shape, _ in _draws(cfg, vocab_size)
            if not (textless and name in TEXT_ONLY)}


def build_params(cfg: RunConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """Seeded glorot-uniform init for matrices; biases start at zero except the
    root outside bias, which needs symmetry breaking.

    Every tensor of `_draws` is drawn, in its order, so a tensor starts at
    the same value in both modes; a textless model then keeps only the
    tensors of `_shapes`, without the `TEXT_ONLY` ones no gradient reaches.
    """
    kept = _shapes(cfg, vocab_size)
    params: dict[str, Tensor] = {}
    for name, shape, (fi, fo) in _draws(cfg, vocab_size):
        if len(shape) == 1 and name != "root_outside_bias":
            data = np.zeros(shape)
        else:
            data = glorot_uniform(rng, shape, fan_in=fi, fan_out=fo)
        if name in kept:
            params[name] = Tensor(data, requires_grad=True)
    return params


def save_checkpoint(path: str | Path, params: dict[str, Tensor],
                    cfg: RunConfig, vocab: list[str] | None,
                    optimizer: Adam | None = None,
                    pair_matrix: np.ndarray | None = None) -> None:
    """Single-file .npz: config hash + snapshot, step count, tensors, moments."""
    arrays: dict[str, np.ndarray] = {}
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data
    step = 0
    if optimizer is not None:
        step = optimizer.step_count
        for name in params:
            arrays[f"adam_m/{name}"] = optimizer.m[name]
            arrays[f"adam_v/{name}"] = optimizer.v[name]
    if pair_matrix is not None:
        arrays["pair_matrix"] = np.asarray(pair_matrix, dtype=np.float64)
    meta = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg, {"vocab_size": len(vocab) if vocab else 0}),
        "vocab": vocab,
        "step": step,
    }
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _check_meta(path: Path, meta) -> None:
    """The metadata must be an object whose vocabulary is a list of strings or
    null and whose step is a non-negative integer."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    vocab, step = meta.get("vocab", ()), meta.get("step")
    if not (vocab is None or isinstance(vocab, list) and all(isinstance(w, str) for w in vocab)):
        raise CheckpointError(f"{path}: vocab {str(vocab)[:60]} is not a list of strings "
                              f"or null")
    if type(step) is not int or step < 0:
        raise CheckpointError(f"{path}: step {step!r} is not a non-negative integer")


def _stored_config(path: Path, meta: dict) -> RunConfig:
    """The checkpoint's config; its fields and hash must match what was saved,
    and it must be valid."""
    stored = meta.get("config")
    if not isinstance(stored, dict):
        raise CheckpointError(f"{path}: metadata has no config block")
    known = [f.name for f in dataclasses.fields(RunConfig)]
    for name in stored:
        if name not in known:
            raise CheckpointError(f"{path}: unknown config field {name!r}")
    for name in known:
        if name not in stored:
            raise CheckpointError(f"{path}: config field {name!r} is missing")
    cfg = RunConfig(**stored)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    vocab = meta.get("vocab")
    expected = config_hash(cfg, {"vocab_size": len(vocab) if vocab else 0})
    if meta.get("config_hash") != expected:
        raise CheckpointError(
            f"{path}: config hash {meta.get('config_hash')!r} does not match "
            f"the stored config and vocabulary ({expected})"
        )
    return cfg


def load_checkpoint(path: str | Path):
    """Returns (params, cfg, vocab, step, adam_state|None, pair_matrix|None).

    The stored config must have exactly RunConfig's fields and hash to the
    stored `config_hash`. The parameter tensors must be exactly those a model
    of the stored config keeps (`_shapes`; a textless model has no
    `TEXT_ONLY` tensor), each with the shape the stored config and
    vocabulary imply (vocabulary size 1 in textless mode). A textless
    checkpoint that holds a text-only tensor fails, naming it.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    except KeyError:
        raise CheckpointError(f"{path} is not a checkpoint (missing metadata)") from None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, lzma.LZMAError,
            NotImplementedError, RuntimeError) as exc:
        # a corrupt compression method, flag or encryption bit makes zipfile
        # decode with the wrong codec or raise the last two
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc
    _check_meta(path, meta)
    cfg = _stored_config(path, meta)
    params = {}
    moments = {"adam_m": {}, "adam_v": {}}
    for key, array in arrays.items():
        kind, _, name = key.partition("/")
        if kind == "param":
            params[name] = Tensor(array, requires_grad=True)
        elif kind in moments:
            moments[kind][name] = array
    pair_matrix = arrays.get("pair_matrix")
    expected = _shapes(cfg, len(meta["vocab"] or []) or 1)
    missing = sorted(set(expected) - set(params))
    if missing:
        raise CheckpointError(f"{path}: missing tensors {missing}")
    for name, tensor in params.items():
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name}")
        if tensor.data.shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {tensor.data.shape}, "
                f"the config expects {expected[name]}"
            )
    adam_state = None
    if moments["adam_m"]:
        adam_state = {"step": meta["step"], "m": moments["adam_m"], "v": moments["adam_v"]}
    return params, cfg, meta["vocab"], meta["step"], adam_state, pair_matrix
