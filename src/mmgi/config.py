"""Run configuration: model dimensions, fusion weights, and training knobs."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "config_hash"]

MODES = ("full", "textless")
# the values a field takes, by the type of its default; bool is an int to
# Python, so only a bool field takes one
_KINDS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


@dataclass
class RunConfig:
    """All tunables; defaults follow the reference setting where one exists."""

    d: int = 400                 # chart hidden width
    d_w: int = 400               # word embedding dim
    d_v: int = 2048              # region feature dim
    d_s: int = 1024              # speech clip feature dim
    d_a: int = 128               # shared alignment dim for the representation loss
    gamma: float = 0.5           # visual fusion weight
    lam: float = 0.5             # pitch fusion weight
    alpha1: float = 0.5          # contrastive loss weight
    alpha2: float = 0.5          # representation loss weight
    margin: float = 1.0          # contrastive hinge margin
    lr: float = 1e-4
    batch: int = 64
    epochs: int = 30
    dropout: float = 0.1
    max_text_length: int = 80
    roi_count: int = 36
    mode: str = "full"
    seed: int = 0
    use_visual: bool = True      # span-level region feature and pair score
    use_pitch: bool = True
    use_voice: bool = True       # voice-activity score in span scores

    def resolved(self) -> "RunConfig":
        cfg = dataclasses.replace(self)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            value, kind = getattr(self, field.name), type(field.default)
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, _KINDS[kind]):
                raise ConfigError(f"{field.name} must be a {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value!r}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for field in ("d", "d_w", "d_v", "d_s", "d_a", "batch", "roi_count"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.epochs < 0 or self.max_text_length < 1:
            raise ConfigError("epochs must be >= 0 and max_text_length >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional flat JSON file plus overrides."""
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: expected a flat JSON object")
        values.update(raw)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**values).resolved()


def config_hash(cfg: RunConfig, extra: dict | None = None) -> str:
    doc = cfg.to_dict()
    if extra:
        doc.update(extra)
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
