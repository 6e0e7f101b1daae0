import dataclasses

import numpy as np
import pytest

from mmgi.config import RunConfig
from mmgi.corpus import ExampleBundle
from mmgi.features import RegionSet, SpeechTrack
from mmgi.params import build_params

from .oracles import per_clip


def tiny_config(**overrides) -> RunConfig:
    base = dict(d=6, d_w=6, d_v=8, d_s=5, d_a=4, batch=2, epochs=1,
                dropout=0.0, seed=0, roi_count=8)
    base.update(overrides)
    return RunConfig(**base).resolved()


def random_bundle(rng: np.random.Generator, n: int, cfg: RunConfig,
                  regions: int = 3, categories: int = 5,
                  ex_id: str = "ex") -> ExampleBundle:
    """Fully random (but valid) multimodal example with n positions."""
    tokens = [f"w{rng.integers(0, 9)}" for _ in range(n)]
    clips = []
    cursor = 0.0
    f0_frames = []
    vad_frames = []
    for _ in range(n):
        frames = int(rng.integers(8, 20))
        clips.append((round(cursor, 2), round(cursor + frames * 0.01, 2)))
        cursor += frames * 0.01
        voiced = rng.random(frames) > 0.25
        f0 = np.where(voiced, rng.uniform(80, 300, size=frames), 0.0)
        if not voiced.any():
            voiced[0] = True
            f0[0] = 120.0
        f0_frames.append([float(v) for v in f0])
        vad_frames.append([bool(v) for v in voiced])
    speech = SpeechTrack(
        clips=clips,
        clip_features=rng.normal(size=(n, cfg.d_s)),
        f0_frames=f0_frames,
        vad_frames=vad_frames,
    )
    width, height = 320.0, 240.0
    x0 = rng.uniform(0, width - 80, size=regions)
    y0 = rng.uniform(0, height - 80, size=regions)
    boxes = np.stack([
        x0, y0,
        x0 + rng.uniform(20, 70, size=regions),
        y0 + rng.uniform(20, 70, size=regions),
    ], axis=1)
    region_set = RegionSet(
        features=rng.normal(size=(regions, cfg.d_v)),
        bboxes=boxes,
        categories=rng.integers(0, categories, size=regions),
        image_size=(width, height),
    )
    return ExampleBundle(id=ex_id, tokens=tokens, speech=speech, regions=region_set)


def with_clip(track: SpeechTrack, clip: int, f0=None, vad=None) -> SpeechTrack:
    """A new track equal to `track` but for the f0 and/or VAD frames given
    for clip `clip`: a track's own frames are read-only."""
    f0_frames = per_clip(track.f0, track.f0_counts)
    vad_frames = per_clip(track.vad, track.vad_counts)
    if f0 is not None:
        f0_frames[clip] = f0
    if vad is not None:
        vad_frames[clip] = vad
    return dataclasses.replace(track, f0_frames=f0_frames, vad_frames=vad_frames)


def with_f0(track: SpeechTrack, clip: int, frame: int, value: float) -> SpeechTrack:
    """A new track equal to `track` but for one f0 value."""
    f0 = per_clip(track.f0, track.f0_counts)[clip]
    f0[frame] = value
    return with_clip(track, clip, f0=f0)


def tiny_vocab_index(examples) -> dict[str, int]:
    vocab = sorted({t for ex in examples for t in ex.tokens})
    return {t: i for i, t in enumerate(vocab)}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cfg():
    return tiny_config()


@pytest.fixture
def small_model(cfg):
    params = build_params(cfg, vocab_size=10, rng=np.random.default_rng(42))
    return params
