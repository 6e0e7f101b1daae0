"""Engineered per-modality features derived from precomputed raw inputs.

This module never runs detectors, pitch trackers, or VAD models; it consumes
their outputs (region features and boxes, clip boundaries and embeddings, f0
frames, voice-activity frames) and produces the quantities the chart fuses:
normalized box embeddings, the category pair-relevance matrix, pitch
embeddings run through an LSTM, and per-clip voice/non-voice durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataValidationError
from .nn import lstm_forward

__all__ = [
    "RegionSet",
    "SpeechTrack",
    "PairRelevanceMatrix",
    "normalize_bbox",
    "normalize_and_embed_bbox",
    "build_pair_matrix",
    "pitch_index",
    "pitch_indices",
    "pitch_features",
    "vad_aggregate",
]

F0_MIN = 50.0
F0_MAX = 500.0
UNVOICED_INDEX = 0


@dataclass
class RegionSet:
    """Detected objects of one image: features, pixel boxes, category ids."""

    features: np.ndarray          # (M, d_v)
    bboxes: np.ndarray            # (M, 4) as (x_min, y_min, x_max, y_max) pixels
    categories: np.ndarray        # (M,) ints in [0, C)
    image_size: tuple[float, float]  # (w, h) pixels

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.bboxes = np.asarray(self.bboxes, dtype=np.float64)
        self.categories = np.asarray(self.categories, dtype=np.intp)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    def validate(self, owner: str = "?") -> None:
        if self.count < 1:
            raise DataValidationError(f"example {owner}: needs at least one region")
        w, h = self.image_size
        for m, (x0, y0, x1, y1) in enumerate(self.bboxes):
            if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
                raise DataValidationError(
                    f"example {owner}: region {m} has invalid bbox "
                    f"({x0}, {y0}, {x1}, {y1}) for image size ({w}, {h})"
                )
        if self.categories.min(initial=0) < 0:
            raise DataValidationError(f"example {owner}: negative category id")


@dataclass
class SpeechTrack:
    """Speech clips with representations, pitch frames, and VAD frames."""

    clips: list[tuple[float, float]]       # (start_s, end_s), ordered, non-overlapping
    clip_features: np.ndarray              # (T, d_s)
    f0_frames: list[list[float]]           # per clip, Hz; 0 marks an unvoiced frame
    vad_frames: list[list[bool]]           # per clip, True = voiced
    frame_period: float = 0.01

    def __post_init__(self):
        self.clip_features = np.asarray(self.clip_features, dtype=np.float64)

    @property
    def count(self) -> int:
        return len(self.clips)

    def validate(self, owner: str = "?") -> None:
        if self.count < 1:
            raise DataValidationError(f"example {owner}: speech track has no clips")
        prev_end = -np.inf
        for t, (start, end) in enumerate(self.clips):
            if not start < end:
                raise DataValidationError(
                    f"example {owner}: clip {t} has start {start} >= end {end}"
                )
            if start < prev_end - 1e-9:
                raise DataValidationError(
                    f"example {owner}: clip {t} overlaps or precedes clip {t - 1}"
                )
            prev_end = end
        if self.clip_features.shape[0] != self.count:
            raise DataValidationError(
                f"example {owner}: {self.count} clips but "
                f"{self.clip_features.shape[0]} clip feature rows"
            )
        for t in range(self.count):
            if len(self.f0_frames[t]) == 0 or len(self.vad_frames[t]) == 0:
                raise DataValidationError(f"example {owner}: clip {t} has zero frames")
            if any(v < 0 for v in self.f0_frames[t]):
                raise DataValidationError(
                    f"example {owner}: clip {t} has a negative f0 value"
                )


@dataclass
class PairRelevanceMatrix:
    """C x C co-occurrence-derived relevance scores in [0, 1]."""

    values: np.ndarray
    category_count: int = field(default=0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.category_count == 0:
            self.category_count = self.values.shape[0]

    @classmethod
    def zeros(cls, category_count: int) -> "PairRelevanceMatrix":
        return cls(np.zeros((category_count, category_count)), category_count)

    def submatrix(self, categories: np.ndarray) -> np.ndarray:
        """(M, M) slice for one image's object category list."""
        return self.values[np.ix_(categories, categories)]


# ---------------------------------------------------------------------------
# bounding boxes


def normalize_bbox(bbox: Sequence[float], width: float, height: float,
                   index: int | None = None) -> np.ndarray:
    """Pixel box -> unit box with the top-left corner as the origin."""
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
        where = f"region {index}" if index is not None else "region"
        raise DataValidationError(
            f"{where}: bbox ({x0}, {y0}, {x1}, {y1}) is zero-area or outside the "
            f"({width}, {height}) image"
        )
    return np.array([x0 / width, y0 / height, x1 / width, y1 / height])


def normalize_and_embed_bbox(bbox: Sequence[float], width: float, height: float,
                             weight: Tensor, bias: Tensor,
                             index: int | None = None) -> tuple[np.ndarray, Tensor]:
    """Normalize to the unit square, then embed the normalized box linearly."""
    unit = normalize_bbox(bbox, width, height, index)
    embedded = ad.matmul(ad.constant(unit), weight) + bias
    return unit, embedded


# ---------------------------------------------------------------------------
# pair relevance


def build_pair_matrix(category_sets: Iterable[Iterable[int]],
                      category_count: int) -> PairRelevanceMatrix:
    """Relevance of category pairs from per-image co-detection counts.

    Co-Count(a, b) counts images in which both of two distinct categories are
    detected, once per image regardless of instance multiplicity (a category
    never co-occurs with itself, so a corpus of single-category images yields
    the all-zero matrix). The entry for (a, b) divides Co-Count(a, b) by the
    total co-count mass of row a plus column b; a zero denominator yields a
    zero entry.
    """
    sets = [frozenset(int(c) for c in group) for group in category_sets]
    if not sets:
        raise DataValidationError("pair matrix needs at least one image")
    C = category_count
    co = np.zeros((C, C))
    for group in sets:
        for a in group:
            if a >= C or a < 0:
                raise DataValidationError(f"category id {a} outside [0, {C})")
            for b in group:
                if a != b:
                    co[a, b] += 1.0
    row_mass = co.sum(axis=1)  # sum_g Co-Count(a, g)
    values = np.zeros((C, C))
    for a in range(C):
        for b in range(C):
            denom = row_mass[a] + row_mass[b]  # co is symmetric
            if denom > 0:
                values[a, b] = co[a, b] / denom
    return PairRelevanceMatrix(values, C)


# ---------------------------------------------------------------------------
# pitch


def pitch_index(f0_values: Sequence[float]) -> int:
    """One clip's embedding row: averaged voiced f0, clamped to [50, 500],
    rounded half-up, mapped to rows 1..451; all-unvoiced clips use row 0."""
    voiced = [v for v in f0_values if v > 0.0]
    for v in f0_values:
        if v < 0:
            raise DataValidationError(f"negative f0 value {v}")
    if not voiced:
        return UNVOICED_INDEX
    avg = float(np.mean(voiced))
    clamped = min(max(avg, F0_MIN), F0_MAX)
    rounded = int(np.floor(clamped + 0.5))
    return rounded - int(F0_MIN) + 1


def pitch_indices(track: SpeechTrack) -> np.ndarray:
    return np.array([pitch_index(frames) for frames in track.f0_frames], dtype=np.intp)


def pitch_features(tracks: Sequence[SpeechTrack], embedding: Tensor, lstm_wx: Tensor,
                   lstm_wh: Tensor, lstm_b: Tensor) -> Tensor:
    """(B, T_max, d_p) pitch sequences: embedding lookup followed by the LSTM.

    Tracks shorter than T_max are padded with the unvoiced row after their
    end; the LSTM is causal, so the padding leaves their states unchanged.
    """
    idx = np.full((len(tracks), max(track.count for track in tracks)), UNVOICED_INDEX,
                  dtype=np.intp)
    for b, track in enumerate(tracks):
        idx[b, :track.count] = pitch_indices(track)
    return lstm_forward(ad.gather_rows(embedding, idx), lstm_wx, lstm_wh, lstm_b)


# ---------------------------------------------------------------------------
# voice activity


def vad_aggregate(track: SpeechTrack) -> tuple[np.ndarray, np.ndarray]:
    """Per clip (voice_time, nonvoice_time) in seconds at the frame period."""
    period = track.frame_period
    voice = np.empty(track.count)
    nonvoice = np.empty(track.count)
    for t, frames in enumerate(track.vad_frames):
        if len(frames) == 0:
            raise DataValidationError(f"clip {t} has zero VAD frames")
        on = sum(1 for f in frames if f)
        voice[t] = on * period
        nonvoice[t] = (len(frames) - on) * period
    return voice, nonvoice
