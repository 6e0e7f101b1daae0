"""Engineered per-modality features derived from precomputed raw inputs.

This module never runs detectors, pitch trackers, or VAD models; it consumes
their outputs (region features and boxes, clip boundaries and embeddings, f0
frames, voice-activity frames) and produces the parameter-free quantities the
chart fuses: unit boxes, the category pair-relevance matrix, pitch embedding
rows, and per-clip voice/non-voice durations. The per-clip features of a
batch of tracks are computed together, over all of their frames at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError

__all__ = [
    "RegionSet",
    "SpeechTrack",
    "PairRelevanceMatrix",
    "build_pair_matrix",
    "pitch_indices",
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
        self.unit_boxes(owner)
        if self.categories.min(initial=0) < 0:
            raise DataValidationError(f"example {owner}: negative category id")

    def unit_boxes(self, owner: str = "?", count: int | None = None) -> np.ndarray:
        """(count, 4) boxes of the first `count` regions (default all) in the
        unit square, with the image's top-left corner as the origin.

        Raises DataValidationError naming the example, the region and its box
        when a box is zero-area or reaches outside the image.
        """
        boxes = self.bboxes[:count]
        w, h = self.image_size
        x0, y0, x1, y1 = boxes.T
        ok = (0 <= x0) & (x0 < x1) & (x1 <= w) & (0 <= y0) & (y0 < y1) & (y1 <= h)
        if not ok.all():
            m = int(np.argmin(ok))
            raise DataValidationError(
                f"example {owner}: region {m} has invalid bbox "
                f"({x0[m]}, {y0[m]}, {x1[m]}, {y1[m]}) for image size ({w}, {h})"
            )
        return boxes / np.array([w, h, w, h], dtype=np.float64)


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
        if not (np.isfinite(self.frame_period) and self.frame_period > 0):
            raise DataValidationError(
                f"example {owner}: frame_period {self.frame_period} is not a positive "
                f"number of seconds"
            )
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
        if len(self.f0_frames) != self.count or len(self.vad_frames) != self.count:
            raise DataValidationError(f"example {owner}: {self.count} clips but "
                                      f"{len(self.f0_frames)} f0 and "
                                      f"{len(self.vad_frames)} VAD frame lists")
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

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    def submatrix(self, categories: np.ndarray) -> np.ndarray:
        """(M, M) slice for one image's object category list."""
        return self.values[np.ix_(categories, categories)]


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
    bad = next((a for group in sets for a in group if not 0 <= a < C), None)
    if bad is not None:
        raise DataValidationError(f"category id {bad} outside [0, {C})")
    present = np.zeros((len(sets), C))   # image by category indicator rows
    for image, group in enumerate(sets):
        present[image, list(group)] = 1.0
    co = present.T @ present             # exact integer counts
    np.fill_diagonal(co, 0.0)
    row_mass = co.sum(axis=1)  # sum_g Co-Count(a, g)
    denom = row_mass[:, None] + row_mass[None, :]  # co is symmetric
    return PairRelevanceMatrix(np.divide(co, denom, out=np.zeros((C, C)), where=denom > 0))


# ---------------------------------------------------------------------------
# per-clip frame statistics


def _clip_frames(tracks: Sequence[SpeechTrack], frames_of,
                 dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every clip's frames of a batch of tracks, concatenated clip by clip:
    (frames, frame count per clip, clip of each frame)."""
    clips = [frames for track in tracks for frames in frames_of(track)]
    sizes = np.fromiter(map(len, clips), dtype=np.intp, count=len(clips))
    values = np.fromiter(chain.from_iterable(clips), dtype=dtype, count=int(sizes.sum()))
    return values, sizes, np.repeat(np.arange(sizes.size), sizes)


def _raise_at(tracks: Sequence[SpeechTrack], owners: Sequence[str] | None,
              clip: int, problem: str) -> None:
    """Raise DataValidationError about the `clip`-th clip of the batch."""
    for b, track in enumerate(tracks):
        if clip < track.count:
            owner = "?" if owners is None else owners[b]
            raise DataValidationError(f"example {owner}: clip {clip} {problem}")
        clip -= track.count


def _padded(tracks: Sequence[SpeechTrack], per_clip: np.ndarray) -> np.ndarray:
    """Per-clip values of a batch, concatenated -> (B, T_max), zero after
    each track's end."""
    counts = np.array([track.count for track in tracks])
    out = np.zeros((len(tracks), int(counts.max())), dtype=per_clip.dtype)
    out[np.arange(out.shape[1]) < counts[:, None]] = per_clip
    return out


# ---------------------------------------------------------------------------
# pitch


def pitch_indices(tracks: Sequence[SpeechTrack],
                  owners: Sequence[str] | None = None) -> np.ndarray:
    """(B, T_max) embedding rows of every clip of a batch of tracks, padded
    with the unvoiced row after each track's end.

    A clip's row comes from its averaged voiced (positive) f0, clamped to
    [50, 500], rounded half-up, mapped to rows 1..451; all-unvoiced clips use
    row 0. Each clip's voiced frames are summed after a leading zero, which
    gives the sum ``np.mean`` takes (0 plus a pairwise sum), so the averages
    are those of ``np.mean`` bit for bit. A negative f0 raises
    DataValidationError naming the example, the clip and the value.
    """
    f0, sizes, clip_of = _clip_frames(tracks, lambda track: track.f0_frames, np.float64)
    negative = f0 < 0
    if negative.any():
        frame = int(np.argmax(negative))
        _raise_at(tracks, owners, clip_of[frame], f"has a negative f0 value {f0[frame]}")
    voiced = f0 > 0.0
    counts = np.bincount(clip_of[voiced], minlength=sizes.size)
    starts = np.cumsum(counts) - counts
    led = np.insert(f0[voiced], starts, 0.0)
    sums = np.add.reduceat(led, starts + np.arange(counts.size))
    average = sums / np.maximum(counts, 1)
    rounded = np.floor(np.minimum(np.maximum(average, F0_MIN), F0_MAX) + 0.5)
    rows = np.where(counts > 0, rounded.astype(np.intp) - int(F0_MIN) + 1, UNVOICED_INDEX)
    return _padded(tracks, rows)


# ---------------------------------------------------------------------------
# voice activity


def vad_aggregate(tracks: Sequence[SpeechTrack], owners: Sequence[str] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(B, T_max) voice and non-voice time of every clip of a batch of tracks,
    in seconds at each track's frame period, zero after each track's end."""
    voiced, sizes, clip_of = _clip_frames(tracks, lambda track: track.vad_frames, np.bool_)
    if not sizes.all():
        _raise_at(tracks, owners, int(np.argmin(sizes)), "has zero VAD frames")
    on = np.bincount(clip_of[voiced], minlength=sizes.size)
    period = np.repeat([track.frame_period for track in tracks],
                       [track.count for track in tracks])
    return _padded(tracks, on * period), _padded(tracks, (sizes - on) * period)
