"""Engineered per-modality features derived from precomputed raw inputs.

This module never runs detectors, pitch trackers, or VAD models; it consumes
their outputs (region features and boxes, clip boundaries and embeddings, f0
frames, voice-activity frames) and produces the parameter-free quantities the
chart fuses: unit boxes, the category pair-relevance matrix and each image's
pair submatrix, pitch embedding rows, per-clip voice/non-voice durations and
each sentence's voice-activity table.

None of them depends on the model's parameters, so each is computed at its
first use, one track or image at a time, and kept on its `SpeechTrack` or
`RegionSet` for every later step and parse; loading a corpus computes none of
them. A bundle's raw inputs must therefore not change after its first use; a
track's f0 and VAD frames are flat read-only arrays, so they cannot.
`chart.build_context` pads the kept values of a batch's examples.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError

__all__ = [
    "RegionSet",
    "SpeechTrack",
    "PairRelevanceMatrix",
    "build_pair_matrix",
    "voice_activity_table",
]

F0_MIN = 50.0
F0_MAX = 500.0
UNVOICED_INDEX = 0


def _kept():
    """A dataclass field for a value computed at its first use."""
    return field(default=None, init=False, repr=False, compare=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    """`array`, read-only: kept values are shared by every later use."""
    array.setflags(write=False)
    return array


@dataclass
class RegionSet:
    """Detected objects of one image: features, pixel boxes, category ids."""

    features: np.ndarray          # (M, d_v)
    bboxes: np.ndarray            # (M, 4) as (x_min, y_min, x_max, y_max) pixels
    categories: np.ndarray        # (M,) ints in [0, C)
    image_size: tuple[float, float]  # (w, h) pixels
    _units: tuple | None = _kept()   # (unit boxes, valid) of all regions
    _pairs: tuple | None = _kept()   # (pair matrix, its (M, M) submatrix)

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
        if self.bboxes.shape != (self.count, 4):
            raise DataValidationError(f"example {owner}: {self.count} regions but bboxes of "
                                      f"shape {self.bboxes.shape}")
        self._check_boxes(self._valid_boxes(), owner)
        if self.categories.min(initial=0) < 0:
            raise DataValidationError(f"example {owner}: negative category id")

    def _valid_boxes(self) -> np.ndarray:
        """(M,) whether each box has an area and lies inside the image, whose
        size must be finite."""
        w, h = self.image_size
        x0, y0, x1, y1 = self.bboxes.T
        return ((0 <= x0) & (x0 < x1) & (x1 <= w) & (0 <= y0) & (y0 < y1) & (y1 <= h)
                & np.isfinite(w) & np.isfinite(h))

    def _check_boxes(self, valid: np.ndarray, owner: str) -> None:
        if not valid.all():
            m = int(np.argmin(valid))
            x0, y0, x1, y1 = self.bboxes[m]
            w, h = self.image_size
            raise DataValidationError(
                f"example {owner}: region {m} has invalid bbox "
                f"({x0}, {y0}, {x1}, {y1}) for image size ({w}, {h})"
            )

    def unit_boxes(self, owner: str = "?", count: int | None = None) -> np.ndarray:
        """(count, 4) boxes of the first `count` regions (default all) in the
        unit square, with the image's top-left corner as the origin.

        The boxes of all regions are computed at the first call and kept.
        Raises DataValidationError naming the example, the region and its box
        when one of the first `count` boxes is zero-area or reaches outside
        the image.
        """
        if self._units is None:
            w, h = self.image_size
            valid = self._valid_boxes()
            units = np.divide(self.bboxes, np.array([w, h, w, h], dtype=np.float64),
                              out=np.zeros_like(self.bboxes), where=valid[:, None])
            self._units = _frozen(units), valid
        units, valid = self._units
        self._check_boxes(valid[:count], owner)
        return units[:count]

    def pair_submatrix(self, matrix: PairRelevanceMatrix) -> np.ndarray:
        """(M, M) relevance of this image's category pairs under `matrix`.

        Kept for the last matrix asked for: another matrix recomputes it.
        """
        if self._pairs is None or self._pairs[0] is not matrix:
            self._pairs = matrix, _frozen(matrix.submatrix(self.categories))
        return self._pairs[1]


@dataclass
class SpeechTrack:
    """Speech clips with representations, pitch frames, and VAD frames.

    The frames are given one sequence per clip and packed at construction:
    `f0` (float64) and `vad` (bool) hold every clip's frames back to back,
    `f0_counts` and `vad_counts` each clip's number of frames."""

    clips: list[tuple[float, float]]       # (start_s, end_s), ordered, non-overlapping
    clip_features: np.ndarray              # (T, d_s)
    f0_frames: InitVar[Sequence[Sequence[float]]]  # per clip, Hz; 0 marks an unvoiced frame
    vad_frames: InitVar[Sequence[Sequence[bool]]]  # per clip, True = voiced
    frame_period: float = 0.01
    f0: np.ndarray = field(init=False, repr=False)
    f0_counts: np.ndarray = field(init=False, repr=False)
    vad: np.ndarray = field(init=False, repr=False)
    vad_counts: np.ndarray = field(init=False, repr=False)
    _pitch_rows: np.ndarray | None = _kept()
    _voice_times: tuple | None = _kept()
    _voice_table: np.ndarray | None = _kept()

    def __post_init__(self, f0_frames, vad_frames):
        self.clip_features = np.asarray(self.clip_features, dtype=np.float64)
        self.f0, self.f0_counts = _packed(f0_frames, np.float64)
        self.vad, self.vad_counts = _packed(vad_frames, np.bool_)

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
            if not (math.isfinite(start) and math.isfinite(end)):
                raise DataValidationError(
                    f"example {owner}: clip {t} has a non-finite time ({start}, {end})"
                )
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
        if self.f0_counts.size != self.count or self.vad_counts.size != self.count:
            raise DataValidationError(f"example {owner}: {self.count} clips but "
                                      f"{self.f0_counts.size} f0 and "
                                      f"{self.vad_counts.size} VAD frame lists")
        empty = (self.f0_counts == 0) | (self.vad_counts == 0)
        if empty.any():
            raise DataValidationError(f"example {owner}: clip {int(np.argmax(empty))} has "
                                      f"zero frames")
        self._check_f0(owner)

    def _check_f0(self, owner: str) -> None:
        """Raises DataValidationError naming the example, the clip and the
        value for the first f0 value that is negative or not finite."""
        bad = ~(np.isfinite(self.f0) & (self.f0 >= 0.0))
        if bad.any():
            frame = int(np.argmax(bad))
            clip = int(np.searchsorted(np.cumsum(self.f0_counts), frame, side="right"))
            value = self.f0[frame]
            fault = ("a negative f0 value {}" if value < 0 else
                     "a non-finite f0 value {}; 0 marks an unvoiced frame")
            raise DataValidationError(f"example {owner}: clip {clip} has "
                                      + fault.format(value))

    def pitch_rows(self, owner: str = "?") -> np.ndarray:
        """(T,) pitch-embedding row of every clip, computed at the first call
        and kept.

        A clip's row comes from its averaged voiced (positive) f0, clamped to
        [50, 500], rounded half-up, mapped to rows 1..451; all-unvoiced clips
        use row 0. Each clip's voiced frames are summed after a leading zero,
        which gives the sum ``np.mean`` takes (0 plus a pairwise sum), so the
        averages are those of ``np.mean`` bit for bit. A negative or
        non-finite f0 raises DataValidationError naming the example, the clip
        and the value.
        """
        if self._pitch_rows is None:
            self._check_f0(owner)
            f0, sizes = self.f0, self.f0_counts
            clip_of = np.repeat(np.arange(sizes.size), sizes)
            voiced = f0 > 0.0
            counts = np.bincount(clip_of[voiced], minlength=sizes.size)
            starts = np.cumsum(counts) - counts
            led = np.insert(f0[voiced], starts, 0.0)
            sums = np.add.reduceat(led, starts + np.arange(counts.size))
            average = sums / np.maximum(counts, 1)
            rounded = np.floor(np.minimum(np.maximum(average, F0_MIN), F0_MAX) + 0.5)
            self._pitch_rows = _frozen(np.where(
                counts > 0, rounded.astype(np.intp) - int(F0_MIN) + 1, UNVOICED_INDEX))
        return self._pitch_rows

    def voice_times(self, owner: str = "?") -> tuple[np.ndarray, np.ndarray]:
        """(T,) voice and non-voice time of every clip in seconds, computed at
        the first call and kept. A clip without VAD frames raises
        DataValidationError naming the example and the clip."""
        if self._voice_times is None:
            sizes = self.vad_counts
            if not sizes.all():
                raise DataValidationError(f"example {owner}: clip {int(np.argmin(sizes))} "
                                          f"has zero VAD frames")
            on = np.bincount(np.repeat(np.arange(sizes.size), sizes)[self.vad],
                             minlength=sizes.size)
            self._voice_times = (_frozen(on * self.frame_period),
                                 _frozen((sizes - on) * self.frame_period))
        return self._voice_times

    def voice_table(self, owner: str = "?") -> np.ndarray:
        """(T, T) `voice_activity_table` of the track, computed at the first
        call and kept."""
        if self._voice_table is None:
            self._voice_table = _frozen(voice_activity_table(*self.voice_times(owner)))
        return self._voice_table


@dataclass
class PairRelevanceMatrix:
    """C x C co-occurrence-derived relevance scores in [0, 1], read-only:
    images keep their submatrices of it (see `RegionSet.pair_submatrix`)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _frozen(np.array(self.values, dtype=np.float64))

    def submatrix(self, categories: np.ndarray) -> np.ndarray:
        """(M, M) slice for one image's object category list."""
        return self.values[np.ix_(categories, categories)]


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


def _packed(clips: Sequence[Sequence], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every clip's frames of one track, back to back, and the frame count of
    each clip; both read-only."""
    counts = np.fromiter(map(len, clips), dtype=np.intp, count=len(clips))
    frames = np.fromiter(chain.from_iterable(clips), dtype=dtype, count=int(counts.sum()))
    return _frozen(frames), _frozen(counts)


def voice_activity_table(voice_time: np.ndarray, nonvoice_time: np.ndarray) -> np.ndarray:
    """Speech-rhythm density of every span (i, j) of one sentence, at [i-1, j-1].

    Span (i, j) ranges over clips i..j-1 and is penalized for its longest
    internal pause relative to its mean voiced time; a single position has
    an empty range and scores 0. Always in (-1, 0) otherwise. Entries below
    the diagonal are 0 and unused. Leading axes are a batch: (B, T) clip
    times give (B, T, T) tables, one per sentence.
    """
    n = voice_time.shape[-1]
    first, end = np.indices((n, n))     # span (first + 1, end + 1) covers clips first..end-1
    pauses = np.where(end >= first, nonvoice_time[..., None, :], -np.inf)
    longest = np.full(pauses.shape, -np.inf)
    longest[..., 1:] = np.maximum.accumulate(pauses, axis=-1)[..., :-1]
    voiced = np.cumsum(voice_time, axis=-1)
    voiced = np.concatenate([np.zeros(voiced.shape[:-1] + (1,)), voiced], axis=-1)
    clips = end - first
    mean_voice = (voiced[..., end] - voiced[..., first]) / np.maximum(clips, 1)
    ratio = np.where(clips > 0, longest / (mean_voice + 1e-6), 0.0)
    return np.where(clips > 0, -1.0 / (1.0 + np.exp(-ratio)), 0.0)
