"""Engineered feature derivations: boxes, pair matrix, pitch, voice activity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmgi.features import voice_activity_table
from mmgi.errors import DataValidationError
from mmgi.features import F0_MAX, F0_MIN, RegionSet, SpeechTrack, build_pair_matrix

from .conftest import random_bundle, tiny_config, with_clip
from .oracles import (scalar_pair_matrix, scalar_pitch_index, scalar_unit_box,
                      scalar_vad_aggregate)


# ---------------------------------------------------------------------------
# bounding boxes


def _regions(boxes, width, height):
    return RegionSet(features=np.zeros((len(boxes), 2)), bboxes=boxes,
                     categories=np.zeros(len(boxes), dtype=int), image_size=(width, height))


def _unit_box(box, width, height):
    return _regions([box], width, height).unit_boxes("ex")[0]


def test_bbox_full_image_is_unit_box():
    assert np.array_equal(_unit_box((0, 0, 640, 480), 640, 480), [0, 0, 1, 1])


def test_bbox_direct_division():
    got = _unit_box((10, 20, 30, 40), 100, 200)
    assert np.allclose(got, [0.1, 0.1, 0.3, 0.2])


def test_bbox_idempotent_on_unit_square():
    unit = _unit_box((0.2, 0.3, 0.8, 0.9), 1.0, 1.0)
    again = _unit_box(unit, 1.0, 1.0)
    assert np.array_equal(unit, again)


def test_bbox_zero_area_and_out_of_image_rejected():
    good = (1, 1, 4, 4)
    regions = _regions([good, good, good, (5, 5, 5, 10)], 100, 100)
    with pytest.raises(DataValidationError,
                       match=r"example img7: region 3 has invalid bbox \(5.0, 5.0, 5.0, 10.0\)"):
        regions.unit_boxes("img7")
    regions.unit_boxes("img7", count=3)     # only the first three are used
    with pytest.raises(DataValidationError, match="region 0"):
        _regions([(5, 5, 120, 10)], 100, 100).unit_boxes()
    with pytest.raises(DataValidationError, match="example img7: region 1"):
        _regions([good, (5, 5, 120, 10)], 100, 100).validate("img7")


@given(st.lists(st.tuples(st.floats(0, 90), st.floats(0, 90), st.floats(1, 10),
                          st.floats(1, 10)), min_size=1, max_size=12),
       st.floats(100, 2000), st.floats(100, 2000))
@settings(max_examples=60, deadline=None)
def test_unit_boxes_match_scalar_division(corners, width, height):
    boxes = [(x, y, x + w, y + h) for x, y, w, h in corners]
    got = _regions(boxes, width, height).unit_boxes("ex")
    expect = np.stack([scalar_unit_box(box, width, height) for box in boxes])
    assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# pair relevance matrix


def test_pair_matrix_single_category_images_all_zero():
    m = build_pair_matrix([[0], [1], [1], [2]], 3)
    assert np.array_equal(m.values, np.zeros((3, 3)))


def test_pair_matrix_counting_example():
    # images {A,B}, {A,B}, {A} with A=0, B=1
    m = build_pair_matrix([[0, 1], [0, 1], [0]], 2)
    # brute-force oracle: recount directly
    images = [{0, 1}, {0, 1}, {0}]

    def co(a, b):
        return sum(1 for img in images if a != b and a in img and b in img)

    denom = sum(co(0, g) for g in range(2)) + sum(co(g, 1) for g in range(2))
    assert co(0, 1) == 2
    assert m.values[0, 1] == pytest.approx(co(0, 1) / denom)
    assert m.values[0, 1] == pytest.approx(0.5)


def test_pair_matrix_order_invariant():
    images = [[0, 1], [2], [1, 2], [0, 1, 2]]
    a = build_pair_matrix(images, 3).values
    b = build_pair_matrix(list(reversed(images)), 3).values
    assert np.array_equal(a, b)


def test_pair_matrix_empty_corpus_rejected():
    with pytest.raises(DataValidationError):
        build_pair_matrix([], 3)


@given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=4),
                min_size=1, max_size=12),
       st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_pair_matrix_range_and_ratio_invariance(images, copies):
    m = build_pair_matrix(images, 5).values
    assert np.all(m >= 0.0) and np.all(m <= 1.0)
    doubled = build_pair_matrix(images * copies, 5).values
    assert np.allclose(m, doubled, atol=1e-12)


@given(st.lists(st.lists(st.integers(0, 6), max_size=5), min_size=1, max_size=15))
@settings(max_examples=80, deadline=None)
def test_pair_matrix_equals_the_scalar_oracle_bit_for_bit(images):
    got = build_pair_matrix(images, 7).values
    assert np.array_equal(got, scalar_pair_matrix(images, 7))


def test_pair_matrix_rejects_a_category_out_of_range():
    with pytest.raises(DataValidationError, match="category id 3 outside"):
        build_pair_matrix([[0, 1], [2, 3]], 3)
    with pytest.raises(DataValidationError, match="category id -1 outside"):
        build_pair_matrix([[-1]], 3)


# ---------------------------------------------------------------------------
# pitch


def _track(vad_frames, period=0.01, f0_frames=None):
    n = len(vad_frames)
    clips = []
    cursor = 0.0
    for fr in vad_frames:
        clips.append((cursor, cursor + period * len(fr)))
        cursor += period * len(fr)
    return SpeechTrack(
        clips=clips,
        clip_features=np.zeros((n, 3)),
        f0_frames=f0_frames or [[100.0] * len(fr) for fr in vad_frames],
        vad_frames=vad_frames,
        frame_period=period,
    )


def _f0_track(f0_frames):
    return _track([[v > 0 for v in frames] for frames in f0_frames], f0_frames=f0_frames)


def _pitch_row(frames):
    """The embedding row of one clip."""
    return int(_f0_track([frames]).pitch_rows()[0])


def test_pitch_index_worked_example():
    assert _pitch_row([219.4, 219.8]) == 171  # avg 219.6 -> 220 -> 220-50+1


def test_pitch_index_clamps_high():
    assert _pitch_row([600.0, 600.0]) == 451


def test_pitch_index_clamps_low():
    assert _pitch_row([10.0]) == 1


def test_pitch_index_all_unvoiced_reserved_row():
    assert _pitch_row([0.0, 0.0, 0.0]) == 0


def test_pitch_index_ignores_unvoiced_frames_in_average():
    # unvoiced zeros would otherwise drag the mean down
    assert _pitch_row([0.0, 200.0, 0.0, 200.0]) == 151


def test_pitch_negative_f0_rejected():
    track = _f0_track([[100.0], [100.0, -5.0]])
    with pytest.raises(DataValidationError,
                       match=r"example b: clip 1 has a negative f0 value -5.0"):
        track.pitch_rows("b")


@given(st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_pitch_index_range_and_monotonicity(voiced):
    idx = _pitch_row(voiced)
    assert 1 <= idx <= 451
    higher = _pitch_row([min(v + 40.0, 1500.0) for v in voiced])
    assert higher >= idx


def test_pitch_index_monotone_in_average():
    values = [_pitch_row([f]) for f in np.linspace(F0_MIN, F0_MAX, 50)]
    assert values == sorted(values)


# Ten voiced frames: np.mean's pairwise sum averages them to 200.49999999999997
# (row 151); a left-to-right sum, and np.add.reduceat's first frame plus a
# pairwise sum of the rest, both give 200.5 (row 152).
PAIRWISE_CLIP = [200.0, 199.8, 199.8, 201.0, 200.1, 201.1, 200.7, 201.2, 200.6, 200.7]
HALF_CLIP = [0.0, 100.0, 101.0, 0.0]            # integers averaging to 100.5
_clip = st.one_of(
    st.lists(st.integers(0, 600).map(float), min_size=1, max_size=24),
    st.lists(st.floats(0.0, 800.0) | st.just(0.0), min_size=1, max_size=24),
    st.lists(st.floats(199.0, 202.0), min_size=9, max_size=24),
)


@given(st.lists(st.lists(_clip, min_size=1, max_size=5), min_size=1, max_size=4),
       st.floats(0.005, 0.05))
@example([[PAIRWISE_CLIP, HALF_CLIP], [[0.0]]], 0.01)
@settings(max_examples=150, deadline=None)
def test_batched_clip_features_equal_the_scalar_oracle(batch, period):
    # each track computes every clip's values at once
    for clips in batch:
        track = _track([[v > 0 for v in frames] for frames in clips], period, clips)
        assert track.pitch_rows().tolist() == [scalar_pitch_index(f) for f in clips]
        expect_voice, expect_nonvoice = scalar_vad_aggregate(track)
        voice, nonvoice = track.voice_times()
        assert np.array_equal(voice, expect_voice)
        assert np.array_equal(nonvoice, expect_nonvoice)
        assert np.array_equal(track.voice_table(),
                              voice_activity_table(expect_voice, expect_nonvoice))


def test_pairwise_clip_takes_np_mean_rounding():
    assert _pitch_row(PAIRWISE_CLIP) == scalar_pitch_index(PAIRWISE_CLIP) == 151
    assert _pitch_row(HALF_CLIP) == 52     # 100.5 rounds half-up to 101


# ---------------------------------------------------------------------------
# voice activity


def test_vad_aggregate_all_voiced():
    voice, nonvoice = _track([[True] * 50]).voice_times()
    assert voice[0] == pytest.approx(0.5)
    assert nonvoice[0] == pytest.approx(0.0)


def test_vad_aggregate_mixed():
    voice, nonvoice = _track([[True] * 30 + [False] * 20]).voice_times()
    assert voice[0] == pytest.approx(0.3)
    assert nonvoice[0] == pytest.approx(0.2)


def test_vad_zero_frames_rejected():
    track = with_clip(_track([[True], [True]]), 1, vad=[])
    with pytest.raises(DataValidationError, match="example a: clip 1 has zero VAD frames"):
        track.voice_table("a")


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=40),
                min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_vad_conserves_clip_duration(vad_frames):
    voice, nonvoice = _track(vad_frames).voice_times()
    for t, frames in enumerate(vad_frames):
        assert voice[t] + nonvoice[t] == pytest.approx(0.01 * len(frames))


# ---------------------------------------------------------------------------
# track validation


def test_speech_track_validation(rng):
    cfg = tiny_config()
    bundle = random_bundle(rng, 3, cfg)
    bundle.speech.validate("ok")
    bad = random_bundle(rng, 3, cfg)
    bad.speech.clips[1] = (bad.speech.clips[1][1], bad.speech.clips[1][0])
    with pytest.raises(DataValidationError, match="clip 1"):
        bad.speech.validate("bad")
