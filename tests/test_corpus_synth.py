"""Corpus I/O, validation, and the synthetic generator's planted structure."""

import base64
import dataclasses
import json
import tempfile
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgi.corpus import load_corpus, save_corpus
from mmgi.errors import AlignmentError, DataValidationError, GenerationError
from mmgi.features import RegionSet, pitch_indices, vad_aggregate
from mmgi.metrics import bracketing_f1
from mmgi.synth import (SynthConfig, generate_synthetic, lexicon_slices,
                        right_chain_grammar)
from mmgi.trees import bracket_set, right_branching, tree_spans

from .conftest import random_bundle, tiny_config, with_f0
from .oracles import per_clip


def _small_synth(**kw):
    base = dict(sentence_count=12, seed=7, d_s=8, d_v=40)
    base.update(kw)
    return generate_synthetic(SynthConfig(**base))


# ---------------------------------------------------------------------------
# corpus I/O


def test_roundtrip_identity(tmp_path):
    examples = _small_synth()
    path = tmp_path / "c.jsonl"
    save_corpus(examples, path)
    loaded = load_corpus(path, "full")
    assert [e.id for e in loaded] == [e.id for e in examples]
    for a, b in zip(examples, loaded):
        assert a.tokens == b.tokens
        assert a.gold_brackets == b.gold_brackets
        assert a.speech.clips == b.speech.clips
        assert np.array_equal(a.speech.f0, b.speech.f0)
        assert np.array_equal(a.speech.f0_counts, b.speech.f0_counts)
        assert np.array_equal(a.speech.vad, b.speech.vad)
        assert np.array_equal(a.speech.vad_counts, b.speech.vad_counts)
        assert np.array_equal(a.speech.clip_features, b.speech.clip_features)
        assert np.array_equal(a.regions.features, b.regions.features)
        assert np.array_equal(a.regions.bboxes, b.regions.bboxes)
        assert np.array_equal(a.regions.categories, b.regions.categories)


def test_empty_corpus_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataValidationError, match="no examples"):
        load_corpus(path, "full")
    with pytest.raises(DataValidationError, match="not found"):
        load_corpus(tmp_path / "missing.jsonl", "full")


def test_token_clip_mismatch_names_example(tmp_path, rng):
    cfg = tiny_config()
    bundle = random_bundle(rng, 3, cfg, ex_id="broken")
    bundle.tokens = bundle.tokens[:2]
    path = tmp_path / "bad.jsonl"
    save_corpus([bundle], path)
    with pytest.raises(AlignmentError, match="broken"):
        load_corpus(path, "full")


def test_textless_mode_allows_missing_tokens(tmp_path, rng):
    cfg = tiny_config()
    bundle = random_bundle(rng, 3, cfg, ex_id="clip-only")
    bundle.tokens = None
    path = tmp_path / "textless.jsonl"
    save_corpus([bundle], path)
    loaded = load_corpus(path, "textless")
    assert loaded[0].tokens is None
    assert loaded[0].n == 3


def test_duplicate_ids_rejected(tmp_path, rng):
    cfg = tiny_config()
    bundle = random_bundle(rng, 2, cfg, ex_id="dup")
    path = tmp_path / "dup.jsonl"
    save_corpus([bundle, bundle], path)
    with pytest.raises(DataValidationError, match="duplicate"):
        load_corpus(path, "full")


def test_gold_labels_of_older_corpora_load_and_are_ignored(tmp_path):
    examples = _small_synth(sentence_count=2)
    path = tmp_path / "c.jsonl"
    save_corpus(examples, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert all("gold_labels" not in record for record in lines)
    for record in lines:
        record["gold_labels"] = ["S"] * len(record["gold_brackets"])
    old = tmp_path / "old.jsonl"
    old.write_text("".join(json.dumps(record) + "\n" for record in lines))
    loaded = load_corpus(old, "full")
    assert [ex.gold_brackets for ex in loaded] == [ex.gold_brackets for ex in examples]
    resaved = tmp_path / "resaved.jsonl"
    save_corpus(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("period,shown", [(0, "0.0"), (-0.01, "-0.01"),
                                          (float("inf"), "inf"), (float("nan"), "nan")])
def test_bad_frame_period_names_example(tmp_path, period, shown):
    # the voice-activity term scales every frame by it
    examples = _small_synth(sentence_count=2)
    path = tmp_path / "c.jsonl"
    save_corpus(examples, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[1]["frame_period"] = period
    path.write_text("".join(json.dumps(record) + "\n" for record in lines))
    with pytest.raises(DataValidationError,
                       match=f"example {lines[1]['id']}: frame_period {shown} is not"):
        load_corpus(path, "full")


@pytest.mark.parametrize("kind,width", [("clip", 8), ("region", 40)])
def test_mixed_feature_widths_name_the_first_example_that_differs(tmp_path, kind, width):
    # without a model config to compare against, only load_corpus can catch it
    examples = _small_synth(sentence_count=4)
    for ex in examples[2:]:
        owner, field = (ex.speech, "clip_features") if kind == "clip" else \
            (ex.regions, "features")
        setattr(owner, field, np.hstack([getattr(owner, field)] * 2))
    path = tmp_path / "c.jsonl"
    save_corpus(examples, path)
    with pytest.raises(DataValidationError,
                       match=f"example {examples[2].id}: {kind} features have dim "
                             f"{2 * width}, but example {examples[0].id} has {width}$"):
        load_corpus(path, "full")


def test_schema_violation_names_line(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"id": "x", "clips": "oops"}\n')
    with pytest.raises(DataValidationError, match="line 1"):
        load_corpus(path, "full")


def _set_first_clip(field, value):
    def edit(record):
        record[field][0] = value
    return edit


def _set_at(value, *keys):
    def edit(record):
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = value
    return edit


def _gold_one_a_boolean(record):
    # every binary tree of n >= 2 has a bracket that starts or ends at 1
    pair = next(pair for pair in record["gold_brackets"] if 1 in pair)
    pair[pair.index(1)] = True


MALFORMED_RECORDS = {
    "no_f0_frame_lists": (lambda record: record.update(f0_frames=[]), "example {id}: "),
    "vad_frames_a_string": (lambda record: record.update(vad_frames="x"), "line 2"),
    "empty_image_size": (lambda record: record.update(image_size=[]), "line 2"),
    "null_id": (lambda record: record.update(id=None), "line 2"),
    "vad_clip_an_object": (_set_first_clip("vad_frames", {"a": 1, "b": 0}), "line 2"),
    # JSON booleans where the format has numbers
    "frame_period_a_boolean": (_set_at(True, "frame_period"), "line 2"),
    "f0_value_a_boolean": (_set_at(True, "f0_frames", 0, 0), "line 2"),
    "bbox_coordinate_a_boolean": (_set_at(True, "regions", 0, "bbox", 0), "line 2"),
    "category_a_boolean": (_set_at(True, "regions", 0, "category"), "line 2"),
    "clip_start_a_boolean": (_set_at(False, "clips", 0, "start"), "line 2"),
    "image_width_a_boolean": (_set_at(True, "image_size", 0), "line 2"),
    "gold_bracket_end_a_boolean": (_gold_one_a_boolean, "line 2"),
    # tokens that are not a list of strings
    "tokens_one_string": (lambda record: record.update(tokens="x" * len(record["tokens"])),
                          "line 2"),
    "tokens_numbers": (lambda record: record.update(tokens=list(range(len(record["tokens"])))),
                       "line 2"),
    "tokens_nulls": (lambda record: record.update(tokens=[None] * len(record["tokens"])),
                     "line 2"),
    # JSON integers too large for a float64 or an intp
    "f0_value_too_large": (_set_at(10**400, "f0_frames", 0, 0), "line 2"),
    "clip_start_too_large": (_set_at(10**400, "clips", 0, "start"), "line 2"),
    "image_width_too_large": (_set_at(10**400, "image_size", 0), "line 2"),
    "frame_period_too_large": (_set_at(10**400, "frame_period"), "line 2"),
    "category_too_large": (_set_at(2**64, "regions", 0, "category"), "line 2"),
    # non-finite numbers
    "f0_value_nan": (_set_at(float("nan"), "f0_frames", 0, 0),
                     "^example {id}: clip 0 has a non-finite f0 value nan; "
                     "0 marks an unvoiced frame$"),
    "f0_value_infinite": (_set_at(float("inf"), "f0_frames", 1, 2),
                          "^example {id}: clip 1 has a non-finite f0 value inf; "
                          "0 marks an unvoiced frame$"),
    "clip_end_infinite": (_set_at(float("inf"), "clips", 0, "end"),
                          r"^example {id}: clip 0 has a non-finite time \(0.0, inf\)$"),
    "image_width_infinite": (_set_at(float("inf"), "image_size", 0),
                             r"^example {id}: region 0 .* for image size \(inf, "),
    # boxes and image sizes of the wrong length
    "every_bbox_three_numbers": (lambda record: [region.update(bbox=region["bbox"][:3])
                                                 for region in record["regions"]],
                                 "^example {id}: .* regions but bboxes of shape"),
    "image_size_three_numbers": (lambda record: record["image_size"].append(1.0), "line 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_raises_data_validation_error(tmp_path, case):
    # one record of three, changed in one field; nothing but the library's
    # error may escape, and nothing malformed may load
    edit, where = MALFORMED_RECORDS[case]
    path = tmp_path / "c.jsonl"
    save_corpus(_small_synth(sentence_count=3), path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    shown = where.format(id=lines[1]["id"])
    edit(lines[1])
    path.write_text("".join(json.dumps(record) + "\n" for record in lines))
    with pytest.raises(DataValidationError, match=shown):
        load_corpus(path, "full")


def _blob_one_float_long(record):
    raw = base64.b64decode(record["clip_feats_ref"]) + np.zeros(1).tobytes()
    record["clip_feats_ref"] = base64.b64encode(raw).decode()


LOAD_ERRORS = {
    "not_json": (None, "corpus line 2: "),
    "feature_blob_of_the_wrong_size": (_blob_one_float_long, "corpus line 2: .*feature blob of"),
    "full_mode_without_tokens": (lambda record: record.pop("tokens"),
                                 "example {id}: full mode needs tokens"),
}


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_load_errors_name_the_line_or_example(tmp_path, case):
    edit, where = LOAD_ERRORS[case]
    path = tmp_path / "c.jsonl"
    save_corpus(_small_synth(sentence_count=3), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    if edit is None:
        lines[1] = lines[1][:-1]        # the closing brace cut off
    else:
        edit(record)
        lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataValidationError, match=where.format(id=record["id"])) as raised:
        load_corpus(path, "full")
    assert type(raised.value) is DataValidationError


@cache
def _fuzz_records() -> tuple[str, ...]:
    """The three records the fuzzer mutates, as JSON lines."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "c.jsonl"
        save_corpus(_small_synth(sentence_count=3), path)
        return tuple(path.read_text().splitlines())


def _json_paths(value, path=()):
    """The path of `value` and of everything inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-3, 3),
    st.sampled_from([10**400, -10**400, 2**63, 2**64, -2**63 - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([[], {}, [[]], "", [0], [True], [1.5, "a"], {"start": 0}]),
)


def _mutated(record: dict, path: tuple, how: str, junk):
    """`record` with the value at `path` replaced by `junk`, deleted, nested
    in a list or emptied."""
    if not path:
        return junk if how == "replace" else [record]
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if how == "delete":
        del parent[key]
    else:
        parent[key] = {"replace": junk, "nest": [value],
                       "empty": type(value)() if isinstance(value, (list, dict, str)) else 0
                       }[how]
    return record


@given(data=st.data(), line=st.integers(0, 2), mode=st.sampled_from(["full", "textless"]),
       how=st.sampled_from(["replace", "delete", "nest", "empty"]), junk=_JUNK)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fuzzed_records_raise_only_data_validation_error(data, line, mode, how, junk):
    # one record of three, mutated at one place in one field: a load may
    # succeed, but the only error that may escape is the library's, naming
    # the line or the example's id
    lines = list(_fuzz_records())
    record = json.loads(lines[line])
    field = data.draw(st.sampled_from(sorted(record)), label="field")
    path = data.draw(st.sampled_from(list(_json_paths(record[field], (field,)))), label="path")
    record = _mutated(record, path, how, junk)
    lines[line] = json.dumps(record)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        try:
            load_corpus(path, mode)
        except DataValidationError as exc:
            ex_id = record.get("id") if isinstance(record, dict) else None
            names = [f"line {line + 1}:"]
            if isinstance(ex_id, str):
                names += [f"example {ex_id}:", f"example {ex_id} has", f"id {ex_id!r}"]
            assert any(name in str(exc) for name in names), str(exc)


def test_loaded_corpus_stays_under_its_memory_budget(tmp_path):
    # this 60-sentence corpus held 1,001,330 bytes once loaded when every f0
    # value and VAD flag was a Python object in a per-clip list
    path = tmp_path / "c.jsonl"
    save_corpus(_small_synth(sentence_count=60), path)
    tracemalloc.start()
    try:
        examples = load_corpus(path, "full")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(examples) == 60
    assert held <= 0.65 * 1_001_330, held


def _no_regions(ex):
    ex.regions = RegionSet(features=np.zeros((0, 4)), bboxes=np.zeros((0, 4)),
                           categories=np.zeros(0, dtype=np.intp), image_size=(320.0, 240.0))


def _shift_clip(start, end):
    def edit(ex):
        ex.speech.clips[1] = (start(ex.speech.clips), end(ex.speech.clips))
    return edit


def _set_speech(**fields):
    # a new track: a track's frames are read-only
    def edit(ex):
        speech = ex.speech
        changed = dict(f0_frames=per_clip(speech.f0, speech.f0_counts),
                       vad_frames=per_clip(speech.vad, speech.vad_counts))
        for name, value in fields.items():
            changed[name] = value(speech) if callable(value) else value
        ex.speech = dataclasses.replace(speech, **changed)
    return edit


def _negative_f0(ex):
    ex.speech = with_f0(ex.speech, 2, 0, -1.0)


BUNDLE_ERRORS = {
    "no_regions": (_no_regions, "needs at least one region"),
    "negative_category": (lambda ex: ex.regions.categories.__setitem__(1, -1),
                          "negative category id"),
    "no_clips": (_set_speech(clips=[], clip_features=np.zeros((0, 4)), f0_frames=[],
                             vad_frames=[]), "speech track has no clips"),
    "clip_start_at_its_end": (_shift_clip(lambda c: c[1][1], lambda c: c[1][1]),
                              "clip 1 has start .* >= end"),
    "clip_overlapping_the_last": (_shift_clip(lambda c: c[0][0], lambda c: c[1][1]),
                                  "clip 1 overlaps or precedes clip 0"),
    "clip_feature_rows_short": (_set_speech(clip_features=lambda s: s.clip_features[:-1]),
                                "3 clips but 2 clip feature rows"),
    "clip_with_zero_frames": (_set_speech(f0_frames=lambda s: [[]]
                                          + per_clip(s.f0, s.f0_counts)[1:]),
                              "clip 0 has zero frames"),
    "negative_f0": (_negative_f0, "clip 2 has a negative f0 value"),
}


@pytest.mark.parametrize("case", sorted(BUNDLE_ERRORS))
def test_region_and_speech_validation_names_the_example(rng, case):
    edit, message = BUNDLE_ERRORS[case]
    bundle = random_bundle(rng, 3, tiny_config(), ex_id="odd-one")
    bundle.validate("full")
    edit(bundle)
    with pytest.raises(DataValidationError, match=f"^example odd-one: {message}") as raised:
        bundle.validate("full")
    assert type(raised.value) is DataValidationError


def test_vad_frames_may_be_booleans(tmp_path):
    # VAD frames are voiced flags: true/false load as 1/0 do
    path = tmp_path / "c.jsonl"
    save_corpus(_small_synth(sentence_count=3), path)
    expect = load_corpus(path, "full")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for record in lines:
        record["vad_frames"] = [[bool(v) for v in frames] for frames in record["vad_frames"]]
    path.write_text("".join(json.dumps(record) + "\n" for record in lines))
    for got, want in zip(load_corpus(path, "full"), expect):
        assert np.array_equal(got.speech.vad, want.speech.vad)
        assert np.array_equal(got.speech.vad_counts, want.speech.vad_counts)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic_per_seed(tmp_path):
    a = _small_synth()
    b = _small_synth()
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(a, pa)
    save_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = _small_synth(seed=8)
    assert any(x.tokens != y.tokens for x, y in zip(a, c))


def test_synth_examples_validate_and_have_gold_trees():
    for ex in _small_synth():
        ex.validate("full")
        tree = ex.gold_tree()
        assert sorted(tree_spans(tree)) == sorted(ex.gold_brackets)
        assert bracketing_f1([tree], [tree], "sentence") == 1.0


def test_synth_flat_config_gives_allvoiced_constant_pitch():
    examples = _small_synth(pause_seconds=0.0, f0_slope=0.0, f0_reset=0.0,
                            f0_jitter=0.0)
    for ex in examples:
        voice, nonvoice = vad_aggregate([ex.speech])
        assert np.all(nonvoice == 0.0)
        rows = pitch_indices([ex.speech])
        assert len(set(rows[0].tolist())) == 1  # constant f0 everywhere


def test_synth_pauses_only_at_shallow_constituent_ends():
    examples = _small_synth(sentence_count=40, pause_depth=1)
    saw_pause = False
    for ex in examples:
        nonvoice = vad_aggregate([ex.speech])[1][0]
        tree = ex.gold_tree()
        spans = tree_spans(tree)
        depths = {}

        def walk(node, depth):
            if isinstance(node, int):
                return node, node
            li, _ = walk(node[0], depth + 1)
            _, rj = walk(node[1], depth + 1)
            depths[(li, rj)] = depth
            return li, rj

        walk(tree, 0)
        shallow_ends = {j for (i, j) in spans
                        if depths[(i, j)] <= 1 and j < ex.n}
        for t in range(ex.n):
            if nonvoice[t] > 0:
                saw_pause = True
                assert (t + 1) in shallow_ends
    assert saw_pause


def test_synth_companion_cooccurrence_rate(tmp_path):
    cfg = SynthConfig(sentence_count=1000, seed=99, companion_prob=0.75,
                      scene_leak=0.0, d_s=4, d_v=40)
    examples = generate_synthetic(cfg)
    slices = lexicon_slices(cfg)
    noun_count = len(slices["Noun"])
    scene_count = cfg.scene_count
    # counting oracle straight off the emitted bundles
    trials = 0
    hits = 0
    for ex in examples:
        cats = set(int(c) for c in ex.regions.categories)
        nouns = {c for c in cats if c < noun_count}
        companions = {c - noun_count for c in cats
                      if noun_count <= c < noun_count + scene_count}
        for noun in nouns:
            trials += 1
            if (noun % scene_count) in companions:
                hits += 1
    rate = hits / trials
    assert abs(rate - cfg.companion_prob) / cfg.companion_prob < 0.05


def test_synth_right_chain_grammar_is_right_branching():
    examples = generate_synthetic(SynthConfig(
        sentence_count=15, seed=3, grammar=right_chain_grammar(), d_s=4, d_v=40))
    for ex in examples:
        assert set(ex.gold_brackets) == set(bracket_set(right_branching(ex.n)))


def test_synth_mean_length_near_eight():
    examples = _small_synth(sentence_count=400, seed=17)
    mean = np.mean([ex.n for ex in examples])
    assert 6.5 <= mean <= 9.5


def test_synth_nonterminating_grammar_raises():
    with pytest.raises(GenerationError):  # no preterminals at all
        generate_synthetic(SynthConfig(
            sentence_count=1, grammar={"S": [("S", "S", 1.0)]}))
    with pytest.raises(GenerationError):  # recursion always exceeds the depth bound
        generate_synthetic(SynthConfig(
            sentence_count=1, grammar={"S": [("S", "Word", 1.0)]}, max_depth=6))


def test_synth_clip_times_quantized_to_frames():
    for ex in _small_synth():
        voice, nonvoice = (times[0] for times in vad_aggregate([ex.speech]))
        for t, (start, end) in enumerate(ex.speech.clips):
            frames = ex.speech.vad_counts[t]
            assert end - start == pytest.approx(frames * 0.01, abs=1e-9)
            assert voice[t] + nonvoice[t] == pytest.approx(end - start, abs=1e-9)


def test_bad_gold_brackets_rejected(tmp_path, rng):
    cfg = tiny_config()
    bundle = random_bundle(rng, 3, cfg, ex_id="badgold")
    bundle.gold_brackets = [(1, 3)]  # too few for a binary tree over 3 leaves
    with pytest.raises(DataValidationError, match="badgold"):
        bundle.validate("full")
