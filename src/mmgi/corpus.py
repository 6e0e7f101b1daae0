"""On-disk corpus format, example bundles, and validation.

One JSON object per line. Feature vectors are base64-encoded float64 arrays
(row-major) so a corpus stays a single human-inspectable document. All indices
are 0-based on disk and all times are seconds; span indices are converted to
the 1-based inclusive convention used internally.

Schema per line::

    {"id": str,
     "tokens": [str, ...]?,                 # absent in textless-only corpora
     "clips": [{"start": s, "end": s}, ...],  # finite
     "clip_feats_ref": base64,              # T x d_s float64
     "f0_frames": [[hz, ...], ...],         # per clip, finite, >= 0; 0 marks unvoiced
     "vad_frames": [[0|1, ...], ...],       # per clip; true/false as well
     "frame_period": s?,                    # f0/VAD frame length; default 0.01
     "regions": [{"feat_ref": base64, "bbox": [x0, y0, x1, y1],
                  "category": int}, ...],
     "image_size": [w, h],                  # finite
     "gold_brackets": [[i, j], ...]?}       # 0-based inclusive token spans

Other keys, such as the ``gold_labels`` of older corpora, are ignored. A JSON
boolean stands for a number only as a VAD flag, and no integer may exceed
what a float64 (an intp for a category) holds. Loading packs each track's
frames into flat arrays (`SpeechTrack.f0`, `.vad` and their per-clip counts);
saving splits them by clip again, so a loaded corpus saves to the same bytes.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataValidationError
from .features import RegionSet, SpeechTrack
from .trees import Tree

__all__ = ["ExampleBundle", "load_corpus", "save_corpus", "brackets_to_tree"]


def _encode(array: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=np.float64).tobytes()).decode()


def _decode(blob: str, rows: int) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(blob), dtype=np.float64)
    if rows > 0 and raw.size % rows != 0:
        raise DataValidationError(f"feature blob of {raw.size} floats not divisible by {rows}")
    return raw.reshape(rows, -1).copy() if rows > 0 else raw.copy()


@dataclass
class ExampleBundle:
    """One aligned (tokens, speech, image) training or evaluation instance."""

    id: str
    tokens: list[str] | None
    speech: SpeechTrack
    regions: RegionSet
    gold_brackets: list[tuple[int, int]] | None = None  # 1-based inclusive

    @property
    def n(self) -> int:
        """Sequence length: token count in the full setting, else clip count."""
        return len(self.tokens) if self.tokens is not None else self.speech.count

    def validate(self, mode: str = "full") -> None:
        self.speech.validate(self.id)
        self.regions.validate(self.id)
        if mode == "full":
            if self.tokens is None:
                raise DataValidationError(f"example {self.id}: full mode needs tokens")
            if len(self.tokens) != self.speech.count:
                raise AlignmentError(
                    f"example {self.id}: {len(self.tokens)} tokens but "
                    f"{self.speech.count} clips; full mode requires one clip per token"
                )
        if self.gold_brackets is not None:
            n = self.n
            for i, j in self.gold_brackets:
                if not (1 <= i <= j <= n):
                    raise DataValidationError(
                        f"example {self.id}: gold bracket ({i}, {j}) outside 1..{n}"
                    )
            if n >= 2:
                try:
                    brackets_to_tree(self.gold_brackets, n)
                except DataValidationError as exc:
                    raise DataValidationError(f"example {self.id}: {exc}") from exc

    def gold_tree(self) -> Tree | None:
        if self.gold_brackets is None:
            return None
        return brackets_to_tree(self.gold_brackets, self.n)


def brackets_to_tree(brackets: list[tuple[int, int]], n: int) -> Tree:
    """Rebuild the binary tree from its internal-node spans."""
    if n == 1:
        return 1
    spans = set(brackets) | {(i, i) for i in range(1, n + 1)}
    if (1, n) not in spans:
        raise DataValidationError("bracket set lacks the root span")
    if len(set(brackets)) != n - 1:
        raise DataValidationError(
            f"{len(set(brackets))} brackets cannot form a binary tree over {n} leaves"
        )

    def build(i: int, j: int) -> Tree:
        if i == j:
            return i
        for k in range(i, j):
            if (i, k) in spans and (k + 1, j) in spans:
                return (build(i, k), build(k + 1, j))
        raise DataValidationError(f"span ({i}, {j}) has no valid decomposition")

    return build(1, n)


# ---------------------------------------------------------------------------
# serialization


def _per_clip(frames: np.ndarray, counts: np.ndarray) -> list[list]:
    """A track's flat frames split into one list per clip."""
    values, ends = frames.tolist(), np.cumsum(counts).tolist()
    return [values[end - count:end] for count, end in zip(counts.tolist(), ends)]


def _bundle_to_record(ex: ExampleBundle) -> dict:
    record: dict = {"id": ex.id}
    if ex.tokens is not None:
        record["tokens"] = list(ex.tokens)
    record["clips"] = [{"start": s, "end": e} for s, e in ex.speech.clips]
    record["clip_feats_ref"] = _encode(ex.speech.clip_features)
    record["f0_frames"] = _per_clip(ex.speech.f0, ex.speech.f0_counts)
    record["vad_frames"] = _per_clip(ex.speech.vad.view(np.uint8), ex.speech.vad_counts)
    record["frame_period"] = ex.speech.frame_period
    record["regions"] = [
        {
            "feat_ref": _encode(ex.regions.features[m]),
            "bbox": [float(v) for v in ex.regions.bboxes[m]],
            "category": int(ex.regions.categories[m]),
        }
        for m in range(ex.regions.count)
    ]
    record["image_size"] = [float(ex.regions.image_size[0]), float(ex.regions.image_size[1])]
    if ex.gold_brackets is not None:
        record["gold_brackets"] = [[i - 1, j - 1] for i, j in ex.gold_brackets]
    return record


# JSON value types read as numbers: a boolean is not one, except as a voiced flag
NUMBER, INTEGER, FLAG = frozenset({int, float}), frozenset({int}), frozenset({int, float, bool})


def _numbers(values, cast=float, kinds=NUMBER) -> list:
    """A list of values whose types are all in `kinds`, each cast."""
    if isinstance(values, list) and set(map(type, values)) <= kinds:
        return list(map(cast, values))
    kind = "/".join(sorted(t.__name__ for t in kinds))
    raise TypeError(f"expected a list of {kind}, got {str(values)[:60]}")


def _frames(clips, kinds: frozenset) -> list:
    """`clips`, a track's per-clip frames, if it is a list of lists whose
    values' types are all in `kinds`."""
    if (isinstance(clips, list) and all(type(clip) is list for clip in clips)
            and set(map(type, chain.from_iterable(clips))) <= kinds):
        return clips
    kind = "/".join(sorted(t.__name__ for t in kinds))
    raise TypeError(f"expected a list of lists of {kind}, got {str(clips)[:60]}")


def _record_to_bundle(record: dict, line_no: int) -> ExampleBundle:
    try:
        ex_id = record["id"]
        if not isinstance(ex_id, str):
            raise TypeError(f"id {ex_id!r} is not a string")
        clips = [tuple(_numbers([c["start"], c["end"]])) for c in record["clips"]]
        clip_feats = _decode(record["clip_feats_ref"], len(clips))
        speech = SpeechTrack(
            clips=clips,
            clip_features=clip_feats,
            f0_frames=_frames(record["f0_frames"], NUMBER),
            vad_frames=_frames(record["vad_frames"], FLAG),
            frame_period=_numbers([record.get("frame_period", 0.01)])[0],
        )
        feats = np.stack([_decode(r["feat_ref"], 1)[0] for r in record["regions"]]) \
            if record["regions"] else np.zeros((0, 0))
        width, height = _numbers(record["image_size"])
        regions = RegionSet(
            features=feats,
            bboxes=np.array([_numbers(r["bbox"]) for r in record["regions"]]),
            categories=np.array(_numbers([r["category"] for r in record["regions"]], int,
                                         INTEGER), dtype=np.intp),
            image_size=(width, height),
        )
        gold = None
        if "gold_brackets" in record:
            gold = [(i + 1, j + 1) for i, j in
                    (_numbers(pair, int, INTEGER) for pair in record["gold_brackets"])]
        tokens = record.get("tokens")
        if "tokens" in record and not (isinstance(tokens, list)
                                       and all(type(t) is str for t in tokens)):
            raise TypeError(f"tokens {str(tokens)[:60]} are not a list of strings")
        return ExampleBundle(
            id=ex_id,
            tokens=tokens,
            speech=speech,
            regions=regions,
            gold_brackets=gold,
        )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DataValidationError(f"corpus line {line_no}: {exc!r}") from exc


def save_corpus(examples: list[ExampleBundle], path: str | Path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for ex in examples:
            fh.write(json.dumps(_bundle_to_record(ex)) + "\n")


def load_corpus(path: str | Path, mode: str = "full") -> list[ExampleBundle]:
    """Parse, validate (feature widths must agree), and order (by id) a corpus file."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"corpus file not found: {path}")
    examples = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"corpus line {line_no}: {exc.msg}") from exc
            examples.append(_record_to_bundle(record, line_no))
    if not examples:
        raise DataValidationError(f"corpus file {path} contains no examples")
    seen: set[str] = set()
    first = examples[0]
    for ex in examples:
        if ex.id in seen:
            raise DataValidationError(f"duplicate example id {ex.id!r}")
        seen.add(ex.id)
        ex.validate(mode)
        for kind, want, got in (("clip", first.speech.clip_features, ex.speech.clip_features),
                                ("region", first.regions.features, ex.regions.features)):
            if got.shape[1] != want.shape[1]:
                raise DataValidationError(f"example {ex.id}: {kind} features have dim "
                                          f"{got.shape[1]}, but example {first.id} has "
                                          f"{want.shape[1]}")
    return sorted(examples, key=lambda ex: ex.id)
