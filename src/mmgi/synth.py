"""Seeded synthetic corpus with structure planted in every modality.

Sentences are sampled from a small weighted binary grammar (so gold trees are
known), and the non-text modalities carry constituent cues on purpose:

* speech pauses (unvoiced trailing frames) are injected into the clip that
  ends a shallow constituent, so spans crossing that boundary look "sparse"
  to the voice-activity score;
* the pitch contour declines over the sentence and jumps back up where a
  shallow constituent starts;
* each noun token contributes one region whose category identifies the noun,
  scenes add a companion object with a configured probability (giving the
  pair-relevance matrix real co-occurrence structure), plus random
  distractors.

Everything is driven by one seed; the same config reproduces the same corpus
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ExampleBundle
from .errors import GenerationError
from .features import RegionSet, SpeechTrack
from .trees import tree_spans

__all__ = [
    "SynthConfig",
    "default_grammar",
    "right_chain_grammar",
    "generate_synthetic",
    "lexicon_slices",
]

Rule = tuple[str, str, float]

DISTRACTOR_POOL = 8
MIN_WORD_FRAMES = 12
START_SYMBOL = "S"
WORD_DURATION = 0.30     # seconds per word, before jitter
DURATION_JITTER = 0.06   # uniform +- seconds per word
F0_BASE = 220.0          # Hz at the first frame
RESET_DEPTH = 2          # constituents this shallow reset the pitch
CLIP_NOISE = 0.05        # std of clip features around the word prototype
REGION_NOISE = 0.10      # std of region features around the category prototype
FEAT_SCALE = 1.0         # height of a region prototype's category coordinate


def default_grammar() -> dict[str, list[Rule]]:
    """Right-heavy toy grammar with mean yield near eight words."""
    return {
        "S": [("NP", "VP", 1.0)],
        "NP": [("Det", "Noun", 0.45), ("Det", "NBAR", 0.55)],
        "NBAR": [("Adj", "Noun", 0.7), ("Adj", "NBAR", 0.3)],
        "VP": [("Verb", "NP", 0.5), ("Verb", "PP", 0.2), ("VP2", "PP", 0.3)],
        "VP2": [("Verb", "NP", 1.0)],
        "PP": [("Prep", "NP", 1.0)],
    }


def right_chain_grammar() -> dict[str, list[Rule]]:
    """Grammar whose every derivation is a fully right-branching tree."""
    return {"S": [("Word", "S", 0.72), ("Word", "Word", 0.28)]}


_LEX_PROPORTIONS = {
    "Noun": 0.48, "Verb": 0.20, "Adj": 0.16, "Det": 0.08, "Prep": 0.08,
}
_LEX_PREFIX = {"Noun": "n", "Verb": "v", "Adj": "a", "Det": "d", "Prep": "p",
               "Word": "w"}


@dataclass
class SynthConfig:
    sentence_count: int = 200
    vocab_size: int = 50
    seed: int = 0
    grammar: dict[str, list[Rule]] | None = None
    max_depth: int = 16
    max_length: int = 20
    # speech timing
    frame_period: float = 0.01
    pause_seconds: float = 0.20
    pause_depth: int = 1
    # pitch contour
    f0_slope: float = 8.0          # Hz/s declination
    f0_reset: float = 25.0         # Hz bump at shallow constituent starts
    f0_jitter: float = 0.5
    # feature spaces
    d_s: int = 32
    d_v: int = 40
    # scene / region model
    scene_count: int = 4
    scene_leak: float = 0.0
    companion_prob: float = 0.75
    distractor_count: int = 2
    image_size: tuple[float, float] = (640.0, 480.0)

    def resolved_grammar(self) -> dict[str, list[Rule]]:
        grammar = self.grammar if self.grammar is not None else default_grammar()
        for lhs, rules in grammar.items():
            for left, right, weight in rules:
                if weight <= 0:
                    raise GenerationError(f"rule {lhs} -> {left} {right} has weight {weight}")
        return grammar


def lexicon_slices(cfg: SynthConfig) -> dict[str, range]:
    """Contiguous word-id ranges per preterminal, summing to vocab_size."""
    grammar = cfg.resolved_grammar()
    nonterms = set(grammar)
    preterms = sorted(
        {sym for rules in grammar.values() for l, r, _ in rules for sym in (l, r)}
        - nonterms
    )
    if not preterms:
        raise GenerationError("grammar has no preterminals; nothing can terminate")
    weights = np.array([_LEX_PROPORTIONS.get(p, 1.0) for p in preterms])
    weights = weights / weights.sum()
    counts = np.maximum(1, np.floor(weights * cfg.vocab_size).astype(int))
    while counts.sum() > cfg.vocab_size:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < cfg.vocab_size:
        counts[np.argmax(weights)] += 1
    slices: dict[str, range] = {}
    cursor = 0
    for p, c in zip(preterms, counts):
        slices[p] = range(cursor, cursor + int(c))
        cursor += int(c)
    return slices


class _Sampler:
    def __init__(self, cfg: SynthConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.grammar = cfg.resolved_grammar()
        self.slices = lexicon_slices(cfg)
        # region categories: one per noun, then one companion per scene, then
        # the distractor pool
        self.noun_count = len(self.slices["Noun"]) if "Noun" in self.slices \
            else cfg.vocab_size
        v = cfg.vocab_size
        self.tokens = []
        for preterm, ids in self.slices.items():
            prefix = _LEX_PREFIX.get(preterm, preterm[0].lower())
            for local, word_id in enumerate(ids):
                self.tokens.append((word_id, f"{prefix}{local}"))
        self.token_strings = [s for _, s in sorted(self.tokens)]
        self.word_prototypes = rng.normal(size=(v, cfg.d_s)) / np.sqrt(cfg.d_s)

    def sample_word(self, preterm: str, scene: int) -> int:
        ids = self.slices[preterm]
        if preterm == "Noun" and self.cfg.scene_count > 1:
            if self.rng.random() >= self.cfg.scene_leak:
                scene_ids = [w for w in ids if (w - ids.start) % self.cfg.scene_count == scene]
                if scene_ids:
                    return int(self.rng.choice(scene_ids))
        return int(self.rng.choice(list(ids)))

    def sample_tree(self, scene: int):
        """One derivation: tree, word ids, preterminals and span depths."""
        words: list[int] = []
        preterm_of: list[str] = []
        depths: dict[tuple[int, int], int] = {}

        def expand(symbol: str, depth: int):
            if depth > self.cfg.max_depth:
                raise _DepthExceeded()
            if symbol not in self.grammar:
                words.append(self.sample_word(symbol, scene))
                preterm_of.append(symbol)
                return len(words)
            rules = self.grammar[symbol]
            weights = np.array([w for _, _, w in rules])
            pick = self.rng.choice(len(rules), p=weights / weights.sum())
            left_sym, right_sym, _ = rules[pick]
            start = len(words) + 1
            tree = (expand(left_sym, depth + 1), expand(right_sym, depth + 1))
            depths[(start, len(words))] = depth
            return tree

        tree = expand(START_SYMBOL, 0)
        return tree, words, preterm_of, depths


class _DepthExceeded(Exception):
    pass


def generate_synthetic(cfg: SynthConfig) -> list[ExampleBundle]:
    """Sample `sentence_count` fully-annotated bundles; deterministic per seed."""
    rng = np.random.default_rng([cfg.seed, 0x53594e])
    sampler = _Sampler(cfg, rng)
    noun_count = sampler.noun_count
    slices = sampler.slices
    period = cfg.frame_period
    examples: list[ExampleBundle] = []

    for index in range(cfg.sentence_count):
        scene = int(rng.integers(cfg.scene_count)) if cfg.scene_count > 0 else 0
        tree = None
        for _ in range(500):
            try:
                candidate = sampler.sample_tree(scene)
            except _DepthExceeded:
                continue
            if len(candidate[1]) <= cfg.max_length:
                tree, words, preterm_of, depths = candidate
                break
        if tree is None:
            raise GenerationError(
                f"grammar failed to terminate within depth {cfg.max_depth} / "
                f"length {cfg.max_length} after 500 attempts"
            )
        n = len(words)
        spans = tree_spans(tree)
        pause_after = {j for (i, j) in spans if depths[(i, j)] <= cfg.pause_depth and j < n}
        resets_at: dict[int, int] = {}
        for (i, j) in spans:
            if depths[(i, j)] <= RESET_DEPTH and i > 1:
                resets_at[i] = resets_at.get(i, 0) + 1

        # --- speech: clip boundaries, VAD frames, pitch frames
        clips: list[tuple[float, float]] = []
        vad_frames: list[list[bool]] = []
        f0_frames: list[list[float]] = []
        cursor = 0
        level = F0_BASE
        for t in range(1, n + 1):
            jitter = rng.uniform(-DURATION_JITTER, DURATION_JITTER)
            word_frames = max(MIN_WORD_FRAMES, int(round((WORD_DURATION + jitter) / period)))
            pause_frames = int(round(cfg.pause_seconds / period)) if t in pause_after else 0
            level += resets_at.get(t, 0) * cfg.f0_reset
            voiced = []
            for _ in range(word_frames):
                value = level + rng.normal() * cfg.f0_jitter
                voiced.append(float(np.clip(value, 60.0, 490.0)))
                level -= cfg.f0_slope * period
            level -= cfg.f0_slope * period * pause_frames
            total = word_frames + pause_frames
            clips.append((cursor * period, (cursor + total) * period))
            vad_frames.append([True] * word_frames + [False] * pause_frames)
            f0_frames.append(voiced + [0.0] * pause_frames)
            cursor += total

        clip_features = np.stack([
            sampler.word_prototypes[w] + rng.normal(size=cfg.d_s) * CLIP_NOISE
            for w in words
        ])

        # --- regions: one object per noun token, a scene companion, distractors
        categories: list[int] = []
        for w, preterm in zip(words, preterm_of):
            if preterm == "Noun":
                categories.append(w - slices["Noun"].start)
        if not categories:
            categories.append(int(rng.integers(noun_count)))
        if cfg.scene_count > 0 and rng.random() < cfg.companion_prob:
            categories.append(noun_count + scene)
        for _ in range(cfg.distractor_count):
            categories.append(noun_count + cfg.scene_count + int(rng.integers(DISTRACTOR_POOL)))

        width, height = cfg.image_size
        feats = np.empty((len(categories), cfg.d_v))
        boxes = np.empty((len(categories), 4))
        for m, cat in enumerate(categories):
            proto = np.zeros(cfg.d_v)
            proto[cat % cfg.d_v] = FEAT_SCALE
            feats[m] = proto + rng.normal(size=cfg.d_v) * REGION_NOISE
            x0 = rng.uniform(0, width - 60)
            y0 = rng.uniform(0, height - 60)
            boxes[m] = [x0, y0, x0 + rng.uniform(40, min(200, width - x0)),
                        y0 + rng.uniform(40, min(200, height - y0))]

        regions = RegionSet(
            features=feats,
            bboxes=boxes,
            categories=np.array(categories, dtype=np.intp),
            image_size=cfg.image_size,
        )
        speech = SpeechTrack(
            clips=clips,
            clip_features=clip_features,
            f0_frames=f0_frames,
            vad_frames=vad_frames,
            frame_period=period,
        )
        examples.append(ExampleBundle(
            id=f"synth-{index:04d}",
            tokens=[sampler.token_strings[w] for w in words],
            speech=speech,
            regions=regions,
            gold_brackets=sorted(spans),
        ))
    return examples
