"""Workload definitions and the input generator.

Each workload names the public mmgi entry point it drives, the synthetic
corpus it feeds that entry point and the model config. The generator writes a
workload's inputs (a corpus file, a checkpoint for parsing, and the fixed
inputs of the graph-node counts) before the measured process starts, so the
measured process reads nothing but those files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

# Criterion 6 of the acceptance suite (PLANT_SYNTH / PLANT_RUN there).
PLANT_SYNTH = dict(sentence_count=250, vocab_size=50, d_s=32, d_v=40,
                   pause_depth=1, pause_seconds=0.2)
PLANT_RUN = dict(d=32, d_w=32, d_v=40, d_s=32, d_a=16, batch=16, epochs=30,
                 lr=2e-4, dropout=0.1, seed=5)

# Left- and right-recursive grammar for long sentences: with max_length=32 and
# max_depth=24 it yields n = 7..32; the 64 sentences of parse-long have a
# median of 17.
RECURSIVE_GRAMMAR = {
    "S": [("NP", "VP", 1.0)],
    "NP": [("Det", "NBAR", 0.5), ("NP", "PP", 0.5)],
    "NBAR": [("Adj", "Noun", 0.6), ("Adj", "NBAR", 0.4)],
    "VP": [("Verb", "NP", 0.4), ("VP", "PP", 0.6)],
    "PP": [("Prep", "NP", 1.0)],
}

# Inputs of the chart.graph_nodes.n<k> counts. They do not depend on the run
# seed, so two runs of one commit must count the same nodes.
COUNT_LENGTHS = (5, 8, 13, 24)
COUNT_SEED = 4242
# Parameters of the parse checkpoint; parse cost does not depend on their values.
PARAMS_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "train" drives mmgi.train.train, "parse" parse_example
    default_seed: int        # corpus seed; the reference outputs are recorded for it
    synth: dict              # SynthConfig fields other than the seed
    run: dict                # RunConfig fields
    textless: bool = False   # strip tokens: the corpus has speech and images only


WORKLOADS = {
    # The run users and the acceptance gate pay for: criterion 6 is 30 epochs
    # of exactly these steps (train split corpus[:200], n = 5..14, mean 8,
    # batch 16, dropout 0.1, all three modalities), so its wall time follows
    # from this rate. Inside, outside and backward all carry real weight here.
    "train-plant": Workload(
        "train-plant", "train", 20250808,
        # the train split corpus[:200]; a shorter corpus is a prefix of a longer one
        dict(PLANT_SYNTH, sentence_count=200), PLANT_RUN),
    # Parsing has no outside pass, no backward and no Adam step, so a change
    # to those layers should leave this workload unchanged. The O(n^2)-cell
    # inside pass dominates, and long sentences give the per-sentence latency
    # a real tail.
    "parse-long": Workload(
        "parse-long", "parse", 7,
        dict(sentence_count=64, vocab_size=50, d_s=32, d_v=40,
             grammar=RECURSIVE_GRAMMAR, max_length=32, max_depth=24),
        PLANT_RUN),
    # The same layers used another way: no tokens and no reconstruction loss,
    # terminals from normalized clip projections, and wide short charts that
    # move cost from per-cell Python toward numpy arithmetic and backward. A
    # length-batching change has little to batch here, so its gather/scatter
    # overhead would show up on this workload.
    "train-textless-wide": Workload(
        "train-textless-wide", "train", 11,
        dict(sentence_count=96, vocab_size=50, d_s=64, d_v=40, max_length=8),
        dict(PLANT_RUN, d=128, d_s=64, batch=8, mode="textless"),
        textless=True),
}


def run_config(workload: Workload):
    from mmgi.config import RunConfig

    return RunConfig(**workload.run).resolved()


def _strip_tokens(examples):
    return [dataclasses.replace(ex, tokens=None) for ex in examples]


def count_inputs(workload: Workload):
    """One example of each length in COUNT_LENGTHS, from fixed seeds."""
    from mmgi.synth import SynthConfig, generate_synthetic

    dims = {k: workload.synth[k] for k in ("vocab_size", "d_s", "d_v")}
    pool = generate_synthetic(SynthConfig(
        sentence_count=40, seed=COUNT_SEED, max_length=20, **dims))
    pool += generate_synthetic(SynthConfig(
        sentence_count=60, seed=COUNT_SEED, grammar=RECURSIVE_GRAMMAR,
        max_length=32, max_depth=24, **dims))
    picked = []
    for n in COUNT_LENGTHS:
        ex = next((ex for ex in pool if ex.n == n), None)
        if ex is None:
            raise RuntimeError(f"no fixed count input of length {n}")
        picked.append(dataclasses.replace(ex, id=f"count-n{n:02d}"))
    return _strip_tokens(picked) if workload.textless else picked


def corpus_for(workload: Workload, seed: int):
    """The seed's sentences, laid out on the default seed's length profile.

    Cost grows steeply with sentence length, so a corpus drawn freely per seed
    would make the seed, not the code, move the figures. The seed therefore
    varies the content (words, trees, speech, images) while each position
    keeps the default seed's length: it takes the first unused sentence of
    that length from a pool three times the corpus size, or of the nearest
    length if the pool has none. At the default seed this is the generated
    corpus itself.
    """
    from mmgi.synth import SynthConfig, generate_synthetic

    synth = workload.synth
    default = generate_synthetic(SynthConfig(**dict(synth, seed=workload.default_seed)))
    if seed == workload.default_seed:
        return default
    pool = generate_synthetic(SynthConfig(
        **dict(synth, sentence_count=3 * synth["sentence_count"], seed=seed)))
    by_length: dict[int, list] = {}
    for ex in reversed(pool):
        by_length.setdefault(ex.n, []).append(ex)
    chosen = []
    for ex in default:
        length = min((n for n, left in by_length.items() if left),
                     key=lambda n: (abs(n - ex.n), n))
        chosen.append(by_length[length].pop())
    return [dataclasses.replace(ex, id=f"synth-{i:04d}") for i, ex in enumerate(chosen)]


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write corpus.jsonl, count.jsonl and, for parsing, checkpoint.npz."""
    import numpy as np

    from mmgi.corpus import save_corpus
    from mmgi.inference import build_vocab, corpus_pair_matrix
    from mmgi.params import build_params, save_checkpoint

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = corpus_for(workload, seed)
    if workload.textless:
        corpus = _strip_tokens(corpus)
    save_corpus(corpus, out_dir / "corpus.jsonl")
    save_corpus(count_inputs(workload), out_dir / "count.jsonl")
    if workload.kind == "parse":
        cfg = run_config(workload)
        vocab = build_vocab(corpus)
        params = build_params(cfg, len(vocab), np.random.default_rng(PARAMS_SEED))
        save_checkpoint(out_dir / "checkpoint.npz", params, cfg, vocab,
                        pair_matrix=corpus_pair_matrix(corpus).values)
    lengths = [ex.n for ex in corpus]
    info = {"workload": workload.name, "seed": seed, "examples": len(corpus),
            "n_min": min(lengths), "n_max": max(lengths),
            "n_mean": float(np.mean(lengths)), "n_median": float(np.median(lengths))}
    (out_dir / "inputs.json").write_text(json.dumps(info))
    return info
