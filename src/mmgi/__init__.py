"""Multimodal grammar induction: a differentiable inside-outside chart over
text, speech, and image features, with CKY decoding and bracketing metrics."""

__version__ = "0.1.0"

from .autodiff import Tensor, backward
from .chart import inside_pass, outside_pass, run_chart, span_marginal
from .config import RunConfig, load_config
from .corpus import ExampleBundle, load_corpus, save_corpus
from .decode import cky_decode
from .errors import MMGIError
from .features import PairRelevanceMatrix, RegionSet, SpeechTrack, build_pair_matrix
from .inference import parse_corpus, parse_example
from .metrics import align_clips, bracketing_f1, scf1, tiou
from .synth import SynthConfig, generate_synthetic
from .train import train
from .trees import baseline_tree, bracket_set, parse_sexpr, to_sexpr

__all__ = [
    "__version__",
    "Tensor", "backward",
    "inside_pass", "outside_pass", "run_chart", "span_marginal",
    "RunConfig", "load_config",
    "ExampleBundle", "load_corpus", "save_corpus",
    "cky_decode",
    "MMGIError",
    "PairRelevanceMatrix", "RegionSet", "SpeechTrack",
    "build_pair_matrix",
    "parse_corpus", "parse_example",
    "align_clips", "bracketing_f1", "scf1", "tiou",
    "SynthConfig", "generate_synthetic",
    "train",
    "baseline_tree", "bracket_set", "parse_sexpr", "to_sexpr",
]
