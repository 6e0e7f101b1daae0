"""The measured process of one workload run.

bench.py starts it once per run, with BLAS pinned to one thread, on inputs it
has already generated. It sets up, runs the closed loop (one caller; each
train step or parsed sentence waits for the previous one), checks the outputs
and prints one JSON object. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics: the same operations run
untraced, traced, traced and untraced again, then the graph-node counts.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from importlib import import_module
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_T0 = perf_counter()
# Through import_module: the package's `train` attribute is the function, not
# the module.
chart_mod, corpus_mod, inference_mod, metrics_mod, params_mod, train_mod = (
    import_module(f"mmgi.{name}")
    for name in ("chart", "corpus", "inference", "metrics", "params", "train"))
from mmgi.features import PairRelevanceMatrix  # noqa: E402
from mmgi.trees import to_sexpr  # noqa: E402

# Importing mmgi is part of set-up; the interpreter and numpy start-up before
# it are the same for every commit and are left out.
MMGI_IMPORT_S = perf_counter() - _T0

from hooks import (BenchError, NodeCounter, Patches, StopRun, Tracer,  # noqa: E402
                   TrainProbe, reachable_built)
from workloads import COUNT_LENGTHS, COUNT_SEED, WORKLOADS, run_config  # noqa: E402

SETUP_REPEATS = 8          # set-ups timed before the timed loop, and again after it
COUNT_SENTENCES = 8        # parse.graph_nodes_per_sentence averages over these
REFERENCE_TREES = 32       # parse-long trees compared with the reference
SCF1_SENTENCES = 16        # textless sentences parsed for the SCF1 range check
REL_TOL = 1e-9             # reference losses, relative
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Spans each kind of workload must fire in its traced run.
EXPECTED_SPANS = {
    "train": ("chart.build_context", "chart.inside_pass", "chart.outside_pass",
              "losses.batch_loss", "autodiff.backward", "optim.step",
              "corpus.load_corpus"),
    "parse": ("chart.build_context", "chart.inside_pass", "chart.split_tables",
              "decode.cky_decode", "corpus.load_corpus", "params.load_checkpoint"),
}
SETUP_SPANS = ("corpus.load_corpus", "params.load_checkpoint")
STEP_SPANS = ("chart.build_context", "chart.inside_pass", "chart.outside_pass",
              "losses.batch_loss", "autodiff.backward", "optim.step",
              "chart.split_tables", "decode.cky_decode")


@dataclasses.dataclass
class Loaded:
    cfg: object
    examples: list
    params: dict | None = None
    vocab_index: dict | None = None
    pair: PairRelevanceMatrix | None = None


def set_up(workload, inputs: Path) -> Loaded:
    """Everything before the first timed operation, as a user would do it."""
    if workload.kind == "train":
        cfg = run_config(workload)
        examples = corpus_mod.load_corpus(inputs / "corpus.jsonl", mode=cfg.mode)
        # train() builds the vocab, pair matrix, parameters and optimizer
        # before its first step; with zero epochs it does only that.
        train_mod.train(dataclasses.replace(cfg, epochs=0), examples)
        return Loaded(cfg, examples)
    params, cfg, vocab, _, _, pair_values = params_mod.load_checkpoint(
        inputs / "checkpoint.npz")
    cfg = cfg.resolved()
    examples = corpus_mod.load_corpus(inputs / "corpus.jsonl", mode=cfg.mode)
    vocab_index = {t: i for i, t in enumerate(vocab)} if vocab else None
    return Loaded(cfg, examples, params, vocab_index, PairRelevanceMatrix(pair_values))


# ---------------------------------------------------------------------------
# timed loops


def run_train(loaded: Loaded, seconds=None, steps=None, tracer=None,
              counter=None, on_loss=None) -> TrainProbe:
    """Train until the deadline or step count; errors land in probe.error."""
    probe = TrainProbe(seconds, steps, on_loss)
    patches = Patches()
    try:
        if tracer is not None:
            tracer.install(patches)
        if counter is not None:
            counter.install(patches)
        probe.install(patches)
        cfg = dataclasses.replace(loaded.cfg, epochs=1_000_000)
        train_mod.train(cfg, loaded.examples)
    except StopRun:
        pass
    except Exception:
        probe.error = traceback.format_exc()
    finally:
        patches.restore()
    return probe


@dataclasses.dataclass
class ParseRun:
    start: float = 0.0
    end: float = 0.0
    seconds: list = dataclasses.field(default_factory=list)
    ends: list = dataclasses.field(default_factory=list)
    trees: list = dataclasses.field(default_factory=list)
    error: str | None = None


def run_parse(loaded: Loaded, seconds=None, count=None, tracer=None,
              counter=None, min_count=0) -> ParseRun:
    """Parse the corpus in order, cycling, until the deadline or count.

    A deadline never stops the loop before `min_count` sentences.
    """
    run = ParseRun()
    patches = Patches()
    examples = loaded.examples
    try:
        if tracer is not None:
            tracer.install(patches)
        if counter is not None:
            counter.install(patches)
        parse = inference_mod.parse_example
        run.start = run.end = perf_counter()
        while (count is None or len(run.trees) < count) and \
                (seconds is None or run.end - run.start < seconds
                 or len(run.trees) < min_count):
            ex = examples[len(run.trees) % len(examples)]
            t0 = perf_counter()
            tree = parse(ex, loaded.params, loaded.cfg, loaded.vocab_index, loaded.pair)
            run.end = perf_counter()
            run.seconds.append(run.end - t0)
            run.ends.append(run.end)
            run.trees.append(tree)
    except Exception:
        run.error = traceback.format_exc()
    finally:
        patches.restore()
    return run


def traced_setup(workload, inputs: Path, tracer: Tracer) -> None:
    patches = Patches()
    try:
        tracer.install(patches)
        set_up(workload, inputs)
    finally:
        patches.restore()


# ---------------------------------------------------------------------------
# output checks


class Checks:
    """Failed checks and the operations they fail."""

    def __init__(self):
        self.messages: list[str] = []
        self.failed_ops: set[int] = set()
        self.whole_run = False

    def fail(self, message: str, ops=(), whole_run: bool = False) -> None:
        self.messages.append(message)
        self.failed_ops.update(ops)
        self.whole_run = self.whole_run or whole_run


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def epoch_means(records: list[dict], steps_per_epoch: int) -> list[dict]:
    """Per-epoch loss records, averaged over examples the way train() does."""
    epochs = []
    for start in range(0, len(records) - steps_per_epoch + 1, steps_per_epoch):
        sums = {"l_rec": 0.0, "l_cl": 0.0, "l_rep": 0.0, "total": 0.0}
        seen = 0
        for rec in records[start:start + steps_per_epoch]:
            for key in sums:
                sums[key] += rec[key] * rec["size"]
            seen += rec["size"]
        epochs.append({k: v / seen for k, v in sums.items()})
    return epochs


def steps_per_epoch(loaded: Loaded) -> int:
    usable = train_mod.usable_examples(loaded.cfg, loaded.examples)
    return math.ceil(len(usable) / loaded.cfg.batch)


def check_train(workload, loaded: Loaded, probe: TrainProbe,
                reference: dict | None, checks: Checks) -> None:
    records = probe.records[:len(probe.step_ends)]
    for index, rec in enumerate(records):
        if not all(math.isfinite(rec[k]) for k in ("l_rec", "l_cl", "l_rep", "total", "root")):
            checks.fail(f"step {index}: non-finite loss {rec}", [index])
    if probe.optimizer is not None:
        for name, p in probe.optimizer.params.items():
            if not np.all(np.isfinite(p.data)):
                checks.fail(f"parameter {name} is not finite", whole_run=True)
    if workload.textless and probe.chart_args is not None:
        params, cfg, vocab_index, pair = probe.chart_args
        pairs = []
        for ex in loaded.examples[:SCF1_SENTENCES]:
            tree = inference_mod.parse_example(ex, params, cfg, vocab_index, pair)
            pairs.append((tree, list(ex.speech.clips), ex.gold_tree(), list(ex.speech.clips)))
        value = metrics_mod.scf1(pairs, 0.5, "corpus")
        if not 0.0 <= value <= 1.0:
            checks.fail(f"textless SCF1 {value} outside [0, 1]", whole_run=True)
    if reference is None:
        return
    for index, (got, want) in enumerate(zip(records, reference["steps"])):
        if got["size"] != want["size"] or not all(
                _close(got[k], want[k]) for k in ("l_rec", "l_cl", "l_rep", "total")):
            checks.fail(f"step {index}: losses {got} differ from the reference {want}", [index])
    per_epoch = reference["steps_per_epoch"]
    for epoch, (got, want) in enumerate(zip(epoch_means(records, per_epoch),
                                            reference["epochs"])):
        if not all(_close(got[k], want[k]) for k in got):
            ops = range(epoch * per_epoch, (epoch + 1) * per_epoch)
            checks.fail(f"epoch {epoch}: record {got} differs from the reference {want}", ops)


def binary_leaves(tree) -> list[int] | None:
    """Leaf positions in order, or None if some node is not a binary tuple."""
    leaves, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, int) and not isinstance(node, bool):
            leaves.append(node)
        elif isinstance(node, tuple) and len(node) == 2:
            todo.extend((node[1], node[0]))
        else:
            return None
    return leaves


def tree_digest(trees) -> str:
    return hashlib.sha256("\n".join(to_sexpr(t) for t in trees).encode()).hexdigest()


def check_parse(loaded: Loaded, run: ParseRun, reference: dict | None,
                checks: Checks) -> None:
    examples = loaded.examples
    for index, tree in enumerate(run.trees):
        n = examples[index % len(examples)].n
        if binary_leaves(tree) != list(range(1, n + 1)):
            checks.fail(f"sentence {index}: {tree!r} is not a binary tree over 1..{n}",
                        [index])
        elif index >= len(examples) and tree != run.trees[index % len(examples)]:
            checks.fail(f"sentence {index}: a second parse gave another tree", [index])
    if reference is None:
        return
    trees = run.trees[:REFERENCE_TREES]
    if len(trees) < REFERENCE_TREES:
        extra = run_parse(Loaded(loaded.cfg, examples[len(trees):REFERENCE_TREES],
                                 loaded.params, loaded.vocab_index, loaded.pair),
                          count=REFERENCE_TREES - len(trees))
        if extra.error:
            checks.fail(f"reference parse raised:\n{extra.error}", whole_run=True)
            return
        trees = trees + extra.trees
    if tree_digest(trees) != reference["digest"]:
        bad = [i for i, (t, want) in enumerate(zip(trees, reference["trees"]))
               if to_sexpr(t) != want]
        checks.fail(f"tree digest differs from the reference at sentences {bad}",
                    [i for i in bad if i < len(run.trees)] or [0])


def load_reference(workload, seed: int) -> dict | None:
    """The seed commit's outputs, when the run uses the default seed."""
    if seed != workload.default_seed:
        return None
    reference = json.loads(REFERENCE.read_text()).get(workload.name)
    if reference is None or reference["seed"] != seed:
        raise RuntimeError(f"{REFERENCE.name} has no entry for {workload.name} seed {seed}")
    return reference


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def graph_node_counts(workload, loaded: Loaded, inputs: Path) -> dict:
    """Nodes built by one inside + outside pass on each fixed count input."""
    cfg = loaded.cfg
    fixed = corpus_mod.load_corpus(inputs / "count.jsonl", mode=cfg.mode)
    vocab = inference_mod.build_vocab(fixed) if cfg.mode == "full" else None
    vocab_index = {t: i for i, t in enumerate(vocab)} if vocab else None
    params = params_mod.build_params(cfg, len(vocab) if vocab else 1,
                                      np.random.default_rng(COUNT_SEED))
    pair = inference_mod.corpus_pair_matrix(fixed)
    training = workload.kind == "train"
    rng = np.random.default_rng(COUNT_SEED)
    counts = {}
    counter = NodeCounter()
    patches = Patches()
    try:
        counter.install(patches)
        for ex, n in zip(sorted(fixed, key=lambda e: e.n), COUNT_LENGTHS):
            ctx = chart_mod.build_context(ex, params, cfg, vocab_index, pair)
            counter.count = 0
            chart = chart_mod.inside_pass(ctx, params, cfg, training=training, rng=rng)
            chart_mod.outside_pass(chart, ctx, params, cfg, training=training, rng=rng)
            counts[f"chart.graph_nodes.n{n}"] = metric(counter.count, "count")
    finally:
        patches.restore()
    return counts


def end_to_end(workload, loaded: Loaded, inputs: Path, seconds: float, seed: int,
               first_setup_s: float):
    def timed_setups(count: int) -> list[float]:
        times = []
        for _ in range(count):
            t0 = perf_counter()
            set_up(workload, inputs)
            times.append(perf_counter() - t0)
        return times

    # A shared machine's speed can drift over seconds, so set-up is timed on
    # both sides of the timed loop and setup_s takes the median.
    setups = [first_setup_s] + timed_setups(SETUP_REPEATS - 1)
    checks = Checks()
    reference = load_reference(workload, seed)
    details = {}
    if workload.kind == "train":
        probe = run_train(loaded, seconds=seconds)
        rss = peak_rss_mb()
        steps = len(probe.step_ends)
        sizes = [rec["size"] for rec in probe.records[:steps]]
        op_seconds = probe.step_seconds()
        op_ms = [s * 1000.0 for s in op_seconds]
        examples = sum(sizes)
        wall = probe.step_ends[-1] - probe.first_start if steps else math.nan
        error = probe.error
        attempted = steps
        if error is not None:
            # every step left in the epoch it died in counts as failed
            per_epoch = steps_per_epoch(loaded)
            attempted = steps + per_epoch - steps % per_epoch
        check_train(workload, loaded, probe, reference, checks)
        details.update(steps=steps, examples=examples, step_sizes=sizes)
    else:
        # The figures come from whole passes over the corpus, so that every
        # run weighs the same sentence lengths however far the deadline lets
        # it get: latency grows steeply with length, and a partial pass made
        # the quantiles move with the run's speed.
        n = len(loaded.examples)
        run = run_parse(loaded, seconds=seconds, min_count=n)
        rss = peak_rss_mb()
        op_seconds = run.seconds
        passes = len(op_seconds) // n
        timed = passes * n if passes else len(op_seconds)
        op_ms = [s * 1000.0 for s in op_seconds]
        examples = timed
        wall = run.ends[timed - 1] - run.start if timed else math.nan
        error = run.error
        attempted = len(run.trees)
        if error is not None:
            attempted = attempted + n - attempted % n
        check_parse(loaded, run, reference, checks)
        details.update(sentences=len(run.trees), whole_passes=passes,
                       lengths=[ex.n for ex in loaded.examples])
    if error is not None:
        checks.fail(f"the run raised:\n{error}", range(len(op_seconds), attempted))
    setups += timed_setups(SETUP_REPEATS)
    latency_ms = op_ms if workload.kind == "train" else op_ms[:timed]
    details.update(mmgi_import_s=MMGI_IMPORT_S, setup_runs_s=setups, op_ms=op_ms,
                   wall_s=wall, reference_checked=reference is not None)
    failed = attempted if checks.whole_run else len(checks.failed_ops)
    metrics = {
        "setup_s": metric(MMGI_IMPORT_S + statistics.median(setups), "s"),
        "examples_per_s": metric(examples / wall if examples else 0.0, "1/s"),
        "latency_ms_p50": metric(float(np.quantile(latency_ms, 0.5)) if latency_ms else 0.0,
                                 "ms"),
        "latency_ms_p90": metric(float(np.quantile(latency_ms, 0.9)) if latency_ms else 0.0,
                                 "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return metrics, max(attempted, 1), failed, checks, details


def run_ops(workload, loaded: Loaded, seconds=None, count=None, tracer=None):
    """One closed-loop run: (run, ops, window start, window end, outputs, error)."""
    if workload.kind == "train":
        probe = run_train(loaded, seconds=seconds, steps=count, tracer=tracer)
        ops = len(probe.step_ends)
        end = probe.step_ends[-1] if ops else probe.first_start
        return (probe, ops, probe.first_start, end,
                [r["root"] for r in probe.records[:ops]], probe.error)
    run = run_parse(loaded, seconds=seconds, count=count, tracer=tracer)
    return run, len(run.trees), run.start, run.end, run.trees, run.error


def per_layer(workload, loaded: Loaded, inputs: Path, seconds: float, seed: int):
    checks = Checks()
    reference = load_reference(workload, seed)
    tracer = Tracer()
    traced_setup(workload, inputs, tracer)
    setup_spans = tracer.self_times()
    metrics = {}
    details = {}
    # Untraced, traced, traced, untraced over the same operations, so that
    # warm-up and drift fall on both sides of trace.overhead_frac.
    first, ops, start, end, outputs, error = run_ops(workload, loaded, seconds=seconds / 4)
    if error is None and ops == 0:
        error = "no operation finished"
    wall_plain, wall_traced, windows = end - start, 0.0, []
    for traced in (True, True, False):
        if error is not None:
            break
        _, done, start, end, again, error = run_ops(
            workload, loaded, count=ops, tracer=tracer if traced else None)
        if error is None and done != ops:
            error = f"a repeat made {done} operations, not {ops}"
        if again != outputs:
            checks.fail("a repeat of the same operations gave other outputs", range(ops))
        if traced:
            windows.append((start, end))
            wall_traced += end - start
        else:
            wall_plain += end - start
    attempted = 4 * ops
    if error is not None:
        checks.fail(f"the run raised:\n{error}", whole_run=True)
        return {}, max(attempted, 1), max(attempted, 1), checks, details
    if workload.kind == "train":
        check_train(workload, loaded, first, reference, checks)
    else:
        check_parse(loaded, first, reference, checks)
    ops *= 2  # per-layer figures average over both traced runs

    spans: dict[str, tuple[int, float]] = {}
    for window in windows:
        for name, (calls, total) in tracer.self_times(*window).items():
            had = spans.get(name, (0, 0.0))
            spans[name] = (had[0] + calls, had[1] + total)
    fired = set(spans) | set(setup_spans)
    for name in EXPECTED_SPANS[workload.kind]:
        if name not in fired:
            raise BenchError(f"span {name} never fired on {workload.name}; "
                             "a traced layer was renamed or bypassed")
    for name in STEP_SPANS:
        calls, total = spans.get(name, (0, 0.0))
        metrics[f"{name}.ms"] = metric(total * 1000.0 / ops, "ms")
    for name in SETUP_SPANS:
        calls, total = setup_spans.get(name, (0, 0.0))
        metrics[f"{name}.ms"] = metric(total * 1000.0 / calls if calls else 0.0, "ms")
    covered = sum(total for _, total in spans.values())
    is_train = workload.kind == "train"
    metrics["train.step.ms"] = metric(wall_traced * 1000.0 / ops if is_train else 0.0, "ms")
    metrics["train.other.ms"] = metric(
        (wall_traced - covered) * 1000.0 / ops if is_train else 0.0, "ms")
    metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1.0, "ratio")
    metrics.update(graph_node_counts(workload, loaded, inputs))

    counter = NodeCounter()
    if is_train:
        counter.kept = []
        reach = {}
        run_train(loaded, steps=1, counter=counter,
                  on_loss=lambda root: reach.setdefault(
                      "nodes", reachable_built(root, counter.kept)))
        counter.kept = None
        metrics["autodiff.graph_nodes_per_step"] = metric(counter.count, "count")
        metrics["autodiff.reachable_frac"] = metric(reach["nodes"] / counter.count, "ratio")
        metrics["parse.graph_nodes_per_sentence"] = metric(0.0, "count")
    else:
        run_parse(loaded, count=COUNT_SENTENCES, counter=counter)
        metrics["autodiff.graph_nodes_per_step"] = metric(0.0, "count")
        metrics["autodiff.reachable_frac"] = metric(0.0, "ratio")
        metrics["parse.graph_nodes_per_sentence"] = metric(
            counter.count / COUNT_SENTENCES, "count")
    details.update(ops=ops, wall_plain_s=wall_plain, wall_traced_s=wall_traced,
                   covered_s=covered, spans=tracer.spans,
                   reference_checked=reference is not None)
    failed = attempted if checks.whole_run else len(checks.failed_ops)
    return metrics, attempted, failed, checks, details


def record_reference(workload, loaded: Loaded) -> dict:
    """The outputs later runs at the default seed must reproduce."""
    if workload.kind == "parse":
        run = run_parse(loaded, count=REFERENCE_TREES)
        if run.error:
            raise RuntimeError(run.error)
        return {"trees": [to_sexpr(t) for t in run.trees], "digest": tree_digest(run.trees)}
    per_epoch = steps_per_epoch(loaded)
    probe = run_train(loaded, steps=per_epoch)
    if probe.error:
        raise RuntimeError(probe.error)
    keys = ("l_rec", "l_cl", "l_rep", "total")
    steps = [{"size": r["size"], **{k: r[k] for k in keys}} for r in probe.records]
    result = train_mod.train(dataclasses.replace(loaded.cfg, epochs=1), loaded.examples)
    epochs = [{k: rec[k] for k in keys} for rec in result.metrics]
    if not all(_close(a[k], b[k]) for a, b in zip(epoch_means(steps, per_epoch), epochs)
               for k in keys):
        raise RuntimeError("per-step records do not average to train()'s epoch record")
    return {"steps_per_epoch": per_epoch, "steps": steps, "epochs": epochs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--record", action="store_true",
                        help="print the reference outputs instead of measuring")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    t0 = perf_counter()
    loaded = set_up(workload, args.inputs)
    first_setup_s = perf_counter() - t0
    if args.record:
        print(json.dumps({"seed": args.seed, **record_reference(workload, loaded)}))
        return 0
    if args.trace:
        result = per_layer(workload, loaded, args.inputs, args.seconds, args.seed)
    else:
        result = end_to_end(workload, loaded, args.inputs, args.seconds, args.seed,
                            first_setup_s)
    metrics, attempted, failed, checks, details = result
    print(json.dumps({"metrics": metrics, "attempted": attempted, "failed": failed,
                      "checks": checks.messages, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
