"""The benchmark's hooks still fit the package.

bench/ drives mmgi through fixed entry points: it wraps module-level names
(`bench/hooks.py` TRACED and CALL_SITES), probes `train` through the
arguments of `run_chart` and `batch_loss`, and counts graph nodes by calling
`build_context`, `inside_pass` and `outside_pass` on single examples. A
refactor that breaks one of these fails here, on a tiny corpus, rather than
in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import hooks
        import measure
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return hooks, measure, workloads


def _workload(workloads, kind: str):
    return workloads.Workload(
        f"tiny-{kind}", kind, 3,
        dict(sentence_count=8, vocab_size=12, d_s=5, d_v=8, max_length=7),
        dict(d=6, d_w=6, d_v=8, d_s=5, d_a=4, batch=4, epochs=1, lr=1e-3,
             dropout=0.1, seed=1))


def test_bench_hooks_fire_on_a_train_step_and_a_parse(bench, tmp_path):
    hooks, measure, workloads = bench
    tracer = hooks.Tracer()

    train_wl = _workload(workloads, "train")
    train_inputs = tmp_path / "train"
    workloads.generate_inputs(train_wl, train_wl.default_seed, train_inputs)
    loaded = measure.set_up(train_wl, train_inputs)
    measure.traced_setup(train_wl, train_inputs, tracer)
    probe = measure.run_train(loaded, steps=1, tracer=tracer)
    assert probe.error is None, probe.error
    assert len(probe.step_ends) == 1
    assert probe.records[0]["size"] == loaded.cfg.batch

    parse_wl = _workload(workloads, "parse")
    parse_inputs = tmp_path / "parse"
    workloads.generate_inputs(parse_wl, parse_wl.default_seed, parse_inputs)
    parse_loaded = measure.set_up(parse_wl, parse_inputs)
    measure.traced_setup(parse_wl, parse_inputs, tracer)
    run = measure.run_parse(parse_loaded, count=1, tracer=tracer)
    assert run.error is None, run.error

    fired = {span[0] for span in tracer.spans}
    for kind in ("train", "parse"):
        for name in measure.EXPECTED_SPANS[kind]:
            assert name in fired, name

    counts = measure.graph_node_counts(train_wl, loaded, train_inputs)
    assert sorted(counts) == sorted(f"chart.graph_nodes.n{n}"
                                    for n in workloads.COUNT_LENGTHS)
    assert all(entry["value"] > 0 for entry in counts.values())
