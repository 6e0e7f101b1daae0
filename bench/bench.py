"""Benchmark of mmgi: end-to-end figures and time per layer, with output checks.

One workload run (this is what BENCHMARK.json's command runs; --workload all
runs each workload in turn):

    python3 bench/bench.py --workload train-plant --seed 20250808 --seconds 35 --trace 0

generates the workload's inputs from the seed under bench/_out/work, measures
them in a separate process with BLAS pinned to one thread, checks the
outputs, appends the full record (metrics, checks, provenance) to
bench/_out/results.jsonl (or --out) and prints, last, one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones; traced runs also write their spans to
bench/_out/spans. A failed check exits 1. --seed defaults to the workload's
own seed, the one the reference outputs in bench/reference.json were
recorded for.

Every end-to-end metric applies to every workload, so the result line uses
one name for each: examples_per_s is train_examples_per_s on the train
workloads and parse_sents_per_s on parse-long, and latency_ms_p50/p90 time
one train step or one parsed sentence (parse_ms_p50/p90). On parse-long the
loop parses the corpus in order, cycling, and the figures come from the whole
passes it finished: examples_per_s counts their sentences over their wall
time, and the latency quantiles are taken over their sentences. The summary
lines
before it use the per-workload names and add failed_frac, which the result
line carries as failed / attempted.

bench/baseline/BENCH_seed.jsonl holds the records of ten seeds per workload,
and one traced run each, measured on the seed commit's code.

Compare two result sets, for example parent and change, run as at least ten
alternating pairs with the same seeds on both sides:

    python3 bench/bench.py compare PARENT.jsonl CHANGE.jsonl

Re-record the reference outputs (only when a change is meant to alter them):

    python3 bench/bench.py reference
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
MEASURE = BENCH / "measure.py"
# One BLAS thread: the ops are small, and on a 2-core Xeon a second OpenBLAS
# thread made parse-long slower (6.7 against 7.8 sentences/s).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0


def import_mmgi():
    """Import mmgi from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mmgi
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mmgi from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(mmgi.__file__).resolve().parents:
        raise SystemExit(f"bench: mmgi was imported from {mmgi.__file__}, not {ROOT / 'src'}")
    return mmgi


def provenance(workload, seed: int) -> dict:
    import numpy

    import workloads

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV,
        "seeds": {"corpus": seed, "run_config": workload.run["seed"],
                  "checkpoint_params": workloads.PARAMS_SEED,
                  "count_inputs": workloads.COUNT_SEED},
        "git_commit": commit,
    }


def measure(args: list[str], timeout: float) -> dict:
    """Run measure.py; its last stdout line is its JSON result."""
    proc = subprocess.run([sys.executable, str(MEASURE), *args], cwd=ROOT,
                          env={**os.environ, **BLAS_ENV}, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"bench: measurement process failed ({proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(workload, record: dict) -> str:
    """Human-readable lines, with each figure under its meaning on this workload."""
    details = record["details"]
    lines = [f"{workload.name} seed {record['seed']} trace {record['trace']}: "
             f"{record['attempted']} operations attempted, {record['failed']} failed"]
    names = {"examples_per_s": "train_examples_per_s" if workload.kind == "train"
             else "parse_sents_per_s"}
    if workload.kind == "parse":
        names.update(latency_ms_p50="parse_ms_p50", latency_ms_p90="parse_ms_p90")
    else:
        names.update(latency_ms_p50="step_ms_p50", latency_ms_p90="step_ms_p90")
    for name, m in record["metrics"].items():
        lines.append(f"  {names.get(name, name):34s} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        ops = "steps" if workload.kind == "train" else "sentences"
        samples = f"{len(details['op_ms'])} latency samples"
        if workload.kind == "parse":
            samples += f", {details['whole_passes']} whole passes over the corpus"
        lines.append(f"  {'failed_frac':34s} {record['failed'] / record['attempted']:>14.6g} "
                     f"({record['failed']} of {record['attempted']} {ops}; {samples})")
    ref = "compared" if details.get("reference_checked") else "not recorded for this seed"
    lines.append(f"  checks: {'passed' if record['correct'] else 'FAILED'}; "
                 f"reference outputs {ref}")
    lines.extend(f"  ! {message.splitlines()[0]}" for message in record["checks"])
    return "\n".join(lines)


def run_one(workload, seed: int, seconds: float, trace: int, out: Path) -> bool:
    """One measured run; prints its summary and result line, returns correctness."""
    from workloads import generate_inputs

    started = time.time()
    work = OUT / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        inputs = generate_inputs(workload, seed, work)
        result = measure(["--workload", workload.name, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace),
                          "--inputs", str(work)],
                         timeout=RUN_LIMIT_S - (time.time() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    if result["metrics"] and sorted(result["metrics"]) != sorted(names):
        raise SystemExit(f"bench: measured {sorted(result['metrics'])}, "
                         f"BENCHMARK.json declares {sorted(names)}")
    correct = result["failed"] == 0 and not result["checks"]
    spans = result["details"].pop("spans", None)
    record = {"workload": workload.name, "seed": seed, "trace": trace,
              "seconds": seconds, "started_at": started, "correct": correct,
              **{k: result[k] for k in ("attempted", "failed", "metrics", "checks")},
              "inputs": inputs, "details": result["details"],
              "provenance": provenance(workload, seed)}
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    if spans is not None:
        span_file = OUT / "spans" / f"{workload.name}-{seed}.json"
        span_file.parent.mkdir(parents=True, exist_ok=True)
        span_file.write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}))
    print(summary(workload, record))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}),
          flush=True)
    return correct


def run(argv: list[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                        help="JSONL file the full record is appended to")
    args = parser.parse_args(argv)
    if (args.seed is not None and args.seed < 0) or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_mmgi()
    chosen = WORKLOADS.values() if args.workload == "all" else [WORKLOADS[args.workload]]
    correct = True
    for workload in chosen:
        seed = workload.default_seed if args.seed is None else args.seed
        correct = run_one(workload, seed, args.seconds, args.trace, args.out) and correct
    return 0 if correct else 1


def record_reference(argv: list[str]) -> int:
    from workloads import WORKLOADS, generate_inputs

    argparse.ArgumentParser(description="Record the reference outputs.").parse_args(argv)
    import_mmgi()
    reference = {}
    for workload in WORKLOADS.values():
        work = OUT / "work" / f"reference-{workload.name}"
        try:
            generate_inputs(workload, workload.default_seed, work)
            reference[workload.name] = measure(
                ["--workload", workload.name, "--seed", str(workload.default_seed),
                 "--inputs", str(work), "--record"], timeout=600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {workload.name}", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare

        return compare(argv[1:], ROOT / "BENCHMARK.json")
    if argv[:1] == ["reference"]:
        return record_reference(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
