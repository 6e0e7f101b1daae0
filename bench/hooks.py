"""Wrappers the benchmark installs around mmgi's module-level names.

Callers inside mmgi look these names up at call time (``run_chart`` calls
``build_context`` through ``mmgi.chart``'s globals, ``train`` calls
``backward`` through ``mmgi.train``'s), so replacing a binding in every module
that holds it intercepts every call without touching the package. A name that
no longer exists fails loudly: after a rename, a layer reading zero would look
like a speed-up.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


class BenchError(RuntimeError):
    """The benchmark can no longer measure what it claims to."""


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        try:
            original = getattr(owner, attr)
        except AttributeError:
            owner_name = getattr(owner, "__name__", owner)
            raise BenchError(f"{owner_name}.{attr} no longer exists") from None
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return original

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(module: str, path: str):
    """(owner, attribute) for "name" or "Class.name" inside `module`."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        try:
            owner = getattr(owner, part)
        except AttributeError:
            raise BenchError(f"{module}.{path} no longer exists") from None
    if not hasattr(owner, attr):
        raise BenchError(f"{module}.{path} no longer exists")
    return owner, attr


def _bindings(function) -> list[tuple[object, str]]:
    """(module, name) of every module-level binding of `function` in mmgi."""
    return [(mod, name) for mod_name, mod in sorted(sys.modules.items())
            if (mod_name == "mmgi" or mod_name.startswith("mmgi.")) and mod is not None
            for name, value in list(vars(mod).items()) if value is function]


# (defining module, name, span name). Self time per operation of each span is
# one per-layer metric.
TRACED = (
    ("mmgi.chart", "build_context", "chart.build_context"),
    ("mmgi.chart", "inside_pass", "chart.inside_pass"),
    ("mmgi.chart", "outside_pass", "chart.outside_pass"),
    ("mmgi.losses", "batch_loss", "losses.batch_loss"),
    ("mmgi.autodiff", "backward", "autodiff.backward"),
    ("mmgi.optim", "Adam.step", "optim.step"),
    ("mmgi.chart", "Chart.split_tables", "chart.split_tables"),
    ("mmgi.decode", "cky_decode", "decode.cky_decode"),
    ("mmgi.corpus", "load_corpus", "corpus.load_corpus"),
    ("mmgi.params", "load_checkpoint", "params.load_checkpoint"),
)

# The call sites the workloads go through. Each must still import the traced
# function itself, or its calls would escape the trace.
CALL_SITES = {
    "mmgi.chart": ("build_context", "inside_pass", "outside_pass"),
    "mmgi.inference": ("build_context", "inside_pass", "outside_pass", "cky_decode"),
    "mmgi.train": ("batch_loss", "backward"),
}


class Tracer:
    """In-memory spans (name, start, end, parent index) around the TRACED names."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, patches: Patches) -> None:
        traced = set()
        for module, path, span in TRACED:
            owner, attr = _resolve(module, path)
            if "." in path:
                patches.wrap(owner, attr, lambda f, s=span: self._traced(f, s))
                continue
            function = getattr(owner, attr)
            traced.add(function)
            for mod, name in _bindings(function):
                patches.wrap(mod, name, lambda f, s=span: self._traced(f, s))
        for module, names in CALL_SITES.items():
            mod = importlib.import_module(module)
            for name in names:
                binding = getattr(mod, name, None)
                if getattr(binding, "__wrapped__", None) not in traced:
                    raise BenchError(f"{module} no longer calls a traced {name}")

    def _traced(self, function, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def self_times(self, start: float = float("-inf"), end: float = float("inf")):
        """{span name: (calls, total self seconds)} over spans inside [start, end]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for index, (name, t0, t1, _) in enumerate(self.spans):
            if t0 >= start and t1 <= end:
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += (t1 - t0) - child[index]
        return {name: (calls, total) for name, (calls, total) in out.items()}


class NodeCounter:
    """Counts autodiff graph nodes by wrapping the engine's node constructor."""

    def __init__(self):
        self.count = 0
        self.kept: list | None = None

    def install(self, patches: Patches) -> None:
        def make(from_op):
            def counted(*args, **kwargs):
                node = from_op(*args, **kwargs)
                self.count += 1
                if self.kept is not None:
                    self.kept.append(node)
                return node
            return counted

        patches.wrap(importlib.import_module("mmgi.autodiff"), "_from_op", make)


def reachable_built(root, built: list) -> int:
    """How many of `built` are reachable from `root` through parent links."""
    built_ids = {id(node) for node in built}
    seen = {id(root)}
    todo = [root]
    hits = 0
    while todo:
        node = todo.pop()
        if id(node) in built_ids:
            hits += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return hits


class StopRun(Exception):
    """Raised after a train step to end ``train`` at the deadline or step count."""


class TrainProbe:
    """The few hooks an untraced training run needs.

    It records when the first chart of the first step starts (the end of
    set-up), each step's end, batch size and loss report, and stops ``train``
    with StopRun once the deadline or step count is reached. The hooks cost a
    few Python calls per step.
    """

    def __init__(self, seconds: float | None = None, steps: int | None = None,
                 on_loss=None):
        self.seconds = seconds
        self.steps = steps
        self.on_loss = on_loss  # called with each batch's loss before backward
        self.first_start: float | None = None
        self.step_ends: list[float] = []
        self.records: list[dict] = []
        self.chart_args: tuple | None = None
        self.optimizer = None
        self.error: str | None = None

    def install(self, patches: Patches) -> None:
        optim = importlib.import_module("mmgi.optim")
        train = importlib.import_module("mmgi.train")

        def make_run_chart(run_chart):
            def probed(example, params, cfg, vocab_index, pair_matrix, *args, **kwargs):
                if self.first_start is None:
                    self.first_start = perf_counter()
                    self.chart_args = (params, cfg, vocab_index, pair_matrix)
                return run_chart(example, params, cfg, vocab_index, pair_matrix,
                                 *args, **kwargs)
            return probed

        def make_batch_loss(batch_loss):
            def probed(batch, *args, **kwargs):
                total, report = batch_loss(batch, *args, **kwargs)
                self.records.append({
                    "size": len(batch), "l_rec": report.l_rec, "l_cl": report.l_cl,
                    "l_rep": report.l_rep, "total": report.total,
                    "root": float(total.data)})
                if self.on_loss is not None:
                    self.on_loss(total)
                return total, report
            return probed

        def make_step(step):
            def probed(optimizer, *args, **kwargs):
                step(optimizer, *args, **kwargs)
                now = perf_counter()
                self.optimizer = optimizer
                self.step_ends.append(now)
                if (self.steps is not None and len(self.step_ends) >= self.steps) or \
                        (self.seconds is not None and now - self.first_start >= self.seconds):
                    raise StopRun
            return probed

        patches.wrap(train, "run_chart", make_run_chart)
        patches.wrap(train, "batch_loss", make_batch_loss)
        patches.wrap(optim.Adam, "step", make_step)

    def step_seconds(self) -> list[float]:
        starts = [self.first_start] + self.step_ends[:-1]
        return [end - start for start, end in zip(starts, self.step_ends)]
