"""Per-layer tracing: run one bbnet CLI command with spans around calls into its modules.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py SPANS_FILE ARGS...

runs ``bbnet ARGS...`` in this process after wrapping the public functions
listed in ``TRACED``.  Each wrapper records a span (name, start, end, parent,
attributes) in memory; the spans are written to SPANS_FILE as JSON lines when
the command returns.  A wrapper replaces the function in every ``bbnet``
namespace that holds it, because the modules import one another's functions by
name (``bbnet.network.oracle`` is ``bbnet.machine.oracle``).

``bbnet.bits`` and ``bbnet.config`` are not traced: their helpers are too small
and too hot to wrap, so their time shows up as self time of their callers.
Worker processes are not traced either, since their spans would die with them;
commands that use a pool must be traced with ``--jobs 1``.

``layer_metrics`` turns a list of spans into the per-layer metrics named in
``PER_LAYER``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions wrapped in the traced process
TRACED = {
    "codec": ("all_programs", "sample_program"),
    "machine": ("oracle", "run", "busy_beaver_table"),
    "network": (
        "sample_population", "run_networked", "bounded_halt_answer", "run_isolated",
        "find_central_node",
    ),
    "tvg": (
        "small_diameter_tvg", "diffusion_diameter", "earliest_arrivals", "reverse_reach_time",
        "most_central_vertices",
    ),
    "measures": ("pick_labels", "conditional_complexity", "expected_local_synergy"),
}

# metric name -> unit, in the order they are reported
PER_LAYER = {
    "machine.oracle.calls": "count",
    "machine.oracle.self_s": "s",
    "machine.oracle.steps": "count",
    "machine.oracle.ns_per_step": "ns",
    "machine.oracle.exhausted_step_share": "ratio",
    "machine.run.calls": "count",
    "machine.run.self_s": "s",
    "machine.run.steps": "count",
    "machine.run.ns_per_step": "ns",
    "machine.busy_beaver_table.s": "s",
    "codec.all_programs.s": "s",
    "codec.all_programs.programs": "count",
    "codec.sample_program.calls": "count",
    "codec.sample_program.self_s": "s",
    "codec.sample_program.us_per_program": "us",
    "network.sample_population.distinct_share": "ratio",
    "network.run_networked.calls": "count",
    "network.run_networked.self_s": "s",
    "network.run_networked.oracle_s": "s",
    "network.bounded_halt_answer.calls": "count",
    "network.bounded_halt_answer.hit_share": "ratio",
    "network.run_isolated.calls": "count",
    "network.run_isolated.s": "s",
    "network.find_central_node.self_s": "s",
    "tvg.small_diameter_tvg.s": "s",
    "tvg.diffusion_diameter.s": "s",
    "tvg.earliest_arrivals.calls": "count",
    "tvg.earliest_arrivals.self_s": "s",
    "tvg.reverse_reach_time.calls": "count",
    "tvg.reverse_reach_time.s": "s",
    "tvg.most_central_vertices.s": "s",
    "measures.pick_labels.s": "s",
    "measures.conditional_complexity.calls": "count",
    "measures.conditional_complexity.s": "s",
    "measures.expected_local_synergy.s": "s",
    "measures.search.runs": "count",
    "measures.search.useful_step_share": "ratio",
    "measures.ComplexityCache.hit_share": "ratio",
    "cli.main.self_s": "s",
    "process.import_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans as ``[name, start_ns, end_ns, parent_index, attributes]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, describe=None, probe=None):
        """Wrap ``fn``; ``describe(result, probe())`` gives the span's attributes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            before = probe() if probe is not None else None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if describe is not None:
                record[4] = describe(result, before)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` (and ``ComplexityCache.get``) everywhere bbnet holds it."""
        import bbnet.cli  # noqa: F401  (loads every traced module)

        modules = [m for name, m in sys.modules.items() if name == "bbnet" or name.startswith("bbnet.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"bbnet.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self.wrap(f"{module_name}.{function}", original, *_describers(original, function))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        cache = sys.modules["bbnet.measures"].ComplexityCache
        cache.get = self.wrap("measures.ComplexityCache.get", cache.get, lambda hit, _: hit is not None)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _describers(original, function):
    if function in ("oracle", "run"):
        return (lambda verdict, _: [verdict.kind, verdict.steps]), None
    if function == "sample_population":
        return (lambda population, _: [len(population), len({p.bits for p in population})]), None
    if function == "all_programs":
        # Count programs only when this call enumerated them (an lru_cache miss).
        misses = lambda: original.cache_info().misses  # noqa: E731
        return (lambda programs, before: len(programs) if misses() > before else 0), misses
    return None, None


def read_spans(paths) -> list[list]:
    """The spans of one or more traced commands as one list, parents re-indexed."""
    spans: list[list] = []
    for path in paths:
        offset = len(spans)
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                if span[3] >= 0:
                    span[3] += offset
                spans.append(span)
    return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of traced commands' spans.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.s`` (inclusive time of the
    outermost spans) follow from the name; the other measures are spelled out.
    ``trace.overhead_s`` compares two runs, so it is left at 0 here.
    """
    child_time = [0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(index)

    def ancestors(index):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name.get(name, ())) / 1e9

    def inclusive_s(name):  # outermost spans only, so recursion is not counted twice
        return sum(
            spans[i][2] - spans[i][1] for i in by_name.get(name, ()) if name not in ancestors(i)
        ) / 1e9

    def ratio(part, whole, scale=1.0):
        return part / whole * scale if whole else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    generic = {"calls": calls, "self_s": self_s, "s": inclusive_s}
    for metric in PER_LAYER:
        span_name, measure = metric.rsplit(".", 1)
        if measure in generic:
            metrics[metric] = generic[measure](span_name)

    for name in ("machine.oracle", "machine.run"):
        steps = sum(spans[i][4][1] for i in by_name.get(name, ()))
        metrics[f"{name}.steps"] = steps
        metrics[f"{name}.ns_per_step"] = ratio(self_s(name), steps, 1e9)
    exhausted = sum(
        spans[i][4][1] for i in by_name.get("machine.oracle", ()) if spans[i][4][0] == "budget-exhausted"
    )
    metrics["machine.oracle.exhausted_step_share"] = ratio(exhausted, metrics["machine.oracle.steps"])
    metrics["codec.all_programs.programs"] = sum(
        spans[i][4] for i in by_name.get("codec.all_programs", ())
        if "codec.all_programs" not in ancestors(i)
    )
    metrics["codec.sample_program.us_per_program"] = ratio(
        self_s("codec.sample_program"), calls("codec.sample_program"), 1e6
    )
    populations = [spans[i][4] for i in by_name.get("network.sample_population", ())]
    metrics["network.sample_population.distinct_share"] = ratio(
        sum(d for _, d in populations), sum(n for n, _ in populations)
    )
    metrics["network.run_networked.oracle_s"] = sum(
        spans[i][2] - spans[i][1] for i in by_name.get("machine.oracle", ())
        if "network.run_networked" in ancestors(i)
    ) / 1e9
    answers = by_name.get("network.bounded_halt_answer", ())
    metrics["network.bounded_halt_answer.hit_share"] = ratio(
        sum(1 for i in answers if not any(spans[c][0] == "machine.run" for c in children[i])),
        len(answers),
    )
    searches = [
        spans[i][4] for i in by_name.get("machine.run", ())
        if any(name.startswith("measures.") for name in ancestors(i))
    ]
    metrics["measures.search.runs"] = len(searches)
    metrics["measures.search.useful_step_share"] = ratio(
        sum(steps for kind, steps in searches if kind == "halted"), sum(s for _, s in searches)
    )
    gets = [spans[i][4] for i in by_name.get("measures.ComplexityCache.get", ())]
    metrics["measures.ComplexityCache.hit_share"] = ratio(sum(gets), len(gets))
    metrics["process.import_s"] = inclusive_s("process.import")
    return metrics


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    import bbnet.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", bbnet.cli.main)(command)
    tracer.spans.append(["process.import", 0, round(import_s * 1e9), -1, None])  # import of bbnet.cli
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
