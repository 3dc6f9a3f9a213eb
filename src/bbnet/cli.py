"""Command-line interface: deterministic experiment drivers with reproducible outputs.

Subcommands::

    bbnet bb             exhaustive busy-beaver table -> bb.csv
    bbnet tvg            generate a graph family instance -> tvg.txt + tvg_report.json
    bbnet run            one networked protocol run -> run.json + nodes.csv
    bbnet halting-sweep  population-size sweep of halting accuracy -> sweep.csv + sweep_summary.json
    bbnet synergy        local-synergy experiment -> synergy.json + complexity_cache.csv
    bbnet central        locate a fastest-answering node -> central.json

Every output embeds the seed and a fingerprint of the resolved semantic
configuration; output bytes are independent of --jobs and contain no
timestamps, so re-runs are byte-identical.  Exit codes: 0 success, 1
validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import multiprocessing
import os
import sys
from typing import Callable, NamedTuple

from bbnet import measures
from bbnet.codec import (
    DEFAULT_MAX_PROGRAM_BITS,
    MalformedEncoding,
    RUNTIME_WITNESS_OVERHEAD,
    all_programs,
    decode_exact,
)
from bbnet.config import (
    ValidationError,
    fingerprint,
    merge_option,
    parse_config_file,
    resolve_seed,
)
from bbnet.machine import BusyBeaverTable, DEFAULT_BUDGET, Labels, busy_beaver_table
from bbnet.measures import ComplexityCache, ThresholdUnreachable, pick_labels, slack_constant
from bbnet.network import (
    ConfigMismatch,
    NoCentralNode,
    assemble,
    find_central_node,
    mix_seed,
    parse_selector,
    run_isolated,
    run_networked,
    sample_population,
)
from bbnet.tvg import (
    FAMILIES,
    GenerationFailed,
    InvalidArc,
    diffusion_diameter,
    reachability_centrality,
    read_tvg,
    reverse_reach_time,
    small_diameter_tvg,
    write_tvg,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage problems are validation
        raise ValidationError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")


class _Option(NamedTuple):
    """One command option: ``name`` is its flag, its config-file key and its fingerprint key."""

    name: str
    parse: Callable[[str], object] = int
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


_OUT = _Option("out", str, "out", "output directory (default: out)")
_JOBS = _Option("jobs", int, 1, "worker processes (outputs unaffected)")
_W = _Option("w", str, "1", "input program bits")
# The options of every command that samples a population and runs the protocol.
_PROTOCOL = (
    _Option("warmup", int, 0, "warm-up cycles before imitation"),
    _Option("max_bits", int, DEFAULT_MAX_PROGRAM_BITS, "program sampling length cap"),
    _Option("budget", int, DEFAULT_BUDGET, "machine step budget per run"),
)


def _create_out(out: str) -> str:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc}")
    return out


def _map(fn, items, jobs: int):
    """``fn`` over ``items``, in order, on ``jobs`` worker processes when jobs > 1."""
    if jobs > 1 and items:
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(fn, items, chunksize=1)
    else:
        yield from map(fn, items)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _validate_program_bits(name: str, bits: str) -> None:
    if bits is None or any(c not in "01" for c in bits) or not bits:
        raise ValidationError(f"{name} must be a nonempty bit string, got {bits!r}")
    try:
        decode_exact(bits)
    except MalformedEncoding as exc:
        raise ValidationError(f"{name} is not a valid program encoding: {exc}")


def cmd_bb(o) -> int:
    if o.max_bits < 1 or o.budget < 1:
        raise ValidationError("max_bits and budget must be positive")
    out = _create_out(o.out)
    table = busy_beaver_table(o.max_bits, o.budget)
    table.write_csv(os.path.join(out, "bb.csv"), seed=o.seed, fingerprint=fingerprint(o.params))
    unknown_total = sum(table.unknown_count(n) for n in range(1, o.max_bits + 1))
    print(
        f"bb: lengths 1..{o.max_bits}, value({o.max_bits})={table.value(o.max_bits)}, "
        f"{unknown_total} unresolved -> {out}/bb.csv"
    )
    return 0


def cmd_tvg(o) -> int:
    out = _create_out(o.out)
    graph = small_diameter_tvg(o.family, o.n, o.seed)
    write_tvg(graph, os.path.join(out, "tvg.txt"))
    diameter = diffusion_diameter(graph)
    report = {
        "seed": o.seed,
        "fingerprint": fingerprint(o.params),
        "family": o.family,
        "num_vertices": graph.num_vertices,
        "num_instants": graph.num_instants,
        "num_arcs": len(graph.arcs),
        "diffusion_diameter": diameter,
        "reverse_reach": [reverse_reach_time(graph, v) for v in range(o.n)],
        "centrality": [reachability_centrality(graph, v) for v in range(o.n)],
    }
    _write_json(os.path.join(out, "tvg_report.json"), report)
    print(f"tvg: {o.family} n={o.n} diameter={diameter} -> {out}/tvg.txt")
    return 0


def cmd_run(o) -> int:
    _validate_program_bits("w", o.w)
    labels = Labels(o.halting_label, o.nonhalting_label)
    try:
        labels.validate()
        selector = parse_selector(o.selector)
    except (ValueError, MalformedEncoding) as exc:
        raise ValidationError(str(exc))

    if o.tvg_file is not None:
        try:
            graph = read_tvg(o.tvg_file)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read tvg file {o.tvg_file}: {exc}")
        n, graph_source = graph.num_vertices, os.path.basename(o.tvg_file)
    else:
        graph = small_diameter_tvg(o.family, o.n, o.seed)
        n, graph_source = o.n, o.family
    out = _create_out(o.out)
    population = sample_population(n, mix_seed(o.seed, 1), o.max_bits)
    assembly = assemble(graph, population, o.warmup)
    cycles = assembly.minimum_cycles if o.cycles is None else o.cycles
    record = run_networked(assembly, o.w, o.budget, labels, selector, n_cycles=cycles)

    # The graph stands in for its family or file, and the labels travel as one pair.
    params = {**o.params, "graph": graph_source, "n": n, "cycles": cycles,
              "labels": [labels.halting, labels.nonhalting]}
    for key in ("family", "tvg_file", "halting_label", "nonhalting_label"):
        del params[key]
    fp = fingerprint(params)
    _write_json(
        os.path.join(out, "run.json"),
        {
            "seed": o.seed,
            "fingerprint": fp,
            "graph": graph_source,
            "num_vertices": n,
            "num_instants": graph.num_instants,
            "w": o.w,
            "w_resolved": record.w_resolved,
            "reference_label": record.reference_label,
            "budget": o.budget,
            "warmup": o.warmup,
            "n_cycles": record.n_cycles,
            "selector": o.selector,
            "labels": {"halting": labels.halting, "nonhalting": labels.nonhalting},
            "x_max": record.x_max,
            "fraction_correct": record.fraction_correct,
        },
    )
    with open(os.path.join(out, "nodes.csv"), "w", newline="") as fh:
        fh.write(f"# seed={o.seed} fingerprint={fp}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["node_id", "vertex", "program_bits", "first_kind", "first_fitness",
             "final_output", "correct"]
        )
        for node in record.nodes:
            writer.writerow(
                [node.node, node.vertex, node.program_bits, node.first_kind,
                 node.first_fitness, node.final_output, int(node.correct)]
            )
    print(
        f"run: n={n} cycles={record.n_cycles} x_max={record.x_max} "
        f"correct={record.fraction_correct:.3f} -> {out}/run.json"
    )
    return 0


def _sweep_task(o, w_list, bb_values, bb_resolved, key):
    n, trial = key
    task_seed = mix_seed(o.seed, n, trial)
    graph = small_diameter_tvg(o.family, n, task_seed)
    population = sample_population(n, task_seed, o.max_bits)
    assembly = assemble(graph, population, o.warmup)
    rows = []
    for w in w_list:
        record = run_networked(assembly, w, o.budget)
        witness_bits = len(w) + RUNTIME_WITNESS_OVERHEAD
        bb_value = bb_values.get(witness_bits)
        certified = bool(
            bb_value is not None and record.w_resolved and record.x_max >= bb_value
        )
        literal_certified = bool(
            certified and bb_resolved.get(witness_bits, False)
        )
        correct_nodes = sum(1 for node in record.nodes if node.correct)
        rows.append({
            "n": n, "trial": trial, "w": w,
            "w_resolved": int(record.w_resolved),
            "reference_label": record.reference_label,
            "x_max": record.x_max,
            "witness_bits": witness_bits,
            "bb_value": "" if bb_value is None else bb_value,
            "certified": int(certified),
            "literal_certified": int(literal_certified),
            "correct_nodes": correct_nodes,
            "node_count": len(record.nodes),
            "all_correct": int(correct_nodes == len(record.nodes)),
        })
    return rows


_SWEEP_COLUMNS = [
    "n", "trial", "w", "w_resolved", "reference_label", "x_max", "witness_bits",
    "bb_value", "certified", "literal_certified", "correct_nodes", "node_count",
    "all_correct",
]
_SWEEP_HEADER = ",".join(_SWEEP_COLUMNS) + "\r\n"


def _render_sweep_rows(rows) -> str:
    """One task's rows as sweep.csv text, rendered once and reused by every flush."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=_SWEEP_COLUMNS)
    for row in rows:
        writer.writerow({col: row[col] for col in _SWEEP_COLUMNS})
    return text.getvalue()


def _load_sweep_rows(path, comment, w_list):
    """Completed tasks of an earlier sweep.csv, if its first line is ``comment``."""
    tasks: dict[tuple[int, int], list[dict]] = {}
    try:
        with open(path, newline="") as fh:
            if fh.readline() != comment:
                return {}
            for row in csv.DictReader(fh):
                try:
                    for column in _SWEEP_COLUMNS:
                        if column not in ("w", "reference_label", "bb_value"):
                            int(row[column])
                except (KeyError, TypeError, ValueError):
                    raise ValidationError(f"cannot resume from {path}: malformed row {row}")
                tasks.setdefault((int(row["n"]), int(row["trial"])), []).append(row)
    except FileNotFoundError:
        return {}
    return {
        key: rows for key, rows in tasks.items()
        if [r["w"] for r in rows] == list(w_list)
    }


def cmd_halting_sweep(o) -> int:
    if o.trials < 1 or not o.n_list or min(o.n_list) < 2:
        raise ValidationError("need trials >= 1 and population sizes >= 2")
    try:
        table = BusyBeaverTable.read_csv(o.bb_table)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read bb table {o.bb_table}: {exc}")
    if o.budget + 2 > table.budget:
        raise ValidationError(
            f"sweep budget {o.budget} needs a bb table built with budget >= {o.budget + 2} "
            f"(got {table.budget}) for certification to be sound"
        )
    out = _create_out(o.out)
    w_list = [p.bits for p in all_programs(o.w_max_bits)]
    bb_resolved = {
        length: table.resolved_through(length) for length in range(1, table.max_bits + 1)
    }

    params = {**o.params, "bb_budget": table.budget, "bb_max_bits": table.max_bits}
    fp = fingerprint(params)
    comment = f"# seed={o.seed} fingerprint={fp}\n"
    sweep_path = os.path.join(out, "sweep.csv")

    completed = _load_sweep_rows(sweep_path, comment, w_list) if o.resume else {}
    tasks = [(n, trial) for n in o.n_list for trial in range(o.trials)]
    todo = [key for key in tasks if key not in completed]
    rendered = {key: _render_sweep_rows(rows) for key, rows in completed.items()}

    def flush() -> None:
        # A crash mid-write must leave the earlier rows in place for --resume.
        staged = sweep_path + ".partial"
        with open(staged, "w", newline="") as fh:
            fh.write(comment)
            fh.write(_SWEEP_HEADER)
            fh.writelines(rendered[key] for key in tasks if key in rendered)
        os.replace(staged, sweep_path)

    task = functools.partial(_sweep_task, o, w_list, table.values, bb_resolved)
    for key, rows in zip(todo, _map(task, todo, o.jobs)):
        completed[key] = rows
        rendered[key] = _render_sweep_rows(rows)
        flush()
    if not todo:
        flush()

    per_n = {}
    for n in o.n_list:
        rows = [row for (task_n, _), task_rows in completed.items()
                for row in task_rows if task_n == n]
        correct = sum(int(r["correct_nodes"]) for r in rows)
        total = sum(int(r["node_count"]) for r in rows)
        fraction = correct / total if total else 0.0
        stderr = (fraction * (1 - fraction) / total) ** 0.5 if total else 0.0
        all_correct = sum(int(r["all_correct"]) for r in rows)
        all_fraction = all_correct / len(rows) if rows else 0.0
        all_stderr = (all_fraction * (1 - all_fraction) / len(rows)) ** 0.5 if rows else 0.0
        per_n[n] = {
            "fraction_correct": fraction,
            "stderr": stderr,
            "nodes": total,
            "rows": len(rows),
            "fraction_all_correct": all_fraction,
            "stderr_all_correct": all_stderr,
            "certified_rows": sum(int(r["certified"]) for r in rows),
            "certified_all_correct": sum(
                1 for r in rows if int(r["certified"]) and int(r["all_correct"])
            ),
            "literal_certified_rows": sum(int(r["literal_certified"]) for r in rows),
        }
    trend = []
    for smaller, larger in zip(o.n_list, o.n_list[1:]):
        a, b = per_n[smaller], per_n[larger]
        band = 1.96 * (a["stderr"] ** 2 + b["stderr"] ** 2) ** 0.5
        all_band = 1.96 * (a["stderr_all_correct"] ** 2 + b["stderr_all_correct"] ** 2) ** 0.5
        trend.append({
            "from_n": smaller, "to_n": larger,
            "delta": b["fraction_correct"] - a["fraction_correct"],
            "allowed_drop": band,
            "non_decreasing_within_ci": b["fraction_correct"] >= a["fraction_correct"] - band,
            "delta_all_correct": b["fraction_all_correct"] - a["fraction_all_correct"],
            "allowed_drop_all_correct": all_band,
            "non_decreasing_all_correct_within_ci": (
                b["fraction_all_correct"] >= a["fraction_all_correct"] - all_band
            ),
        })
    summary = {
        "seed": o.seed, "fingerprint": fp, "per_n": {str(k): v for k, v in per_n.items()},
        "trend": trend, "w_count": len(w_list), "params": params,
        "certified_consistent": all(
            int(r["all_correct"]) == 1
            for rows in completed.values() for r in rows if int(r["certified"])
        ),
    }
    _write_json(os.path.join(out, "sweep_summary.json"), summary)
    print(
        "halting-sweep: "
        + ", ".join(f"n={n}: {per_n[n]['fraction_correct']:.4f}" for n in o.n_list)
        + f" -> {out}/sweep.csv"
    )
    return 0


def _synergy_task(o, labels, trial):
    task_seed = mix_seed(o.seed, 4242, trial)
    graph = small_diameter_tvg(o.family, o.n, task_seed)
    population = sample_population(o.n, task_seed, o.max_bits)
    assembly = assemble(graph, population, o.warmup)
    record = run_networked(assembly, o.w, o.budget, labels)
    isolated = [
        run_isolated(program, o.w, record.n_cycles, o.budget, labels)[-1]
        for program in population
    ]
    cache = ComplexityCache()
    stats = measures.expected_local_synergy(
        record, isolated, record.reference_label, o.budget_bits, o.budget_steps, cache
    )
    contributions = [
        measures.algorithmic_contribution(
            outcome.final_output, iso, o.budget_bits, o.budget_steps, cache
        )
        for outcome, iso in zip(record.nodes, isolated)
    ]
    cache_rows = [
        (target, given, est.value, est.method, est.witness)
        for (target, given), est in cache.entries.items()
    ]
    return {
        "trial": trial,
        "x_max": record.x_max,
        "n_cycles": record.n_cycles,
        "fraction_correct": stats.fraction_correct,
        "mean_synergy": stats.mean,
        "mean_synergy_correct": stats.mean_correct,
        "per_node_synergy": stats.per_node,
        "mean_contribution": sum(contributions) / len(contributions),
        "w_resolved": record.w_resolved,
    }, cache_rows


def cmd_synergy(o) -> int:
    _validate_program_bits("w", o.w)
    if o.x < 0 or o.trials < 1 or o.n < 2:
        raise ValidationError("need x >= 0, trials >= 1, n >= 2")
    out = _create_out(o.out)

    pick = pick_labels(
        o.x, o.seed, label_bits=o.label_bits, budget_bits=o.budget_bits, budget_steps=o.budget_steps
    )
    fp = fingerprint(o.params)
    task = functools.partial(_synergy_task, o, Labels(pick.halting, pick.nonhalting))
    results = []
    cache_entries = {}
    for stats, cache_rows in _map(task, range(o.trials), o.jobs):
        results.append(stats)
        for target, given, value, method, witness in cache_rows:
            cache_entries.setdefault((target, given), (value, method, witness))

    with open(os.path.join(out, "complexity_cache.csv"), "w", newline="") as fh:
        fh.write(f"# seed={o.seed} fingerprint={fp}\n")
        writer = csv.writer(fh)
        writer.writerow(["target", "given", "value", "method", "witness"])
        for (target, given) in sorted(cache_entries, key=lambda k: (k[0], k[1] or "")):
            value, method, witness = cache_entries[(target, given)]
            writer.writerow([target, "-" if given is None else given, value, method,
                             witness or ""])

    pooled_all = [value for r in results for value in r["per_node_synergy"]]
    restricted_values = [
        r["mean_synergy_correct"] for r in results if r["mean_synergy_correct"] is not None
    ]
    report = {
        "seed": o.seed,
        "fingerprint": fp,
        "x": o.x,
        "slack": slack_constant(),
        "required_mean_synergy": o.x - slack_constant(),
        "labels": {
            "halting": pick.halting,
            "nonhalting": pick.nonhalting,
            "threshold": pick.threshold,
            "attempts": pick.attempts,
            "halting_complexity": pick.halting_estimate.value,
            "nonhalting_complexity": pick.nonhalting_estimate.value,
            "method": pick.halting_estimate.method,
        },
        "trials": results,
        "pooled": {
            "mean_synergy": sum(pooled_all) / len(pooled_all),
            "mean_synergy_correct": (
                sum(restricted_values) / len(restricted_values) if restricted_values else None
            ),
            "fraction_correct": (
                sum(r["fraction_correct"] for r in results) / len(results)
            ),
        },
        "params": o.params,
    }
    _write_json(os.path.join(out, "synergy.json"), report)
    print(
        f"synergy: x={o.x} labels=({pick.halting},{pick.nonhalting}) "
        f"mean_correct={report['pooled']['mean_synergy_correct']} "
        f"fraction={report['pooled']['fraction_correct']:.3f} -> {out}/synergy.json"
    )
    return 0


def cmd_central(o) -> int:
    _validate_program_bits("w", o.w)
    if o.n < 2:
        raise ValidationError("need n >= 2")
    out = _create_out(o.out)
    graph = small_diameter_tvg(o.family, o.n, o.seed)
    population = sample_population(o.n, mix_seed(o.seed, 1), o.max_bits)
    result = find_central_node(graph, population, o.w, o.budget, warmup=o.warmup)
    _write_json(
        os.path.join(out, "central.json"),
        {
            "seed": o.seed,
            "fingerprint": fingerprint(o.params),
            "family": o.family,
            "n": o.n,
            "w": o.w,
            "vertex": result.vertex,
            "node": result.node,
            "c_min": result.c_min,
            "reverse_reach": result.reverse_reach,
            "centrality": result.centrality,
            "reference_label": result.record.reference_label,
        },
    )
    print(
        f"central: vertex={result.vertex} c_min={result.c_min} "
        f"centrality={result.centrality:.3f} -> {out}/central.json"
    )
    return 0


# command -> (help, handler, options); --config, --seed and --out come with every command.
_COMMANDS = {
    "bb": ("exhaustive busy-beaver table", cmd_bb, (
        _Option("max_bits", int, 16, "largest program length to enumerate"),
        _Option("budget", int, 100_000, "machine step budget per run"),
    )),
    "tvg": ("generate a small-diameter graph instance", cmd_tvg, (
        _Option("family", str, "replicated-hypercube", "graph family", FAMILIES),
        _Option("n", int, 16, "vertex count"),
    )),
    "run": ("one networked protocol run", cmd_run, (
        _Option("family", str, "replicated-hypercube", "graph family", FAMILIES),
        _Option("tvg_file", str, None, "load the graph from a file instead of a family"),
        _Option("n", int, 16, "vertex count"),
        _W,
        _Option("cycles", int, None, "cycle count (default: the minimum)"),
        _Option("selector", str, "halt-test", "halt-test | identity | custom:<bits>"),
        _Option("halting_label", str, "1"),
        _Option("nonhalting_label", str, "0"),
        *_PROTOCOL,
    )),
    "halting-sweep": ("accuracy vs population size", cmd_halting_sweep, (
        _Option("n_list", _int_list, (16, 32, 64), "comma-separated population sizes"),
        _Option("trials", int, 50, "runs per population size"),
        _Option("w_max_bits", int, 6, "sweep all valid programs up to this length"),
        _Option("family", str, "star-broadcast", "graph family", FAMILIES),
        *_PROTOCOL,
        _JOBS,
    )),
    "synergy": ("local synergy against isolated runs", cmd_synergy, (
        _Option("x", int, 10, "required synergy level"),
        _Option("trials", int, 3),
        _Option("n", int, 32, "vertex count"),
        _Option("family", str, "star-broadcast", "graph family", FAMILIES),
        _W,
        _Option("label_bits", int, measures.DEFAULT_LABEL_BITS),
        _Option("budget_bits", int, measures.DEFAULT_BUDGET_BITS, "complexity search length cap"),
        _Option("budget_steps", int, measures.DEFAULT_BUDGET_STEPS, "complexity search step cap"),
        *_PROTOCOL,
        _JOBS,
    )),
    "central": ("find a fastest-answering node", cmd_central, (
        _Option("family", str, "replicated-random-regular", "graph family", FAMILIES),
        _Option("n", int, 16, "vertex count"),
        _W,
        *_PROTOCOL,
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="bbnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value config file")
        sub.add_argument("--seed", type=int, help="master seed (also via BBNET_SEED)")
        for option in (_OUT, *options):
            sub.add_argument(
                "--" + option.name.replace("_", "-"),
                type=option.parse, choices=option.choices, help=option.help,
            )
    sweep = subs.choices["halting-sweep"]
    sweep.add_argument("--bb-table", required=True, help="bb.csv for certification bounds")
    sweep.add_argument("--resume", action="store_true", help="keep completed rows in sweep.csv")
    return parser


def _resolve(args, file_values: dict[str, str], options) -> argparse.Namespace:
    """Each option once (flag, then config file, then default), plus the fingerprint params."""
    values = {"seed": resolve_seed(args.seed, file_values)}
    for option in (_OUT, *options):
        values[option.name] = merge_option(
            getattr(args, option.name), file_values, option.name, option.parse, option.default
        )
    params = {"command": args.command}
    # Output location and parallelism never change a byte.
    params.update((key, value) for key, value in values.items() if key not in ("out", "jobs"))
    return argparse.Namespace(**{**vars(args), **values, "params": params})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        file_values = parse_config_file(args.config) if args.config else {}
        _, handler, options = _COMMANDS[args.command]
        return handler(_resolve(args, file_values, options))
    except (ValidationError, MalformedEncoding, InvalidArc, ConfigMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoCentralNode, ThresholdUnreachable, GenerationFailed) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
