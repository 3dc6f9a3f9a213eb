"""Output checks for the benchmark's workloads.

Each ``check_*`` function reads a workload's artifacts and returns a list of
problems (empty when the artifacts are correct).  The expected values come from
``reference`` (an interpreter and a temporal-graph search written apart from
bbnet) or from properties the method must have; no check compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import zlib
from pathlib import Path

import reference as ref

# successor(step-count(w)) wraps w in two composite headers: "01010" gamma(2) and "01010" gamma(1).
WITNESS_OVERHEAD = len("01010" + ref.gamma(2)) + len("01010" + ref.gamma(1))
COPIER_BITS = len(ref.encode_native(ref.COPIER))
SLACK = COPIER_BITS + 4
# Defaults of `bbnet synergy` that the workload keeps: the input w, the run budget, and the
# complexity search caps (programs of at most 21 bits, 25,000 steps each).
SYNERGY_W = "1"
SYNERGY_BUDGET = 10_000
SEARCH_BITS = 21
SEARCH_STEPS = 25_000


def read_csv(path) -> list[dict[str, str]]:
    """Rows of a bbnet CSV artifact, skipping its ``# seed=... fingerprint=...`` line."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_table(path) -> dict[int, dict[str, str]]:
    return {int(row["n"]): row for row in read_csv(path)}


def zlib_bound(target: str) -> int:
    """Compression fallback of a bit string: zlib level 9 over its text, in bits, plus one byte."""
    return 8 * len(zlib.compress(target.encode("ascii"), 9)) + 8


def replay(bits: str, r0: int, r1: int, budget: int) -> ref.Outcome | None:
    """The reference run of ``bits``, or None when they are not a program."""
    try:
        return ref.execute(ref.decode(bits), r0, r1, budget)
    except ref.Malformed:
        return None


def check_bb_table(path, max_bits: int, budget: int) -> list[str]:
    """bb.csv against an exhaustive reference run of every program of at most ``max_bits`` bits."""
    table = read_table(path)
    if sorted(table) != list(range(1, max_bits + 1)):
        return [f"bb.csv covers lengths {sorted(table)}, expected 1..{max_bits}"]
    best: dict[int, int] = {}
    total: dict[int, int] = {}
    halted: dict[int, int] = {}
    looping: dict[int, int] = {}
    for bits, program in ref.programs_up_to(max_bits):
        n = len(bits)
        total[n] = total.get(n, 0) + 1
        outcome = ref.execute(program, 0, 0, budget)
        if outcome.kind == ref.HALTED:
            halted[n] = halted.get(n, 0) + 1
            best[n] = max(best.get(n, 0), outcome.value)
        elif outcome.kind == ref.LOOPS:  # repeated within the budget, so proven by any exact detector
            looping[n] = looping.get(n, 0) + 1
    problems = []
    previous = 0
    best_so_far = 0
    for n in range(1, max_bits + 1):
        row = table[n]
        value, witness, unknown = int(row["bb_value"]), row["witness_bits"], int(row["unknown_count"])
        best_so_far = max(best_so_far, best.get(n, 0))
        if value < previous:
            problems.append(f"bb value at n={n} ({value}) is below the value at n={n - 1}")
        previous = value
        if len(witness) > n:
            problems.append(f"witness at n={n} has {len(witness)} bits")
        outcome = replay(witness, 0, 0, budget)
        if outcome is None or outcome.kind != ref.HALTED or outcome.value != value:
            problems.append(f"witness at n={n} ({witness!r}) replays to {outcome}, table says {value}")
        if best_so_far > value:
            problems.append(f"a program of at most {n} bits halts with {best_so_far} > table {value}")
        undecided = total.get(n, 0) - halted.get(n, 0) - looping.get(n, 0)
        if unknown > undecided:
            problems.append(
                f"unknown count at n={n} is {unknown}, but only {undecided} programs neither "
                "halt nor repeat within the budget"
            )
    return problems


def check_sweep(path, table_path, n_list, trials: int, w_max_bits: int, budget: int) -> list[str]:
    """sweep.csv on star-broadcast: labels and all_correct recomputed from w and x_max."""
    rows = read_csv(path)
    table = read_table(table_path)
    w_programs = {bits: program for bits, program in ref.programs_up_to(w_max_bits)}
    expected = {(n, t, w) for n in n_list for t in range(trials) for w in w_programs}
    found = [(int(r["n"]), int(r["trial"]), r["w"]) for r in rows]
    if len(rows) != len(n_list) * trials * len(w_programs) or set(found) != expected:
        return [f"sweep.csv has {len(rows)} rows, expected the {len(expected)} (n, trial, w) combinations"]
    limit = max([budget] + [int(r["x_max"]) for r in rows])
    halting = {bits: ref.halting_steps(p, limit) for bits, p in w_programs.items()}
    loops = {
        bits: ref.execute(p, 0, 0, budget).kind == ref.LOOPS for bits, p in w_programs.items()
    }
    problems = []
    for row in rows:
        where = f"row n={row['n']} trial={row['trial']} w={row['w']}"
        steps, x = halting[row["w"]], int(row["x_max"])
        halts = steps is not None and steps <= budget
        reference = "1" if halts else "0"
        answer = "1" if steps is not None and steps <= x else "0"
        all_correct = int(answer == reference)
        node_count, correct_nodes = int(row["node_count"]), int(row["correct_nodes"])
        if row["reference_label"] != reference:
            problems.append(f"{where}: reference label {row['reference_label']}, expected {reference}")
        if (halts or loops[row["w"]]) and row["w_resolved"] != "1":
            problems.append(f"{where}: w is decided within the budget but marked unresolved")
        if int(row["all_correct"]) != all_correct:
            problems.append(f"{where}: all_correct {row['all_correct']}, expected {all_correct}")
        if node_count != int(row["n"]) or correct_nodes != all_correct * node_count:
            problems.append(f"{where}: {correct_nodes} of {node_count} nodes correct")
        witness_bits = len(row["w"]) + WITNESS_OVERHEAD
        table_row = table.get(witness_bits)
        bb_value = int(table_row["bb_value"]) if table_row else None
        if int(row["witness_bits"]) != witness_bits or row["bb_value"] != ("" if bb_value is None else str(bb_value)):
            problems.append(f"{where}: witness length or bb value does not match the table")
        certified = bb_value is not None and row["w_resolved"] == "1" and x >= bb_value
        literal = certified and all(int(table[i]["unknown_count"]) == 0 for i in range(1, witness_bits + 1))
        if int(row["certified"]) != certified or int(row["literal_certified"]) != literal:
            problems.append(f"{where}: certified flags {row['certified']}/{row['literal_certified']}")
        if certified and all_correct != 1:
            problems.append(f"{where}: certified but not all nodes correct")
    return problems


def check_central(path, nodes_path, n: int, w: str, budget: int) -> list[str]:
    """central.json on the replicated hypercube against brute-force temporal reach, and the
    central node's isolated run replayed from ``nodes_path`` (the population's nodes.csv).
    The run has no warm-up cycles (the CLI default), so c_min = reach + 2."""
    result = json.loads(Path(path).read_text())
    instants = (n - 1).bit_length() + 1  # hypercube diameter + 1: just long enough to diffuse
    reach = ref.reverse_reach(n, instants, ref.hypercube_arcs(n, instants))
    vertex = result["vertex"]
    problems = []
    if not 0 <= vertex < n or result["node"] != vertex:
        return [f"central vertex {vertex} / node {result['node']} is not a vertex of the graph"]
    if result["reverse_reach"] != reach[vertex]:
        problems.append(f"reverse reach {result['reverse_reach']}, brute force gives {reach[vertex]}")
    if result["centrality"] != 1 / reach[vertex]:
        problems.append(f"centrality {result['centrality']} is not 1/{reach[vertex]}")
    if result["c_min"] != reach[vertex] + 2:
        problems.append(f"c_min {result['c_min']} is not reach + 2 = {reach[vertex] + 2}")
    beaten = [v for v in range(n) if reach[v] is not None and reach[v] + 2 < result["c_min"]]
    if beaten:
        problems.append(f"vertices {beaten[:5]} have a lower bound below c_min {result['c_min']}")
    steps = ref.halting_steps(ref.decode(w), budget)
    reference = "1" if steps is not None else "0"
    if result["reference_label"] != reference:
        problems.append(f"reference label {result['reference_label']}, expected {reference}")
    if nodes_path is None:  # the command that lists the population failed; it is counted as such
        return problems
    nodes = read_csv(nodes_path)
    if len(nodes) != n:
        return problems + [f"nodes.csv has {len(nodes)} rows, expected {n}"]
    for row in nodes:
        outcome = replay(row["program_bits"], ref.to_natural(w), 0, budget)
        if outcome is None:
            return problems + [f"node {row['node_id']}: {row['program_bits']!r} is not a program"]
        fitness = outcome.value + 1 if outcome.kind == ref.HALTED else 0
        if int(row["first_fitness"]) != fitness:
            problems.append(f"node {row['node_id']}: first fitness {row['first_fitness']}, expected {fitness}")
    program = ref.decode(nodes[result["node"]]["program_bits"])
    if reference in ref.isolated_outputs(program, w, result["c_min"] - 1, budget):
        problems.append(f"the central node's isolated run emits {reference!r} before c_min")
    return problems


def check_synergy(path, cache_path, x: int, trials: int) -> list[str]:
    """synergy.json and complexity_cache.csv: witnesses replayed, fallbacks recomputed."""
    report = json.loads(Path(path).read_text())
    labels = report["labels"]
    problems = []
    if report["slack"] != SLACK or labels["threshold"] != x + SLACK:
        problems.append(f"slack {report['slack']} / threshold {labels['threshold']}, expected {SLACK} / {x + SLACK}")
    for kind in ("halting", "nonhalting"):
        value = labels[f"{kind}_complexity"]
        if value < x + SLACK or value != zlib_bound(labels[kind]):
            problems.append(f"{kind} label complexity {value}: zlib bound {zlib_bound(labels[kind])}, "
                            f"threshold {x + SLACK}")
    if len(report["trials"]) != trials:
        problems.append(f"{len(report['trials'])} trials, expected {trials}")
    halts = ref.halting_steps(ref.decode(SYNERGY_W), SYNERGY_BUDGET) is not None
    target = labels["halting"] if halts else labels["nonhalting"]
    entries = {}
    for row in read_csv(cache_path):
        target_bits, given, value = row["target"], row["given"], int(row["value"])
        entries[(target_bits, given)] = row
        where = f"cache row ({target_bits!r} | {given!r})"
        if row["method"] == "enumeration":
            witness = row["witness"]
            if len(witness) != value or value > SEARCH_BITS:
                problems.append(f"{where}: witness of {len(witness)} bits for value {value}")
                continue
            aux = 0 if given == "-" else ref.to_natural(given)
            outcome = replay(witness, 0, aux, SEARCH_STEPS)
            if outcome is None or outcome.kind != ref.HALTED or outcome.value != ref.to_natural(target_bits):
                problems.append(f"{where}: witness {witness} does not output the target")
        elif row["method"] == "compression-fallback":
            if value != zlib_bound(target_bits):
                problems.append(f"{where}: fallback {value}, zlib bound {zlib_bound(target_bits)}")
        else:
            problems.append(f"{where}: unknown method {row['method']}")
    for trial in report["trials"]:
        if trial["fraction_correct"] > 0:
            self_row = entries.get((target, target))
            if self_row is None or int(self_row["value"]) > COPIER_BITS:
                problems.append(f"trial {trial['trial']}: cond(target | target) missing or above {COPIER_BITS}")
        if trial["fraction_correct"] == 1 and trial["mean_synergy"] < x - SLACK:
            problems.append(f"trial {trial['trial']}: mean synergy {trial['mean_synergy']} < {x - SLACK}")
    return problems
