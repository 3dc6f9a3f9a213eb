"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Every test is fully seeded and self-contained.  Tests whose guarantee includes
a wall-clock budget assert it with time.monotonic.  Exact (100%) checks carry
no tolerance; the single fractional bound (criterion 8) is asserted as stated.
"""

import csv
import hashlib
import json
import math
import os
import random
import time

from bbnet.cli import main
from bbnet.codec import MINIMAL_ENCODING, all_programs, decode_exact, is_valid_encoding
from bbnet.machine import DEFAULT_LABELS, HALTED, PROVEN_NONHALTING, oracle, run
from bbnet.bits import bitstring_to_natural
from bbnet.measures import slack_constant
from bbnet.network import (
    assemble,
    find_central_node,
    mix_seed,
    reference_halting_label,
    run_isolated,
    run_networked,
    sample_population,
)
from bbnet.tvg import (
    FAMILIES,
    Tvg,
    diffusion_diameter,
    diffusion_time,
    earliest_arrivals,
    small_diameter_tvg,
)

from random_graphs import random_tvg


def brute_force_arrivals(graph: Tvg, source: int) -> list[float]:
    """Independent earliest-arrival computation: one frozen snapshot per interval."""
    arrivals = {source: 0}
    for interval in range(graph.num_instants - 1):
        snapshot = set(arrivals)
        for tail, instant, head in graph.arcs:
            if instant == interval and tail in snapshot and head not in arrivals:
                arrivals[head] = interval + 1
    return [arrivals.get(vertex, math.inf) for vertex in range(graph.num_vertices)]


def read_rows(path):
    """Read a CSV data file, skipping the leading provenance comment line."""
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def digest_tree(root) -> dict[str, str]:
    """sha256 of every file under root, keyed by file name."""
    digests = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_criterion_1_prefix_free_codec_and_kraft_bound():
    """Exhaustive scan to 16 bits: no valid encoding prefixes another, Kraft <= 1."""
    start = time.monotonic()
    valid = [
        bits
        for length in range(1, 17)
        for bits in (format(value, f"0{length}b") for value in range(1 << length))
        if is_valid_encoding(bits)
    ]
    enumerated = [program.bits for program in all_programs(16)]
    assert len(valid) == len(enumerated)
    assert set(valid) == set(enumerated)
    valid_set = set(valid)
    violations = [
        (bits[:cut], bits)
        for bits in valid
        for cut in range(1, len(bits))
        if bits[:cut] in valid_set
    ]
    assert violations == []
    kraft = sum(2.0 ** -len(bits) for bits in valid)
    assert kraft <= 1.0
    assert time.monotonic() - start < 60.0


def test_criterion_2_nonhalting_proofs_survive_tenfold_budget():
    """No nonhalting proof at budget 1e4 is contradicted at budget 1e5 (<= 14 bits)."""
    start = time.monotonic()
    proven = 0
    for program in all_programs(14):
        small = oracle(program, "", 10_000)
        if small.kind == PROVEN_NONHALTING:
            proven += 1
            large = oracle(program, "", 100_000)
            assert large.kind == PROVEN_NONHALTING, program.bits
            replay = run(program, "", 100_000)
            assert replay.kind != HALTED, program.bits
    assert proven > 0
    assert time.monotonic() - start < 300.0


def test_criterion_3_busy_beaver_table_to_twenty_bits(bb_table_full):
    """The 20-bit/1e5-step table: monotone, pinned small values, witnesses replay."""
    table, elapsed = bb_table_full
    assert elapsed < 1800.0
    values = [table.value(n) for n in range(1, 21)]
    assert values == sorted(values)
    assert table.value(1) == 0
    assert table.witness(1) == MINIMAL_ENCODING
    assert table.value(6) >= 1
    for n in range(1, 21):
        witness = table.witness(n)
        assert len(witness) <= n
        verdict = oracle(decode_exact(witness), "", table.budget)
        assert verdict.kind == HALTED
        assert bitstring_to_natural(verdict.output) == table.value(n)
        unknown = table.unknown_count(n)
        assert isinstance(unknown, int) and unknown >= 0
    # At this budget some register-growing loops remain undecided; the report
    # must say so rather than silently treating them as nonhalting.
    assert sum(table.unknown_count(n) for n in range(1, 21)) > 0


def test_criterion_4_max_fitness_diffuses_to_every_node():
    """100 seeded runs per family, N up to 256: every carried value ends at the max."""
    start = time.monotonic()
    sizes = (8, 16, 32, 64, 128, 256)
    for family_index, family in enumerate(FAMILIES):
        for index in range(100):
            n = sizes[index % len(sizes)]
            seed = mix_seed(4000, family_index, index)
            graph = small_diameter_tvg(family, n, seed)
            population = sample_population(n, seed)
            record = run_networked(assemble(graph, population), "1", budget=2000)
            best = max(node.first_fitness for node in record.nodes)
            assert record.x_max == best
            final_carried = record.carried_history[-1]
            assert len(final_carried) == n
            assert all(value == best for value, _ in final_carried)
    assert time.monotonic() - start < 600.0


def test_criterion_5_certified_sweep_trials_always_decide_correctly(
    bb_table_csv, tmp_path
):
    """Whenever x_max covers the table value for the witness length, all nodes answer right."""
    out = tmp_path / "sweep5"
    rc = main([
        "halting-sweep", "--bb-table", bb_table_csv,
        "--n-list", "4,8,16", "--trials", "10", "--w-max-bits", "6",
        "--seed", "9", "--jobs", "2", "--out", str(out),
    ])
    assert rc == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 3 * 10 * 3  # sizes x trials x programs <= 6 bits
    # Literal form: certification additionally demands a fully-resolved table
    # row at the witness length.  Growing loops keep every length >= 9
    # unresolved, so this set is empty here; the check still runs.
    literal = [row for row in rows if row["literal_certified"] == "1"]
    assert all(row["all_correct"] == "1" for row in literal)
    # Strengthened form (the one that bites at desk scale): w itself resolved
    # and x_max >= the computed table value at the witness length.
    certified = [row for row in rows if row["certified"] == "1"]
    assert certified
    assert all(row["all_correct"] == "1" for row in certified)
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["certified_consistent"] is True


def test_criterion_6_all_correct_fraction_non_decreasing_to_512(
    bb_table_csv, tmp_path
):
    """200-trial sweep, N doubling 16..512: all-correct fraction non-decreasing within CI."""
    start = time.monotonic()
    out = tmp_path / "sweep6"
    rc = main([
        "halting-sweep", "--bb-table", bb_table_csv,
        "--n-list", "16,32,64,128,256,512", "--trials", "200",
        "--w-max-bits", "8", "--family", "star-broadcast",
        "--seed", "6", "--jobs", "8", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    program_count = len(all_programs(8))
    for n in (16, 32, 64, 128, 256, 512):
        assert summary["per_n"][str(n)]["rows"] == 200 * program_count
    assert len(summary["trend"]) == 5
    for entry in summary["trend"]:
        assert entry["non_decreasing_all_correct_within_ci"] is True, entry
    assert time.monotonic() - start < 3600.0


def test_criterion_7_central_node_qualifies_before_every_other_vertex():
    """Reported c_min is minimal over all vertices; the node is silent before it."""
    sizes = (4, 8, 16)
    budget = 1000
    w = "010001"
    reference, resolved = reference_halting_label(decode_exact(w), budget, DEFAULT_LABELS)
    assert resolved
    for index in range(50):
        family = FAMILIES[index % len(FAMILIES)]
        n = sizes[index % len(sizes)]
        seed = mix_seed(7000, index)
        graph = small_diameter_tvg(family, n, seed)
        population = sample_population(n, seed)
        result = find_central_node(graph, population, w, budget=budget)

        early = run_isolated(population[result.node], w, result.c_min - 1, budget)
        assert reference not in early

        # Independent qualifying count per vertex: worst-case arrival into the
        # vertex (brute-force), plus the same early-emission and trimmed-graph
        # verification screens.
        arrivals_by_source = [
            brute_force_arrivals(graph, source) for source in range(graph.num_vertices)
        ]
        qualifying = []
        for vertex in range(graph.num_vertices):
            worst = max(arr[vertex] for arr in arrivals_by_source)
            if worst == math.inf:
                qualifying.append(math.inf)
                continue
            candidate = int(worst) + 2
            iso = run_isolated(population[vertex], w, candidate - 1, budget)
            if reference in iso:
                qualifying.append(math.inf)
                continue
            trimmed = Tvg(
                num_vertices=graph.num_vertices,
                num_instants=int(worst) + 1,
                arcs=frozenset(arc for arc in graph.arcs if arc[1] < worst),
            )
            record = run_networked(
                assemble(trimmed, population), w, budget=budget, n_cycles=candidate
            )
            ok = record.nodes[vertex].final_output == reference
            qualifying.append(candidate if ok else math.inf)
        assert result.c_min == min(qualifying)
        assert all(result.c_min <= value for value in qualifying)


def test_criterion_8_positive_synergy_on_correct_runs(tmp_path):
    """pick_labels succeeds for x in {5,10,20}; correct runs clear x - slack; >= 0.9 qualify."""
    slack = slack_constant()
    largest_n = 16
    qualified = 0
    total = 0
    for x in (5, 10, 20):
        out = tmp_path / f"synergy_x{x}"
        rc = main([
            "synergy", "--x", str(x), "--n", str(largest_n), "--trials", "3",
            "--seed", "0", "--jobs", "2", "--out", str(out),
        ])
        assert rc == 0  # label picking found a usable pair
        report = json.loads((out / "synergy.json").read_text())
        assert report["labels"]["attempts"] >= 1
        assert report["labels"]["threshold"] == x + slack
        assert report["labels"]["halting"] != report["labels"]["nonhalting"]
        for trial in report["trials"]:
            total += 1
            if trial["fraction_correct"] == 1.0:
                assert trial["mean_synergy_correct"] is not None
                assert trial["mean_synergy_correct"] >= x - slack
                qualified += 1
    # Smaller population for contrast, so "largest tested" above is meaningful.
    out_small = tmp_path / "synergy_n8"
    rc = main([
        "synergy", "--x", "10", "--n", "8", "--trials", "3",
        "--seed", "0", "--jobs", "2", "--out", str(out_small),
    ])
    assert rc == 0
    small = json.loads((out_small / "synergy.json").read_text())
    for trial in small["trials"]:
        if trial["fraction_correct"] == 1.0:
            assert trial["mean_synergy_correct"] >= 10 - slack
    assert total == 9
    assert qualified / total >= 0.9


def test_criterion_9_byte_identical_reruns_and_parallelism(bb_table_csv, tmp_path):
    """Same config+seed gives byte-identical files, across reruns and --jobs 1 vs 8."""

    def run_to(out, argv):
        rc = main(argv + ["--out", str(out)])
        assert rc == 0
        return digest_tree(out)

    simple = [
        ("bb", ["bb", "--max-bits", "12", "--budget", "1000", "--seed", "1"]),
        ("tvg", ["tvg", "--family", "replicated-hypercube", "--n", "8", "--seed", "2"]),
        ("run", ["run", "--family", "star-broadcast", "--n", "8", "--w", "010001",
                 "--seed", "3"]),
        ("central", ["central", "--family", "star-broadcast", "--n", "8",
                     "--w", "010001", "--seed", "6"]),
    ]
    for name, argv in simple:
        first = run_to(tmp_path / f"{name}_a", argv)
        second = run_to(tmp_path / f"{name}_b", argv)
        assert first == second, name

    sweep = ["halting-sweep", "--bb-table", bb_table_csv, "--n-list", "4,8",
             "--trials", "3", "--w-max-bits", "6", "--budget", "500", "--seed", "4"]
    sweep_serial = run_to(tmp_path / "sweep_j1", sweep + ["--jobs", "1"])
    sweep_parallel = run_to(tmp_path / "sweep_j8", sweep + ["--jobs", "8"])
    sweep_again = run_to(tmp_path / "sweep_j8b", sweep + ["--jobs", "8"])
    assert sweep_serial == sweep_parallel == sweep_again

    synergy = ["synergy", "--x", "5", "--trials", "2", "--n", "4",
               "--budget-bits", "14", "--budget-steps", "2000", "--seed", "5"]
    synergy_serial = run_to(tmp_path / "synergy_j1", synergy + ["--jobs", "1"])
    synergy_parallel = run_to(tmp_path / "synergy_j2", synergy + ["--jobs", "2"])
    synergy_again = run_to(tmp_path / "synergy_j2b", synergy + ["--jobs", "2"])
    assert synergy_serial == synergy_parallel == synergy_again


def test_criterion_10_temporal_metrics_match_brute_force():
    """500 random small graphs: arrivals, diffusion time and diameter match brute force."""
    rng = random.Random(20260817)
    for _ in range(500):
        graph = random_tvg(rng)
        per_source = []
        for source in range(graph.num_vertices):
            expected = brute_force_arrivals(graph, source)
            assert earliest_arrivals(graph, source) == expected
            worst = max(expected)
            assert diffusion_time(graph, source) == worst
            per_source.append(worst)
        assert diffusion_diameter(graph) == max(per_source)
