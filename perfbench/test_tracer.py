"""Span aggregation, wrapper installation, and BENCHMARK.json's agreement with the harness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent


def test_layer_metrics_of_hand_made_spans():
    spans = [
        ["cli.main", 0, 100, -1, None],
        ["network.run_networked", 10, 60, 0, None],
        ["machine.oracle", 20, 30, 1, ["halted", 5]],
        ["machine.oracle", 30, 50, 1, ["budget-exhausted", 15]],
        ["network.bounded_halt_answer", 60, 70, 0, None],
        ["machine.run", 62, 66, 4, ["halted", 3]],
        ["network.bounded_halt_answer", 70, 72, 0, None],
        ["codec.all_programs", 80, 90, 0, 9],
        ["codec.all_programs", 82, 84, 7, 3],  # a recursive call: counted once, by its caller
        ["process.import", 0, 500, -1, None],
    ]
    metrics = tracer.layer_metrics(spans)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["machine.oracle.calls"] == 2
    assert metrics["machine.oracle.steps"] == 20
    assert metrics["machine.oracle.exhausted_step_share"] == 0.75
    assert metrics["machine.oracle.ns_per_step"] == pytest.approx(30 / 20)
    assert metrics["network.run_networked.self_s"] == 20e-9
    assert metrics["network.run_networked.oracle_s"] == 30e-9
    assert metrics["network.bounded_halt_answer.hit_share"] == 0.5
    assert metrics["machine.run.steps"] == 3
    assert metrics["measures.search.runs"] == 0
    assert metrics["codec.all_programs.s"] == 10e-9
    assert metrics["codec.all_programs.programs"] == 9
    assert metrics["cli.main.self_s"] == (100 - 50 - 10 - 2 - 10) / 1e9
    assert metrics["process.import_s"] == 500e-9


def test_wrappers_reach_calls_through_every_namespace(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_path), "central", "--family",
         "replicated-hypercube", "--n", "8", "--w", "010001", "--out", str(tmp_path / "out")],
        check=True, env=env, cwd=HERE.parent, capture_output=True, timeout=120,
    )
    spans = tracer.read_spans([spans_path])
    names = {span[0] for span in spans}

    def parent(span):
        return spans[span[3]][0] if span[3] >= 0 else None

    # cli -> network.find_central_node -> tvg (imported by name) and machine.oracle (likewise)
    assert {parent(s) for s in spans if s[0] == "network.find_central_node"} == {"cli.main"}
    assert "network.find_central_node" in {parent(s) for s in spans if s[0] == "tvg.reverse_reach_time"}
    assert {parent(s) for s in spans if s[0] == "tvg.earliest_arrivals"} == {"tvg.reverse_reach_time", "tvg.diffusion_diameter"}
    assert {"machine.oracle", "network.run_isolated", "tvg.most_central_vertices", "process.import"} <= names
    metrics = tracer.layer_metrics(spans)
    assert metrics["network.run_isolated.calls"] >= 1
    assert metrics["tvg.earliest_arrivals.calls"] > 8 * 8
    # Two commands' spans merge into one tree each: counts double, self times keep their sign.
    merged = tracer.layer_metrics(tracer.read_spans([spans_path, spans_path]))
    assert merged["tvg.earliest_arrivals.calls"] == 2 * metrics["tvg.earliest_arrivals.calls"]
    assert merged["cli.main.self_s"] == pytest.approx(2 * metrics["cli.main.self_s"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
