"""Command-line behaviour: precedence, exit codes, formats, determinism, resume."""

import csv
import hashlib
import json
import os

import pytest

from bbnet.cli import main
from bbnet.config import fingerprint, parse_config_file, resolve_seed
from bbnet.machine import BusyBeaverTable, busy_beaver_table
from bbnet.tvg import read_tvg


def digest_dir(path):
    """Name -> sha256 of every file in a directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def small_bb_csv(tmp_path_factory):
    table = busy_beaver_table(16, budget=1000)
    path = tmp_path_factory.mktemp("bb") / "bb.csv"
    table.write_csv(path, seed=0, fingerprint="unit")
    return str(path)


# -------------------------------------------------------------- config layer


def test_parse_config_file(tmp_path):
    path = tmp_path / "conf"
    path.write_text("# comment\nseed = 9\nmax-bits = 12  # trailing\n\nfamily= star-broadcast\n")
    values = parse_config_file(path)
    assert values == {"seed": "9", "max_bits": "12", "family": "star-broadcast"}


def test_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("BBNET_SEED", "77")
    assert resolve_seed(None, {}) == 77
    assert resolve_seed(None, {"seed": "5"}) == 5
    assert resolve_seed(3, {"seed": "5"}) == 3
    monkeypatch.delenv("BBNET_SEED")
    assert resolve_seed(None, {}) == 0


def test_fingerprint_is_canonical():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})
    assert len(fingerprint({})) == 16


# ---------------------------------------------------------------- exit codes


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert main(["bogus-command"]) == 1


def test_invalid_program_bits(tmp_path, capsys):
    assert main(["run", "--w", "0", "--n", "2", "--family", "star-broadcast",
                 "--out", str(tmp_path)]) == 1
    assert main(["run", "--w", "abc", "--out", str(tmp_path)]) == 1


def test_invalid_selector_and_labels(tmp_path, capsys):
    base = ["run", "--n", "2", "--family", "star-broadcast", "--out", str(tmp_path)]
    assert main(base + ["--selector", "garbage"]) == 1
    assert main(base + ["--halting-label", "0", "--nonhalting-label", "0"]) == 1


def test_bad_numeric_arguments(tmp_path, capsys):
    assert main(["bb", "--max-bits", "0", "--out", str(tmp_path)]) == 1
    assert main(["halting-sweep", "--bb-table", "missing.csv",
                 "--out", str(tmp_path)]) == 1


def test_sweep_rejects_budget_beyond_table(small_bb_csv, tmp_path, capsys):
    # Certification needs the table to cover the sweep budget plus two steps.
    code = main(["halting-sweep", "--bb-table", small_bb_csv, "--budget", "999",
                 "--n-list", "2", "--trials", "1", "--out", str(tmp_path)])
    assert code == 1


def test_sweep_rejects_a_bb_table_without_its_budget_line(tmp_path, capsys):
    # A 50-step table must not certify a 100-step sweep just because its
    # budget line is missing.
    table = busy_beaver_table(14, budget=50)
    path = tmp_path / "bare.csv"
    with open(path, "w") as fh:
        fh.write("n,bb_value,witness_bits,unknown_count\n")
        for n in range(1, 15):
            fh.write(f"{n},{table.value(n)},{table.witness(n)},{table.unknown_count(n)}\n")
    code = main(["halting-sweep", "--bb-table", str(path), "--budget", "100",
                 "--n-list", "2", "--trials", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read bb table {path}")


def test_sweep_rejects_a_bb_table_with_a_short_row(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("# seed=0 fingerprint=x budget=1000\n"
                    "n,bb_value,witness_bits,unknown_count\n1,0,1,0\n2,0\n")
    code = main(["halting-sweep", "--bb-table", str(path), "--budget", "100",
                 "--n-list", "2", "--trials", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read bb table {path}")


def test_missing_tvg_file_is_an_error(tmp_path, capsys):
    assert main(["run", "--tvg-file", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_tvg_file_with_a_non_integer_field_is_an_error(tmp_path, capsys):
    path = tmp_path / "tvg.txt"
    path.write_text("4 2\n0 0 x 1\n")
    assert main(["run", "--tvg-file", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_out_that_cannot_be_created_is_an_error(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    assert main(["bb", "--max-bits", "4", "--budget", "10",
                 "--out", str(blocker / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["bb", "--jobs", "2"],
    ["tvg", "--jobs", "2"],
    ["tvg", "--budget", "5"],
    ["run", "--jobs", "2"],
    ["central", "--jobs", "2"],
], ids=["bb-jobs", "tvg-jobs", "tvg-budget", "run-jobs", "central-jobs"])
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_unresolved_w_gives_no_central_node(tmp_path, capsys):
    # A growing two-instruction loop is never resolved at a small budget.
    code = main(["central", "--w", "011001101", "--n", "4",
                 "--family", "star-broadcast", "--budget", "100",
                 "--out", str(tmp_path)])
    assert code == 2


def test_impossible_labels_exit_two(tmp_path, capsys):
    code = main(["synergy", "--x", "10", "--label-bits", "1",
                 "--budget-bits", "12", "--budget-steps", "500",
                 "--n", "2", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2


# ------------------------------------------------------------------- outputs


def test_bb_outputs_parse_back(tmp_path, capsys):
    out = tmp_path / "bbout"
    assert main(["bb", "--max-bits", "10", "--budget", "200", "--seed", "4",
                 "--out", str(out)]) == 0
    table = BusyBeaverTable.read_csv(out / "bb.csv")
    assert table.max_bits == 10
    assert table.budget == 200
    assert table.value(10) == 2
    first = (out / "bb.csv").read_text().splitlines()[0]
    assert first.startswith("# seed=4 fingerprint=")


def test_tvg_outputs_parse_back(tmp_path, capsys):
    out = tmp_path / "tvgout"
    assert main(["tvg", "--family", "replicated-hypercube", "--n", "8",
                 "--out", str(out)]) == 0
    graph = read_tvg(out / "tvg.txt")
    assert graph.num_vertices == 8
    report = json.loads((out / "tvg_report.json").read_text())
    assert report["diffusion_diameter"] == 3
    assert len(report["centrality"]) == 8


def test_run_outputs(tmp_path, capsys):
    out = tmp_path / "runout"
    assert main(["run", "--family", "star-broadcast", "--n", "4", "--w", "010001",
                 "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["w"] == "010001"
    assert payload["num_vertices"] == 4
    assert payload["reference_label"] == "1"
    assert payload["w_resolved"] is True
    with open(out / "nodes.csv") as fh:
        assert fh.readline().startswith("# seed=1 fingerprint=")
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["node_id"] for r in rows} == {"0", "1", "2", "3"}


def test_run_from_tvg_file(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    assert main(["tvg", "--family", "star-broadcast", "--n", "4",
                 "--out", str(graph_dir)]) == 0
    out = tmp_path / "runfile"
    assert main(["run", "--tvg-file", str(graph_dir / "tvg.txt"), "--w", "1",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["graph"] == "tvg.txt"
    assert payload["num_vertices"] == 4


def test_run_selector_and_cycle_overrides(tmp_path, capsys):
    out = tmp_path / "ident"
    assert main(["run", "--family", "star-broadcast", "--n", "4", "--w", "1",
                 "--selector", "identity", "--cycles", "9",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["n_cycles"] == 9
    assert payload["selector"] == "identity"


def test_sweep_outputs(small_bb_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["halting-sweep", "--bb-table", small_bb_csv, "--budget", "500",
                 "--n-list", "2,4", "--trials", "2", "--w-max-bits", "6",
                 "--seed", "9", "--out", str(out)])
    assert code == 0
    with open(out / "sweep.csv") as fh:
        assert fh.readline().startswith("# seed=9 ")
        rows = list(csv.DictReader(fh))
    # 2 sizes x 2 trials x 3 programs of <= 6 bits.
    assert len(rows) == 12
    assert [r["w"] for r in rows[:3]] == ["1", "010001", "010111"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary["per_n"]) == {"2", "4"}
    assert summary["certified_consistent"] is True
    for entry in summary["trend"]:
        assert {"non_decreasing_within_ci", "non_decreasing_all_correct_within_ci"} <= set(entry)


def test_synergy_outputs(tmp_path, capsys):
    out = tmp_path / "syn"
    code = main(["synergy", "--x", "0", "--trials", "1", "--n", "4",
                 "--family", "star-broadcast", "--budget-bits", "14",
                 "--budget-steps", "2000", "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "synergy.json").read_text())
    assert payload["x"] == 0
    assert payload["labels"]["halting"] != payload["labels"]["nonhalting"]
    assert len(payload["trials"]) == 1
    with open(out / "complexity_cache.csv") as fh:
        fh.readline()
        entries = list(csv.DictReader(fh))
    targets = [(r["target"], r["given"]) for r in entries]
    assert targets == sorted(targets)


def test_central_outputs(tmp_path, capsys):
    out = tmp_path / "central"
    code = main(["central", "--family", "star-broadcast", "--n", "6", "--w", "1",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "central.json").read_text())
    assert payload["c_min"] == payload["reverse_reach"] + 2
    assert 0 <= payload["vertex"] < 6


# --------------------------------------------------------------- determinism


def test_bb_runs_are_byte_identical(tmp_path, capsys):
    args = ["bb", "--max-bits", "9", "--budget", "150", "--seed", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert digest_dir(a) == digest_dir(b)


def test_sweep_jobs_do_not_change_bytes(small_bb_csv, tmp_path, capsys):
    base = ["halting-sweep", "--bb-table", small_bb_csv, "--budget", "400",
            "--n-list", "2,4", "--trials", "2", "--w-max-bits", "6", "--seed", "3"]
    one, many, again = tmp_path / "j1", tmp_path / "j2", tmp_path / "j1b"
    assert main(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(many)]) == 0
    assert main(base + ["--jobs", "1", "--out", str(again)]) == 0
    assert digest_dir(one) == digest_dir(many) == digest_dir(again)


def test_synergy_jobs_do_not_change_bytes(tmp_path, capsys):
    base = ["synergy", "--x", "0", "--trials", "2", "--n", "4",
            "--family", "star-broadcast", "--budget-bits", "14",
            "--budget-steps", "2000", "--seed", "1"]
    one, many = tmp_path / "s1", tmp_path / "s2"
    assert main(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(many)]) == 0
    assert digest_dir(one) == digest_dir(many)


# Each command's fingerprint at the criterion-9 arguments.  Any change to these values
# changes the provenance line of every artifact the command writes.
PINNED_FINGERPRINTS = {
    "bb": (["--max-bits", "12", "--budget", "1000", "--seed", "1"], "8e8c1b330f811942"),
    "tvg": (["--family", "replicated-hypercube", "--n", "8", "--seed", "2"], "7173b24250b3d8fe"),
    "run": (["--family", "star-broadcast", "--n", "8", "--w", "010001", "--seed", "3"],
            "3fa90ab1dc205d3d"),
    "central": (["--family", "star-broadcast", "--n", "8", "--w", "010001", "--seed", "6"],
                "124da8ad4d714f1a"),
    "synergy": (["--x", "5", "--trials", "2", "--n", "4", "--budget-bits", "14",
                 "--budget-steps", "2000", "--seed", "5"], "628da32dbb367787"),
    "halting-sweep": (["--n-list", "4,8", "--trials", "3", "--w-max-bits", "6",
                       "--budget", "500", "--seed", "4"], "7d9a03df96445d34"),
}


def written_fingerprints(path):
    """The fingerprints in the JSON fields and CSV comment lines of a directory's files."""
    found = set()
    for name in os.listdir(path):
        text = (path / name).read_text()
        if name.endswith(".json"):
            found.add(json.loads(text)["fingerprint"])
        elif text.startswith("# seed="):
            fields = dict(part.split("=", 1) for part in text.splitlines()[0][2:].split())
            found.add(fields["fingerprint"])
    return found


@pytest.mark.parametrize("command", sorted(PINNED_FINGERPRINTS))
def test_fingerprints_match_pinned_values(command, tmp_path, capsys):
    flags, expected = PINNED_FINGERPRINTS[command]
    if command == "halting-sweep":
        table = tmp_path / "bb"
        assert main(["bb", *PINNED_FINGERPRINTS["bb"][0], "--out", str(table)]) == 0
        flags = ["--bb-table", str(table / "bb.csv"), *flags]
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 0
    assert written_fingerprints(out) == {expected}


# sha256 of every file of two graph commands, pinned to the values of the per-source
# journey search that the one-pass arrival table replaced.
PINNED_GRAPH_ARTIFACTS = {
    "tvg-replicated-hypercube": (
        ["tvg", "--family", "replicated-hypercube", "--n", "64", "--seed", "1"],
        {"tvg.txt": "b27e0b5aa84852c5a9f9fc26abec98b320c4b373b0c0923f2ea13495f3ad6066",
         "tvg_report.json": "bdc5eb81c0b2dfab324442cf94d6a6e357a20ace27c29dceda315c47250d6e64"},
    ),
    "tvg-replicated-random-regular": (
        ["tvg", "--family", "replicated-random-regular", "--n", "64", "--seed", "1"],
        {"tvg.txt": "3565619367d802ec3b0426e597b333cebbad54fd0ba43d7cea0e65955ed20347",
         "tvg_report.json": "142eb2d3bc5dbdec9e0a698b24c804567f8d57f8238cb06c3ad71e30a23e3340"},
    ),
    "tvg-star-broadcast": (
        ["tvg", "--family", "star-broadcast", "--n", "64", "--seed", "1"],
        {"tvg.txt": "b6d8e032af06c028523e0065ae172734e8e3831afa6deb56843ce62ddb48af17",
         "tvg_report.json": "26e2d03b773ef743ef50d6bc437bda6f6dc3ef0c41ad6ef51531fd5ffdebfaa2"},
    ),
    "central": (
        ["central", "--family", "replicated-hypercube", "--n", "128", "--w", "010001",
         "--seed", "1"],
        {"central.json": "ac9150d5972a3a9ec39f8c53dba7f4e6ca530b7084b1352eae93d1dc1192e1f1"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_GRAPH_ARTIFACTS))
def test_graph_artifacts_match_pinned_digests(name, tmp_path, capsys):
    argv, expected = PINNED_GRAPH_ARTIFACTS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert digest_dir(out) == expected


def test_seed_changes_fingerprint(tmp_path, capsys):
    a, b = tmp_path / "fa", tmp_path / "fb"
    assert main(["bb", "--max-bits", "8", "--budget", "100", "--seed", "1",
                 "--out", str(a)]) == 0
    assert main(["bb", "--max-bits", "8", "--budget", "100", "--seed", "2",
                 "--out", str(b)]) == 0
    first_a = (a / "bb.csv").read_text().splitlines()[0]
    first_b = (b / "bb.csv").read_text().splitlines()[0]
    assert first_a != first_b


# ------------------------------------------------------- config file plumbing


_PROTOCOL_VALUES = {"n": "6", "warmup": "1", "max_bits": "20", "budget": "500", "seed": "6"}


@pytest.mark.parametrize("command, values, extra", [
    ("bb", {"max-bits": "8", "budget": "120", "seed": "6"}, []),
    ("run", _PROTOCOL_VALUES, ["--family", "star-broadcast", "--w", "010001"]),
    ("central", _PROTOCOL_VALUES, ["--family", "star-broadcast", "--w", "010001"]),
    ("synergy", {**_PROTOCOL_VALUES, "n": "4"},
     ["--x", "0", "--trials", "1", "--budget-bits", "14", "--budget-steps", "2000"]),
], ids=["bb", "run", "central", "synergy"])
def test_config_file_supplies_defaults(command, values, extra, tmp_path, capsys):
    conf = tmp_path / "conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    flags = [item for key, value in values.items()
             for item in ("--" + key.replace("_", "-"), value)]
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert main([command, *extra, "--config", str(conf), "--out", str(from_file)]) == 0
    assert main([command, *extra, *flags, "--out", str(from_flags)]) == 0
    assert digest_dir(from_file) == digest_dir(from_flags)
    if command == "bb":
        table = BusyBeaverTable.read_csv(from_file / "bb.csv")
        assert table.max_bits == 8
        assert table.budget == 120
        assert (from_file / "bb.csv").read_text().startswith("# seed=6 ")


def test_cli_flags_override_config_file(tmp_path, capsys):
    conf = tmp_path / "conf"
    conf.write_text("max-bits = 8\nseed = 6\n")
    out = tmp_path / "cfgover"
    assert main(["bb", "--config", str(conf), "--max-bits", "9", "--budget", "100",
                 "--seed", "7", "--out", str(out)]) == 0
    table = BusyBeaverTable.read_csv(out / "bb.csv")
    assert table.max_bits == 9
    assert (out / "bb.csv").read_text().startswith("# seed=7 ")


def test_env_seed_is_last_resort(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BBNET_SEED", "31")
    out = tmp_path / "env"
    assert main(["bb", "--max-bits", "8", "--budget", "100", "--out", str(out)]) == 0
    assert (out / "bb.csv").read_text().startswith("# seed=31 ")


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_text("just some words\n")
    assert main(["bb", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert main(["bb", "--config", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "y")]) == 1


# -------------------------------------------------------------------- resume


def test_sweep_resume_reuses_complete_tasks(small_bb_csv, tmp_path, capsys):
    base = ["halting-sweep", "--bb-table", small_bb_csv, "--budget", "300",
            "--n-list", "2,4", "--trials", "2", "--w-max-bits", "6", "--seed", "8"]
    full, partial = tmp_path / "full", tmp_path / "partial"
    assert main(base + ["--out", str(full)]) == 0

    # Simulate an interrupted run: keep the header and the first task's rows.
    assert main(base + ["--out", str(partial)]) == 0
    sweep_path = partial / "sweep.csv"
    lines = sweep_path.read_text().splitlines(keepends=True)
    sweep_path.write_text("".join(lines[:2 + 3]))  # comment + header + 3 rows
    (partial / "sweep_summary.json").unlink()

    assert main(base + ["--resume", "--out", str(partial)]) == 0
    assert digest_dir(full) == digest_dir(partial)


def test_sweep_resume_discards_mismatched_rows(small_bb_csv, tmp_path, capsys):
    base = ["halting-sweep", "--bb-table", small_bb_csv, "--budget", "300",
            "--n-list", "2", "--trials", "1", "--seed", "8"]
    out = tmp_path / "mismatch"
    assert main(base + ["--w-max-bits", "6", "--out", str(out)]) == 0
    with_six = digest_dir(out)

    # Resuming with a different w sweep must ignore the stale rows entirely.
    assert main(base + ["--w-max-bits", "1", "--resume", "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert [r["w"] for r in rows] == ["1"]
    # And a rerun with the original sweep reproduces the original bytes.
    assert main(base + ["--w-max-bits", "6", "--out", str(out)]) == 0
    assert digest_dir(out) == with_six


def test_sweep_resume_discards_rows_of_another_seed(small_bb_csv, tmp_path, capsys):
    base = ["halting-sweep", "--bb-table", small_bb_csv, "--budget", "300",
            "--n-list", "8,16", "--trials", "3"]
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    assert main(base + ["--seed", "2", "--out", str(fresh)]) == 0
    assert main(base + ["--seed", "1", "--out", str(resumed)]) == 0
    # Every seed-1 task is complete, but none of its rows belongs to a seed-2 sweep.
    assert main(base + ["--seed", "2", "--resume", "--out", str(resumed)]) == 0
    assert digest_dir(resumed) == digest_dir(fresh)


def test_sweep_resume_rejects_a_malformed_row(small_bb_csv, tmp_path, capsys):
    base = ["halting-sweep", "--bb-table", small_bb_csv, "--budget", "300",
            "--n-list", "2,4", "--trials", "1", "--seed", "8", "--out", str(tmp_path)]
    assert main(base) == 0
    sweep_path = tmp_path / "sweep.csv"
    lines = sweep_path.read_text().splitlines(keepends=True)
    lines[2] = "x" + lines[2][lines[2].index(","):]  # the first row's n field
    sweep_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(base + ["--resume"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_csv_keeps_completed_rows_through_a_crash(small_bb_csv, tmp_path,
                                                        monkeypatch, capsys):
    base = ["halting-sweep", "--bb-table", small_bb_csv, "--budget", "300",
            "--n-list", "2,4", "--trials", "1", "--w-max-bits", "6", "--seed", "8"]
    full = tmp_path / "full"
    assert main(base + ["--out", str(full)]) == 0
    assert sorted(os.listdir(full)) == ["sweep.csv", "sweep_summary.json"]
    first_task = "".join((full / "sweep.csv").read_text().splitlines(keepends=True)[:2 + 3])

    class CrashingWriter(csv.DictWriter):
        made = 0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            CrashingWriter.made += 1

        def writerow(self, row):
            if CrashingWriter.made == 2:  # sweep.csv is written once per completed task
                raise OSError("simulated crash in the second write of sweep.csv")
            return super().writerow(row)

    monkeypatch.setattr(csv, "DictWriter", CrashingWriter)
    crashed = tmp_path / "crashed"
    with pytest.raises(OSError):
        main(base + ["--out", str(crashed)])
    assert (crashed / "sweep.csv").read_text() == first_task

    monkeypatch.undo()
    assert main(base + ["--resume", "--out", str(crashed)]) == 0
    assert digest_dir(crashed) == digest_dir(full)
