"""Each workload's output check accepts real artifacts and rejects corrupted ones."""

import csv
import json

import pytest

import checks
import reference as ref
from bbnet.cli import main


def run_cli(*args):
    assert main([str(a) for a in args]) == 0


def edit_csv(path, edit):
    """Rewrite a bbnet CSV artifact in place after ``edit(rows)``, keeping its comment line."""
    with open(path, newline="") as fh:
        comment = fh.readline()
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        fh.write(comment)
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# ------------------------------------------------------------------ bb-table


@pytest.fixture
def bb_csv(tmp_path):
    run_cli("bb", "--max-bits", 12, "--budget", 2000, "--out", tmp_path)
    return tmp_path / "bb.csv"


def test_bb_check_accepts_the_table(bb_csv):
    assert checks.check_bb_table(bb_csv, 12, 2000) == []


@pytest.mark.parametrize("n, column, value", [
    (12, "bb_value", "3"),  # one above the true value 2
    (8, "witness_bits", "010111"),  # replays to 0, not 1
    (6, "unknown_count", "1"),  # both 6-bit programs halt
    (10, "bb_value", "1"),  # below the value at 9 bits
])
def test_bb_check_rejects_a_corrupted_row(bb_csv, n, column, value):
    edit_csv(bb_csv, lambda rows: rows[n - 1].update({column: value}))
    assert checks.check_bb_table(bb_csv, 12, 2000)


# --------------------------------------------------------------------- sweep


@pytest.fixture
def sweep(tmp_path):
    run_cli("bb", "--max-bits", 16, "--budget", 1002, "--out", tmp_path / "bb")
    run_cli("halting-sweep", "--bb-table", tmp_path / "bb" / "bb.csv", "--n-list", "16,32",
            "--trials", 1, "--w-max-bits", 6, "--budget", 1000, "--out", tmp_path)
    return tmp_path / "sweep.csv", tmp_path / "bb" / "bb.csv"


def check_sweep(sweep):
    return checks.check_sweep(*sweep, (16, 32), 1, 6, 1000)


def test_sweep_check_accepts_the_sweep(sweep):
    assert any(row["certified"] == "1" for row in checks.read_csv(sweep[0]))
    assert check_sweep(sweep) == []


def flip_all_correct(rows):
    rows[0]["all_correct"] = str(1 - int(rows[0]["all_correct"]))


def wrong_label(rows):
    rows[3]["reference_label"] = "0"


@pytest.mark.parametrize("edit", [flip_all_correct, wrong_label, lambda rows: rows.pop()])
def test_sweep_check_rejects_a_corrupted_sweep(sweep, edit):
    edit_csv(sweep[0], edit)
    assert check_sweep(sweep)


# ------------------------------------------------------------------- central


@pytest.fixture
def central(tmp_path):
    common = ["--family", "replicated-hypercube", "--n", 16, "--w", "010001", "--seed", 3]
    run_cli("central", *common, "--out", tmp_path)
    run_cli("run", *common, "--out", tmp_path / "population")
    return tmp_path / "central.json", tmp_path / "population" / "nodes.csv"


def check_central(central):
    return checks.check_central(*central, 16, "010001", 10_000)


def test_central_check_accepts_the_result(central):
    assert check_central(central) == []


@pytest.mark.parametrize("field, delta", [("c_min", -1), ("reverse_reach", 1), ("centrality", 0.01)])
def test_central_check_rejects_a_corrupted_result(central, field, delta):
    edit_json(central[0], lambda result: result.update({field: result[field] + delta}))
    assert check_central(central)


def test_central_check_replays_the_population(central):
    edit_csv(central[1], lambda rows: rows[5].update(first_fitness=int(rows[5]["first_fitness"]) + 1))
    assert check_central(central)


# ------------------------------------------------------------------- synergy

HALTING, NONHALTING = "100110110000", "101111100100"
COPIER = ref.encode_native(ref.COPIER)


@pytest.fixture
def synergy(tmp_path):
    """A hand-made synergy.json and complexity_cache.csv in bbnet's formats."""
    report = {
        "slack": 25,
        "labels": {
            "halting": HALTING, "nonhalting": NONHALTING, "threshold": 35,
            "halting_complexity": checks.zlib_bound(HALTING),
            "nonhalting_complexity": checks.zlib_bound(NONHALTING),
        },
        "trials": [{"trial": 0, "fraction_correct": 1.0, "mean_synergy": 115.0}],
    }
    (tmp_path / "synergy.json").write_text(json.dumps(report))
    with open(tmp_path / "complexity_cache.csv", "w", newline="") as fh:
        fh.write("# seed=0 fingerprint=0\n")
        writer = csv.writer(fh)
        writer.writerow(["target", "given", "value", "method", "witness"])
        writer.writerow(["", "-", 1, "enumeration", "1"])
        writer.writerow(["0", "-", 6, "enumeration", "010001"])
        writer.writerow([HALTING, "-", checks.zlib_bound(HALTING), "compression-fallback", ""])
        writer.writerow([HALTING, HALTING, 21, "enumeration", COPIER])
    return tmp_path / "synergy.json", tmp_path / "complexity_cache.csv"


def check_synergy(synergy, x=10):
    return checks.check_synergy(*synergy, x, 1)


def test_synergy_check_accepts_consistent_artifacts(synergy):
    assert check_synergy(synergy) == []


@pytest.mark.parametrize("row, column, value", [
    (1, "witness", "010111"),  # outputs the empty string, not "0"
    (3, "witness", "1" * 21),  # not a program
    (2, "value", "999"),  # not the zlib bound
    (3, "given", NONHALTING),  # the copier outputs its given, not the target
])
def test_synergy_check_rejects_a_corrupted_cache(synergy, row, column, value):
    edit_csv(synergy[1], lambda rows: rows[row].update({column: value}))
    assert check_synergy(synergy)


def test_synergy_check_rejects_low_synergy_and_weak_labels(synergy):
    assert check_synergy(synergy, x=200)  # 136-bit labels do not clear 200 + 25
    edit_json(synergy[0], lambda report: report["trials"][0].update(mean_synergy=-16))
    assert check_synergy(synergy)
