"""The bbnet benchmark: four CLI workloads, end-to-end metrics, output checks, per-layer tracing.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {bb-table,sweep,central,synergy} \\
        --seed N --seconds S --trace {0,1}

Each workload runs the ``bbnet`` CLI (``python3 -m bbnet`` with ``src`` on
PYTHONPATH) in fresh processes.  After its set-up, a run repeats a round of
measured commands (one, or four for ``sweep``) until ``--seconds`` have passed,
and at least twice, so that two runs of each command can be compared byte for
byte.  The artifacts of the first round are checked against ``checks``.

``--trace 0`` reports the end-to-end metrics, medians over the rounds:
``wall_s`` and ``cpu_s`` (user + system time of the commands and their worker
processes) summed over a round's commands, ``peak_rss_mb`` (largest resident set
of any one process of a command; the median over the run's commands) and
``setup_s``.  ``--trace 1`` runs at least one untraced round and then one more
round under ``tracer.py``, and reports the per-layer metrics of that traced
round; its overhead is its wall time minus the untraced median.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (CLI commands run and those that exited non-zero)
and ``metrics``.  Everything is written under ``perfbench_out/<workload>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"

SWEEP_SIZES = (16, 32, 64, 128, 256, 512)
# Four one-trial sweeps per round, each with its own seed: four trials per size in all.  A
# sweep's peak memory is set by the rare sampled program with the largest oracle seen-set,
# so the median over four sweeps is steadier than the peak of one four-trial sweep.
SWEEP_COMMANDS = 4
SWEEP_W_BITS = 8
SWEEP_BUDGET = 10_000
SWEEP_TABLE_BITS = 20  # certifies every w of at most 6 bits (witness = w + 14 bits)
CENTRAL_N = 128
CENTRAL_W = "010001"
SYNERGY_X = 10
SYNERGY_TRIALS = 2
BUDGET = 10_000
# A cold import takes 0.1 to 0.2 s, so one alone is mostly scheduler jitter; set-up reports
# the median of this many, each in a fresh interpreter.
IMPORTS = 7

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Timing:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    out: Path | None = None
    spans: Path | None = None


class Session:
    """Runs commands for one benchmark run and counts the CLI operations."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("BBNET_SEED", None)

    def spawn(self, argv: list[str], log_name: str) -> Timing:
        """Run ``argv`` to completion; time it and read its (and its children's) usage."""
        with open(self.workdir / f"{log_name}.log", "w") as log:
            start = time.perf_counter()
            process = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log, stderr=log)
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        return Timing(
            ok=process.returncode == 0,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        )

    def cli(self, args: list[str], name: str, traced: bool = False) -> Timing:
        """One operation: ``bbnet ARGS --out <workdir>/NAME``, optionally under the tracer."""
        out = self.workdir / name
        spans = self.workdir / f"spans-{name}.jsonl" if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans)]
        else:
            argv = [sys.executable, "-m", "bbnet"]
        timing = self.spawn(argv + args + ["--out", str(out)], name)
        timing.out, timing.spans = out, spans
        self.attempted += 1
        self.failed += not timing.ok
        return timing

    def cold_import(self) -> float:
        """Median wall time of ``import bbnet.cli``, each in a fresh interpreter."""
        walls = []
        for k in range(IMPORTS):
            timing = self.spawn([sys.executable, "-c", "import bbnet.cli"], f"setup-import-{k}")
            if not timing.ok:
                raise SystemExit(f"error: `import bbnet.cli` failed; see setup-import-{k}.log")
            walls.append(timing.wall_s)
        return statistics.median(walls)


@dataclass(frozen=True)
class Workload:
    args: Callable[[int, Path], list[str]]  # one measured command for (bbnet seed, set-up directory)
    check: Callable[[Session, Path, int, Path], list[str]]  # problems in one command's artifacts
    commands: int = 1  # commands per round, each with its own bbnet seed
    table: tuple[str, ...] | None = None  # set-up command building a bb table, else a cold import
    jobs: int | None = None  # worker processes of untraced runs; traced runs use 1

    def seeds(self, seed: int) -> list[int]:
        """bbnet seeds of one round's commands; runs with different seeds share none."""
        return [seed * self.commands + k for k in range(self.commands)]


def _check_central(session: Session, out: Path, seed: int, _setup: Path) -> list[str]:
    # `bbnet run` samples the same population as `central` (same seed, family and n),
    # which lets the check replay the central node's own program.
    population = session.cli(
        ["run", "--family", "replicated-hypercube", "--n", str(CENTRAL_N), "--w", CENTRAL_W,
         "--budget", str(BUDGET), "--seed", str(seed)],
        "population",
    )
    nodes = population.out / "nodes.csv" if population.ok else None
    return checks.check_central(out / "central.json", nodes, CENTRAL_N, CENTRAL_W, BUDGET)


WORKLOADS = {
    "bb-table": Workload(
        args=lambda seed, _: ["bb", "--seed", str(seed)],
        check=lambda _s, out, _seed, _setup: checks.check_bb_table(out / "bb.csv", 16, 100_000),
    ),
    "sweep": Workload(
        args=lambda seed, setup: [
            "halting-sweep", "--bb-table", str(setup / "bb.csv"),
            "--n-list", ",".join(map(str, SWEEP_SIZES)), "--trials", "1",
            "--w-max-bits", str(SWEEP_W_BITS), "--family", "star-broadcast",
            "--budget", str(SWEEP_BUDGET), "--seed", str(seed),
        ],
        check=lambda _s, out, _seed, setup: checks.check_sweep(
            out / "sweep.csv", setup / "bb.csv", SWEEP_SIZES, 1, SWEEP_W_BITS, SWEEP_BUDGET
        ),
        commands=SWEEP_COMMANDS,
        table=("bb", "--max-bits", str(SWEEP_TABLE_BITS), "--budget", str(SWEEP_BUDGET + 2)),
        jobs=2,
    ),
    "central": Workload(
        args=lambda seed, _: [
            "central", "--family", "replicated-hypercube", "--n", str(CENTRAL_N),
            "--w", CENTRAL_W, "--budget", str(BUDGET), "--seed", str(seed),
        ],
        check=_check_central,
    ),
    "synergy": Workload(
        args=lambda seed, _: [
            "synergy", "--x", str(SYNERGY_X), "--n", "32", "--trials", str(SYNERGY_TRIALS),
            "--jobs", "1", "--seed", str(seed),
        ],
        check=lambda _s, out, _seed, _setup: checks.check_synergy(
            out / "synergy.json", out / "complexity_cache.csv", SYNERGY_X, SYNERGY_TRIALS
        ),
    ),
}


def digest_dir(path: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(path))
    }


def run_workload(session: Session, workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    setup_dir = session.workdir / "setup"
    if workload.table is not None:
        setup = session.cli([*workload.table, "--seed", str(seed)], "setup", traced=trace)
        setup_s = setup.wall_s
    else:
        setup = None
        setup_s = None if trace else session.cold_import()

    jobs = [] if workload.jobs is None else ["--jobs", "1" if trace else str(workload.jobs)]
    commands = [workload.args(s, setup_dir) + jobs for s in workload.seeds(seed)]
    rounds: list[list[Timing]] = []
    start = time.perf_counter()
    while len(rounds) < (1 if trace else 2) or time.perf_counter() - start < seconds:
        r = len(rounds)
        rounds.append([session.cli(c, f"round-{r}-{k}") for k, c in enumerate(commands)])
    traced = [session.cli(c, f"traced-{k}", traced=True) for k, c in enumerate(commands)] if trace else []

    problems = []
    for k, command_seed in enumerate(workload.seeds(seed)):
        outputs = [t for t in [r[k] for r in rounds] + traced[k : k + 1] if t.ok]
        if not outputs:
            continue
        problems += workload.check(session, outputs[0].out, command_seed, setup_dir)
        digests = [digest_dir(t.out) for t in outputs]
        same = all(d == digests[0] for d in digests)
        if not same:
            problems.append(f"command {k}: artifacts differ between runs of the same command")
        for name, digest in digests[0].items():
            print(f"command {k} artifact {name} sha256 {digest} (identical in {len(digests)} runs: {same})")
    for problem in problems:
        print(f"check failed: {problem}")

    complete = [r for r in rounds if all(t.ok for t in r)] or rounds
    round_walls = [sum(t.wall_s for t in r) for r in complete]
    if trace:
        spans = [t.spans for t in traced if t.ok]
        metrics = tracer.layer_metrics(tracer.read_spans(spans))
        if setup is not None and setup.ok:
            # The sweep's table is built by its set-up command; only that layer is read from it.
            metrics["machine.busy_beaver_table.s"] = tracer.layer_metrics(tracer.read_spans([setup.spans]))[
                "machine.busy_beaver_table.s"
            ]
        metrics["trace.overhead_s"] = sum(t.wall_s for t in traced) - statistics.median(round_walls)
        if workload.jobs is not None:
            print("trace: this workload ran with --jobs 1 in every round (workers are not traced)")
        units = tracer.PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(round_walls),
            "cpu_s": statistics.median(sum(t.cpu_s for t in r) for r in complete),
            # per command: the largest process; over the run's commands: the median
            "peak_rss_mb": statistics.median(t.peak_rss_mb for r in complete for t in r),
            "setup_s": setup_s,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    print(f"rounds: {len(rounds)}; walls: {', '.join(f'{w:.3f}' for w in round_walls)}")
    return {
        "correct": not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bbnet" / "cli.py").is_file():
        print(f"error: no bbnet sources at {ROOT / 'src' / 'bbnet'}", file=sys.stderr)
        return 2
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(workdir)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    result = run_workload(session, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
