"""Shared fixtures: a session-wide exhaustive table and hypothesis settings."""

import time

import pytest
from hypothesis import HealthCheck, settings

from bbnet.machine import busy_beaver_table

# Interpreter runs with large step budgets have highly variable wall times, so
# per-example deadlines would be flaky; examples stay deterministic regardless.
settings.register_profile(
    "bbnet",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bbnet")


@pytest.fixture(scope="session")
def bb_table_full():
    """The 20-bit/100k-step busy-beaver table plus its build time in seconds.

    Built once and shared by the acceptance tests and tests/test_bb.py.
    """
    start = time.monotonic()
    table = busy_beaver_table(20, 100_000)
    elapsed = time.monotonic() - start
    return table, elapsed


@pytest.fixture(scope="session")
def bb_table_csv(bb_table_full, tmp_path_factory):
    """The same table written to disk, for commands that load it from a file."""
    table, _ = bb_table_full
    path = tmp_path_factory.mktemp("bbtable") / "bb.csv"
    table.write_csv(path, seed=0, fingerprint="fixture")
    return str(path)
