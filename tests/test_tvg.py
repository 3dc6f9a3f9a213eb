"""Temporal graphs: arrival metrics vs brute force, families, file round trips."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbnet.tvg import (
    FAMILIES,
    INFINITE,
    InvalidArc,
    Tvg,
    diffusion_diameter,
    diffusion_time,
    earliest_arrivals,
    most_central_vertices,
    reachability_centrality,
    read_tvg,
    reverse_reach_time,
    small_diameter_tvg,
    write_tvg,
)

from random_graphs import random_tvg


def brute_force_arrivals(tvg, source):
    """Independent reachability: grow the reached set one interval at a time.

    Each interval's additions are computed against a frozen snapshot, since an
    arc only carries what its tail held at the interval's opening instant.
    """
    arrivals = {source: 0}
    for interval in range(tvg.num_instants - 1):
        snapshot = set(arrivals)
        for u, i, v in tvg.arcs:
            if i == interval and u in snapshot and v not in arrivals:
                arrivals[v] = interval + 1
    return [arrivals.get(v, INFINITE) for v in range(tvg.num_vertices)]


PATH = Tvg(num_vertices=3, num_instants=3, arcs=frozenset({(0, 0, 1), (1, 1, 2)}))


# -------------------------------------------------------------------- basics


def test_earliest_arrivals_on_a_temporal_path():
    assert earliest_arrivals(PATH, 0) == [0, 1, 2]
    assert earliest_arrivals(PATH, 1) == [INFINITE, 0, 2]
    assert earliest_arrivals(PATH, 2) == [INFINITE, INFINITE, 0]


def test_information_persists_between_instants():
    # The only link from 0 exists in the second interval; vertex 0's knowledge
    # must survive the idle first interval.
    tvg = Tvg(num_vertices=2, num_instants=3, arcs=frozenset({(0, 1, 1)}))
    assert earliest_arrivals(tvg, 0) == [0, 2]


def test_arcs_are_directional_and_timed():
    tvg = Tvg(num_vertices=2, num_instants=3, arcs=frozenset({(0, 0, 1)}))
    assert earliest_arrivals(tvg, 1) == [INFINITE, 0]


def test_diffusion_time_and_diameter():
    assert diffusion_time(PATH, 0) == 2
    assert diffusion_time(PATH, 1) == INFINITE
    assert diffusion_diameter(PATH) == INFINITE
    # A single vertex needs zero intervals regardless.
    lonely = Tvg(num_vertices=1, num_instants=1, arcs=frozenset())
    assert diffusion_time(lonely, 0) == 0
    assert diffusion_diameter(lonely) == 0


def test_reverse_reach_and_centrality():
    assert reverse_reach_time(PATH, 2) == 2
    assert reverse_reach_time(PATH, 0) == INFINITE
    assert reachability_centrality(PATH, 2) == 0.5
    assert reachability_centrality(PATH, 0) == 0.0


def test_most_central_vertices_orders_by_speed_then_index():
    # A two-instant star: the hub hears everyone after one interval.
    star = small_diameter_tvg("star-broadcast", 5)
    order = most_central_vertices(star)
    assert order[0] == 0
    assert reachability_centrality(star, 0) == 1.0
    # All spokes tie; ties resolve to ascending vertex index.
    assert order[1:] == [1, 2, 3, 4]


def test_invalid_arcs_are_rejected():
    with pytest.raises(InvalidArc):
        Tvg(num_vertices=2, num_instants=2, arcs=frozenset({(0, 0, 2)}))
    with pytest.raises(InvalidArc):
        Tvg(num_vertices=2, num_instants=2, arcs=frozenset({(0, 1, 1)}))
    with pytest.raises(InvalidArc):
        Tvg(num_vertices=2, num_instants=1, arcs=frozenset({(0, 0, 1)}))
    with pytest.raises(InvalidArc):
        earliest_arrivals(PATH, 99)


# ------------------------------------------------------------- brute force


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**9))
def test_arrivals_match_brute_force(seed):
    rng = random.Random(seed)
    tvg = random_tvg(rng)
    for source in range(tvg.num_vertices):
        assert earliest_arrivals(tvg, source) == brute_force_arrivals(tvg, source)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**9))
def test_diameter_bounds_every_diffusion_time(seed):
    rng = random.Random(seed)
    tvg = random_tvg(rng)
    diameter = diffusion_diameter(tvg)
    for source in range(tvg.num_vertices):
        assert diffusion_time(tvg, source) <= diameter


# ----------------------------------------------------------------- families


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_families_meet_their_diameter_bounds(family, n):
    factor = {"replicated-hypercube": 2.0, "replicated-random-regular": 3.0,
              "star-broadcast": 2.0}[family]
    tvg = small_diameter_tvg(family, n, seed=1)
    diameter = diffusion_diameter(tvg)
    assert diameter != INFINITE
    assert diameter <= factor * max(1.0, math.log2(n))
    # Replication leaves exactly enough instants for full diffusion.
    assert tvg.num_instants == diameter + 1


def test_star_broadcast_shape():
    tvg = small_diameter_tvg("star-broadcast", 6)
    assert tvg.num_instants == 3
    assert diffusion_diameter(tvg) == 2
    hub_arcs = {(u, v) for u, i, v in tvg.arcs if i == 0}
    assert (0, 1) in hub_arcs and (1, 0) in hub_arcs


def test_hypercube_diameter_is_dimension():
    tvg = small_diameter_tvg("replicated-hypercube", 8)
    assert diffusion_diameter(tvg) == 3


def test_family_generation_is_deterministic():
    a = small_diameter_tvg("replicated-random-regular", 16, seed=5)
    b = small_diameter_tvg("replicated-random-regular", 16, seed=5)
    assert a == b
    c = small_diameter_tvg("replicated-random-regular", 16, seed=6)
    assert a != c or a.arcs == c.arcs  # different seeds usually differ


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        small_diameter_tvg("nonsense", 8)
    with pytest.raises(ValueError):
        small_diameter_tvg("star-broadcast", 1)


# ------------------------------------------------------------------ file IO


def test_write_read_round_trip(tmp_path):
    tvg = small_diameter_tvg("replicated-hypercube", 8, seed=3)
    path = tmp_path / "graph.txt"
    write_tvg(tvg, path)
    assert read_tvg(path) == tvg
    first_line = path.read_text().splitlines()[0]
    assert first_line == "8 4"


def test_read_rejects_nonconsecutive_instants(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0 0 1 2\n")
    with pytest.raises(InvalidArc):
        read_tvg(path)


def test_read_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("2 2\n0 0 1\n")
    with pytest.raises(InvalidArc):
        read_tvg(path)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_graphs(seed):
    import os
    import tempfile

    rng = random.Random(seed)
    tvg = random_tvg(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        write_tvg(tvg, path)
        assert read_tvg(path) == tvg
