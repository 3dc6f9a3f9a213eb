"""Temporal graphs: arrival metrics vs brute force, families, file round trips."""

import contextlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbnet.tvg as tvg_module
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

import reference_tvg
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


# ------------------------------------------------- against the replaced code

REFERENCE_SIZES = (2, 3, 5, 8, 16, 33, 64, 128)


def typed(value):
    """The value with the type of every scalar in it, so that 2 and 2.0 differ."""
    if isinstance(value, (list, tuple)):
        return [typed(item) for item in value]
    return (type(value).__name__, value)


def public_metrics(tvg):
    """Every public metric of every vertex, through whatever ``bbnet.tvg`` holds now."""
    n = tvg.num_vertices
    metrics = {
        "earliest_arrivals": [tvg_module.earliest_arrivals(tvg, s) for s in range(n)],
        "diffusion_time": [tvg_module.diffusion_time(tvg, s) for s in range(n)],
        "diffusion_diameter": tvg_module.diffusion_diameter(tvg),
        "reverse_reach_time": [tvg_module.reverse_reach_time(tvg, v) for v in range(n)],
    }
    if n >= 2:
        metrics["reachability_centrality"] = [
            tvg_module.reachability_centrality(tvg, v) for v in range(n)
        ]
        metrics["most_central_vertices"] = tvg_module.most_central_vertices(tvg)
    return {name: typed(value) for name, value in metrics.items()}


@contextlib.contextmanager
def reference_kernels():
    """Swap the journey search and the BFS of ``reference_tvg`` into ``bbnet.tvg``.

    The reference arrivals are memoised per (graph, source), so that the n^3
    per-source calls of the derived metrics cost list copies, as they do in
    ``bbnet.tvg``.
    """
    rows = {}

    def arrivals(tvg, source):
        key = (tvg, source)
        if key not in rows:
            rows[key] = reference_tvg.earliest_arrivals(tvg, source)
        return list(rows[key])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tvg_module, "earliest_arrivals", arrivals)
        patch.setattr(tvg_module, "_static_eccentricity", reference_tvg._static_eccentricity)
        yield


@pytest.mark.parametrize("family", FAMILIES)
def test_family_metrics_match_the_reference(family):
    for n in REFERENCE_SIZES:
        for seed in range(3):
            graph = small_diameter_tvg(family, n, seed)
            with reference_kernels():
                reference_graph = small_diameter_tvg(family, n, seed)
                expected = public_metrics(reference_graph)
            assert reference_graph == graph
            assert public_metrics(graph) == expected, (family, n, seed)


def test_random_graph_metrics_match_the_reference():
    rng = random.Random(20261021)
    graphs = []
    for index in range(300):
        graph = random_tvg(rng, *((40, 8) if index % 10 == 0 else (12, 6)))
        n, instants = graph.num_vertices, graph.num_instants
        graphs.append(graph)
        # Sparser, so that some sources never reach some vertices.
        graphs.append(Tvg(n, instants, frozenset(a for a in graph.arcs if rng.random() < 0.3)))
        # Arcs only in the later intervals.
        graphs.append(Tvg(n, instants, frozenset(a for a in graph.arcs if a[1] >= (instants - 1) // 2)))
    unreachable = late_only = 0
    for graph in graphs:
        with reference_kernels():
            expected = public_metrics(graph)
        assert public_metrics(graph) == expected, graph
        unreachable += ("float", INFINITE) in expected["reverse_reach_time"]
        late_only += bool(graph.arcs) and min(i for _, i, _ in graph.arcs) >= 2
    assert unreachable > 100 and late_only > 100
    for source in (-1, graphs[0].num_vertices):
        with pytest.raises(InvalidArc):
            earliest_arrivals(graphs[0], source)


def test_static_eccentricity_matches_the_reference():
    edge_sets = []
    for n in REFERENCE_SIZES:
        edge_sets += [(n, tvg_module._hypercube_edges(n)), (n, tvg_module._star_edges(n))]
        edge_sets += [(n, tvg_module._random_regular_edges(n, seed)) for seed in range(3)]
    rng = random.Random(20261022)
    for _ in range(300):
        graph = random_tvg(rng, max_vertices=12, max_instants=3)
        edge_sets.append((graph.num_vertices, {(u, v) for u, _, v in graph.arcs}))
    finite = 0
    for n, edges in edge_sets:
        got = tvg_module._static_eccentricity(edges, n)
        expected = reference_tvg._static_eccentricity(edges, n)
        if n == 1:
            # The BFS returns the float 0.0 for a lone vertex, the rounds the int 0.
            assert got == expected == 0
        else:
            assert typed(got) == typed(expected), (n, sorted(edges))
        finite += got != INFINITE
    assert 100 < finite < len(edge_sets) - 100


def test_arrival_memo_stays_private():
    graph = small_diameter_tvg("replicated-hypercube", 16, seed=0)
    twin = Tvg(graph.num_vertices, graph.num_instants, frozenset(sorted(graph.arcs, reverse=True)))
    assert "_arrivals" not in vars(twin)
    empty_memo = (repr(twin), hash(twin), pickle.dumps(twin))

    first = earliest_arrivals(twin, 3)
    first[5] = -1
    first.append(99)
    assert "_arrivals" in vars(twin)
    assert earliest_arrivals(twin, 3) == reference_tvg.earliest_arrivals(twin, 3)
    assert (repr(twin), hash(twin), pickle.dumps(twin)) == empty_memo
    assert twin == graph and graph == twin

    # A pickle carries the fields only; the copy builds its own table.
    copy = pickle.loads(pickle.dumps(twin))
    assert copy == twin and "_arrivals" not in vars(copy)
    assert public_metrics(copy) == public_metrics(twin) == public_metrics(graph)

    # A graph trimmed the way find_central_node trims it gets its own table.
    reach = 2
    trimmed = Tvg(
        num_vertices=graph.num_vertices,
        num_instants=reach + 1,
        arcs=frozenset(arc for arc in graph.arcs if arc[1] < reach),
    )
    assert earliest_arrivals(trimmed, 0) == reference_tvg.earliest_arrivals(trimmed, 0)
    assert earliest_arrivals(trimmed, 0) != earliest_arrivals(graph, 0)
    assert vars(trimmed)["_arrivals"] is not vars(graph)["_arrivals"]
