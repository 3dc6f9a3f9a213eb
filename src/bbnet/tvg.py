"""Time-varying graphs on a fixed vertex set with arcs between consecutive instants.

A graph is a vertex count, an instant count, and a set of temporal arcs
``(u, i, v)`` meaning: information at vertex u at instant index i reaches
vertex v at instant index i+1.  Instant indices are 0-based; the file format
spells each arc as four integers ``u i v i+1``.

Vertex-to-vertex spread is measured in intervals (instant-to-instant hops).
The diffusion time of a vertex is the minimum number of intervals after which
every vertex has been reached (a vertex reaches itself at 0 intervals); the
diffusion diameter is the worst diffusion time over sources.  The reverse
reach time of a vertex is the worst over sources of the earliest arrival from
that source, and time-reachability centrality is its reciprocal.

Every metric reads one arrival table per graph, built in one pass for all
sources at once, after the foremost-journey method of Bui-Xuan, Ferreira and
Jarry, "Computing shortest, fastest, and foremost journeys in dynamic
networks" (IJFCS 14(2), 2003).  The pass keeps, per vertex, an integer bitset
of the sources that have reached it; each interval ORs the bitset of every
arc's tail into its head, and the bits a vertex gains at interval k are the
sources whose earliest arrival there is k.  That costs O(arcs) big-integer ORs
per interval.  The table is memoised on the ``Tvg`` object and holds 8*n^2
bytes of references (about 2 MB at n = 512); ``earliest_arrivals`` returns a
fresh copy of one row of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

INFINITE = math.inf


class InvalidArc(ValueError):
    """An arc references vertices or instants outside the graph, or skips instants."""


class GenerationFailed(RuntimeError):
    """A graph family generator could not meet its diameter bound."""


@dataclass(frozen=True)
class Tvg:
    num_vertices: int
    num_instants: int
    arcs: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        if self.num_vertices < 1 or self.num_instants < 1:
            raise InvalidArc("graph needs at least one vertex and one instant")
        for u, i, v in self.arcs:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise InvalidArc(f"arc ({u},{i},{v}) references unknown vertex")
            if not (0 <= i < self.num_instants - 1):
                raise InvalidArc(f"arc ({u},{i},{v}) does not join consecutive instants")

    @functools.cached_property
    def _arrivals(self) -> list[list[float]]:
        """``_arrivals[source][v]``: the memoised arrival table.

        ``cached_property`` writes the instance ``__dict__`` directly, so the
        memo works on a frozen dataclass and stays out of ``==``, ``hash`` and
        ``repr``, which read the fields only.
        """
        return _arrival_table(self)

    def __reduce__(self):
        # Pickle the fields only, so a filled memo never travels.
        return (Tvg, (self.num_vertices, self.num_instants, self.arcs))


def _spread(reached: list[int], links) -> list[int]:
    """One round: each link (u, v) carries to v what u held when the round opened."""
    new = reached.copy()
    for u, v in links:
        new[v] |= reached[u]
    return new


def _arrival_table(tvg: Tvg) -> list[list[float]]:
    """Earliest arrival from every source at every vertex, in one pass over the intervals."""
    n = tvg.num_vertices
    per_interval: list[list[tuple[int, int]]] = [[] for _ in range(tvg.num_instants - 1)]
    for u, i, v in tvg.arcs:
        per_interval[i].append((u, v))
    table: list[list[float]] = [[INFINITE] * n for _ in range(n)]
    for source in range(n):
        table[source][source] = 0
    bit = [1 << v for v in range(n)]
    # reached[v]: bitset of the sources that have reached v so far.
    reached = bit.copy()
    full = (1 << n) - 1
    for step, links in enumerate(per_interval, start=1):
        if all(bits == full for bits in reached):
            break
        new = _spread(reached, links)
        for v in range(n):
            gained = new[v] ^ reached[v]
            while gained:
                source = gained.bit_length() - 1
                table[source][v] = step
                gained ^= bit[source]
        reached = new
    return table


def earliest_arrivals(tvg: Tvg, source: int) -> list[float]:
    """Earliest number of intervals to reach each vertex.

    ``result[source] == 0``; unreachable vertices get ``INFINITE``.  The list
    is the caller's own copy.
    """
    if not 0 <= source < tvg.num_vertices:
        raise InvalidArc("unknown source vertex")
    return tvg._arrivals[source].copy()


def diffusion_time(tvg: Tvg, source: int) -> float:
    """Minimum intervals until every vertex is reached."""
    return max(earliest_arrivals(tvg, source))


def diffusion_diameter(tvg: Tvg) -> float:
    """Worst diffusion time over sources."""
    return max(diffusion_time(tvg, source) for source in range(tvg.num_vertices))


def reverse_reach_time(tvg: Tvg, target: int) -> float:
    """Worst over sources of the earliest arrival at ``target``."""
    worst = 0.0
    for source in range(tvg.num_vertices):
        arrival = earliest_arrivals(tvg, source)[target]
        if arrival == INFINITE:
            return INFINITE
        worst = max(worst, arrival)
    return worst


def reachability_centrality(tvg: Tvg, vertex: int) -> float:
    """Reciprocal of reverse reach time; 0 when some source never reaches the vertex.

    Meaningful only on graphs with at least two vertices (a singleton has
    reverse reach 0).
    """
    if tvg.num_vertices < 2:
        raise ValueError("centrality needs at least two vertices")
    reach = reverse_reach_time(tvg, vertex)
    if reach == INFINITE:
        return 0.0
    if reach == 0:
        raise AssertionError("reverse reach 0 is impossible with >= 2 vertices")
    return 1.0 / reach


def most_central_vertices(tvg: Tvg) -> list[int]:
    """Vertices ordered by decreasing centrality, ties broken by lowest index."""
    scored = [(-reachability_centrality(tvg, v), v) for v in range(tvg.num_vertices)]
    scored.sort()
    return [v for _, v in scored]


def write_tvg(tvg: Tvg, path) -> None:
    """Write ``num_vertices num_instants`` then one ``u i v i+1`` line per arc."""
    with open(path, "w") as fh:
        fh.write(f"{tvg.num_vertices} {tvg.num_instants}\n")
        for u, i, v in sorted(tvg.arcs):
            fh.write(f"{u} {i} {v} {i + 1}\n")


def read_tvg(path) -> Tvg:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InvalidArc("header must be: num_vertices num_instants")
        num_vertices, num_instants = int(header[0]), int(header[1])
        arcs = set()
        for line_number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4:
                raise InvalidArc(f"line {line_number}: expected 'u i v j'")
            u, i, v, j = (int(x) for x in fields)
            if j != i + 1:
                raise InvalidArc(f"line {line_number}: arcs must join consecutive instants")
            arcs.add((u, i, v))
    return Tvg(num_vertices=num_vertices, num_instants=num_instants, arcs=frozenset(arcs))


def _replicate(edges: set[tuple[int, int]], num_vertices: int, num_instants: int) -> Tvg:
    arcs = frozenset(
        (u, i, v) for i in range(num_instants - 1) for u, v in edges
    )
    return Tvg(num_vertices=num_vertices, num_instants=num_instants, arcs=arcs)


def _static_eccentricity(edges: set[tuple[int, int]], num_vertices: int) -> float:
    """Worst-case hop distance between any ordered vertex pair of a static digraph.

    Works in rounds like the arrival table: after r rounds ``reached[v]`` is the
    bitset of the sources within r hops of v.
    """
    full = (1 << num_vertices) - 1
    reached = [1 << v for v in range(num_vertices)]
    rounds = 0
    while not all(bits == full for bits in reached):
        new = _spread(reached, edges)
        if new == reached:
            return INFINITE
        reached = new
        rounds += 1
    return rounds


def _hypercube_edges(num_vertices: int) -> set[tuple[int, int]]:
    edges = set()
    dimensions = max(1, (num_vertices - 1).bit_length())
    for u in range(num_vertices):
        for bit in range(dimensions):
            v = u ^ (1 << bit)
            if v < num_vertices:
                edges.add((u, v))
                edges.add((v, u))
    return edges


def _random_regular_edges(num_vertices: int, seed: int) -> set[tuple[int, int]]:
    import networkx

    degree = max(1, math.ceil(math.log2(num_vertices)))
    if (degree * num_vertices) % 2:
        degree += 1
    if degree >= num_vertices:
        degree = num_vertices - 1
        if (degree * num_vertices) % 2:
            degree -= 1
    graph = networkx.random_regular_graph(degree, num_vertices, seed=seed)
    edges = set()
    for u, v in graph.edges():
        edges.add((u, v))
        edges.add((v, u))
    return edges


def _star_edges(num_vertices: int) -> set[tuple[int, int]]:
    edges = set()
    for spoke in range(1, num_vertices):
        edges.add((0, spoke))
        edges.add((spoke, 0))
    return edges


FAMILIES = ("replicated-hypercube", "replicated-random-regular", "star-broadcast")

_FAMILY_LOG_FACTOR = {
    "replicated-hypercube": 2.0,
    "replicated-random-regular": 3.0,
    "star-broadcast": 2.0,
}


_MAX_ATTEMPTS = 8


def small_diameter_tvg(family: str, num_vertices: int, seed: int = 0) -> Tvg:
    """Generate a family instance whose diffusion diameter D satisfies D <= c*lg(N).

    The static edge set is replicated across D+1 instants (so the graph is just
    long enough for full diffusion).  The bound is verified by direct
    computation; on failure the generator retries with seed+1, and raises
    :class:`GenerationFailed` after ``_MAX_ATTEMPTS`` attempts.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if num_vertices < 2:
        raise ValueError("families need at least two vertices")
    factor = _FAMILY_LOG_FACTOR[family]
    bound = factor * max(1.0, math.log2(num_vertices))
    for attempt in range(_MAX_ATTEMPTS):
        attempt_seed = seed + attempt
        if family == "replicated-hypercube":
            edges = _hypercube_edges(num_vertices)
        elif family == "replicated-random-regular":
            edges = _random_regular_edges(num_vertices, attempt_seed)
        else:
            edges = _star_edges(num_vertices)
        static_diameter = _static_eccentricity(edges, num_vertices)
        if static_diameter == INFINITE:
            continue
        tvg = _replicate(edges, num_vertices, int(static_diameter) + 1)
        diameter = diffusion_diameter(tvg)
        if diameter <= bound:
            return tvg
    raise GenerationFailed(
        f"{family} with {num_vertices} vertices missed diameter bound {bound:.2f} "
        f"after {_MAX_ATTEMPTS} attempts"
    )
