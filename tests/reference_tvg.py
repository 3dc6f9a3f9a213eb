"""Temporal reachability as it was before the one-pass arrival table, kept as a test reference.

``earliest_arrivals`` below runs one journey search per source over the
per-interval adjacency of ``_adjacency``, and ``_static_eccentricity`` runs a
BFS from every source.  ``bbnet.tvg`` computes both for all sources in one
pass, but must give the same values of the same types;
``tests/test_tvg.py`` checks that on a fixed grid.
"""

import functools

from bbnet.tvg import INFINITE, InvalidArc, Tvg


@functools.lru_cache(maxsize=64)
def _adjacency(tvg: Tvg) -> tuple[dict[int, list[int]], ...]:
    """Per-interval adjacency: element i maps u -> sorted targets at instant i+1."""
    per_interval: list[dict[int, list[int]]] = [dict() for _ in range(tvg.num_instants - 1)]
    for u, i, v in sorted(tvg.arcs):
        per_interval[i].setdefault(u, []).append(v)
    return tuple(per_interval)


def earliest_arrivals(tvg: Tvg, source: int) -> list[float]:
    """Earliest number of intervals to reach each vertex.

    ``result[source] == 0``; unreachable vertices get ``INFINITE``.
    """
    if not 0 <= source < tvg.num_vertices:
        raise InvalidArc("unknown source vertex")
    adjacency = _adjacency(tvg)
    arrivals: list[float] = [INFINITE] * tvg.num_vertices
    arrivals[source] = 0
    reached = 1
    for step, links in enumerate(adjacency, start=1):
        if reached == tvg.num_vertices:
            break
        # Everything reached so far keeps spreading at later instants, so the
        # whole reached set (not just last interval's additions) is the frontier.
        for u in range(tvg.num_vertices):
            if arrivals[u] <= step - 1:
                for v in links.get(u, ()):
                    if arrivals[v] == INFINITE:
                        arrivals[v] = step
                        reached += 1
    return arrivals


def _static_eccentricity(edges: set[tuple[int, int]], num_vertices: int) -> float:
    """Worst-case BFS distance between any ordered vertex pair of a static digraph."""
    targets: dict[int, list[int]] = {}
    for u, v in edges:
        targets.setdefault(u, []).append(v)
    worst = 0.0
    for source in range(num_vertices):
        dist: dict[int, int] = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in targets.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < num_vertices:
            return INFINITE
        worst = max(worst, max(dist.values()))
    return worst
