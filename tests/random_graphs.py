"""Small arbitrary temporal graphs for cross-checking metrics against brute force."""

import random

from bbnet.tvg import Tvg


def random_tvg(rng: random.Random, max_vertices: int = 6, max_instants: int = 4) -> Tvg:
    """A small arbitrary graph for cross-checking metrics against brute force."""
    num_vertices = rng.randint(1, max_vertices)
    num_instants = rng.randint(1, max_instants)
    arcs = set()
    for i in range(num_instants - 1):
        for u in range(num_vertices):
            for v in range(num_vertices):
                if u != v and rng.random() < 0.3:
                    arcs.add((u, i, v))
    return Tvg(num_vertices=num_vertices, num_instants=num_instants, arcs=frozenset(arcs))
