"""Force-directed graph layout for pattern and result rendering.

A small, deterministic Fruchterman–Reingold implementation (numpy)
that the aesthetics metrics and the SVG renderer both consume.
Positions are normalised to the unit square.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Tuple

from repro.graph.graph import Graph

Position = Tuple[float, float]


def circular_layout(graph: Graph) -> Dict[int, Position]:
    """Nodes evenly spaced on a circle (deterministic fallback)."""
    nodes = sorted(graph.nodes())
    n = len(nodes)
    if n == 0:
        return {}
    if n == 1:
        return {nodes[0]: (0.5, 0.5)}
    return {
        node: (0.5 + 0.45 * math.cos(2 * math.pi * i / n),
               0.5 + 0.45 * math.sin(2 * math.pi * i / n))
        for i, node in enumerate(nodes)
    }


def spring_layout(graph: Graph, iterations: int = 120,
                  seed: int = 0) -> Dict[int, Position]:
    """Fruchterman–Reingold layout normalised to the unit square."""
    # imported here, not at module level: the service imports this
    # module but never lays anything out, and numpy would add about
    # 0.1 s and 12 MB to every server start
    import numpy as np

    nodes = sorted(graph.nodes())
    n = len(nodes)
    if n == 0:
        return {}
    if n == 1:
        return {nodes[0]: (0.5, 0.5)}
    index = {node: i for i, node in enumerate(nodes)}
    rng = random.Random(seed)
    pos = np.array([[rng.random(), rng.random()] for _ in nodes])
    k = 1.0 / math.sqrt(n)  # ideal edge length
    temperature = 0.12
    cooling = temperature / (iterations + 1)
    edges = [(index[u], index[v]) for u, v in graph.edges()]
    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        distance = np.linalg.norm(delta, axis=-1)
        np.fill_diagonal(distance, 1e-9)
        distance = np.maximum(distance, 1e-9)
        # repulsion between every pair
        force = (k * k / distance ** 2)[..., None] * delta
        displacement = force.sum(axis=1)
        # attraction along edges
        for i, j in edges:
            diff = pos[i] - pos[j]
            dist = max(float(np.linalg.norm(diff)), 1e-9)
            pull = (dist / k) * (diff / dist)
            displacement[i] -= pull
            displacement[j] += pull
        lengths = np.linalg.norm(displacement, axis=1)
        lengths = np.maximum(lengths, 1e-9)
        capped = (displacement / lengths[:, None]) * \
            np.minimum(lengths, temperature)[:, None]
        pos += capped
        temperature = max(temperature - cooling, 1e-4)
    # normalise into [0.05, 0.95]^2
    mins = pos.min(axis=0)
    spans = np.maximum(pos.max(axis=0) - mins, 1e-9)
    pos = 0.05 + 0.9 * (pos - mins) / spans
    return {node: (float(pos[index[node]][0]), float(pos[index[node]][1]))
            for node in nodes}


def layout_graph(graph: Graph, seed: int = 0) -> Dict[int, Position]:
    """Default layout: spring for n >= 3, circle otherwise."""
    if graph.order() < 3:
        return circular_layout(graph)
    return spring_layout(graph, seed=seed)
