"""Communication topology: small-world generation, exclusion rebuild, connectivity."""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Topology:
    nodes: frozenset
    adjacency: dict  # node -> frozenset of neighbors
    generation: int = 0
    k: int = 4
    p: float = 0.1

    def neighbors(self, node):
        return self.adjacency[node]


def is_connected(t: Topology) -> bool:
    if not t.nodes:
        raise ValueError("empty node set")
    start = next(iter(sorted(t.nodes)))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nb in t.adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == t.nodes


def build_small_world(nodes, k: int, p: float, seed) -> Topology:
    """Watts-Strogatz style ring lattice with seeded rewiring.

    Rewires that would disconnect the graph or duplicate an edge are re-drawn;
    the result is always connected, undirected and loop-free.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    if k % 2 != 0 or not (2 <= k < n):
        raise ValueError(f"k must be even and 2 <= k < n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = random.Random(f"ocsim-topology:{seed}")
    adj = {u: set() for u in nodes}
    for i in range(n):
        for off in range(1, k // 2 + 1):
            a, b = nodes[i], nodes[(i + off) % n]
            adj[a].add(b)
            adj[b].add(a)
    if p > 0:
        for i in range(n):
            for off in range(1, k // 2 + 1):
                a, b = nodes[i], nodes[(i + off) % n]
                if rng.random() >= p or b not in adj[a]:
                    continue
                for _ in range(4 * n):
                    c = nodes[rng.randrange(n)]
                    if c == a or c in adj[a]:
                        continue
                    adj[a].discard(b)
                    adj[b].discard(a)
                    adj[a].add(c)
                    adj[c].add(a)
                    t = Topology(frozenset(nodes), {u: frozenset(s) for u, s in adj.items()})
                    if is_connected(t):
                        break
                    # undo a disconnecting rewire and re-draw
                    adj[a].discard(c)
                    adj[c].discard(a)
                    adj[a].add(b)
                    adj[b].add(a)
    return Topology(frozenset(nodes), {u: frozenset(s) for u, s in adj.items()},
                    generation=0, k=k, p=p)


def rebuild_excluding(old: Topology, excluded, seed) -> Topology:
    """Regenerate a connected topology over the surviving node set.

    Degree parameter shrinks with the survivor count but never below 2; a
    ring of degree 2 needs three nodes, so fewer survivors raise
    DegradedSystemError.
    """
    survivors = sorted(old.nodes - set(excluded))
    if len(survivors) < 3:
        raise DegradedSystemError(f"only {len(survivors)} agents remain")
    n = len(survivors)
    k = min(old.k, n - 1)
    if k % 2 != 0:
        k -= 1
    k = max(2, k)
    rebuilt = build_small_world(survivors, k=k, p=old.p,
                                seed=f"{seed}:gen{old.generation + 1}")
    return Topology(rebuilt.nodes, rebuilt.adjacency,
                    generation=old.generation + 1, k=k, p=old.p)


class DegradedSystemError(RuntimeError):
    """Too few agents remain for the system to keep operating."""
