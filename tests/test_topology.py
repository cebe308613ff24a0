import random
from collections import deque

import pytest

from ocsim.topology import (DegradedSystemError, Topology, build_small_world,
                            is_connected, rebuild_excluding)


def _bfs_connected(adjacency):
    """Independent connectivity oracle (the module has its own BFS)."""
    nodes = sorted(adjacency)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(nodes)


def test_random_draws_always_connected():
    rng = random.Random("topology-tests")
    for case in range(100):
        n = rng.randint(5, 24)
        k = rng.choice([2, 4, 6])
        if k >= n:
            k = 2
        p = rng.random()
        nodes = [f"a{i:02d}" for i in range(n)]
        t = build_small_world(nodes, k, p, seed=case)
        assert _bfs_connected(t.adjacency)
        assert is_connected(t)


def test_graph_is_undirected_and_loop_free():
    t = build_small_world([f"a{i}" for i in range(10)], 4, 0.3, seed=5)
    for node, nbs in t.adjacency.items():
        assert node not in nbs
        for nb in nbs:
            assert node in t.adjacency[nb]


def test_zero_rewire_is_a_ring_lattice():
    nodes = [f"a{i}" for i in range(8)]
    t = build_small_world(nodes, 2, 0.0, seed=1)
    for i, node in enumerate(nodes):
        expected = {nodes[(i - 1) % 8], nodes[(i + 1) % 8]}
        assert t.adjacency[node] == frozenset(expected)


def test_build_is_deterministic_per_seed():
    nodes = [f"a{i}" for i in range(12)]
    assert build_small_world(nodes, 4, 0.4, seed=9).adjacency == \
        build_small_world(nodes, 4, 0.4, seed=9).adjacency
    assert build_small_world(nodes, 4, 0.4, seed=9).adjacency != \
        build_small_world(nodes, 4, 0.4, seed=10).adjacency


def test_parameter_validation():
    nodes = [f"a{i}" for i in range(6)]
    with pytest.raises(ValueError):
        build_small_world(nodes, 3, 0.1, seed=1)  # odd k
    with pytest.raises(ValueError):
        build_small_world(nodes, 6, 0.1, seed=1)  # k >= n
    with pytest.raises(ValueError):
        build_small_world(nodes, 2, 1.5, seed=1)  # p out of range


def test_rebuild_excluding_drops_suspects_and_stays_connected():
    nodes = [f"a{i}" for i in range(10)]
    t = build_small_world(nodes, 4, 0.1, seed=2)
    excluded = {"a1", "a4", "a7"}
    rebuilt = rebuild_excluding(t, excluded, seed=2)
    assert rebuilt.nodes == t.nodes - excluded
    assert rebuilt.generation == t.generation + 1
    assert _bfs_connected(rebuilt.adjacency)
    for node, nbs in rebuilt.adjacency.items():
        assert not (nbs & excluded)


def test_rebuild_shrinks_degree_for_small_survivor_sets():
    nodes = [f"a{i}" for i in range(6)]
    t = build_small_world(nodes, 4, 0.0, seed=1)
    rebuilt = rebuild_excluding(t, {"a0", "a1", "a2"}, seed=1)
    assert rebuilt.k == 2  # k=4 impossible over 3 survivors


@pytest.mark.parametrize("survivors", [1, 2])
def test_rebuild_refuses_degraded_system(survivors):
    # a ring of degree 2 needs three nodes
    nodes = [f"a{i}" for i in range(4)]
    t = build_small_world(nodes, 2, 0.0, seed=1)
    with pytest.raises(DegradedSystemError, match=f"only {survivors} agents remain"):
        rebuild_excluding(t, nodes[survivors:], seed=1)


def test_is_connected_detects_partition():
    adjacency = {"a": frozenset({"b"}), "b": frozenset({"a"}),
                 "c": frozenset({"d"}), "d": frozenset({"c"})}
    t = Topology(frozenset(adjacency), adjacency)
    assert not is_connected(t)


def test_ring_survives_one_edge_removal():
    nodes = [f"a{i:02d}" for i in range(50)]
    t = build_small_world(nodes, 2, 0.0, seed=1)
    adjacency = {u: set(nbs) for u, nbs in t.adjacency.items()}
    adjacency["a00"].discard("a01")
    adjacency["a01"].discard("a00")
    cut = Topology(t.nodes, {u: frozenset(s) for u, s in adjacency.items()})
    assert is_connected(cut)  # the long way round remains
