"""Communication graphs: neighbor queries, connectivity, dwell windows."""

import numpy as np
import pytest

from liecoord.graphs import CommGraph, GraphError

from helpers import in_neighbors


def test_in_neighbors_complete():
    g = CommGraph.complete(3)
    assert in_neighbors(g, 0) == [1, 2]
    assert in_neighbors(g, 2) == [0, 1]


def test_in_neighbors_empty_and_chain():
    assert in_neighbors(CommGraph.empty(3), 1) == []
    chain = CommGraph.static(3, [(0, 1), (1, 2)])
    assert in_neighbors(chain, 2) == [1]
    assert in_neighbors(chain, 0) == []


def test_in_neighbors_out_of_range():
    with pytest.raises(GraphError):
        in_neighbors(CommGraph.complete(3), 3)


def test_rejects_self_loops_and_bad_ids():
    with pytest.raises(GraphError):
        CommGraph.static(3, [(1, 1)])
    with pytest.raises(GraphError):
        CommGraph.static(3, [(0, 5)])


def test_rejects_bad_schedule():
    with pytest.raises(GraphError):
        CommGraph(2, [(0.0, {(0, 1)}), (0.0, {(1, 0)})])
    with pytest.raises(GraphError):
        CommGraph(2, [(1.0, {(0, 1)})])
    with pytest.raises(GraphError):
        CommGraph(2, [(0.0, {(0, 1)}), (3.0, set())], period=2.0)


def _numpy_segment_index(graph, t):
    # the np.mod / np.searchsorted form that bisect replaced
    t = float(t)
    if graph.period is not None:
        t = np.mod(t, graph.period)
    return max(int(np.searchsorted(graph.breakpoints, t, side="right") - 1), 0)


def test_segment_index_matches_numpy_form_around_breakpoints():
    sched = CommGraph(3, [(0.0, {(0, 1)}), (0.7, {(1, 2)}), (1.9, set())], period=2.3)
    probes = [0.0, -1e-300, 1e9]
    for m in range(8):
        for b in sched.breakpoints + (sched.period,):
            t = b + m * sched.period
            probes += [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
        t = m * sched.period
        probes += [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    for t in probes:
        assert sched._segment_index(t) == _numpy_segment_index(sched, t), t
        assert sched._segment_index(np.float64(t)) == _numpy_segment_index(sched, t), t
    # a one-ulp step at a breakpoint switches the segment
    assert sched._segment_index(np.nextafter(0.7, -np.inf)) == 0
    assert sched._segment_index(0.7) == 1


def test_in_matrix_convention():
    g = CommGraph.static(3, [(0, 1)])
    A = g.in_matrix(0.0)
    assert A[1, 0] == 1.0 and A.sum() == 1.0


def test_edge_arrays_sorted_and_match_in_matrix():
    rng = np.random.default_rng(11)
    edges = {(j, k) for j in range(7) for k in range(7) if j != k and rng.random() < 0.4}
    sched = CommGraph(7, [(0.0, edges), (1.0, {(3, 0), (0, 3)}), (2.0, set())], period=3.0)
    for t, want in ((0.5, edges), (1.5, {(3, 0), (0, 3)}), (2.5, set()), (3.5, edges)):
        src, dst = sched.edge_arrays(t)
        assert src.dtype == dst.dtype == np.intp
        assert list(zip(src.tolist(), dst.tolist())) == sorted(want, key=lambda e: (e[1], e[0]))
        A = np.zeros((7, 7))
        for j, k in want:
            A[k, j] = 1.0
        assert np.array_equal(sched.in_matrix(t), A)


def test_undirected_flag_and_symmetry():
    und = CommGraph.static(4, [(0, 1), (1, 2)], undirected=True)
    assert und.is_undirected
    for k in range(4):
        for j in in_neighbors(und, k):
            assert k in in_neighbors(und, j)
    assert not CommGraph.static(3, [(0, 1)]).is_undirected


def test_connected_undirected():
    assert CommGraph.complete(4).is_connected_undirected()
    assert not CommGraph.empty(3).is_connected_undirected()
    tree = CommGraph.static(5, [(0, 1), (1, 2), (1, 3), (3, 4)], undirected=True)
    assert tree.is_connected_undirected()
    two = CommGraph.static(4, [(0, 1), (2, 3)], undirected=True)
    assert not two.is_connected_undirected()


def test_connected_undirected_rejects_directed_or_scheduled():
    with pytest.raises(GraphError):
        CommGraph.static(3, [(0, 1), (1, 2)]).is_connected_undirected()
    sched = CommGraph(2, [(0.0, {(0, 1), (1, 0)}), (1.0, set())], period=2.0)
    with pytest.raises(GraphError):
        sched.is_connected_undirected()


def test_laplacian_and_connectivity():
    ring = CommGraph.ring(4)
    L = ring.laplacian()
    assert np.allclose(L, L.T)
    assert np.allclose(L.sum(axis=1), 0.0)
    assert ring.algebraic_connectivity() == pytest.approx(2.0)
    assert CommGraph.complete(4).algebraic_connectivity() == pytest.approx(4.0)


# -- uniform connectivity ------------------------------------------------------

def test_uniform_static_connected_any_windows():
    g = CommGraph.path(4)
    for delta, T in ((0.1, 0.5), (1.0, 2.0)):
        assert g.is_uniformly_connected(delta, T, horizon=10.0)


def test_uniform_static_empty_false():
    assert not CommGraph.empty(2).is_uniformly_connected(0.1, 1.0, 5.0)


def test_uniform_single_agent_trivially_true():
    assert CommGraph.empty(1).is_uniformly_connected(0.1, 1.0, 5.0)


def test_uniform_alternating_schedule():
    # 0->1 on [0,1), 1->2 on [1,2), repeating: root 0 reaches all in any
    # window of length 2 with dwell up to 1
    g = CommGraph(3, [(0.0, {(0, 1)}), (1.0, {(1, 2)})], period=2.0)
    assert g.is_uniformly_connected(0.5, 2.0, horizon=10.0)
    assert g.is_uniformly_connected(0.9, 2.0, horizon=10.0)
    # demanding a dwell longer than any activation fails
    assert not g.is_uniformly_connected(1.5, 2.0, horizon=10.0)
    # windows too short to contain both phases fail
    assert not g.is_uniformly_connected(0.5, 0.8, horizon=10.0)


def test_uniform_reversed_chain_has_root_two():
    g = CommGraph(3, [(0.0, {(1, 0)}), (1.0, {(2, 1)})], period=2.0)
    assert g.is_uniformly_connected(0.5, 2.0, horizon=10.0)


def test_uniform_matches_reachability_for_static():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        edges = set()
        for j in range(n):
            for k in range(n):
                if j != k and rng.random() < 0.4:
                    edges.add((j, k))
        g = CommGraph.static(n, edges)
        reachable = any(
            _reaches_all_from(n, edges, root) for root in range(n)
        )
        assert g.is_uniformly_connected(0.1, 1.0, horizon=3.0) == reachable


def _reaches_all_from(n, edges, root):
    seen = {root}
    frontier = [root]
    while frontier:
        x = frontier.pop()
        for j, k in edges:
            if j == x and k not in seen:
                seen.add(k)
                frontier.append(k)
    return len(seen) == n


def test_uniform_validates_durations():
    g = CommGraph.complete(2)
    with pytest.raises(GraphError):
        g.is_uniformly_connected(0.0, 1.0, 5.0)
    with pytest.raises(GraphError):
        g.is_uniformly_connected(2.0, 1.0, 5.0)
    with pytest.raises(GraphError):
        g.is_uniformly_connected(0.5, 6.0, 5.0)


def test_edge_on_across_a_breakpoint_dwells_over_both_segments():
    # the edge's two one-second spans merge, so it dwells for 1.5 in [0, 2]
    on = CommGraph(2, [(0.0, [(0, 1)]), (1.0, [(0, 1)])])
    assert on.is_uniformly_connected(delta=1.5, T=2.0, horizon=2.0)
    gap = CommGraph(2, [(0.0, [(0, 1)]), (1.0, []), (1.1, [(0, 1)])])
    assert not gap.is_uniformly_connected(delta=1.5, T=2.0, horizon=2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: CommGraph(0, [(0.0, [])]), "at least one agent"),
    (lambda: CommGraph(2, []), "at least one segment"),
    (lambda: CommGraph.static(2, [(0, 1)]).algebraic_connectivity(), "static undirected"),
], ids=["no-agents", "no-segments", "directed-connectivity"])
def test_graph_input_errors_are_typed(call, message):
    with pytest.raises(GraphError, match=message):
        call()
