"""Communication graphs: neighbor queries, connectivity, dwell windows."""

import numpy as np
import pytest

from liecoord.graphs import EDGE_FILL, EDGE_MIN_AGENTS, CommGraph, EdgeSum, GraphError

from helpers import in_neighbors, traced_peak


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


@pytest.mark.parametrize("second, period", [
    (np.nan, None), (np.inf, None), (1.0, np.nan), (1.0, np.inf),
], ids=["nan-breakpoint", "inf-breakpoint", "nan-period", "inf-period"])
def test_non_finite_breakpoint_or_period_is_a_graph_error(second, period):
    # a NaN compares false with everything, so it passed the order checks and
    # made the last segment active at every time
    with pytest.raises(GraphError, match="finite"):
        CommGraph(2, [(0.0, {(0, 1)}), (second, {(1, 0)})], period=period)


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


def test_in_terms_are_built_on_first_use_and_kept_per_segment():
    n = 1024
    sched, peak = traced_peak(lambda: CommGraph(
        n, [(0.0, {(k, (k + 1) % n) for k in range(n)}), (1.0, {(0, 1)})], period=2.0))
    assert peak < n * n * 8
    terms, peak = traced_peak(lambda: [sched.in_terms(t) for t in (0.5, 1.5)])
    assert peak < n * n * 8
    for t, (A, deg) in zip((0.5, 1.5), terms):
        assert isinstance(A, EdgeSum)
        assert sched.in_terms(t)[0] is A and sched.in_terms(t)[1] is deg
        assert sched.in_terms(t + 2.0)[0] is A
        # the dense matrix is built anew for each caller, never kept
        dense = sched.in_matrix(t)
        assert dense is not sched.in_matrix(t)
        assert np.array_equal(deg, dense.sum(axis=1))
    assert terms[0][0] is not terms[1][0]
    assert sched.in_matrix(1.5).sum() == 1.0


@pytest.mark.parametrize("n, edges, form", [
    (3, "complete", np.ndarray),
    (EDGE_MIN_AGENTS - 1, "ring", np.ndarray),
    (EDGE_MIN_AGENTS, "ring", EdgeSum),
    (EDGE_MIN_AGENTS, "empty", EdgeSum),
    (EDGE_MIN_AGENTS, EDGE_MIN_AGENTS ** 2 // EDGE_FILL, EdgeSum),
    (EDGE_MIN_AGENTS, EDGE_MIN_AGENTS ** 2 // EDGE_FILL + 1, np.ndarray),
    (EDGE_MIN_AGENTS, "complete", np.ndarray),
])
def test_in_terms_form_follows_the_agent_and_edge_counts(n, edges, form):
    if edges in ("complete", "ring", "empty"):
        graph = getattr(CommGraph, edges)(n)
    else:
        every = [(j, k) for k in range(n) for j in range(n) if j != k]
        graph = CommGraph.static(n, every[:edges])
    A, deg = graph.in_terms()
    assert type(A) is form
    x = np.random.default_rng(12).standard_normal((n, 3))
    assert np.max(np.abs(A @ x - graph.in_matrix() @ x), initial=0.0) <= 1e-12 * n
    assert deg.dtype == float and np.array_equal(deg, graph.in_matrix().sum(axis=1))


def _random_schedule(rng, n, p):
    """Three random directed segments, one of them empty."""
    def edges():
        return {(j, k) for j in range(n) for k in range(n) if j != k and rng.random() < p}
    return CommGraph(n, [(0.0, edges()), (1.0, edges()), (2.0, set())], period=3.0)


_SUM_GRAPHS = [
    pytest.param(lambda rng: CommGraph.empty(1), id="one-agent"),
    pytest.param(lambda rng: CommGraph.static(5, [(0, 1), (2, 1), (4, 3)]), id="in-degree-0"),
    pytest.param(lambda rng: _random_schedule(rng, 7, 0.4), id="directed7-scheduled"),
    pytest.param(lambda rng: _random_schedule(rng, 300, 0.004), id="directed300-scheduled"),
    pytest.param(lambda rng: CommGraph.complete(16), id="complete16"),
    pytest.param(lambda rng: CommGraph.ring(3), id="ring3"),
    pytest.param(lambda rng: CommGraph.ring(EDGE_MIN_AGENTS), id="ring-edges"),
    pytest.param(lambda rng: CommGraph.empty(EDGE_MIN_AGENTS), id="empty-edges"),
]


@pytest.mark.parametrize("batch, d", [((), 6), ((2,), 3), ((3,), 3), ((2, 2), 1)])
@pytest.mark.parametrize("make", _SUM_GRAPHS)
def test_edge_sum_equals_the_dense_product(make, batch, d):
    # bit for bit where no agent has more than two in-edges, to rounding otherwise
    rng = np.random.default_rng(13)
    graph = make(rng)
    for t in (0.5, 1.5, 2.5):
        src, dst = graph.edge_arrays(t)
        deg = np.bincount(dst, minlength=graph.n)
        x = rng.standard_normal(batch + (graph.n, d))
        want = graph.in_matrix(t) @ x
        for got in (EdgeSum(src, deg) @ x, graph.in_terms(t)[0] @ x):
            assert got.shape == want.shape and got.dtype == want.dtype
            if deg.max(initial=0) <= 2:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


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


def test_repr_names_the_schedule_kind():
    assert repr(CommGraph.ring(5)) == "<CommGraph n=5 static>"
    scheduled = CommGraph(3, [(0.0, [(0, 1)]), (1.0, [(1, 2)])], period=2.0)
    assert repr(scheduled) == "<CommGraph n=3 2-segment>"


@pytest.mark.parametrize("call, message", [
    (lambda: CommGraph(0, [(0.0, [])]), "n: must be >= 1, not 0"),
    (lambda: CommGraph(2, []), "at least one segment"),
    (lambda: CommGraph.static(2, [(0, 1)]).algebraic_connectivity(), "static undirected"),
    # each was truncated to an integer, or ended in a TypeError
    (lambda: CommGraph(2.5, [(0.0, set())]), "n: must be an integer, not 2.5"),
    (lambda: CommGraph.static(3, [(1.9, 0)]), "edge endpoint: must be an integer, not 1.9"),
    (lambda: CommGraph.complete(2.0), "n: must be an integer, not 2.0"),
    (lambda: CommGraph.ring(3.0), "n: must be an integer, not 3.0"),
    (lambda: CommGraph.static(3, [(0, -1)]), "edge endpoint: must be >= 0, not -1"),
], ids=["no-agents", "no-segments", "directed-connectivity", "fractional-agents",
        "fractional-endpoint", "fractional-complete", "fractional-ring", "negative-endpoint"])
def test_graph_input_errors_are_typed(call, message):
    with pytest.raises(GraphError, match=message):
        call()


def test_graph_takes_numpy_and_json_integers():
    # the edge sets of a config record are JSON lists, as from_record passes them
    graph = CommGraph(np.int64(3), [(0.0, [(np.int32(1), np.uint8(0)), [2, 1]])])
    assert graph.n == 3 and type(graph.n) is int
    assert graph.edge_sets == (frozenset({(1, 0), (2, 1)}),)
    assert all(type(v) is int for edge in graph.edge_sets[0] for v in edge)
