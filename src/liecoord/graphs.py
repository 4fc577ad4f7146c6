"""Communication topology: static or scheduled directed edge sets.

An edge (j, k) means agent j sends information to agent k.  Schedules are
piecewise constant: breakpoints t_0 = 0 < t_1 < ... with one edge set per
segment; an optional period makes the schedule repeat.  Graphs are immutable
after construction.

Each segment keeps its edges in two forms, both built once at construction:
index arrays (src, dst) sorted by (dst, src), which the disagreement metrics
sum over in O(E n), and the dense in-matrix built from them, which the
controllers' per-step neighbour sums multiply with (see controllers).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class GraphError(ValueError):
    pass


def _validate_edges(n, edges):
    out = []
    for e in edges:
        j, k = int(e[0]), int(e[1])
        if j == k:
            raise GraphError(f"self-loop {j}->{k} not allowed")
        if not (0 <= j < n and 0 <= k < n):
            raise GraphError(f"edge {j}->{k} out of range for {n} agents")
        out.append((j, k))
    return frozenset(out)


class CommGraph:
    """Directed communication graph with a piecewise-constant edge schedule."""

    def __init__(self, n, segments, period=None):
        """segments: list of (start_time, edges); first start time must be 0."""
        if n < 1:
            raise GraphError("need at least one agent")
        if not segments:
            raise GraphError("schedule needs at least one segment")
        self.n = int(n)
        times = [float(t) for t, _ in segments]
        if times[0] != 0.0:
            raise GraphError("first schedule segment must start at t=0")
        if any(t1 - t0 <= 0.0 for t0, t1 in zip(times, times[1:])):
            raise GraphError("schedule breakpoints must be strictly increasing")
        self.breakpoints = tuple(times)
        self.edge_sets = tuple(_validate_edges(n, e) for _, e in segments)
        self.period = None if period is None else float(period)
        if self.period is not None and self.period <= times[-1]:
            raise GraphError("period must exceed the last breakpoint")
        self._edges = tuple(_edge_arrays(es) for es in self.edge_sets)
        self._matrices = [self._build_matrix(src, dst) for src, dst in self._edges]
        self._degrees = [A.sum(axis=1) for A in self._matrices]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def static(cls, n, edges, undirected=False):
        edges = list(edges)
        if undirected:
            edges = edges + [(k, j) for j, k in edges]
        return cls(n, [(0.0, set(edges))])

    @classmethod
    def complete(cls, n):
        return cls.static(n, [(j, k) for j in range(n) for k in range(n) if j != k])

    @classmethod
    def ring(cls, n):
        return cls.static(n, [(k, (k + 1) % n) for k in range(n)], undirected=True)

    @classmethod
    def path(cls, n):
        return cls.static(n, [(k, k + 1) for k in range(n - 1)], undirected=True)

    @classmethod
    def empty(cls, n):
        return cls(n, [(0.0, set())])

    # -- queries --------------------------------------------------------------

    def _segment_index(self, t):
        if len(self.breakpoints) == 1:
            return 0
        t = float(t)
        if self.period is not None:
            t %= self.period
        return max(bisect_right(self.breakpoints, t) - 1, 0)

    def edges_at(self, t):
        return self.edge_sets[self._segment_index(t)]

    def _build_matrix(self, src, dst):
        A = np.zeros((self.n, self.n))
        A[dst, src] = 1.0
        return A

    def edge_arrays(self, t=0.0):
        """Index arrays (src, dst) of the edges active at time t, sorted by
        (dst, src); edge e runs from agent src[e] to agent dst[e]."""
        return self._edges[self._segment_index(t)]

    def in_matrix(self, t=0.0):
        """Matrix A with A[k, j] = 1 iff j sends to k at time t."""
        return self._matrices[self._segment_index(t)]

    def in_terms(self, t=0.0):
        """Neighbor matrix and in-degree vector at time t."""
        i = self._segment_index(t)
        return self._matrices[i], self._degrees[i]

    @property
    def is_static(self):
        return len(self.edge_sets) == 1

    @property
    def is_undirected(self):
        return all(
            all((k, j) in es for j, k in es) for es in self.edge_sets
        )

    def laplacian(self, t=0.0):
        """In-degree Laplacian L with consensus dynamics dx/dt = -L x."""
        A = self.in_matrix(t)
        return np.diag(A.sum(axis=1)) - A

    def algebraic_connectivity(self):
        """Second-smallest Laplacian eigenvalue of a static undirected graph."""
        if not (self.is_static and self.is_undirected):
            raise GraphError("algebraic connectivity needs a static undirected graph")
        vals = np.sort(np.linalg.eigvalsh(self.laplacian()))
        return float(vals[1]) if self.n > 1 else 0.0

    def is_connected_undirected(self):
        """Standard connectivity; valid only for static undirected graphs."""
        if not self.is_static:
            raise GraphError("is_connected_undirected needs a static graph")
        if not self.is_undirected:
            raise GraphError("is_connected_undirected needs an undirected graph")
        return _reaches_all(self.n, self.edge_sets[0], 0)

    # -- uniform connectivity ---------------------------------------------------

    def _unrolled(self, horizon):
        """Breakpoints and edge sets covering [0, horizon]."""
        if self.period is None:
            return list(self.breakpoints), list(self.edge_sets)
        times, sets = [], []
        base = 0.0
        while base <= horizon:
            for t, es in zip(self.breakpoints, self.edge_sets):
                if base + t > horizon:
                    break
                times.append(base + t)
                sets.append(es)
            base += self.period
        return times, sets

    def _active_intervals(self, horizon):
        """Per-edge maximal activity intervals over [0, horizon]."""
        times, sets = self._unrolled(horizon)
        bounds = times + [max(horizon, times[-1])]
        spans = {}
        for i, es in enumerate(sets):
            lo, hi = bounds[i], bounds[i + 1]
            for e in es:
                iv = spans.setdefault(e, [])
                if iv and abs(iv[-1][1] - lo) < 1e-12:
                    iv[-1] = (iv[-1][0], hi)
                else:
                    iv.append((lo, hi))
        return spans, times

    def is_uniformly_connected(self, delta, T, horizon, tol=1e-12):
        """Check the rooted delta-dwell connectivity over every [t, t+T] window.

        True iff some agent k can reach every other agent through the union of
        edges that stay active for a contiguous span of at least delta inside
        each window.  Windows are evaluated at schedule breakpoints and at
        points where a breakpoint enters the window, which is sufficient for
        piecewise-constant schedules.
        """
        if not (0.0 < delta <= T <= horizon):
            raise GraphError("need 0 < delta <= T <= horizon")
        if self.n == 1:
            return True
        spans, times = self._active_intervals(horizon)
        starts = {0.0}
        for t in times:
            if 0.0 <= t <= horizon - T:
                starts.add(t)
            if 0.0 <= t - T <= horizon - T:
                starts.add(t - T)
        windows = []
        for t0 in sorted(starts):
            active = set()
            for e, ivs in spans.items():
                for lo, hi in ivs:
                    if min(hi, t0 + T) - max(lo, t0) >= delta - tol:
                        active.add(e)
                        break
            windows.append(active)
        for k in range(self.n):
            if all(_reaches_all(self.n, w, k) for w in windows):
                return True
        return False

    def __repr__(self):
        kind = "static" if self.is_static else f"{len(self.edge_sets)}-segment"
        return f"<CommGraph n={self.n} {kind}>"


def _reaches_all(n, edges, root):
    succ = {i: [] for i in range(n)}
    for j, k in edges:
        succ[j].append(k)
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in succ[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def _edge_arrays(edges):
    """(src, dst) intp arrays of an edge set, sorted by (dst, src)."""
    pairs = np.array(sorted(edges, key=lambda e: (e[1], e[0])), dtype=np.intp)
    src, dst = pairs.reshape(-1, 2).T.copy()
    return src, dst
