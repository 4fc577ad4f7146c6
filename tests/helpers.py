"""Shared test utilities: matrix representations, finite differences, and
the comparisons and relative positions that only the tests use.

These build an independent route to the group operations (homogeneous-matrix
conjugation, numerical differentiation of matrix curves) so the library can
be checked against something it does not itself compute.
"""

import numpy as np

from liecoord.graphs import GraphError
from liecoord.groups import SE2, SE3, SO3, hat, rot2


def allclose(group, g, h, tol=1e-9):
    """Elementwise closeness of group elements in the embedding coordinates."""
    return bool(np.max(np.abs(group.embed(g) - group.embed(h))) <= tol)


def right_relative(group, g_k, g_j):
    """Relative position g_j g_k^-1 (invariant under common right translation)."""
    return group.compose(g_j, group.inverse(g_k))


def in_neighbors(graph, k, t=0.0):
    """Sorted ids of agents sending to k at time t."""
    if not (0 <= k < graph.n):
        raise GraphError(f"agent id {k} out of range for {graph.n} agents")
    return sorted(j for j, kk in graph.edges_at(t) if kk == k)


def to_matrix(group, g):
    """Faithful matrix representation of a single group element."""
    if group is SO3:
        return np.asarray(g, dtype=float)
    if group is SE2:
        out = np.eye(3)
        out[:2, :2] = rot2(g[2])
        out[:2, 2] = g[:2]
        return out
    if group is SE3:
        return np.asarray(g, dtype=float)
    raise ValueError(f"no matrix representation for {group}")


def algebra_to_matrix(group, xi):
    """Matrix of an algebra vector in the same representation."""
    xi = np.asarray(xi, dtype=float)
    if group is SO3:
        return hat(xi)
    if group is SE2:
        out = np.zeros((3, 3))
        out[0, 1] = -xi[2]
        out[1, 0] = xi[2]
        out[:2, 2] = xi[:2]
        return out
    if group is SE3:
        out = np.zeros((4, 4))
        out[:3, :3] = hat(xi[3:])
        out[:3, 3] = xi[:3]
        return out
    raise ValueError(f"no matrix representation for {group}")


def matrix_to_algebra(group, M):
    """Inverse of algebra_to_matrix (no skewness check; test code)."""
    if group is SO3:
        return np.array([M[2, 1], M[0, 2], M[1, 0]])
    if group is SE2:
        return np.array([M[0, 2], M[1, 2], M[1, 0]])
    if group is SE3:
        return np.array([M[0, 3], M[1, 3], M[2, 3], M[2, 1], M[0, 2], M[1, 0]])
    raise ValueError(f"no matrix representation for {group}")


def adjoint_by_conjugation(group, g, xi):
    """Ad_g xi computed as the matrix conjugation T hat(xi) T^-1."""
    T = to_matrix(group, g)
    M = T @ algebra_to_matrix(group, xi) @ np.linalg.inv(T)
    return matrix_to_algebra(group, M)


def fd_right_velocity(group, g_prev, g_next, dt):
    """Spatial velocity from a centered difference of the matrix curve:
    coords of (dG/dt) G^-1 at the midpoint."""
    Gp = to_matrix(group, g_prev)
    Gn = to_matrix(group, g_next)
    Gm = 0.5 * (Gp + Gn)
    dG = (Gn - Gp) / dt
    return matrix_to_algebra(group, dG @ np.linalg.inv(Gm))


def se2_to_se3(g):
    """Planar embedding of an SE(2) element into SE(3)."""
    out = np.eye(4)
    out[:2, :2] = rot2(g[2])
    out[:2, 3] = g[:2]
    return out


def se2_algebra_to_se3(xi):
    """Planar embedding of an se(2) vector into the se(3) basis."""
    return np.array([xi[0], xi[1], 0.0, 0.0, 0.0, xi[2]])


def same_bits(a, b):
    """Equal shapes and bytes: unlike np.array_equal, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
