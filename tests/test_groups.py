"""Group algebra: composition, adjoints, brackets, exponentials, pairing."""

import importlib
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import liecoord
from liecoord.groups import (
    GROUPS, SE2, SE3, SO3, GroupError, cross3, get_group, hat, matvec,
    polar_rotation, so3_exp, vee, wrap_angle,
)
from liecoord.analysis import cm_algebra_basis

from helpers import (
    adjoint_by_conjugation, allclose, fd_right_velocity, right_relative, same_bits,
    se2_algebra_to_se3, se2_to_se3,
)

pytestmark = pytest.mark.usefixtures("hypothesis_without_local_constants")
ALL = list(GROUPS.values())
E1, E2, E3 = np.eye(3)


def rng_for(name, salt=0):
    """A generator seeded from the name and salt alone; unlike hash(), crc32
    gives the same seed in every interpreter."""
    return np.random.default_rng(zlib.crc32(f"{name}:{salt}".encode()))


def test_rng_for_draws_the_same_in_every_interpreter():
    # string hashes differ between interpreters with other PYTHONHASHSEED values
    code = "from test_groups import rng_for; print(rng_for('so3', 3).integers(2**32))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    draws = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, cwd=Path(__file__).parent,
                            env=dict(env, PYTHONHASHSEED=str(seed))).stdout
             for seed in (1, 2)}
    assert len(draws) == 1


# ---------------------------------------------------------------------------
# hat / vee
# ---------------------------------------------------------------------------

def test_hat_zero():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_cross_identity():
    assert np.allclose(hat(E3) @ E1, E2)
    rng = np.random.default_rng(1)
    w, x = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(hat(w) @ x, np.cross(w, x))


@pytest.mark.parametrize("w", [
    [1.0, 2.0, 3.0, 4.0],           # the fourth entry was dropped
    [1.0, 2.0],
    5.0,
    np.zeros((3, 2)),
    np.zeros((4, 0)),
], ids=["four", "two", "scalar", "3x2", "4x0"])
def test_hat_rejects_a_wrong_trailing_shape(w):
    with pytest.raises(GroupError, match=r"hat expects \(\.\.\., 3\) vectors"):
        hat(w)


@pytest.mark.parametrize("w", [
    [0.1, 0.2, 0.3, 0.4],           # was a matrix off the manifold
    [1.0, 2.0],                     # was a raw IndexError
    5.0,
    np.zeros((3, 2)),
], ids=["four", "two", "scalar", "3x2"])
def test_so3_exp_rejects_a_wrong_trailing_shape(w):
    with pytest.raises(GroupError, match="so3: expected algebra vector of length 3"):
        so3_exp(w)


def test_hat_accepts_lists_and_stacks():
    assert np.array_equal(hat([1.0, 2.0, 3.0]), hat(np.array([1.0, 2.0, 3.0])))
    W = np.arange(24.0).reshape(2, 4, 3)
    assert hat(W).shape == (2, 4, 3, 3)
    assert np.array_equal(hat(W)[1, 2], hat(W[1, 2]))


@pytest.mark.parametrize("x_shape, y_shape", [
    ((3,), (5, 3)),
    ((5, 3), (5, 3)),
    ((4, 5, 3), (5, 3)),
])
def test_cross3_equals_np_cross_bitwise(x_shape, y_shape):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(x_shape), rng.standard_normal(y_shape)
    assert np.array_equal(cross3(x, y), np.cross(x, y))
    assert np.array_equal(cross3(y, x), np.cross(y, x))


def test_library_never_calls_np_cross():
    # np.cross costs several times cross3 in call overhead on per-step arrays
    sources = sorted(Path(liecoord.__file__).parent.rglob("*.py"))
    assert sources
    offenders = [str(p) for p in sources if "np.cross(" in p.read_text()]
    assert offenders == []


def test_vee_round_trip():
    assert np.allclose(vee(hat(np.array([1.0, 2.0, 3.0]))), [1.0, 2.0, 3.0])


def test_vee_rejects_non_skew():
    with pytest.raises(GroupError):
        vee(np.eye(3))


# ---------------------------------------------------------------------------
# compose / inverse / relative positions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_identity_neutral(group):
    rng = rng_for(group.name)
    g = group.random(rng, 5)
    e = group.identity()
    assert allclose(group, group.compose(e, g), g, tol=1e-12)
    assert allclose(group, group.compose(g, e), g, tol=1e-12)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_inverse_cancels(group):
    rng = rng_for(group.name, 1)
    g = group.random(rng, 5)
    e = np.broadcast_to(group.identity(), g.shape)
    assert allclose(group, group.compose(g, group.inverse(g)), e, tol=1e-9)
    assert allclose(group, group.inverse(group.inverse(g)), g, tol=1e-12)
    assert allclose(group, group.inverse(group.identity()), group.identity(), tol=0.0)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_compose_associative(group):
    rng = rng_for(group.name, 2)
    a, b, c = (group.random(rng) for _ in range(3))
    lhs = group.compose(group.compose(a, b), c)
    rhs = group.compose(a, group.compose(b, c))
    assert allclose(group, lhs, rhs, tol=1e-12)


def test_se2_compose_inverse_closed_forms():
    g1 = SE2.make([1.0, 0.0], np.pi / 2)
    g2 = SE2.make([1.0, 0.0], 0.0)
    assert np.allclose(SE2.compose(g1, g2), [1.0, 1.0, np.pi / 2])
    assert np.allclose(SE2.inverse(g1), [0.0, 1.0, -np.pi / 2], atol=1e-15)


def test_se3_identity_base_point():
    rng = rng_for("se3-base")
    g_j = SE3.random(rng)
    lam = SE3.left_relative(SE3.identity(), g_j)
    assert allclose(SE3, lam, g_j, tol=0.0)


def test_so3_right_relative_trivial():
    rng = rng_for("so3-rel")
    Q = SO3.random(rng)
    assert allclose(SO3, right_relative(SO3, Q, np.eye(3)), Q.T, tol=0.0)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_relative_position_invariances(group):
    rng = rng_for(group.name, 3)
    g_k, g_j, h = (group.random(rng) for _ in range(3))
    assert allclose(group, group.left_relative(g_k, g_k), group.identity(), tol=1e-12)
    assert allclose(group, right_relative(group, g_k, g_k), group.identity(), tol=1e-12)
    lam = group.left_relative(g_k, g_j)
    lam_shifted = group.left_relative(group.compose(h, g_k), group.compose(h, g_j))
    assert allclose(group, lam, lam_shifted, tol=1e-9)
    rho = right_relative(group, g_k, g_j)
    rho_shifted = right_relative(group, group.compose(g_k, h), group.compose(g_j, h))
    assert allclose(group, rho, rho_shifted, tol=1e-9)


def test_group_shape_mismatch_rejected():
    with pytest.raises(GroupError):
        SO3.compose(np.eye(3), SE2.identity())
    with pytest.raises(GroupError):
        SE3.adjoint(SE3.identity(), np.zeros(3))


# every public method with its argument kinds: "g" an element, "xi" an algebra vector
_CHECKED_METHODS = {
    "compose": "g g", "inverse": "g", "adjoint": "g xi", "adjoint_inv": "g xi",
    "adjoint_matrix": "g", "bracket": "xi xi", "pairing": "xi xi", "ad_matrix": "xi",
    "exp": "xi", "embed": "g", "to_payload": "g", "reproject": "g", "manifold_defect": "g",
    "check": "g", "position": "g", "rotation": "g", "angle": "g",
}


@pytest.mark.parametrize("group, method", [
    pytest.param(g, m, id=f"{g.name}-{m}") for g in ALL for m in sorted(_CHECKED_METHODS)
    if hasattr(g, m)
])
@pytest.mark.parametrize("batch", [(), (4,)], ids=["single", "stack"])
def test_public_methods_reject_a_wrong_trailing_shape(group, method, batch):
    """The kernels check nothing; every public method checks each argument
    before it calls one."""
    rng = rng_for(group.name, 21)
    good = {"g": group.random(rng, batch[0] if batch else None),
            "xi": group.random_algebra(rng, batch)}
    # one more entry in the last axis: (3, 4) on SO(3), (4,) on SE(2), (4, 5) on SE(3)
    bad = {kind: np.zeros(x.shape[:-1] + (x.shape[-1] + 1,)) for kind, x in good.items()}
    kinds = _CHECKED_METHODS[method].split()
    for i in range(len(kinds)):
        args = [bad[k] if j == i else good[k] for j, k in enumerate(kinds)]
        with pytest.raises(GroupError):
            getattr(group, method)(*args)


def test_get_group_unknown():
    with pytest.raises(GroupError):
        get_group("su2")


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_adjoint_identity_and_linearity(group):
    rng = rng_for(group.name, 4)
    xi, eta = group.random_algebra(rng), group.random_algebra(rng)
    assert np.allclose(group.adjoint(group.identity(), xi), xi)
    g = group.random(rng)
    lhs = group.adjoint(g, 2.0 * xi - 3.0 * eta)
    rhs = 2.0 * group.adjoint(g, xi) - 3.0 * group.adjoint(g, eta)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_so3_adjoint_rotates():
    Q = SO3.exp(np.pi / 2 * E3)
    assert np.allclose(SO3.adjoint(Q, E1), E2, atol=1e-15)


def test_se2_adjoint_closed_form():
    out = SE2.adjoint(SE2.make([1.0, 0.0], 0.0), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(out, [0.0, -1.0, 1.0])


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_adjoint_homomorphism(group):
    rng = rng_for(group.name, 5)
    for _ in range(50):
        g, h = group.random(rng, pos_scale=2.0), group.random(rng, pos_scale=2.0)
        xi = group.random_algebra(rng)
        lhs = group.adjoint(group.compose(g, h), xi)
        rhs = group.adjoint(g, group.adjoint(h, xi))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_bracket_equivariance(group):
    rng = rng_for(group.name, 6)
    for _ in range(50):
        g = group.random(rng, pos_scale=2.0)
        xi, eta = group.random_algebra(rng), group.random_algebra(rng)
        lhs = group.adjoint(g, group.bracket(xi, eta))
        rhs = group.bracket(group.adjoint(g, xi), group.adjoint(g, eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_se3_adjoint_matches_conjugation():
    rng = rng_for("se3-conj")
    for _ in range(50):
        g = SE3.random(rng, pos_scale=2.0)
        xi = SE3.random_algebra(rng)
        direct = SE3.adjoint(g, xi)
        # closed form (Q v + r x (Q w), Q w)
        Q, r = SE3.rotation(g), SE3.position(g)
        v, w = xi[:3], xi[3:]
        closed = np.concatenate([Q @ v + np.cross(r, Q @ w), Q @ w])
        oracle = adjoint_by_conjugation(SE3, g, xi)
        assert np.max(np.abs(direct - closed)) < 1e-12
        assert np.max(np.abs(direct - oracle)) < 1e-12


def test_se2_adjoint_matches_planar_embedding():
    rng = rng_for("se2-embed")
    for _ in range(50):
        g = SE2.random(rng, pos_scale=2.0)
        xi = SE2.random_algebra(rng)
        lifted = SE3.adjoint(se2_to_se3(g), se2_algebra_to_se3(xi))
        direct = se2_algebra_to_se3(SE2.adjoint(g, xi))
        assert np.max(np.abs(lifted - direct)) < 1e-12


def is_unitary_adjoint(group, samples=200, rng=None, tol=1e-9, pos_scale=2.0):
    """True iff ||Ad_g xi|| = ||xi|| on all sampled (g, xi) pairs."""
    rng = np.random.default_rng(0) if rng is None else rng
    g = group.random(rng, samples, pos_scale=pos_scale)
    xi = group.random_algebra(rng, samples)
    err = np.abs(
        np.linalg.norm(group.adjoint(g, xi), axis=-1) - np.linalg.norm(xi, axis=-1)
    )
    return bool(np.max(err) <= tol)


def test_unitary_adjoint_classification():
    assert is_unitary_adjoint(SO3)
    assert not is_unitary_adjoint(SE2)
    assert not is_unitary_adjoint(SE3)


# ---------------------------------------------------------------------------
# bracket / pairing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_bracket_antisymmetric_bilinear(group):
    rng = rng_for(group.name, 7)
    x, y, z = (group.random_algebra(rng) for _ in range(3))
    assert np.allclose(group.bracket(x, x), 0.0)
    assert np.allclose(group.bracket(x, y), -group.bracket(y, x))
    lhs = group.bracket(x, 2.0 * y + z)
    rhs = 2.0 * group.bracket(x, y) + group.bracket(x, z)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_so3_bracket_is_cross_product():
    assert np.allclose(SO3.bracket(E1, E2), E3)


def test_se3_bracket_spot_check():
    out = SE3.bracket(np.array([1.0, 0, 0, 0, 0, 0]), np.array([0.0, 0, 0, 0, 0, 1]))
    assert np.allclose(out, [0.0, -1.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_jacobi_identity(group):
    rng = rng_for(group.name, 8)
    for _ in range(50):
        x, y, z = (group.random_algebra(rng) for _ in range(3))
        total = (
            group.bracket(x, group.bracket(y, z))
            + group.bracket(y, group.bracket(z, x))
            + group.bracket(z, group.bracket(x, y))
        )
        assert np.max(np.abs(total)) < 1e-12


def test_pairing_zero_and_so3_sign():
    rng = rng_for("pairing")
    eta = SO3.random_algebra(rng)
    assert np.allclose(SO3.pairing(np.zeros(3), eta), 0.0)
    # on rotations the pairing is minus the bracket
    assert np.allclose(SO3.pairing(E1, E2), -E3)
    w = SO3.random_algebra(rng)
    assert np.allclose(SO3.pairing(w, eta), -np.cross(w, eta), atol=1e-15)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_pairing_defining_relation(group):
    rng = rng_for(group.name, 9)
    for _ in range(100):
        x1, x2, x3 = (group.random_algebra(rng) for _ in range(3))
        resid = np.dot(x1, group.pairing(x2, x3)) + np.dot(group.bracket(x1, x2), x3)
        assert abs(resid) < 1e-12


# ---------------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_exp_zero_and_flow(group):
    assert allclose(group, group.exp(np.zeros(group.dim)), group.identity(), tol=0.0)
    rng = rng_for(group.name, 10)
    for _ in range(50):
        xi = group.random_algebra(rng)
        once = group.exp(xi)
        twice = group.compose(once, once)
        assert allclose(group, twice, group.exp(2.0 * xi), tol=1e-10)
        assert allclose(group,
            group.compose(group.exp(0.3 * xi), group.exp(0.7 * xi)), once, tol=1e-10
        )


def test_so3_exp_quarter_turn():
    Q = SO3.exp(np.pi / 2 * E3)
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(Q - expect)) < 1e-15


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_exp_small_angle_fallback_consistent(group):
    # half the angle goes through the series branch, the full angle through
    # the closed form; the flow property ties the two paths together
    rng = rng_for(group.name, 11)
    d = group.random_algebra(rng)
    d /= np.linalg.norm(d)
    xi = 1.8e-6 * d
    half = group.exp(0.5 * xi)
    assert allclose(group, group.compose(half, half), group.exp(xi), tol=1e-13)
    tiny = group.exp(1e-9 * d)
    assert allclose(group, tiny, group.identity(), tol=2e-9)
    assert np.max(group.manifold_defect(group.exp(1e-7 * d))) < 1e-15


def _so3_exp_reference(w):
    """Rodrigues formula written out in full: the reference for so3_exp."""
    theta = np.linalg.norm(w, axis=-1)
    t2 = theta * theta
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(safe)) / (safe * safe))
    K = hat(w)
    return np.eye(3) + a[..., None, None] * K + b[..., None, None] * (K @ K)


def _se3_exp_reference(xi):
    """SE(3) exp as the two-pass composition make(V v, so3_exp(w)), with V's own
    small-angle series."""
    v, w = xi[..., :3], xi[..., 3:]
    theta = np.linalg.norm(w, axis=-1)
    t2 = theta * theta
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0, (safe - np.sin(safe)) / (safe ** 3))
    K = hat(w)
    V = np.eye(3) + b[..., None, None] * K + c[..., None, None] * (K @ K)
    return SE3.make(matvec(V, v), _so3_exp_reference(w))


_SWITCH = 1e-6
EXP_ANGLES = {
    "zero": 0.0,
    "below_switch": _SWITCH * (1.0 - 1e-12),
    "above_switch": _SWITCH * (1.0 + 1e-12),
    "near_pi": np.pi - 1e-9,
    "pi": np.pi,
}


@pytest.mark.parametrize("theta", EXP_ANGLES.values(), ids=EXP_ANGLES.keys())
def test_one_pass_exp_equals_composition_bitwise(theta):
    rng = np.random.default_rng(21)
    axis = rng.standard_normal(3)
    w = theta * axis / np.linalg.norm(axis)
    xi = np.concatenate([rng.standard_normal(3), w])
    assert np.linalg.norm(w) < _SWITCH if theta < _SWITCH else np.linalg.norm(w) >= _SWITCH
    assert np.array_equal(SE3.exp(xi), _se3_exp_reference(xi))
    assert np.array_equal(SO3.exp(w), _so3_exp_reference(w))


def test_one_pass_exp_equals_composition_bitwise_on_a_batch():
    rng = np.random.default_rng(22)
    xi = rng.standard_normal((250, 4, 6))
    # angles from 1e-9 to 1e1, so both branches occur in one call
    xi[..., 3:] *= 10.0 ** rng.uniform(-9.0, 1.0, (250, 4, 1))
    assert np.array_equal(SE3.exp(xi), _se3_exp_reference(xi))
    assert np.array_equal(so3_exp(xi[..., 3:]), _so3_exp_reference(xi[..., 3:]))


def _se2_exp_reference(xi):
    """SE(2) exp with np.where over fully evaluated series and closed forms:
    the reference for SE2.exp."""
    w = np.abs(xi[..., 2])
    small = w < 1e-6
    safe_w = np.where(small, 1.0, w)
    w2 = w * w
    a = np.where(small, 1.0 - w2 / 6.0 + w2 * w2 / 120.0, np.sin(safe_w) / safe_w)
    safe = np.where(small, 1.0, xi[..., 2])
    t2 = xi[..., 2] * xi[..., 2]
    b = np.where(small, xi[..., 2] / 2.0 - xi[..., 2] * t2 / 24.0, (1.0 - np.cos(safe)) / safe)
    A = np.empty(xi.shape[:-1] + (2, 2))
    A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1] = a, -b, b, a
    return SE2.make(matvec(A, xi[..., :2]), xi[..., 2])


def _hat_reference(w):
    """hat with one negation per entry: the reference for hat."""
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def _se3_embed_reference(g):
    """SE(3) embedding as the concatenation of r and the reshaped rotation."""
    Q = g[..., :3, :3]
    return np.concatenate([g[..., :3, 3], Q.reshape(Q.shape[:-2] + (9,))], axis=-1)


PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
BATCH_SHAPES = [(), (3,), (4,), (256,), (2, 3)]
# angles at and around the series switch, near pi, and in between
_ANGLES = st.one_of(
    st.sampled_from([0.0, _SWITCH, np.nextafter(_SWITCH, 0.0), np.nextafter(_SWITCH, 1.0),
                     np.pi - 1e-9, np.pi]),
    st.floats(0.0, _SWITCH, exclude_max=True),
    st.floats(_SWITCH, 1e-5),
    st.floats(np.pi - 1e-6, np.pi),
    st.floats(0.0, 4.0),
)
# translations around 1e6, and small ones
_TRANSLATIONS = st.one_of(st.floats(-2e6, 2e6), st.sampled_from([1e6, -1e6]),
                          st.floats(-1.0, 1.0))


@st.composite
def _rotation_batches(draw, shapes=BATCH_SHAPES):
    """(w, v): rotation vectors and translations of one drawn batch shape.  A
    batch of two or more has angles on both sides of the series switch."""
    shape = draw(st.sampled_from(shapes))
    theta = np.array(draw(hnp.arrays(float, shape, elements=_ANGLES)))
    if theta.size > 1:
        theta.flat[0] = draw(st.floats(0.0, 0.99 * _SWITCH))
        theta.flat[-1] = draw(st.floats(1.01 * _SWITCH, np.pi))
    axis = draw(hnp.arrays(float, shape + (3,), elements=st.floats(-1.0, 1.0)))
    norm = np.linalg.norm(axis, axis=-1, keepdims=True)
    axis = np.where(norm > 0.1, axis / np.maximum(norm, 0.1), E3)
    v = draw(hnp.arrays(float, shape + (3,), elements=_TRANSLATIONS))
    return theta[..., None] * axis, v


@PROPERTY
@given(_rotation_batches())
def test_changed_kernels_equal_their_previous_forms_bitwise(batch):
    w, v = batch
    theta = np.linalg.norm(w, axis=-1)
    if theta.size > 1:
        assert np.any(theta < _SWITCH) and np.any(theta >= _SWITCH)
    assert same_bits(so3_exp(w), _so3_exp_reference(w))
    xi = np.concatenate([v, w], axis=-1)
    g = SE3.exp(xi)
    assert same_bits(g, _se3_exp_reference(xi))
    assert same_bits(SE3.embed(g), _se3_embed_reference(g))
    # SE(2): the signed angle is the rotation vector's third entry's sign times |w|
    xi2 = np.concatenate([v[..., :2], np.copysign(theta, w[..., 2])[..., None]], axis=-1)
    assert same_bits(SE2.exp(xi2), _se2_exp_reference(xi2))
    assert same_bits(hat(w), _hat_reference(w))
    assert same_bits(cross3(w, v), np.cross(w, v))


def test_derandomized_examples_do_not_depend_on_the_imported_modules(tmp_path, monkeypatch):
    """Hypothesis draws literals of the local modules in sys.modules, and the
    full suite imports more of them than one test file does."""
    def examples():
        seen = []

        @PROPERTY
        @given(_rotation_batches())
        def record(batch):
            seen.append(batch)

        record()
        return seen

    before = examples()
    (tmp_path / "more_literals.py").write_text(
        "VALUES = (" + ", ".join(repr(float(x)) for x in np.linspace(-2.0, 4.0, 61)) + ")\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        importlib.import_module("more_literals")
        after = examples()
    finally:
        sys.modules.pop("more_literals", None)
    assert len(after) == len(before)
    assert all(same_bits(a, b) for x, y in zip(before, after) for a, b in zip(x, y))


@st.composite
def _elements(draw, group):
    """A stack of 4 elements, the algebra vectors whose exp gives them, and
    their rotation angles: angles near pi and around the switch, translations
    around 1e6."""
    w, v = draw(_rotation_batches(shapes=[(4,)]))
    theta = np.linalg.norm(w, axis=-1)
    if group is SO3:
        return so3_exp(w), w, theta
    if group is SE3:
        return SE3.make(v, so3_exp(w)), np.concatenate([v, w], axis=-1), theta
    theta = np.copysign(theta, w[..., 2])
    xi = np.concatenate([v[..., :2], theta[..., None]], axis=-1)
    return SE2.make(v[..., :2], theta), xi, np.abs(theta)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
@PROPERTY
@given(data=st.data())
def test_group_axioms_at_extreme_angles_and_translations(group, data):
    (g, xi, theta), (h, _, _), (k, _, _) = (data.draw(_elements(group)) for _ in range(3))
    scale = 1.0 + max(float(np.max(np.abs(group.embed(x)))) for x in (g, h, k))
    tol = 64 * np.finfo(float).eps * scale
    e = group.identity()
    assert allclose(group, group.compose(g, e), g, tol) and allclose(group, group.compose(e, g), g, tol)
    assert allclose(group, group.compose(g, group.inverse(g)), e, tol)
    assert allclose(group, group.compose(group.inverse(g), g), e, tol)
    assert allclose(group, group.compose(group.compose(g, h), k),
                          group.compose(g, group.compose(h, k)), tol)
    Ad = group.adjoint_matrix
    assert np.max(np.abs(Ad(group.compose(g, h)) - Ad(g) @ Ad(h))) <= tol
    # just above the switch, (1 - cos t) / t^2 loses digits to cancellation,
    # and the translation part of exp carries that error times |v| t
    big = max(1.0, float(np.max(np.abs(xi))))
    closed = theta[theta >= _SWITCH]
    cond = 1.0 / min(1.0, float(np.min(closed))) if closed.size else 1.0
    assert allclose(group, group.compose(group.exp(xi), group.exp(-xi)), e,
                          64 * np.finfo(float).eps * big * cond)
    assert np.max(group.manifold_defect(group.exp(xi))) < 1e-12


def _matvec_tol(M, x):
    """64 eps of the largest entry of M times the largest entry of x, the
    latter taken at least as the smallest normal float: subnormal products
    round to an absolute, not a relative, step."""
    fi = np.finfo(float)
    return 64 * fi.eps * np.max(np.abs(M)) * max(float(np.max(np.abs(x))), fi.tiny)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
@PROPERTY
@given(data=st.data())
def test_adjoint_actions_equal_their_matrix_forms(group, data):
    g = np.stack([data.draw(_elements(group))[0] for _ in range(2)])   # (B, N) = (2, 4)
    xi = data.draw(hnp.arrays(float, (2, 4, group.dim), elements=_TRANSLATIONS))
    # an (N,) stack, a (B, N) stack, and one xi of shape (dim,) shared by a (B, N) stack
    for g_, xi_ in ((g[0], xi[0]), (g, xi), (g, xi[0, 0])):
        lead = g_.shape[:g_.ndim - len(group.element_shape)]
        Ad, Ad_inv = group.adjoint_matrix(g_), group.adjoint_matrix(group.inverse(g_))
        for got, M in ((group.adjoint(g_, xi_), Ad), (group.adjoint_inv(g_, xi_), Ad_inv)):
            want = matvec(M, xi_)
            assert got.shape == want.shape == lead + (group.dim,)
            if group is SE3:   # block form: rounded differently, no matrix built
                assert np.max(np.abs(got - want)) <= _matvec_tol(M, xi_)
            else:
                assert same_bits(got, want)
        back = group.adjoint_inv(g_, group.adjoint(g_, xi_))
        assert np.max(np.abs(back - xi_)) <= _matvec_tol(Ad, xi_)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_exp_lands_on_manifold(group):
    rng = rng_for(group.name, 12)
    xi = group.random_algebra(rng, 20, scale=2.0)
    assert np.max(group.manifold_defect(group.exp(xi))) < 1e-12


# ---------------------------------------------------------------------------
# reprojection
# ---------------------------------------------------------------------------

def test_polar_rotation_is_nearest_rotation():
    rng = np.random.default_rng(13)
    M = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    R = polar_rotation(M)
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
    assert np.linalg.det(R) > 0
    # polar characterization: R^T M symmetric positive definite
    S = R.T @ M
    assert np.max(np.abs(S - S.T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) > 0
    # nearest among sampled rotations
    base = np.linalg.norm(R - M)
    for _ in range(100):
        other = SO3.random(rng)
        assert np.linalg.norm(other - M) >= base - 1e-12


@pytest.mark.parametrize("group", [SO3, SE3], ids=lambda g: g.name)
def test_reproject_perturbed_rotation(group):
    rng = rng_for(group.name, 14)
    g = group.random(rng, 5)
    noisy = g + 1e-6 * rng.standard_normal(g.shape)
    if group is SE3:
        noisy[..., 3, :] = np.array([0.0, 0.0, 0.0, 1.0])
    fixed = group.reproject(noisy)
    assert np.max(group.manifold_defect(fixed)) < 1e-12
    assert allclose(group, group.reproject(fixed), fixed, tol=1e-14)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_reproject_idempotent_on_exact(group):
    rng = rng_for(group.name, 15)
    g = group.random(rng, 4)
    assert allclose(group, group.reproject(g), g, tol=1e-14)


def test_manifold_check_raises_off_manifold():
    with pytest.raises(GroupError):
        SO3.check(1.5 * np.eye(3))


# ---------------------------------------------------------------------------
# velocity relations along trajectories
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_fd_right_velocity_matches_adjoint(group):
    rng = rng_for(group.name, 16)
    g0 = group.random(rng)
    xi = group.random_algebra(rng)
    h = 1e-5
    samples = [group.compose(g0, group.exp(t * xi)) for t in (0.0, h, 2 * h)]
    fd = fd_right_velocity(group, samples[0], samples[2], 2 * h)
    expect = group.adjoint(samples[1], xi)
    assert np.max(np.abs(fd - expect)) < 50 * h


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_fd_inverse_adjoint_derivative_identity(group):
    # d/dt (Ad_{g^-1} eta) = -[xi, Ad_{g^-1} eta] along dg = g xi
    rng = rng_for(group.name, 17)
    g0 = group.random(rng)
    xi = group.random_algebra(rng)
    eta = group.random_algebra(rng)
    h = 1e-5
    samples = [group.compose(g0, group.exp(t * xi)) for t in (0.0, h, 2 * h)]
    pulled = [group.adjoint(group.inverse(g), eta) for g in samples]
    fd = (pulled[2] - pulled[0]) / (2 * h)
    expect = -group.bracket(xi, pulled[1])
    assert np.max(np.abs(fd - expect)) < 50 * h


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_commuting_direction_fixes_velocity(group):
    # [xi, eta] = 0 implies Ad_{exp(t eta)} xi = xi
    rng = rng_for(group.name, 18)
    for _ in range(10):
        xi = group.random_algebra(rng)
        basis = cm_algebra_basis(group, xi)
        z = rng.standard_normal(basis.shape[0])
        eta = z @ basis
        assert np.max(np.abs(group.bracket(xi, eta))) < 1e-9
        for t in (-1.3, 0.4, 2.0):
            moved = group.adjoint(group.exp(t * eta), xi)
            assert np.max(np.abs(moved - xi)) < 1e-10


# ---------------------------------------------------------------------------
# payload round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_payload_round_trip(group):
    rng = rng_for(group.name, 19)
    g = group.random(rng, 6)
    back = group.from_payload(group.to_payload(g))
    assert allclose(group, back, g, tol=1e-15)
    assert len(group.payload_columns) == group.to_payload(g).shape[-1]


@pytest.mark.parametrize("theta", [np.nextafter(np.pi, 4.0), -np.pi, np.pi + 2.0 * np.pi])
def test_wrapped_angle_stays_in_the_half_open_interval(theta):
    # one ulp above pi, np.mod's remainder rounds up to 2 pi
    wrapped = wrap_angle(theta)
    assert -np.pi < wrapped <= np.pi and wrap_angle(wrapped) == wrapped
    g = SE2.exp(np.array([0.0, 0.0, theta]))
    SE2.check(g)


def test_se2_angle_wrapping():
    assert SE2.make([0, 0], np.pi)[2] == pytest.approx(np.pi)
    assert SE2.make([0, 0], -np.pi)[2] == pytest.approx(np.pi)
    assert SE2.make([0, 0], 3 * np.pi / 2)[2] == pytest.approx(-np.pi / 2)
    g = SE2.compose(SE2.make([0, 0], 3.0), SE2.make([0, 0], 3.0))
    assert -np.pi < g[2] <= np.pi


def test_reproject_degenerate_rotation_block_raises():
    with pytest.raises(GroupError, match="rank"):
        polar_rotation(np.zeros((3, 3)))
    bad = np.eye(3)
    bad[2, 2] = 0.0
    with pytest.raises(GroupError):
        SO3.reproject(bad)


# matrix exponentials of fixed algebra vectors, frozen from an independent
# general-purpose matrix-exponential routine
_EXPM_CASES = [
    (SO3, [0.3, -1.1, 0.7], [
        [0.26946350302809174, -0.650890186163428, -0.709740365268855],
        [0.36727013439786366, 0.7507581363272313, -0.5490672719420064],
        [0.8902258527560323, -0.11271284884431013, 0.4413544434920702]]),
    (SE2, [1.2, -0.4, 0.9], [
        [0.6216099682706644, -0.7833269096274833, 1.2126092269385715],
        [0.7833269096274834, 0.6216099682706644, 0.15637474913801033],
        [0.0, 0.0, 1.0]]),
    (SE3, [0.5, 1.0, -0.3, 0.8, -0.2, 0.4], [
        [0.9068069127338151, -0.4208599744445877, -0.02404381268992391, 0.28468115536434185],
        [0.27175103481869173, 0.6272276509352601, -0.7298882441697535, 1.0682316728328796],
        [0.32226169194171583, 0.6553337743568055, 0.6831435032949711, 0.1647535256877559],
        [0.0, 0.0, 0.0, 1.0]]),
]


@pytest.mark.parametrize("group,xi,expect", _EXPM_CASES, ids=lambda v: getattr(v, "name", ""))
def test_exp_matches_frozen_matrix_exponential(group, xi, expect):
    from helpers import to_matrix

    got = to_matrix(group, group.exp(np.array(xi)))
    assert np.max(np.abs(got - np.array(expect))) < 1e-14


def _expm_taylor(M, order=24, squarings=8):
    # scaling-and-squaring Taylor exponential; test-local oracle
    A = M / (2.0 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, order + 1):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_adjoint_of_exp_is_exponential_of_ad(group):
    # ties exp, the adjoint and the bracket together through one identity
    rng = rng_for(group.name, 40)
    for _ in range(10):
        xi = group.random_algebra(rng)
        lhs = group.adjoint_matrix(group.exp(xi))
        rhs = _expm_taylor(group.ad_matrix(xi))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3, 2)])
def test_vee_rejects_a_shape_other_than_3x3(shape):
    with pytest.raises(GroupError, match="vee expects"):
        vee(np.zeros(shape))
