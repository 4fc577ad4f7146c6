"""Group algebra: composition, adjoints, brackets, exponentials, pairing."""

from pathlib import Path

import numpy as np
import pytest

import liecoord
from liecoord.groups import (
    GROUPS, SE2, SE3, SO3, GroupError, cross3, get_group, hat, is_unitary_adjoint, matvec,
    polar_rotation, so3_exp, vee,
)
from liecoord.analysis import cm_algebra_basis

from helpers import (
    adjoint_by_conjugation, fd_right_velocity, se2_algebra_to_se3, se2_to_se3,
)

ALL = list(GROUPS.values())
E1, E2, E3 = np.eye(3)


def rng_for(name, salt=0):
    return np.random.default_rng(abs(hash((name, salt))) % 2**32)


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
    assert group.allclose(group.compose(e, g), g, tol=1e-12)
    assert group.allclose(group.compose(g, e), g, tol=1e-12)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_inverse_cancels(group):
    rng = rng_for(group.name, 1)
    g = group.random(rng, 5)
    e = np.broadcast_to(group.identity(), g.shape)
    assert group.allclose(group.compose(g, group.inverse(g)), e, tol=1e-9)
    assert group.allclose(group.inverse(group.inverse(g)), g, tol=1e-12)
    assert group.allclose(group.inverse(group.identity()), group.identity(), tol=0.0)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_compose_associative(group):
    rng = rng_for(group.name, 2)
    a, b, c = (group.random(rng) for _ in range(3))
    lhs = group.compose(group.compose(a, b), c)
    rhs = group.compose(a, group.compose(b, c))
    assert group.allclose(lhs, rhs, tol=1e-12)


def test_se2_compose_inverse_closed_forms():
    g1 = SE2.make([1.0, 0.0], np.pi / 2)
    g2 = SE2.make([1.0, 0.0], 0.0)
    assert np.allclose(SE2.compose(g1, g2), [1.0, 1.0, np.pi / 2])
    assert np.allclose(SE2.inverse(g1), [0.0, 1.0, -np.pi / 2], atol=1e-15)


def test_se3_identity_base_point():
    rng = rng_for("se3-base")
    g_j = SE3.random(rng)
    lam = SE3.left_relative(SE3.identity(), g_j)
    assert SE3.allclose(lam, g_j, tol=0.0)


def test_so3_right_relative_trivial():
    rng = rng_for("so3-rel")
    Q = SO3.random(rng)
    assert SO3.allclose(SO3.right_relative(Q, np.eye(3)), Q.T, tol=0.0)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_relative_position_invariances(group):
    rng = rng_for(group.name, 3)
    g_k, g_j, h = (group.random(rng) for _ in range(3))
    assert group.allclose(group.left_relative(g_k, g_k), group.identity(), tol=1e-12)
    assert group.allclose(group.right_relative(g_k, g_k), group.identity(), tol=1e-12)
    lam = group.left_relative(g_k, g_j)
    lam_shifted = group.left_relative(group.compose(h, g_k), group.compose(h, g_j))
    assert group.allclose(lam, lam_shifted, tol=1e-9)
    rho = group.right_relative(g_k, g_j)
    rho_shifted = group.right_relative(group.compose(g_k, h), group.compose(g_j, h))
    assert group.allclose(rho, rho_shifted, tol=1e-9)


def test_group_shape_mismatch_rejected():
    with pytest.raises(GroupError):
        SO3.compose(np.eye(3), SE2.identity())
    with pytest.raises(GroupError):
        SE3.adjoint(SE3.identity(), np.zeros(3))


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
    assert group.allclose(group.exp(np.zeros(group.dim)), group.identity(), tol=0.0)
    rng = rng_for(group.name, 10)
    for _ in range(50):
        xi = group.random_algebra(rng)
        once = group.exp(xi)
        twice = group.compose(once, once)
        assert group.allclose(twice, group.exp(2.0 * xi), tol=1e-10)
        assert group.allclose(
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
    assert group.allclose(group.compose(half, half), group.exp(xi), tol=1e-13)
    tiny = group.exp(1e-9 * d)
    assert group.allclose(tiny, group.identity(), tol=2e-9)
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
    assert group.allclose(group.reproject(fixed), fixed, tol=1e-14)


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.name)
def test_reproject_idempotent_on_exact(group):
    rng = rng_for(group.name, 15)
    g = group.random(rng, 4)
    assert group.allclose(group.reproject(g), g, tol=1e-14)


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
    assert group.allclose(back, g, tol=1e-15)
    assert len(group.payload_columns) == group.to_payload(g).shape[-1]


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
