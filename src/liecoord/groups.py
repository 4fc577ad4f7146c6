"""Concrete rigid-body groups: SO(3), SE(2) and SE(3).

Representations (trailing array shapes):
  SO(3): 3x3 rotation matrices.
  SE(2): length-3 arrays [x, y, theta], theta stored wrapped to (-pi, pi].
  SE(3): 4x4 homogeneous matrices [[Q, r], [0, 1]].

Algebra bases: SO(3) (w1, w2, w3); SE(2) (v1, v2, w); SE(3) (v1, v2, v3,
w1, w2, w3).  Exponentials use closed forms with Taylor fallbacks below
angle 1e-6 to avoid 0/0 in the Rodrigues-type coefficients.
"""

import numpy as np

from .lie import GroupError, LieGroup, TAU_MANIFOLD, matvec

_SMALL_ANGLE = 1e-6
_I3 = np.eye(3)


def cross3(x, y):
    """Cross product of float arrays over the last axis, broadcast over the rest.

    Bit for bit the same as np.cross, which the library does not call: on the
    few-agent arrays of a simulation step, np.cross spends most of its time in
    moveaxis and axis normalisation rather than in the six products.
    """
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    out = np.empty(np.broadcast(x, y).shape)
    out[..., 0] = x1 * y2 - x2 * y1
    out[..., 1] = x2 * y0 - x0 * y2
    out[..., 2] = x0 * y1 - x1 * y0
    return out


def hat(w):
    """Skew matrix of a 3-vector: hat(w) @ x == cross(w, x)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def vee(S, tol=TAU_MANIFOLD):
    """Inverse of hat.  Rejects non-skew input."""
    S = np.asarray(S, dtype=float)
    if S.shape[-2:] != (3, 3):
        raise GroupError(f"vee expects (..., 3, 3) matrices, got {S.shape}")
    defect = np.max(np.abs(S + np.swapaxes(S, -1, -2)))
    if not defect <= tol:
        raise GroupError(f"vee: input is not skew-symmetric (defect={float(defect):.3e})")
    return np.stack([S[..., 2, 1], S[..., 0, 2], S[..., 1, 0]], axis=-1)


def rot2(theta):
    """2x2 rotation matrices for a (batch of) angle(s)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]; ties at pi map to pi."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def polar_rotation(M):
    """Nearest rotation matrix to M (polar decomposition via SVD)."""
    U, s, Vt = np.linalg.svd(M)
    if not np.all(s[..., -1] > 1e-12 * np.maximum(s[..., 0], 1e-300)):
        raise GroupError("rank-deficient rotation block; nearest rotation undefined")
    R = U @ Vt
    d = np.linalg.det(R)
    # flip the least-significant singular direction when det = -1
    U = U.copy()
    U[..., :, -1] *= np.where(d < 0.0, -1.0, 1.0)[..., None]
    return U @ Vt


def _angle_terms(theta):
    """theta^2, the small-angle mask, theta with masked entries set to 1, and
    the sine and cosine of the latter."""
    t2 = theta * theta
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    return t2, small, safe, np.sin(safe), np.cos(safe)


def _rodrigues_coeffs(t2, small, safe, sin, cos):
    """Coefficients (sin t / t, (1 - cos t) / t^2) with small-angle series."""
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, sin / safe)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - cos) / (safe * safe))
    return a, b


def so3_exp(w):
    """Rodrigues formula, batched over leading axes."""
    w = np.asarray(w, dtype=float)
    a, b = _rodrigues_coeffs(*_angle_terms(np.linalg.norm(w, axis=-1)))
    K = hat(w)
    return _I3 + a[..., None, None] * K + b[..., None, None] * (K @ K)


class SO3Group(LieGroup):
    """Rotations of 3-space as 3x3 matrices; Ad_Q w = Q w, [u, w] = u x w."""

    name = "so3"
    dim = 3
    element_shape = (3, 3)
    payload_columns = ("Q00", "Q01", "Q02", "Q10", "Q11", "Q12", "Q20", "Q21", "Q22")

    def identity(self):
        return np.eye(3)

    def compose(self, g, h):
        return self.require_element(g) @ self.require_element(h)

    def inverse(self, g):
        return np.swapaxes(self.require_element(g), -1, -2)

    def adjoint_matrix(self, g):
        # the rotation itself, not a copy: a contiguous copy of an inverse
        # (a transposed view) changes einsum's summation order in matvec
        return self.require_element(g)

    def bracket(self, xi, eta):
        return cross3(self.require_algebra(xi), self.require_algebra(eta))

    def pairing(self, xi, eta):
        # ad_w is skew on rotations, so the pairing is minus the bracket
        return -cross3(self.require_algebra(xi), self.require_algebra(eta))

    def exp(self, xi):
        return so3_exp(self.require_algebra(xi))

    def reproject(self, g):
        return polar_rotation(self.require_element(g))

    def manifold_defect(self, g):
        g = self.require_element(g)
        ortho = np.max(np.abs(np.swapaxes(g, -1, -2) @ g - np.eye(3)), axis=(-1, -2))
        det = np.abs(np.linalg.det(g) - 1.0)
        out = np.maximum(ortho, det)
        return np.where(np.all(np.isfinite(g), axis=(-1, -2)), out, np.inf)

    def random(self, rng, n=None, pos_scale=1.0, rot_scale=None):
        shape = () if n is None else (n,)
        if rot_scale is None:
            # QR-based Haar sampling, det corrected to +1
            Z = rng.standard_normal(shape + (3, 3))
            Q, R = np.linalg.qr(Z)
            sgn = np.sign(np.einsum("...ii->...i", R))
            sgn = np.where(sgn == 0.0, 1.0, sgn)
            Q = Q * sgn[..., None, :]
            d = np.linalg.det(Q)
            Q = Q.copy()
            Q[..., :, 2] *= np.where(d < 0.0, -1.0, 1.0)[..., None]
            return Q
        return so3_exp(rot_scale * rng.standard_normal(shape + (3,)))

    def embed(self, g):
        g = self.require_element(g)
        return g.reshape(g.shape[:-2] + (9,))

    def to_payload(self, g):
        return self.embed(g)

    def from_payload(self, arr):
        arr = np.asarray(arr, dtype=float)
        return arr.reshape(arr.shape[:-1] + (3, 3))


class SE2Group(LieGroup):
    """Planar rigid motions g = (r, theta).

    Composition (r1 + R(t1) r2, t1 + t2); adjoint maps (v, w) to
    (R(t) v - w J r, w) with J the quarter-turn; bracket
    ((v1,w1),(v2,w2)) = (w1 J v2 - w2 J v1, 0).
    """

    name = "se2"
    dim = 3
    element_shape = (3,)
    payload_columns = ("x", "y", "theta")

    def make(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return np.concatenate([r, wrap_angle(theta)[..., None]], axis=-1)

    def position(self, g):
        return self.require_element(g)[..., :2]

    def angle(self, g):
        return self.require_element(g)[..., 2]

    def identity(self):
        return np.zeros(3)

    def compose(self, g, h):
        g = self.require_element(g)
        h = self.require_element(h)
        r = g[..., :2] + matvec(rot2(g[..., 2]), h[..., :2])
        return self.make(r, g[..., 2] + h[..., 2])

    def inverse(self, g):
        g = self.require_element(g)
        r = -matvec(rot2(-g[..., 2]), g[..., :2])
        return self.make(r, -g[..., 2])

    def adjoint_matrix(self, g):
        g = self.require_element(g)
        out = np.zeros(g.shape[:-1] + (3, 3))
        out[..., :2, :2] = rot2(g[..., 2])
        # -w J r column: J r = (-y, x)
        out[..., 0, 2] = g[..., 1]
        out[..., 1, 2] = -g[..., 0]
        out[..., 2, 2] = 1.0
        return out

    @staticmethod
    def _quarter_turn(v):
        return np.stack([-v[..., 1], v[..., 0]], axis=-1)

    def bracket(self, xi, eta):
        xi = self.require_algebra(xi)
        eta = self.require_algebra(eta)
        v = xi[..., 2:3] * self._quarter_turn(eta[..., :2]) - eta[..., 2:3] * self._quarter_turn(xi[..., :2])
        return np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)

    def exp(self, xi):
        xi = self.require_algebra(xi)
        w = np.abs(xi[..., 2])
        a, _ = _rodrigues_coeffs(*_angle_terms(w))
        small = w < _SMALL_ANGLE
        safe = np.where(small, 1.0, xi[..., 2])
        t2 = xi[..., 2] * xi[..., 2]
        b = np.where(small, xi[..., 2] / 2.0 - xi[..., 2] * t2 / 24.0, (1.0 - np.cos(safe)) / safe)
        A = np.empty(xi.shape[:-1] + (2, 2))
        A[..., 0, 0] = a
        A[..., 0, 1] = -b
        A[..., 1, 0] = b
        A[..., 1, 1] = a
        return self.make(matvec(A, xi[..., :2]), xi[..., 2])

    def reproject(self, g):
        g = self.require_element(g)
        return self.make(g[..., :2], g[..., 2])

    def manifold_defect(self, g):
        g = self.require_element(g)
        finite = np.all(np.isfinite(g), axis=-1)
        wrapped = np.abs(g[..., 2] - wrap_angle(g[..., 2]))
        return np.where(finite, wrapped, np.inf)

    def random(self, rng, n=None, pos_scale=1.0, rot_scale=None):
        shape = () if n is None else (n,)
        r = pos_scale * rng.uniform(-1.0, 1.0, shape + (2,))
        if rot_scale is None:
            theta = rng.uniform(-np.pi, np.pi, shape)
        else:
            theta = rot_scale * rng.standard_normal(shape)
        return self.make(r, theta)

    def embed(self, g):
        g = self.require_element(g)
        return np.concatenate(
            [g[..., :2], np.cos(g[..., 2:3]), np.sin(g[..., 2:3])], axis=-1
        )

    def to_payload(self, g):
        return self.require_element(g).copy()

    def from_payload(self, arr):
        arr = np.asarray(arr, dtype=float)
        return self.make(arr[..., :2], arr[..., 2])


class SE3Group(LieGroup):
    """Spatial rigid motions g = (r, Q) as homogeneous 4x4 matrices.

    Adjoint maps (v, w) to (Q v + r x (Q w), Q w); bracket
    ((v1,w1),(v2,w2)) = (w1 x v2 - w2 x v1, w1 x w2).
    """

    name = "se3"
    dim = 6
    element_shape = (4, 4)
    payload_columns = (
        "x", "y", "z",
        "Q00", "Q01", "Q02", "Q10", "Q11", "Q12", "Q20", "Q21", "Q22",
    )

    def make(self, r, Q):
        r = np.asarray(r, dtype=float)
        Q = np.asarray(Q, dtype=float)
        out = np.zeros(Q.shape[:-2] + (4, 4))
        out[..., :3, :3] = Q
        out[..., :3, 3] = r
        out[..., 3, 3] = 1.0
        return out

    def position(self, g):
        return self.require_element(g)[..., :3, 3]

    def rotation(self, g):
        return self.require_element(g)[..., :3, :3]

    def identity(self):
        return np.eye(4)

    def compose(self, g, h):
        return self.require_element(g) @ self.require_element(h)

    def inverse(self, g):
        g = self.require_element(g)
        Qt = np.swapaxes(g[..., :3, :3], -1, -2)
        return self.make(-matvec(Qt, g[..., :3, 3]), Qt)

    def adjoint_matrix(self, g):
        g = self.require_element(g)
        Q = g[..., :3, :3]
        out = np.zeros(g.shape[:-2] + (6, 6))
        out[..., :3, :3] = Q
        out[..., :3, 3:] = hat(g[..., :3, 3]) @ Q
        out[..., 3:, 3:] = Q
        return out

    def bracket(self, xi, eta):
        xi = self.require_algebra(xi)
        eta = self.require_algebra(eta)
        v1, w1 = xi[..., :3], xi[..., 3:]
        v2, w2 = eta[..., :3], eta[..., 3:]
        return np.concatenate(
            [cross3(w1, v2) - cross3(w2, v1), cross3(w1, w2)], axis=-1
        )

    def exp(self, xi):
        """exp(v, w) = [[R, V v], [0, 1]], R = I + a K + b K^2, V = I + b K + c K^2.

        One pass: R and V share the angle, its sine and cosine, K = hat(w) and
        K^2.  V's own small-angle series for b, 0.5 - t^2 / 24, rounds to the
        same value as R's: below the switch the t^4 / 720 term is under
        1.4e-27, less than half an ulp of 0.5.  So the result equals
        make(V v, so3_exp(w)) bit for bit.
        """
        xi = self.require_algebra(xi)
        v, w = xi[..., :3], xi[..., 3:]
        t2, small, safe, sin, cos = terms = _angle_terms(np.linalg.norm(w, axis=-1))
        a, b = _rodrigues_coeffs(*terms)
        c = np.where(small, 1.0 / 6.0 - t2 / 120.0, (safe - sin) / (safe ** 3))
        a, b, c = a[..., None, None], b[..., None, None], c[..., None, None]
        K = hat(w)
        KK = K @ K
        out = np.zeros(xi.shape[:-1] + (4, 4))
        out[..., :3, :3] = _I3 + a * K + b * KK
        out[..., :3, 3] = matvec(_I3 + b * K + c * KK, v)
        out[..., 3, 3] = 1.0
        return out

    def reproject(self, g):
        g = self.require_element(g)
        return self.make(g[..., :3, 3], polar_rotation(g[..., :3, :3]))

    def manifold_defect(self, g):
        g = self.require_element(g)
        Q = g[..., :3, :3]
        ortho = np.max(np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(3)), axis=(-1, -2))
        det = np.abs(np.linalg.det(Q) - 1.0)
        bottom = np.max(np.abs(g[..., 3, :] - np.array([0.0, 0.0, 0.0, 1.0])), axis=-1)
        out = np.maximum(np.maximum(ortho, det), bottom)
        return np.where(np.all(np.isfinite(g), axis=(-1, -2)), out, np.inf)

    def random(self, rng, n=None, pos_scale=1.0, rot_scale=None):
        shape = () if n is None else (n,)
        r = pos_scale * rng.uniform(-1.0, 1.0, shape + (3,))
        Q = SO3.random(rng, n, rot_scale=rot_scale)
        return self.make(r, Q)

    def embed(self, g):
        g = self.require_element(g)
        Q = g[..., :3, :3]
        return np.concatenate(
            [g[..., :3, 3], Q.reshape(Q.shape[:-2] + (9,))], axis=-1
        )

    def to_payload(self, g):
        return self.embed(g)

    def from_payload(self, arr):
        arr = np.asarray(arr, dtype=float)
        Q = arr[..., 3:].reshape(arr.shape[:-1] + (3, 3))
        return self.make(arr[..., :3], Q)


SO3 = SO3Group()
SE2 = SE2Group()
SE3 = SE3Group()

GROUPS = {g.name: g for g in (SO3, SE2, SE3)}


def get_group(name):
    try:
        return GROUPS[name.lower()]
    except KeyError:
        raise GroupError(f"unknown group {name!r}; choose from {sorted(GROUPS)}") from None


def is_unitary_adjoint(group, samples=200, rng=None, tol=1e-9, pos_scale=2.0):
    """True iff ||Ad_g xi|| = ||xi|| on all sampled (g, xi) pairs."""
    rng = np.random.default_rng(0) if rng is None else rng
    g = group.random(rng, samples, pos_scale=pos_scale)
    xi = group.random_algebra(rng, samples)
    err = np.abs(
        np.linalg.norm(group.adjoint(g, xi), axis=-1) - np.linalg.norm(xi, axis=-1)
    )
    return bool(np.max(err) <= tol)
