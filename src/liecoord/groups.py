"""Lie groups of rigid motion: the group interface and SO(3), SE(2), SE(3).

Group elements are plain numpy arrays whose trailing shape is fixed by the
group; algebra vectors are real n-vectors in a fixed per-group basis.  All
operations accept stacked arrays with arbitrary leading (batch) dimensions and
are pure functions, so they are safe to call concurrently.

Representations (trailing array shapes):
  SO(3): 3x3 rotation matrices.
  SE(2): length-3 arrays [x, y, theta], theta stored wrapped to (-pi, pi].
  SE(3): 4x4 homogeneous matrices [[Q, r], [0, 1]].

Algebra bases: SO(3) (w1, w2, w3); SE(2) (v1, v2, w); SE(3) (v1, v2, v3,
w1, w2, w3).  Exponentials use closed forms with Taylor fallbacks below
angle 1e-6 to avoid 0/0 in the Rodrigues-type coefficients.

The fallback series are evaluated only when some angle of the call is below
the switch.  np.where(small, series, closed) alone would not skip them: both
of its branches are computed in full before it selects, which costs about ten
ufunc calls per exp on the few-agent arrays of a simulation step, where no
angle is small.  np.where still selects per entry when one is, so the result
is the same bit for bit.  The rotation angle is taken as
sqrt(add.reduce(w * w)), which is what np.linalg.norm computes after its
Python-level dispatch.

Arguments are checked once, at the boundary.  Each operation is one kernel,
_<name> (_exp, _compose, _adjoint_inv, ...), that takes float arrays of the
right trailing shapes and checks nothing; the public method (exp, compose,
adjoint_inv, ...) raises GroupError on a wrong trailing shape, then calls the
kernel.  The simulator loop and the control laws call the kernels directly, on
arrays that build_controller, the initial-state checks and check have already
checked: on the few agents of a steering step, a check costs as much as a
small product.

The adjoint actions _adjoint (Ad_g) and _adjoint_inv (Ad_{g^-1}) default to
the matrix form, matvec of _adjoint_matrix (3x3 on SE(2)).  On SO(3) that
matrix is the rotation itself, so the actions are its products with the
rotation and its transpose.  SE(3) applies both in block form with matvec and
cross3 on the 3-vector halves, building neither an inverse element nor a 6x6
matrix.  A 6x6 adjoint matrix is still built where the matrix itself is
needed: the pairwise equilibrium test controllers.compatibility_check and the
rows Ad_lambda - Id of analysis.compatible_velocities.

In the kernels a step calls, each numpy operation is one call into numpy's C
code.  On the few agents of a steering or basin step a call costs what its
Python-level wrapper costs, not what its arithmetic costs.  So matvec calls
c_einsum, the finiteness and small-angle tests call the C count_nonzero, the
small-angle selects call the C where (c_where), all three imported once from
numpy._core._multiarray_umath (numpy 2.0 on), transposes are the array method,
and cross3 gathers its operands rather than slicing each column.  Each gives
the same bits as the public form: np.einsum without optimize, np.count_nonzero
with axis None and np.where are these calls after their Python-level dispatch.
"""

import numpy as np
from numpy._core._multiarray_umath import c_einsum, count_nonzero, where as c_where

# Tolerance for manifold-constraint checks (e.g. Q^T Q = I on rotation blocks).
TAU_MANIFOLD = 1e-9
_SMALL_ANGLE = 1e-6
_I3 = np.eye(3)
# positions of r and of Q row by row in a flattened 4x4 SE(3) matrix
_SE3_EMBED_ORDER = np.array([3, 7, 11, 0, 1, 2, 4, 5, 6, 8, 9, 10])
# the gathers of cross3
_CROSS_X = np.array([1, 2, 0, 2, 0, 1])
_CROSS_Y = np.array([2, 0, 1, 1, 2, 0])


class GroupError(ValueError):
    """Usage error: wrong group, wrong shapes, or element off the manifold."""


def require_count(name, value, least, error):
    """value, if it is an integer (int or numpy integer) >= least; else raise
    error, naming the argument.  The one check of every count and seed from
    outside: scenario files, ScenarioConfig, analysis, check_sign_condition."""
    if not isinstance(value, (int, np.integer)):
        raise error(f"{name}: must be an integer, not {value!r}")
    if value < least:
        raise error(f"{name}: must be >= {least}, not {value!r}")
    return value


def matvec(M, x):
    """Batched matrix-vector product M @ x over the trailing two/one axes."""
    return c_einsum("...ij,...j->...i", M, x)


def cross3(x, y):
    """Cross product of float arrays over the last axis, broadcast over the rest.

    Bit for bit the same as np.cross, which the library does not call: on the
    few-agent arrays of a simulation step, np.cross spends most of its time in
    moveaxis and axis normalisation rather than in the six products.  The
    operands are gathered as (x1, x2, x0, x2, x0, x1) and (y2, y0, y1, y1, y2,
    y0), so that one product and one difference give all three components.
    The gathers are .take with mode="clip": the indices are in range, so it
    copies the same entries as the default mode, which checks each index for
    each row and so is slower on many agents.  Its output is C-contiguous, as
    the sliced form's was, so a contraction that reads the result sums in the
    same order.  Fancy indexing costs more per call on a few agents, and puts
    the gathered axis first in memory.
    """
    p = x.take(_CROSS_X, -1, mode="clip") * y.take(_CROSS_Y, -1, mode="clip")
    return p[..., :3] - p[..., 3:]


def hat(w):
    """Skew matrix of a 3-vector: hat(w) @ x == cross(w, x)."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (3,):
        raise GroupError(f"hat expects (..., 3) vectors, got shape {w.shape}")
    return _hat(w)


def _hat(w):
    """hat of a float array of trailing shape (3,), unchecked."""
    neg = -w                      # one negation instead of three
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = neg[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = neg[..., 0]
    out[..., 2, 0] = neg[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def vee(S):
    """Inverse of hat.  Rejects non-skew input."""
    S = np.asarray(S, dtype=float)
    if S.shape[-2:] != (3, 3):
        raise GroupError(f"vee expects (..., 3, 3) matrices, got {S.shape}")
    defect = np.max(np.abs(S + np.swapaxes(S, -1, -2)))
    if not defect <= TAU_MANIFOLD:
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
    out = np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)
    # np.mod rounds a remainder just below 2 pi up to 2 pi (theta one ulp
    # above pi), which would give -pi
    return np.where(out == -np.pi, np.pi, out)


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


def _rotation_defect(g, Q, bottom=None):
    """Per element, the largest of |Q^T Q - I|, |det Q - 1| and the bottom-row
    defect when given; inf where the matrix element g has a non-finite entry."""
    ortho = np.max(np.abs(Q.swapaxes(-1, -2) @ Q - _I3), axis=(-1, -2))
    det = np.abs(np.linalg.det(Q) - 1.0)
    out = np.maximum(ortho, det)
    if bottom is not None:
        out = np.maximum(out, bottom)
    return np.where(np.all(np.isfinite(g), axis=(-1, -2)), out, np.inf)


class LieGroup:
    """Base class for concrete groups.

    Subclasses define ``name``, algebra dimension ``dim``, the trailing
    ``element_shape`` of element arrays, ``identity``, ``random``, the
    unchecked kernels ``_compose``, ``_inverse``, ``_adjoint_matrix``,
    ``_bracket``, ``_exp``, ``_reproject``, ``_manifold_defect`` and ``_embed``
    (continuous embedding coordinates, used for drift measurements), and the
    CSV payload: ``payload_columns``, ``from_payload`` and, if not ``embed``, ``to_payload``.
    Everything else is derived here.
    """

    # -- shape / validity helpers -------------------------------------------------

    def require_element(self, g):
        g = np.asarray(g, dtype=float)
        k = len(self.element_shape)
        if g.ndim < k or g.shape[g.ndim - k:] != self.element_shape:
            raise GroupError(
                f"{self.name}: expected element array with trailing shape "
                f"{self.element_shape}, got {g.shape}"
            )
        return g

    def require_algebra(self, xi):
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.dim,):
            raise GroupError(
                f"{self.name}: expected algebra vector of length {self.dim}, "
                f"got shape {xi.shape}"
            )
        return xi

    def check(self, g):
        """Raise GroupError if any element violates the manifold constraint."""
        defect = self.manifold_defect(self.require_element(g))
        worst = float(np.max(defect))
        if not np.isfinite(worst) or worst > TAU_MANIFOLD:
            raise GroupError(f"{self.name}: element off the manifold (defect={worst:.3e})")

    def identity_like(self, n):
        """Stack of n identity elements."""
        e = self.identity()
        return np.broadcast_to(e, (n,) + self.element_shape).copy()

    # -- checked operations: check the arguments, then call the kernel -----------

    def compose(self, g, h):
        return self._compose(self.require_element(g), self.require_element(h))

    def inverse(self, g):
        return self._inverse(self.require_element(g))

    def adjoint_matrix(self, g):
        return self._adjoint_matrix(self.require_element(g))

    def adjoint(self, g, xi):
        """Adjoint action Ad_g xi of g on an algebra vector."""
        return self._adjoint(self.require_element(g), self.require_algebra(xi))

    def adjoint_inv(self, g, xi):
        """Inverse adjoint action Ad_{g^-1} xi."""
        return self._adjoint_inv(self.require_element(g), self.require_algebra(xi))

    def left_relative(self, g_k, g_j):
        """Relative position g_k^-1 g_j (invariant under common left translation)."""
        return self.compose(self.inverse(g_k), g_j)

    def bracket(self, xi, eta):
        return self._bracket(self.require_algebra(xi), self.require_algebra(eta))

    def ad_matrix(self, xi):
        """Matrix of the map bracket(xi, .) in algebra coordinates."""
        return self._ad_matrix(self.require_algebra(xi))

    def pairing(self, xi, eta):
        """Bilinear map <xi, eta> = ad_xi^T eta.

        It is the unique solution of z1 . <z2, z3> + [z1, z2] . z3 = 0 under
        the canonical scalar product of the algebra basis.
        """
        return self._pairing(self.require_algebra(xi), self.require_algebra(eta))

    def exp(self, xi):
        return self._exp(self.require_algebra(xi))

    def reproject(self, g):
        return self._reproject(self.require_element(g))

    def manifold_defect(self, g):
        return self._manifold_defect(self.require_element(g))

    def embed(self, g):
        return self._embed(self.require_element(g))

    def to_payload(self, g):
        return self.embed(g)

    # -- kernels derived from the primitive ones ----------------------------------

    def _adjoint(self, g, xi):
        return matvec(self._adjoint_matrix(g), xi)

    def _adjoint_inv(self, g, xi):
        return matvec(self._adjoint_matrix(self._inverse(g)), xi)

    def _ad_matrix(self, xi):
        cols = self._bracket(xi[..., None, :], np.eye(self.dim))  # [..., j, :] = [xi, e_j]
        return cols.swapaxes(-1, -2)

    def _pairing(self, xi, eta):
        return c_einsum("...ij,...i->...j", self._ad_matrix(xi), eta)

    def random_algebra(self, rng, shape=(), scale=1.0):
        """Gaussian algebra vectors of the given batch shape."""
        if isinstance(shape, int):
            shape = (shape,)
        return scale * rng.standard_normal(tuple(shape) + (self.dim,))

    def __repr__(self):
        return f"<LieGroup {self.name}>"


def _rotation_angle(w):
    """|w| over the last axis, as np.linalg.norm computes it."""
    return np.sqrt(np.add.reduce(w * w, axis=-1))


def _angle_terms(theta):
    """The small-angle mask, or None when no angle is below the switch; theta
    with the masked entries set to 1; and the sine and cosine of the latter."""
    small = theta < _SMALL_ANGLE
    if not count_nonzero(small):        # cheaper than small.any() on a few angles
        return None, theta, np.sin(theta), np.cos(theta)
    safe = c_where(small, 1.0, theta)
    return small, safe, np.sin(safe), np.cos(safe)


def _sinc(theta, small, safe, sin):
    """sin t / t, by its series where small."""
    a = sin / safe
    if small is not None:
        t2 = theta * theta
        a = c_where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, a)
    return a


def _rodrigues_coeffs(theta, small, safe, sin, cos):
    """Coefficients (sin t / t, (1 - cos t) / t^2), by their series where small."""
    b = (1.0 - cos) / (safe * safe)
    if small is not None:
        t2 = theta * theta
        b = c_where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, b)
    return _sinc(theta, small, safe, sin), b


class SO3Group(LieGroup):
    """Rotations of 3-space as 3x3 matrices; Ad_Q w = Q w, [u, w] = u x w."""

    name = "so3"
    dim = 3
    element_shape = (3, 3)
    payload_columns = ("Q00", "Q01", "Q02", "Q10", "Q11", "Q12", "Q20", "Q21", "Q22")

    def identity(self):
        return np.eye(3)

    def _compose(self, g, h):
        return g @ h

    def _inverse(self, g):
        return g.swapaxes(-1, -2)

    def _adjoint_matrix(self, g):
        # the rotation itself, not a copy: a contiguous copy of an inverse
        # (a transposed view) changes einsum's summation order in matvec
        return g

    def _bracket(self, xi, eta):
        return cross3(xi, eta)

    def _pairing(self, xi, eta):
        # ad_w is skew on rotations, so the pairing is minus the bracket
        return -cross3(xi, eta)

    def _exp(self, xi):
        """Rodrigues formula, batched over leading axes."""
        theta = _rotation_angle(xi)
        a, b = _rodrigues_coeffs(theta, *_angle_terms(theta))
        K = _hat(xi)
        return _I3 + a[..., None, None] * K + b[..., None, None] * (K @ K)

    def _reproject(self, g):
        return polar_rotation(g)

    def _manifold_defect(self, g):
        return _rotation_defect(g, g)

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
        return self._exp(rot_scale * rng.standard_normal(shape + (3,)))

    def _embed(self, g):
        return g.reshape(g.shape[:-2] + (9,))

    def from_payload(self, arr):
        arr = np.asarray(arr, dtype=float)
        return arr.reshape(arr.shape[:-1] + (3, 3)).copy()


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

    def _compose(self, g, h):
        r = g[..., :2] + matvec(rot2(g[..., 2]), h[..., :2])
        return self.make(r, g[..., 2] + h[..., 2])

    def _inverse(self, g):
        r = -matvec(rot2(-g[..., 2]), g[..., :2])
        return self.make(r, -g[..., 2])

    def _adjoint_matrix(self, g):
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

    def _bracket(self, xi, eta):
        v = xi[..., 2:3] * self._quarter_turn(eta[..., :2]) - eta[..., 2:3] * self._quarter_turn(xi[..., :2])
        return np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)

    def _exp(self, xi):
        theta = xi[..., 2]
        w = np.abs(theta)
        small, safe_w, sin, cos = _angle_terms(w)
        a = _sinc(w, small, safe_w, sin)
        # cos is even, so the cosine of |theta| serves for (1 - cos theta) / theta
        safe = theta if small is None else c_where(small, 1.0, theta)
        b = (1.0 - cos) / safe
        if small is not None:
            b = c_where(small, theta / 2.0 - theta * (theta * theta) / 24.0, b)
        A = np.empty(xi.shape[:-1] + (2, 2))
        A[..., 0, 0] = a
        A[..., 0, 1] = -b
        A[..., 1, 0] = b
        A[..., 1, 1] = a
        return self.make(matvec(A, xi[..., :2]), xi[..., 2])

    def _reproject(self, g):
        return self.make(g[..., :2], g[..., 2])

    def _manifold_defect(self, g):
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

    def _embed(self, g):
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

    def _compose(self, g, h):
        return g @ h

    def _inverse(self, g):
        Qt = g[..., :3, :3].swapaxes(-1, -2)
        return self.make(-matvec(Qt, g[..., :3, 3]), Qt)

    def _adjoint_matrix(self, g):
        Q = g[..., :3, :3]
        out = np.zeros(g.shape[:-2] + (6, 6))
        out[..., :3, :3] = Q
        out[..., :3, 3:] = _hat(g[..., :3, 3]) @ Q
        out[..., 3:, 3:] = Q
        return out

    def _adjoint(self, g, xi):
        """(Q v + r x Q w, Q w), in block form."""
        Q = g[..., :3, :3]
        Qw = matvec(Q, xi[..., 3:])
        return np.concatenate([matvec(Q, xi[..., :3]) + cross3(g[..., :3, 3], Qw), Qw], axis=-1)

    def _adjoint_inv(self, g, xi):
        """(Q^T (v - r x w), Q^T w), in block form."""
        Qt = g[..., :3, :3].swapaxes(-1, -2)
        w = xi[..., 3:]
        return np.concatenate([matvec(Qt, xi[..., :3] - cross3(g[..., :3, 3], w)), matvec(Qt, w)],
                              axis=-1)

    def _bracket(self, xi, eta):
        v1, w1 = xi[..., :3], xi[..., 3:]
        v2, w2 = eta[..., :3], eta[..., 3:]
        return np.concatenate(
            [cross3(w1, v2) - cross3(w2, v1), cross3(w1, w2)], axis=-1
        )

    def _exp(self, xi):
        """exp(v, w) = [[R, V v], [0, 1]], R = I + a K + b K^2, V = I + b K + c K^2.

        One pass: R and V share the angle, its sine and cosine, K = hat(w) and
        K^2.  V's own small-angle series for b, 0.5 - t^2 / 24, rounds to the
        same value as R's: below the switch the t^4 / 720 term is under
        1.4e-27, less than half an ulp of 0.5.  So the result equals
        make(V v, so3_exp(w)) bit for bit.
        """
        v, w = xi[..., :3], xi[..., 3:]
        theta = _rotation_angle(w)
        small, safe, sin, cos = terms = _angle_terms(theta)
        a, b = _rodrigues_coeffs(theta, *terms)
        c = (safe - sin) / (safe ** 3)
        if small is not None:
            c = c_where(small, 1.0 / 6.0 - theta * theta / 120.0, c)
        a, b, c = a[..., None, None], b[..., None, None], c[..., None, None]
        K = _hat(w)
        KK = K @ K
        out = np.zeros(xi.shape[:-1] + (4, 4))
        out[..., :3, :3] = _I3 + a * K + b * KK
        out[..., :3, 3] = matvec(_I3 + b * K + c * KK, v)
        out[..., 3, 3] = 1.0
        return out

    def _reproject(self, g):
        return self.make(g[..., :3, 3], polar_rotation(g[..., :3, :3]))

    def _manifold_defect(self, g):
        bottom = np.max(np.abs(g[..., 3, :] - np.array([0.0, 0.0, 0.0, 1.0])), axis=-1)
        return _rotation_defect(g, g[..., :3, :3], bottom)

    def random(self, rng, n=None, pos_scale=1.0, rot_scale=None):
        shape = () if n is None else (n,)
        r = pos_scale * rng.uniform(-1.0, 1.0, shape + (3,))
        Q = SO3.random(rng, n, rot_scale=rot_scale)
        return self.make(r, Q)

    def _embed(self, g):
        """(x, y, z, Q00, Q01, ..., Q22), gathered in one copy from the
        flattened matrix."""
        return np.take(g.reshape(g.shape[:-2] + (16,)), _SE3_EMBED_ORDER, axis=-1)

    def from_payload(self, arr):
        arr = np.asarray(arr, dtype=float)
        Q = arr[..., 3:].reshape(arr.shape[:-1] + (3, 3))
        return self.make(arr[..., :3], Q)


SO3 = SO3Group()
so3_exp = SO3.exp        # checked SO3._exp, for callers outside the loop
SE2 = SE2Group()
SE3 = SE3Group()

GROUPS = {g.name: g for g in (SO3, SE2, SE3)}


def get_group(name):
    try:
        return GROUPS[name.lower()]
    except KeyError:
        raise GroupError(f"unknown group {name!r}; choose from {sorted(GROUPS)}") from None
