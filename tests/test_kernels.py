"""The per-step kernels against their previous forms, byte for byte.

The kernels a simulation step calls use numpy at C level: matvec and the
other contractions call c_einsum, the finiteness and small-angle tests the C
count_nonzero, transposes the array method, and cross3 gathers its operands.
Each reference below is the body a kernel had before, written with numpy's
public functions.  The inputs hold -0.0, +-inf, NaNs with payloads and exact
cancellations, in the broadcasts the control laws use, at 1, 3, 4 and 256
agents.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import liecoord
from liecoord.controllers import ControlSetting, lyapunov_gradient_vector
from liecoord.groups import (
    SE2, SE3, SO3, _angle_terms, _rotation_defect, c_einsum, count_nonzero, cross3, matvec,
)
from liecoord.simulator import _all_finite

from helpers import same_bits

# the special values overflow and make NaNs on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")
AGENTS = [1, 3, 4, 256]
# signed zeros, infinities, a quiet NaN with a payload, a negative NaN with a
# signalling payload, and the extremes of the finite range
SPECIAL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 1e308, -5e-324],
    np.array([0x7FF8000000000123, 0xFFF4000000000ABC], dtype=np.uint64).view(float),
])
KINDS = ("normal", "special", "cancelling")


def _operand(shape, kind, seed):
    """Gaussian entries; a quarter of them special values; or small integers
    and signed zeros, whose products cancel exactly."""
    rng = np.random.default_rng(seed)
    if kind == "cancelling":
        return rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), shape)
    x = rng.standard_normal(shape)
    if kind == "special":
        flat = x.reshape(-1)
        hit = rng.random(flat.size) < 0.25
        flat[hit] = rng.choice(SPECIAL, int(hit.sum()))
    return x


# ---------------------------------------------------------------------------
# previous forms
# ---------------------------------------------------------------------------

def _cross3_reference(x, y):
    """cross3 with one column slice per factor, written into its output."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    p = x1 * y2
    out = np.empty(p.shape + (3,))
    np.subtract(p, x2 * y1, out=out[..., 0])
    np.subtract(x2 * y0, x0 * y2, out=out[..., 1])
    np.subtract(x0 * y1, x1 * y0, out=out[..., 2])
    return out


def _matvec_reference(M, x):
    return np.einsum("...ij,...j->...i", M, x)


def _all_finite_reference(x):
    return np.count_nonzero(np.isfinite(x)) == x.size


def _angle_terms_reference(theta):
    small = theta < 1e-6
    if not np.count_nonzero(small):
        return None, theta, np.sin(theta), np.cos(theta)
    safe = np.where(small, 1.0, theta)
    return small, safe, np.sin(safe), np.cos(safe)


def _so3_inverse_reference(g):
    return np.swapaxes(g, -1, -2)


def _se3_inverse_reference(g):
    Qt = np.swapaxes(g[..., :3, :3], -1, -2)
    return SE3.make(-_matvec_reference(Qt, g[..., :3, 3]), Qt)


def _se3_adjoint_reference(g, xi):
    Q = g[..., :3, :3]
    Qw = _matvec_reference(Q, xi[..., 3:])
    return np.concatenate(
        [_matvec_reference(Q, xi[..., :3]) + _cross3_reference(g[..., :3, 3], Qw), Qw], axis=-1)


def _se3_adjoint_inv_reference(g, xi):
    Qt = np.swapaxes(g[..., :3, :3], -1, -2)
    w = xi[..., 3:]
    return np.concatenate([_matvec_reference(Qt, xi[..., :3] - _cross3_reference(g[..., :3, 3], w)),
                           _matvec_reference(Qt, w)], axis=-1)


def _bracket_reference(group, xi, eta):
    if group is SE3:
        v1, w1 = xi[..., :3], xi[..., 3:]
        v2, w2 = eta[..., :3], eta[..., 3:]
        return np.concatenate(
            [_cross3_reference(w1, v2) - _cross3_reference(w2, v1), _cross3_reference(w1, w2)],
            axis=-1)
    return group._bracket(xi, eta)


def _pairing_reference(group, xi, eta):
    cols = _bracket_reference(group, xi[..., None, :], np.eye(group.dim))
    return np.einsum("...ij,...i->...j", np.swapaxes(cols, -1, -2), eta)


def _rotation_defect_reference(g, Q, bottom=None):
    ortho = np.max(np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(3)), axis=(-1, -2))
    out = np.maximum(ortho, np.abs(np.linalg.det(Q) - 1.0))
    if bottom is not None:
        out = np.maximum(out, bottom)
    return np.where(np.all(np.isfinite(g), axis=(-1, -2)), out, np.inf)


def _project_range_reference(B, v):
    return np.einsum("im,...m->...i", B, np.einsum("jm,...j->...m", B, v))


def _lyapunov_gradient_reference(group, eta, cs):
    resid = eta - (cs.a + _project_range_reference(cs.B, eta - cs.a))
    cols = _bracket_reference(group, eta[..., None, :], cs.B.T)
    return np.einsum("...mn,...n->...m", cols, resid)


def _same_view(a, b):
    """Same bytes, shape and strides: a transposed view stays a view, so that
    the contraction that reads it sums in the same order."""
    return same_bits(a, b) and a.strides == b.strides


# ---------------------------------------------------------------------------
# the C callees against their public wrappers
# ---------------------------------------------------------------------------

def _library_subscripts():
    """Every subscript string the library passes to c_einsum."""
    sources = sorted(Path(liecoord.__file__).parent.rglob("*.py"))
    found = {m for p in sources for m in re.findall(r'c_einsum\("([^"]+)"', p.read_text())}
    assert found
    return sorted(found)


_LETTER_SIZES = {"e": 5, "i": 3, "j": 3, "k": 4, "m": 2, "n": 3}
_BATCHES = [((), ()), ((4,), (4,)), ((3, 4), (4,)), ((4,), (3, 4)), ((1,), (256,))]


@pytest.mark.parametrize("subscripts", _library_subscripts())
@pytest.mark.parametrize("kind", KINDS)
def test_c_einsum_equals_np_einsum(subscripts, kind):
    inputs = subscripts.split("->")[0].split(",")
    batches = _BATCHES if "..." in subscripts else [((), ())]
    for b, batch in enumerate(batches):
        shapes = [batch[n] * ("..." in s) + tuple(_LETTER_SIZES[c] for c in s.replace("...", ""))
                  for n, s in enumerate(inputs)]
        ops = [_operand(shape, kind, 10 * b + n) for n, shape in enumerate(shapes)]
        assert same_bits(c_einsum(subscripts, *ops), np.einsum(subscripts, *ops))


@pytest.mark.parametrize("x", [
    np.zeros(0), np.array(0.0), np.array(-0.0), np.array(np.nan), SPECIAL,
    _operand((256, 3), "special", 1), _operand((4, 3, 3), "cancelling", 2),
    np.isfinite(_operand((3, 4, 4), "special", 3)), np.arange(12).reshape(3, 4)[:, ::2],
], ids=lambda x: f"{x.dtype}{x.shape}")
def test_c_count_nonzero_equals_np_count_nonzero(x):
    got, want = count_nonzero(x), np.count_nonzero(x)
    assert got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# kernels against their previous forms
# ---------------------------------------------------------------------------

def _cross_shapes(n):
    """(x, y) shapes of the cross products the laws and kernels take."""
    return [((3,), (n, 3)), ((n, 3), (n, 3)), ((n, 3), (3, n, 3)), ((n, 1, 3), (3, 3)),
            ((n, 1, 3), (6, 3)), ((3, n, 3), (n, 3))]


@pytest.mark.parametrize("n", AGENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_cross3_equals_its_sliced_form(n, kind):
    for s, (xs, ys) in enumerate(_cross_shapes(n)):
        x, y = _operand(xs, kind, 2 * s), _operand(ys, kind, 2 * s + 1)
        assert _same_view(cross3(x, y), _cross3_reference(x, y))
        assert _same_view(cross3(y, x), _cross3_reference(y, x))


@pytest.mark.parametrize("n", AGENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_matvec_equals_np_einsum(n, kind):
    g = _operand((n, 4, 4), kind, 1)
    Q = g[..., :3, :3]
    cases = [
        (Q, _operand((n, 3), kind, 2)),
        (Q.swapaxes(-1, -2), _operand((n, 3), kind, 3)),        # Ad_Q^-1
        (Q, _operand((3, n, 3), kind, 4)),                      # the helical stack
        (Q, _operand((3,), kind, 5)),                           # a shared vector
        (_operand((n, 2, 2), kind, 6), _operand((n, 2), kind, 7)),
        (np.ascontiguousarray(Q), _operand((n, 3), kind, 8)),
    ]
    for M, x in cases:
        assert same_bits(matvec(M, x), _matvec_reference(M, x))


@pytest.mark.parametrize("n", AGENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_finiteness_and_angle_terms_equal_their_previous_forms(n, kind):
    for shape in [(n, 3), (n, 4, 4), (3, n, 3)]:
        x = _operand(shape, kind, 1)
        assert _all_finite(x) == _all_finite_reference(x)
        for v in SPECIAL:           # one special entry in an otherwise finite array
            y = _operand(shape, "normal", 1)
            y.flat[-1] = v
            assert _all_finite(y) == _all_finite_reference(y)
    # angles: non-negative, with and without some below the switch
    theta = np.abs(_operand((n,), kind, 2))
    for t in (theta, theta + 1e-6, np.where(theta > 1.0, 1e-9, theta)):
        got, want = _angle_terms(t), _angle_terms_reference(t)
        assert (got[0] is None) == (want[0] is None)
        assert all(same_bits(a, b) for a, b in zip(got, want) if b is not None)


@pytest.mark.parametrize("n", AGENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_group_kernels_equal_their_previous_forms(n, kind):
    g = _operand((n, 4, 4), kind, 1)
    xi, eta = _operand((n, 6), kind, 2), _operand((n, 6), kind, 3)
    R = g[..., :3, :3]
    assert _same_view(SO3._inverse(R), _so3_inverse_reference(R))
    assert np.shares_memory(SO3._inverse(R), R)
    assert same_bits(SE3._inverse(g), _se3_inverse_reference(g))
    assert same_bits(SE3._adjoint(g, xi), _se3_adjoint_reference(g, xi))
    assert same_bits(SE3._adjoint_inv(g, xi), _se3_adjoint_inv_reference(g, xi))
    assert same_bits(SE3._adjoint_inv(g, xi[0]), _se3_adjoint_inv_reference(g, xi[0]))
    assert same_bits(SE3._pairing(xi, eta), _pairing_reference(SE3, xi, eta))
    assert same_bits(SE2._pairing(xi[..., :3], eta[..., :3]),
                     _pairing_reference(SE2, xi[..., :3], eta[..., :3]))
    assert same_bits(SO3._manifold_defect(R), _rotation_defect_reference(R, R))
    bottom = np.max(np.abs(g[..., 3, :] - np.array([0.0, 0.0, 0.0, 1.0])), axis=-1)
    assert same_bits(_rotation_defect(g, R, bottom), _rotation_defect_reference(g, R, bottom))


@pytest.mark.parametrize("n", AGENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_control_law_pieces_equal_their_previous_forms(n, kind):
    eta = _operand((n, 6), kind, 1)
    for cs in (ControlSetting.se3_steering(), ControlSetting.fully(6)):
        assert same_bits(cs.project_range(eta), _project_range_reference(cs.B, eta))
        assert same_bits(lyapunov_gradient_vector(SE3, eta, cs),
                         _lyapunov_gradient_reference(SE3, eta, cs))
    # the helical law stacks its components with np.array, not np.stack
    alpha, beta, gamma = (_operand((n, 3), kind, s) for s in (2, 3, 4))
    x = np.array([alpha, beta, gamma])
    assert same_bits(x, np.stack([alpha, beta, gamma])) and x.flags.c_contiguous
