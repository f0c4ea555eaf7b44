"""Quaternion helper checks against rotation-matrix and np.cross oracles."""

import numpy as np
import pytest

from microgext import quat


def rotation_matrix(q):
    """Independent oracle: quaternion to rotation matrix, textbook formula."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unit(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def test_rotate_matches_matrix():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = random_unit(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(quat.rotate(q, v), rotation_matrix(q) @ v, atol=1e-12)


def test_multiply_composes_rotations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_unit(rng), random_unit(rng)
        v = rng.normal(size=3)
        lhs = quat.rotate(np.array(quat.multiply_components(a, b)), v)
        rhs = quat.rotate(a, quat.rotate(b, v))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_broadcasting_over_leading_axes():
    rng = np.random.default_rng(3)
    qs = np.stack([random_unit(rng) for _ in range(6)]).reshape(2, 3, 4)
    vs = rng.normal(size=(2, 3, 3))
    out = quat.rotate(qs, vs)
    assert out.shape == (2, 3, 3)
    np.testing.assert_allclose(out[1, 2], quat.rotate(qs[1, 2], vs[1, 2]), atol=1e-12)


def rotate_with_np_cross(q, v):
    """The sandwich product written with ``np.cross``."""
    w, u = q[..., 0:1], q[..., 1:4]
    uv = np.cross(u, v)
    return v + 2.0 * (w * uv + np.cross(u, uv))


@pytest.mark.parametrize(
    "q_shape, v_shape",
    [((4,), (3,)), ((11, 4), (11, 3)), ((100, 11, 4), (100, 11, 3)), ((1, 4), (11, 3)),
     ((11, 4), (3,)), ((4,), (7, 3)), ((5, 1, 4), (11, 3))],
)
def test_rotate_equals_np_cross_form_bit_for_bit(q_shape, v_shape):
    rng = np.random.default_rng(6)
    for _ in range(5):
        q = rng.normal(size=q_shape)
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        v = rng.normal(size=v_shape)
        expected = rotate_with_np_cross(q, v)
        out = quat.rotate(q, v)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)


def test_from_axis_angle_known_rotation():
    q = quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    np.testing.assert_allclose(quat.rotate(q, np.array([1.0, 0, 0])), [0, 1, 0], atol=1e-12)


def test_sign_normalize():
    rng = np.random.default_rng(5)
    q = random_unit(rng)
    flipped = quat.sign_normalize(np.stack([q, -q]))
    np.testing.assert_allclose(flipped[0], flipped[1], atol=1e-15)
    assert flipped[0, 0] >= 0

    zero_w = np.array([0.0, -0.6, 0.8, 0.0])
    out = quat.sign_normalize(zero_w)
    assert out[1] > 0  # tie broken on the first nonzero vector component


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_inverse_table_reproduces_component_forms(dtype):
    """Row i of B is the image of basis vector e_i: rows 0-2 under the
    rotation by conj(q), rows 3-6 under the left product by conj(q), both in
    component form; every other entry is exactly zero."""
    rng = np.random.default_rng(7)
    qs = rng.normal(size=(50, 4))
    qs = (qs / np.linalg.norm(qs, axis=-1, keepdims=True)).astype(dtype).astype(np.float64)
    b = quat.inverse_map(qs)
    assert b.shape == (50, 7, 7)
    conj = qs.T * np.array([1.0, -1.0, -1.0, -1.0])[:, None]
    for i, e in enumerate(np.eye(3)):
        want = np.stack(quat.rotate_components(conj, e[:, None]), axis=-1)
        np.testing.assert_allclose(b[:, i, :3], want, rtol=0, atol=1e-15)
    for i, e in enumerate(np.eye(4)):
        want = np.stack(quat.multiply_components(conj, e[:, None]), axis=-1)
        np.testing.assert_allclose(b[:, 3 + i, 3:], want, rtol=0, atol=1e-15)
    assert np.all(b[:, :3, 3:] == 0.0) and np.all(b[:, 3:, :3] == 0.0)
    assert np.array_equal(b[0], quat.inverse_map(qs[0]))
