"""Unit quaternion helpers used by the skeleton and synthesis layers.

Quaternions are stored as (w, x, y, z) numpy arrays. The array functions
accept stacked arrays whose last axis has length 4 (3 for vectors) and
broadcast over leading axes, so per-frame/per-joint batches go through
single vectorized calls. The Hamilton product and the rotation are written
once, in component form: ``multiply_components`` and ``rotate_components``
take a quaternion as its four component arrays (or a (4, ...) array, whose
rows are the components), which is how synthesis calls them on contiguous
per-component planes; ``rotate`` unpacks its last axis into that form and
stacks the result back.
"""

from __future__ import annotations

import numpy as np


def multiply_components(a, b) -> tuple:
    """Hamilton product a * b of quaternions given as (w, x, y, z) component
    arrays (or a (4, ...) array), broadcasting; returns the four components."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def rotate_components(q, v) -> tuple:
    """Rotate vector(s) v by unit quaternion(s) q, both given as component
    arrays: (w, x, y, z) and (x, y, z), or (4, ...) and (3, ...) arrays.

    Uses the expanded sandwich product v + 2 (w (u x v) + u x (u x v)) with
    u = (x, y, z), which avoids building intermediate quaternions for the
    vectors. Both cross products are written out in ``np.cross``'s own
    operation order, so results equal the ``np.cross`` form bit for bit
    without its per-call argument handling.
    """
    w, x, y, z = q
    v0, v1, v2 = v
    c0 = y * v2 - z * v1  # c = u x v
    c1 = z * v0 - x * v2
    c2 = x * v1 - y * v0
    return (
        v0 + 2.0 * (w * c0 + (y * c2 - z * c1)),
        v1 + 2.0 * (w * c1 + (z * c0 - x * c2)),
        v2 + 2.0 * (w * c2 + (x * c1 - y * c0)),
    )


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v (..., 3) by unit quaternion(s) q (..., 4)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return np.stack(
        rotate_components((q[..., 0], q[..., 1], q[..., 2], q[..., 3]), (v[..., 0], v[..., 1], v[..., 2])), axis=-1
    )


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def sign_normalize(q: np.ndarray) -> np.ndarray:
    """Canonicalize the sign ambiguity: q and -q encode the same rotation.

    Flips so w >= 0; when w == 0 exactly, flips so the first nonzero of
    (x, y, z) is positive.
    """
    q = np.asarray(q, dtype=np.float64)
    w = q[..., 0]
    flip = w < 0.0
    if q.ndim > 0 and q.shape[-1] == 4:
        zero_w = w == 0.0
        if np.any(zero_w):
            # tie-break on the first nonzero vector component
            x, y, z = q[..., 1], q[..., 2], q[..., 3]
            tie = np.where(x != 0.0, x, np.where(y != 0.0, y, z))
            flip = flip | (zero_w & (tie < 0.0))
    return np.where(flip[..., None], -q, q)
