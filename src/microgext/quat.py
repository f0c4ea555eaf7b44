"""Unit quaternion helpers used by the skeleton and synthesis layers.

Quaternions are stored as (w, x, y, z) numpy arrays. The array functions
accept stacked arrays whose last axis has length 4 (3 for vectors) and
broadcast over leading axes, so per-frame/per-joint batches go through
single vectorized calls. The Hamilton product and the rotation are written
once, in component form: ``multiply_components`` and ``rotate_components``
take a quaternion as its four component arrays (or a (4, ...) array, whose
rows are the components), which is how synthesis calls them on contiguous
per-component planes; ``rotate`` unpacks its last axis into that form and
stacks the result back. Synthesis keeps the component form because every
clip's bytes depend on its operation order.

Featurization instead needs, per frame, the rotation by conj(q) and the
left product by conj(q), both linear maps (Shoemake 1985, "Animating
Rotation with Quaternion Curves"). ``inverse_map`` builds them as one 7×7
block-diagonal matrix from ``[q⊗q | q | 1] @ INVERSE_TABLE``, a constant
(21, 49) table of small integers; the tests check it against the component
form.
"""

from __future__ import annotations

import re

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


# The two blocks of ``inverse_map``'s B by rows, each entry a sum of integer
# times factor, where "xy" is x·y and a bare digit is a constant. For row
# vectors B holds the transposes of the maps: the rotation by conj(q)
# transposed is the rotation matrix of q, and the left product by conj(q)
# transposed is the left-product matrix of q.
_ROTATION_ROWS = (
    ("1 -2yy -2zz", "2xy -2wz", "2xz +2wy"),
    ("2xy +2wz", "1 -2xx -2zz", "2yz -2wx"),
    ("2xz -2wy", "2yz +2wx", "1 -2xx -2yy"),
)
_PRODUCT_ROWS = (
    ("w", "-x", "-y", "-z"),
    ("x", "w", "-z", "y"),
    ("y", "z", "w", "-x"),
    ("z", "-y", "x", "w"),
)


def _inverse_table() -> np.ndarray:
    """The (21, 49) table whose rows are the factors q⊗q (16), q (4) and 1."""
    factors = [a + b for a in "wxyz" for b in "wxyz"] + list("wxyz") + [""]
    table = np.zeros((len(factors), 7, 7))
    for offset, block in ((0, _ROTATION_ROWS), (3, _PRODUCT_ROWS)):
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                for term in entry.split():
                    sign, digit, factor = re.fullmatch(r"([+-]?)(\d?)([wxyz]*)", term).groups()
                    table[factors.index(factor), offset + i, offset + j] = int(sign + (digit or "1"))
    return table.reshape(len(factors), 7 * 7)


INVERSE_TABLE = _inverse_table()


def inverse_map(q: np.ndarray) -> np.ndarray:
    """The (..., 7, 7) block-diagonal B of quaternion(s) q (..., 4) with
    [v | p] @ B = [rotate(conj(q), v) | conj(q) * p] for row vectors v (3)
    and p (4): B = [q⊗q | q | 1] @ INVERSE_TABLE.

    The rotation entries are the non-homogeneous ones (1 - 2(y² + z²), ...),
    the algebra of ``rotate_components``' sandwich formula; the homogeneous
    ones (w² + x² - y² - z², ...) scale by |q|², which is not exactly 1 for
    a float32-stored q. The table's coefficients are 0, ±1 and ±2, so its
    products are exact and only its sums round.
    """
    q = np.asarray(q, dtype=np.float64)
    lead = q.shape[:-1]
    factors = np.concatenate([(q[..., :, None] * q[..., None, :]).reshape(*lead, 16), q, np.ones((*lead, 1))], axis=-1)
    return (factors @ INVERSE_TABLE).reshape(*lead, 7, 7)


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
        if zero_w.any():
            # tie-break on the first nonzero vector component
            x, y, z = q[..., 1], q[..., 2], q[..., 3]
            tie = np.where(x != 0.0, x, np.where(y != 0.0, y, z))
            flip = flip | (zero_w & (tie < 0.0))
    return q * np.where(flip, -1.0, 1.0)[..., None]  # exact, and one (..., 4) temporary
