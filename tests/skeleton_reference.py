"""Component-form featurization, the oracle for the matrix-form one.

It writes rel_pos = inv(q_wrist) * (p_j - p_wrist) and rel_quat =
inv(q_wrist) * q_j component by component with ``quat.rotate_components`` and
``quat.multiply_components``, on (..., J) component arrays. The library's
``skeleton.features_from_arrays`` builds one 7×7 matrix per frame instead and
must stay within float rounding of this on every frame.
"""

from __future__ import annotations

import numpy as np

from microgext import quat
from microgext.skeleton import WRIST


def features_from_arrays(positions: np.ndarray, orientations: np.ndarray) -> np.ndarray:
    """Wrist-relative features (..., J, 7) of stacked frames, sign-canonical
    (w >= 0), with the wrist row written exactly."""
    pos = np.asarray(positions, dtype=np.float64)
    ori = np.asarray(orientations, dtype=np.float64)
    inv_w = ori[..., WRIST, None, :] * np.array([1.0, -1.0, -1.0, -1.0])  # the conjugate
    inv = (inv_w[..., 0], inv_w[..., 1], inv_w[..., 2], inv_w[..., 3])
    rel = pos - pos[..., WRIST, None, :]
    out = np.empty(pos.shape[:-1] + (7,))
    out[..., 0], out[..., 1], out[..., 2] = quat.rotate_components(inv, (rel[..., 0], rel[..., 1], rel[..., 2]))
    out[..., 3], out[..., 4], out[..., 5], out[..., 6] = quat.multiply_components(
        inv, (ori[..., 0], ori[..., 1], ori[..., 2], ori[..., 3])
    )
    out[..., 3:] = quat.sign_normalize(out[..., 3:])
    out[..., WRIST, :] = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return out
