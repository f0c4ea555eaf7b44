"""Multi-task recognition network with a hand-written backward pass.

Architecture (fixed; only the width H is a hyperparameter: T, J and D = 3 + 4
come from skeleton, the 8 classes and 5 sub-states from synth):

    input (T, J, D)
      -> per-joint linear D -> H, ReLU, layer norm (no affine)
      -> mean-pool joints                                            = h0
      -> + temporal embedding (per frame)                            = h
      -> single-head scaled dot-product self-attention over frames   = a
      static branch:  mean-pool frames -> FC(H -> 8) -> / tau -> softmax
      dynamic branch: concat(a_t, h0_t) -> shared FC(2H -> 5) per frame
      contrastive:    mean-pool frames -> FC(H -> H) -> L2 normalize

Every joint's row goes through the same map before a plain mean over
joints, so the network cannot tell which joint a row belongs to (Deep Sets:
a shared per-element map followed by mean pooling is permutation invariant).

The temperature tau only rescales logits for the calibrated probabilities;
it never changes the argmax and is excluded from gradient-based training.

``joint_stage`` is the frame-local part, from the input to h0, and ``heads``
the rest from a window's Q/K/V and h0 rows: the attention, the class head
with its tau softmax and the sub-state head. ``forward_batch`` runs both on
whole windows for training and evaluation and adds the embedding head.
``joint_stage`` takes the input weight ``input_weight`` stacks from the
parameters: ``forward_batch`` stacks it per call. The streaming predictor
(``stream.ModelPredictor``) stacks it once, runs ``joint_stage`` on one new
frame per push, folds K into the queries and V into both heads, and shares
``checked_class_probs`` with ``heads``.

Every array takes its dtype from the parameters: ``training.train`` runs the
step on float32 tensors, while float64 parameters (``init_params``, a loaded
checkpoint) keep every array in float64. Constants are Python floats or are
cast to the parameters' dtype, so nothing upcasts a float32 pass.

Reverse-mode gradients are derived manually for this fixed graph; the test
suite checks every parameter tensor against central finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import losses
from .skeleton import NUM_JOINTS, T_WINDOW
from .synth import CLASS_NAMES, SubState

LN_EPS = 1e-5

# input conditioning: wrist-relative positions are a few centimeters while
# quaternion components are O(1); scaling positions up front keeps the
# sub-state signal (thumb translation) from drowning in the projection
POS_SCALE = 10.0
_INPUT_SCALE = np.array([POS_SCALE, POS_SCALE, POS_SCALE, 1.0, 1.0, 1.0, 1.0])

N_FEATURES = _INPUT_SCALE.size  # wrist-relative position (3) and orientation (4)
INPUT_SHAPE = (T_WINDOW, NUM_JOINTS, N_FEATURES)
N_CLASSES = len(CLASS_NAMES)
N_STATES = len(SubState)
# windows per inference-only forward pass (evaluation and calibration): it
# bounds their float64 activations, one (B, T, J, H) tensor is 7.2 MB at
# hidden 64 and 28.8 MB at hidden 256
EVAL_BATCH = 64


class ShapeMismatch(ValueError):
    pass


class NonFiniteActivation(FloatingPointError):
    pass


def is_number(value, annotation: str) -> bool:
    """An int for the annotation "int", an int or a float for "float", never a bool."""
    return not isinstance(value, bool) and isinstance(value, int if annotation == "int" else (int, float))


def check_number_fields(obj) -> None:
    """Raise ValueError unless each field of the dataclass ``obj`` is a finite ``is_number``."""
    for f in fields(obj):  # f.type is the annotation as a string ("int" or "float")
        value = getattr(obj, f.name)
        if not is_number(value, f.type):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HyperParams:
    hidden: int = 256
    learning_rate: float = 0.001
    max_epochs: int = 60
    master_seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        for name in ("hidden", "learning_rate", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def param_shapes(hp: HyperParams) -> dict[str, tuple[int, ...]]:
    h = hp.hidden
    return {
        "w_in": (N_FEATURES, h),
        "b_in": (h,),
        "temporal_embed": (T_WINDOW, h),
        "wq": (h, h),
        "wk": (h, h),
        "wv": (h, h),
        "w_state": (2 * h, N_STATES),
        "b_state": (N_STATES,),
        "w_class": (h, N_CLASSES),
        "b_class": (N_CLASSES,),
        "w_embed": (h, h),
        "b_embed": (h,),
    }


@dataclass(frozen=True)
class ModelParams:
    hp: HyperParams
    tensors: dict[str, np.ndarray]
    tau: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise NonFiniteActivation(f"non-finite temperature {self.tau}")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        shapes = param_shapes(self.hp)
        if set(self.tensors) != set(shapes):
            raise ShapeMismatch("parameter tensor names do not match the architecture")
        for name, shape in shapes.items():
            t = self.tensors[name]
            if t.shape != shape:
                raise ShapeMismatch(f"{name}: expected {shape}, got {t.shape}")
            if not np.all(np.isfinite(t)):
                raise NonFiniteActivation(f"{name}: non-finite parameter values")

    def with_tau(self, tau: float) -> "ModelParams":
        return replace(self, tau=float(tau))


def init_params(hp: HyperParams, seed: int = 0) -> ModelParams:
    """Zero biases, embeddings with std 0.02, weights with std 1/sqrt(fan-in)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    for name, shape in param_shapes(hp).items():
        if name.startswith("b_"):
            tensors[name] = np.zeros(shape)
        else:
            std = 0.02 if name == "temporal_embed" else 1.0 / np.sqrt(shape[0])
            tensors[name] = rng.normal(0.0, std, shape)
    return ModelParams(hp, tensors, tau=1.0)


def input_weight(params: ModelParams) -> np.ndarray:
    """The (D + 1, H) weight ``joint_stage`` takes: w_in with b_in as its last row."""
    p = params.tensors
    return np.concatenate([p["w_in"], p["b_in"][None]])


@functools.cache
def _stage_constants(hidden: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The input scale and the (H,) row of 1/H in ``dtype``, read-only."""
    scale = _INPUT_SCALE.astype(dtype)
    mean_row = np.full(hidden, 1.0 / hidden, dtype)
    scale.flags.writeable = mean_row.flags.writeable = False
    return scale, mean_row


def joint_stage(x: np.ndarray, w_in: np.ndarray) -> dict[str, np.ndarray]:
    """The frame-local stage: features (..., J, D) to the pooled frame
    embedding h0 (..., H), through ``w_in``, the (D + 1, H) input weight of
    ``input_weight``; its dtype sets every array's. The caller stacks that
    weight: ``forward_batch`` per call, the streaming predictor once.
    Returns h0 with the intermediates the backward pass reads, as flat rows
    where N counts every joint of every frame: x (N, D + 1), the scaled
    input with a ones column that carries b_in through the one input GEMM;
    lin (N, H), the pre-ReLU rows; d (N, H), the ReLU rows centred on their
    mean; and inv (N,), each row's inverse standard deviation. The
    layer-normed rows z = d * inv are never materialized: the joint pool
    weights each row of d by inv / J in one batched matmul per frame.

    Nothing here mixes frames, so a streaming caller runs it on one new
    frame per push while ``forward_batch`` runs it on whole windows.
    """
    hidden = w_in.shape[1]
    dtype = w_in.dtype
    scale, mean_row = _stage_constants(hidden, dtype)
    frames = x.shape[:-2]
    xs = np.empty((x.size // N_FEATURES, N_FEATURES + 1), dtype)
    np.multiply(x.reshape(-1, N_FEATURES), scale, out=xs[:, :N_FEATURES])
    xs[:, N_FEATURES] = 1.0
    lin = xs @ w_in
    # ReLU, then the layer norm (no affine) statistics. Mean and variance
    # are row dots: unlike a BLAS matrix-vector product, a row's result does
    # not depend on where the row sits in the block, so one streamed frame
    # equals its row of a batch bit for bit.
    d = np.maximum(lin, 0.0)
    d -= np.vecdot(d, mean_row)[:, None]
    inv = 1.0 / np.sqrt(np.vecdot(d, d) / hidden + LN_EPS)
    # h0 = mean_j(d_j * inv_j)
    pooled = (inv / NUM_JOINTS).reshape(*frames, 1, NUM_JOINTS) @ d.reshape(*frames, NUM_JOINTS, hidden)
    h0 = pooled.reshape(*frames, hidden)
    return {"x": xs, "lin": lin, "d": d, "inv": inv, "h0": h0}


def checked_class_probs(class_logits: np.ndarray, state_logits: np.ndarray, tau: float) -> np.ndarray:
    """softmax(class_logits / tau); raises NonFiniteActivation unless both heads' logits are finite."""
    if not (np.isfinite(class_logits).all() and np.isfinite(state_logits).all()):
        raise NonFiniteActivation("non-finite activations in forward pass")
    return losses.softmax(class_logits / tau)


def heads(params: ModelParams, qkv: np.ndarray, h0: np.ndarray) -> dict[str, np.ndarray]:
    """Attention and the class and sub-state heads of windows given as
    [q | k | v] rows (..., T, 3H) and h0 rows (..., T, H).

    Returns class_logits (..., 8), class_probs (softmax of logits / tau)
    and state_logits (..., T, 5), and for the backward pass attn
    (..., T, T), g (..., H), the frame-mean attention output, and u_cat
    (..., T, 2H). ``stream.ModelPredictor`` folds K into the queries and V
    into both heads instead.
    """
    p = params.tensors
    hidden = params.hp.hidden
    q, k, v = qkv[..., :hidden], qkv[..., hidden : 2 * hidden], qkv[..., 2 * hidden :]
    attn = losses.softmax((q @ k.mT) * (1.0 / math.sqrt(hidden)))
    a = attn @ v
    g = a.mean(axis=-2)
    class_logits = g @ p["w_class"] + p["b_class"]
    # the state head takes every frame's (2H) row in one GEMM
    u_cat = np.concatenate([a, h0], axis=-1)
    state_logits = (u_cat.reshape(-1, 2 * hidden) @ p["w_state"] + p["b_state"]).reshape(*a.shape[:-1], N_STATES)
    class_probs = checked_class_probs(class_logits, state_logits, params.tau)
    return {"class_logits": class_logits, "class_probs": class_probs,
            "state_logits": state_logits, "attn": attn, "g": g, "u_cat": u_cat}


def forward_batch(params: ModelParams, x: np.ndarray, want_cache: bool = False):
    """Run the network on a batch (B, T, J, D).

    Returns a dict with class_logits (B, 8), class_probs (B, 8),
    state_logits (B, T, 5) and embedding (B, H); with want_cache, every
    intermediate needed by the backward pass is included. x is cast to the
    parameters' dtype, and every output has that dtype.
    """
    x = np.asarray(x, dtype=params.tensors["w_in"].dtype)
    if x.ndim != 4 or x.shape[1:] != INPUT_SHAPE:
        raise ShapeMismatch(f"expected batch of {INPUT_SHAPE}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteActivation("non-finite values in input window")
    p = params.tensors
    hidden = params.hp.hidden
    stage = joint_stage(x, input_weight(params))
    h = stage["h0"] + p["temporal_embed"]  # (B, T, H)
    # Q, K and V as one flat (B*T, H) @ (H, 3H) GEMM
    w_qkv = np.concatenate([p["wq"], p["wk"], p["wv"]], axis=1)
    qkv = (h.reshape(-1, hidden) @ w_qkv).reshape(*h.shape[:2], 3 * hidden)
    out = heads(params, qkv, stage["h0"])

    # the contrastive embedding head, which only training reads
    e_raw = out["g"] @ p["w_embed"] + p["b_embed"]
    norms = np.maximum(np.linalg.norm(e_raw, axis=-1, keepdims=True), 1e-12)
    out["embedding"] = e_raw / norms
    if not want_cache:
        return {key: out[key] for key in ("class_logits", "class_probs", "state_logits", "embedding")}
    out.update(stage, h=h, w_qkv=w_qkv, qkv=qkv, e_norms=norms)
    return out


def loss_and_grads(params: ModelParams, x, class_labels, state_labels):
    """Total loss, per-component values, and gradients for every tensor.

    This is the reverse-mode pass for the fixed architecture above. tau takes
    no gradient: cross-entropies act on pre-temperature logits and the
    temperature is fit post hoc. The LayerNorm backward overwrites the
    cache's d rows in place; the cache never leaves this function.
    """
    cache = forward_batch(params, x, want_cache=True)
    p = params.tensors
    hidden = params.hp.hidden

    total, components, (d_class_logits, d_state_logits, d_emb) = losses.total_loss(
        cache["class_logits"], cache["state_logits"], cache["embedding"], class_labels, state_labels
    )

    grads = {}

    # embedding head: e = e_raw / ||e_raw||
    e, norms = cache["embedding"], cache["e_norms"]
    d_e_raw = (d_emb - (d_emb * e).sum(axis=-1, keepdims=True) * e) / norms
    grads["w_embed"] = cache["g"].T @ d_e_raw
    grads["b_embed"] = d_e_raw.sum(axis=0)
    d_g = d_e_raw @ p["w_embed"].T

    # static head
    grads["w_class"] = cache["g"].T @ d_class_logits
    grads["b_class"] = d_class_logits.sum(axis=0)
    d_g = d_g + d_class_logits @ p["w_class"].T

    # dynamic head, on flat (B*T, 2H) rows
    u_flat = cache["u_cat"].reshape(-1, 2 * hidden)
    d_state_flat = d_state_logits.reshape(-1, N_STATES)
    grads["w_state"] = u_flat.T @ d_state_flat
    grads["b_state"] = d_state_flat.sum(axis=0)
    d_u = (d_state_flat @ p["w_state"].T).reshape(cache["u_cat"].shape)

    # pooled attention output feeds both heads; per-frame slice feeds dynamic
    d_a = d_g[:, None, :] / T_WINDOW + d_u[..., :hidden]
    d_h0_direct = d_u[..., hidden:]

    # attention backward, writing d_q, d_k and d_v into one (B, T, 3H) buffer
    attn, qkv = cache["attn"], cache["qkv"]
    q, k, v = qkv[..., :hidden], qkv[..., hidden : 2 * hidden], qkv[..., 2 * hidden :]
    d_qkv = np.empty_like(qkv)
    d_attn = d_a @ v.transpose(0, 2, 1)
    np.matmul(attn.transpose(0, 2, 1), d_a, out=d_qkv[..., 2 * hidden :])
    d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
    d_scores *= 1.0 / math.sqrt(hidden)
    np.matmul(d_scores, k, out=d_qkv[..., :hidden])
    np.matmul(d_scores.transpose(0, 2, 1), q, out=d_qkv[..., hidden : 2 * hidden])

    d_qkv_flat = d_qkv.reshape(-1, 3 * hidden)
    grads["wq"], grads["wk"], grads["wv"] = np.split(cache["h"].reshape(-1, hidden).T @ d_qkv_flat, 3, axis=1)
    d_h = (d_qkv_flat @ cache["w_qkv"].T).reshape(cache["h"].shape)

    grads["temporal_embed"] = d_h.sum(axis=0)
    d_h0 = d_h + d_h0_direct

    # joint mean-pool: every joint of a frame gets the same gradient, d_z (B, T, H)
    d, inv, lin = cache["d"], cache["inv"], cache["lin"]
    d_z = d_h0 / NUM_JOINTS

    # layer norm (no affine), with z = d * inv and dz shared by the joints of
    # a frame: dr = inv * (c - z * mean(dz * z)), c = dz - mean(dz). The
    # rows of d become (c - d * inv² * (d · dz) / H) in place; inv is one
    # factor per row, so the input GEMM applies it to the (N, D + 1) input
    # rows instead of the (N, H) ones: xᵀ (inv ⊙ d) = (inv ⊙ x)ᵀ d
    c = d_z - d_z.mean(axis=-1, keepdims=True)  # (B, T, H)
    d_frames = d.reshape(*d_z.shape[:2], NUM_JOINTS, hidden)
    m = (d_frames @ d_z[..., None]).reshape(-1)  # d · dz per row
    d *= (inv * inv * m / hidden)[:, None]
    np.subtract(c[:, :, None, :], d_frames, out=d_frames)
    d *= lin > 0.0  # d now holds d_lin / inv

    # w_in and b_in from one GEMM: the ones column of x carries the bias
    d_in = (cache["x"] * inv[:, None]).T @ d
    grads["w_in"], grads["b_in"] = d_in[:N_FEATURES], d_in[N_FEATURES]

    return float(total), components, grads
