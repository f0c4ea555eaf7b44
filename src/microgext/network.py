"""Multi-task recognition network with a hand-written backward pass.

Architecture (fixed; only the width H is a hyperparameter: T, J and D = 3 + 4
come from skeleton, the 8 classes and 5 sub-states from synth):

    input (T, J, D)
      -> per-joint linear D -> H, ReLU, layer norm (no affine)
      -> mean-pool joints -> + joint-mean of the spatial embedding   = h0
      -> + temporal embedding (per frame)                            = h
      -> single-head scaled dot-product self-attention over frames   = a
      static branch:  mean-pool frames -> FC(H -> 8) -> / tau -> softmax
      dynamic branch: concat(a_t, h0_t) -> shared FC(2H -> 5) per frame
      contrastive:    mean-pool frames -> FC(H -> H) -> L2 normalize

The spatial embedding (J x H) is added to every joint's row right before a
plain mean over joints, so only its joint-mean reaches h0: its rows share
one gradient and differ only by their initial draw, and the network cannot
tell which joint a row belongs to.

The temperature tau only rescales logits for the calibrated probabilities;
it never changes the argmax and is excluded from gradient-based training.

``joint_stage`` is the frame-local part, from the input to h0. ``forward_batch`` runs
it on whole windows for training and evaluation; the streaming predictor
(``stream.ModelPredictor``) runs it on one new frame per push and keeps the
window's rows itself, with no embedding head.

Reverse-mode gradients are derived manually for this fixed graph; the test
suite checks every parameter tensor against central finite differences.
"""

from __future__ import annotations

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


class ShapeMismatch(ValueError):
    pass


class NonFiniteActivation(FloatingPointError):
    pass


@dataclass(frozen=True)
class HyperParams:
    hidden: int = 256
    alpha: float = 0.6
    beta: float = 0.2
    gamma: float = 0.2
    learning_rate: float = 0.001
    batch_size: int = 32
    plateau_patience: int = 5
    plateau_factor: float = 0.5
    plateau_threshold: float = 1e-4
    min_learning_rate: float = 1e-5
    max_epochs: int = 60
    contrastive_temperature: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation as a string ("int" or "float")
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int if f.type == "int" else (int, float)):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValueError("loss weights must sum to 1")
        for name in ("hidden", "alpha", "beta", "gamma", "learning_rate", "batch_size",
                     "plateau_patience", "plateau_factor", "max_epochs", "contrastive_temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def param_shapes(hp: HyperParams) -> dict[str, tuple[int, ...]]:
    h = hp.hidden
    return {
        "w_in": (N_FEATURES, h),
        "b_in": (h,),
        "spatial_embed": (NUM_JOINTS, h),
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
            std = 0.02 if name in ("spatial_embed", "temporal_embed") else 1.0 / np.sqrt(shape[0])
            tensors[name] = rng.normal(0.0, std, shape)
    return ModelParams(hp, tensors, tau=1.0)


def joint_stage(params: ModelParams, x: np.ndarray) -> dict[str, np.ndarray]:
    """The frame-local stage: features (..., J, D) to the pooled frame
    embedding h0 (..., H). Returns h0 with the intermediates the backward
    pass reads: the scaled input x and lin as flat (N, D) and (N, H) rows,
    where N counts every joint of every frame, z (..., J, H) and inv (N,).

    Nothing here mixes frames, so a streaming caller runs it on one new
    frame per push while ``forward_batch`` runs it on whole windows.
    """
    p = params.tensors
    hidden = params.hp.hidden
    xs = (x * _INPUT_SCALE).reshape(-1, N_FEATURES)
    lin = xs @ p["w_in"]
    lin += p["b_in"]
    # ReLU, then layer norm (no affine) on one buffer. Mean and variance are
    # row dots: unlike a BLAS matrix-vector product, a row's result does not
    # depend on where the row sits in the block, so one streamed frame
    # equals its row of a batch bit for bit.
    r = np.maximum(lin, 0.0)
    r -= np.vecdot(r, np.full(hidden, 1.0 / hidden))[:, None]
    inv = 1.0 / np.sqrt(np.vecdot(r, r) / hidden + LN_EPS)
    r *= inv[:, None]
    z = r.reshape(*x.shape[:-1], hidden)
    # the joint-mean of (z + spatial_embed), without the (..., J, H) add
    h0 = z.sum(axis=-2) / NUM_JOINTS + p["spatial_embed"].mean(axis=0)
    return {"x": xs, "lin": lin, "z": z, "inv": inv, "h0": h0}


def forward_batch(params: ModelParams, x: np.ndarray, want_cache: bool = False):
    """Run the network on a batch (B, T, J, D).

    Returns a dict with class_logits (B, 8), class_probs (B, 8),
    state_logits (B, T, 5) and embedding (B, H); with want_cache, every
    intermediate needed by the backward pass is included.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != INPUT_SHAPE:
        raise ShapeMismatch(f"expected batch of {INPUT_SHAPE}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteActivation("non-finite values in input window")
    p = params.tensors
    stage = joint_stage(params, x)
    h0 = stage["h0"]  # (B, T, H)
    h = h0 + p["temporal_embed"]

    q = h @ p["wq"]
    k = h @ p["wk"]
    v = h @ p["wv"]
    scale = 1.0 / np.sqrt(params.hp.hidden)
    attn = losses.softmax((q @ k.transpose(0, 2, 1)) * scale)
    a = attn @ v

    g = a.mean(axis=1)  # (B, H)
    class_logits = g @ p["w_class"] + p["b_class"]
    u_cat = np.concatenate([a, h0], axis=-1)  # (B, T, 2H)
    state_logits = u_cat @ p["w_state"] + p["b_state"]
    e_raw = g @ p["w_embed"] + p["b_embed"]
    norms = np.linalg.norm(e_raw, axis=-1, keepdims=True)
    norms = np.maximum(norms, 1e-12)
    embedding = e_raw / norms
    class_probs = losses.softmax(class_logits / params.tau)

    if not np.all(np.isfinite(class_logits)) or not np.all(np.isfinite(state_logits)):
        raise NonFiniteActivation("non-finite activations in forward pass")

    out = {
        "class_logits": class_logits,
        "class_probs": class_probs,
        "state_logits": state_logits,
        "embedding": embedding,
    }
    if want_cache:
        out.update(stage, h=h, q=q, k=k, v=v, attn=attn, g=g, u_cat=u_cat, e_norms=norms)
    return out


def batch_loss(params: ModelParams, x, class_labels, state_labels, hp: HyperParams) -> float:
    """Total training loss of a batch; the finite-difference tests probe this."""
    out = forward_batch(params, x)
    with np.errstate(all="raise"):
        total, _, _ = losses.total_loss(
            out["class_logits"], out["state_logits"], out["embedding"],
            class_labels, state_labels, hp,
        )
    return float(total)


def loss_and_grads(params: ModelParams, x, class_labels, state_labels, hp: HyperParams):
    """Total loss, per-component values, and gradients for every tensor.

    This is the reverse-mode pass for the fixed architecture above. tau takes
    no gradient: cross-entropies act on pre-temperature logits and the
    temperature is fit post hoc.
    """
    cache = forward_batch(params, x, want_cache=True)
    p = params.tensors
    hidden = hp.hidden

    total, components, (d_class_logits, d_state_logits, d_emb) = losses.total_loss(
        cache["class_logits"], cache["state_logits"], cache["embedding"], class_labels, state_labels, hp
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

    # dynamic head
    u_flat = cache["u_cat"].reshape(-1, 2 * hidden)
    d_state_flat = d_state_logits.reshape(-1, N_STATES)
    grads["w_state"] = u_flat.T @ d_state_flat
    grads["b_state"] = d_state_flat.sum(axis=0)
    d_u = d_state_logits @ p["w_state"].T  # (B, T, 2H)

    # pooled attention output feeds both heads; per-frame slice feeds dynamic
    d_a = d_g[:, None, :] / T_WINDOW + d_u[..., :hidden]
    d_h0_direct = d_u[..., hidden:]

    # attention backward
    attn, v, q, k = cache["attn"], cache["v"], cache["q"], cache["k"]
    scale = 1.0 / np.sqrt(hidden)
    d_attn = d_a @ v.transpose(0, 2, 1)
    d_v = attn.transpose(0, 2, 1) @ d_a
    d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.transpose(0, 2, 1) @ q) * scale

    h = cache["h"]
    h_flat = h.reshape(-1, hidden)
    grads["wq"] = h_flat.T @ d_q.reshape(-1, hidden)
    grads["wk"] = h_flat.T @ d_k.reshape(-1, hidden)
    grads["wv"] = h_flat.T @ d_v.reshape(-1, hidden)
    d_h = d_q @ p["wq"].T + d_k @ p["wk"].T + d_v @ p["wv"].T

    grads["temporal_embed"] = d_h.sum(axis=0)
    d_h0 = d_h + d_h0_direct

    # joint mean-pool and spatial embedding: every joint of a frame gets the
    # same gradient, d_z (B, T, H)
    z, inv, lin = cache["z"], cache["inv"], cache["lin"]
    d_z = d_h0 / NUM_JOINTS
    grads["spatial_embed"] = np.broadcast_to(d_z.sum(axis=(0, 1)), z.shape[-2:])

    # layer norm (no affine): dr = inv * (dz - mean(dz) - z * mean(dz * z)),
    # with dz shared by the joints of a frame
    c = d_z - d_z.mean(axis=-1, keepdims=True)  # (B, T, H)
    m = np.matmul(z, d_z[..., None]) / hidden  # (B, T, J, 1)
    d_r = z * m
    np.subtract(c[:, :, None, :], d_r, out=d_r)
    d_lin = d_r.reshape(lin.shape)
    d_lin *= inv[:, None]
    d_lin *= lin > 0.0

    grads["w_in"] = cache["x"].T @ d_lin
    grads["b_in"] = np.ones(len(d_lin)) @ d_lin

    return float(total), components, grads
