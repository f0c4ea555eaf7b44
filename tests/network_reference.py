"""Reference forward and backward pass of the recognition network.

Deliberately plain and separate from the production code in
``microgext.network``: the per-joint stage works on (..., J, H) tensors with
broadcasting, and attention and the ``w_in`` gradient are written as ``einsum``
contractions. It reads the parameters, constants and loss terms of the
production modules, so the two differ only in how they compute the same
graph; tests compare them within float64 rounding.
"""

from __future__ import annotations

import numpy as np

from microgext import losses
from microgext.network import _INPUT_SCALE, LN_EPS, N_STATES, ModelParams
from microgext.skeleton import NUM_JOINTS, T_WINDOW


def _layer_norm(r: np.ndarray):
    mu = r.mean(axis=-1, keepdims=True)
    d = r - mu
    var = (d * d).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return d * inv, inv


def joint_stage(params: ModelParams, x: np.ndarray) -> dict[str, np.ndarray]:
    """Features (..., J, D) to the pooled frame embedding h0 (..., H)."""
    x = x * _INPUT_SCALE
    p = params.tensors
    lin = x @ p["w_in"] + p["b_in"]  # (..., J, H)
    z, inv = _layer_norm(np.maximum(lin, 0.0))
    h0 = z.mean(axis=-2)
    return {"x": x, "lin": lin, "z": z, "inv": inv, "h0": h0}


def forward_batch(params: ModelParams, x: np.ndarray, want_cache: bool = False):
    """Network outputs for a batch (B, T, J, D); with want_cache, every
    intermediate the backward pass reads."""
    x = np.asarray(x, dtype=np.float64)
    p = params.tensors
    stage = joint_stage(params, x)
    h0 = stage["h0"]  # (B, T, H)
    h = h0 + p["temporal_embed"]

    q = h @ p["wq"]
    k = h @ p["wk"]
    v = h @ p["wv"]
    scale = 1.0 / np.sqrt(params.hp.hidden)
    scores = np.einsum("bth,bsh->bts", q, k) * scale
    attn = losses.softmax(scores)
    a = np.einsum("bts,bsh->bth", attn, v)

    g = a.mean(axis=1)  # (B, H)
    class_logits = g @ p["w_class"] + p["b_class"]
    u_cat = np.concatenate([a, h0], axis=-1)  # (B, T, 2H)
    state_logits = u_cat @ p["w_state"] + p["b_state"]
    e_raw = g @ p["w_embed"] + p["b_embed"]
    norms = np.maximum(np.linalg.norm(e_raw, axis=-1, keepdims=True), 1e-12)
    embedding = e_raw / norms
    class_probs = losses.softmax(class_logits / params.tau)

    out = {
        "class_logits": class_logits,
        "class_probs": class_probs,
        "state_logits": state_logits,
        "embedding": embedding,
    }
    if want_cache:
        out.update(stage, h=h, q=q, k=k, v=v, attn=attn, g=g, u_cat=u_cat, e_norms=norms)
    return out


def loss_and_grads(params: ModelParams, x, class_labels, state_labels):
    """Total loss, per-component values, and gradients for every tensor."""
    cache = forward_batch(params, x, want_cache=True)
    p = params.tensors
    hidden = params.hp.hidden

    total, components, (d_class_logits, d_state_logits, d_emb) = losses.total_loss(
        cache["class_logits"], cache["state_logits"], cache["embedding"], class_labels, state_labels
    )

    grads = {}

    e, norms = cache["embedding"], cache["e_norms"]
    d_e_raw = (d_emb - (d_emb * e).sum(axis=-1, keepdims=True) * e) / norms
    grads["w_embed"] = cache["g"].T @ d_e_raw
    grads["b_embed"] = d_e_raw.sum(axis=0)
    d_g = d_e_raw @ p["w_embed"].T

    grads["w_class"] = cache["g"].T @ d_class_logits
    grads["b_class"] = d_class_logits.sum(axis=0)
    d_g = d_g + d_class_logits @ p["w_class"].T

    u_flat = cache["u_cat"].reshape(-1, 2 * hidden)
    d_state_flat = d_state_logits.reshape(-1, N_STATES)
    grads["w_state"] = u_flat.T @ d_state_flat
    grads["b_state"] = d_state_flat.sum(axis=0)
    d_u = d_state_logits @ p["w_state"].T  # (B, T, 2H)

    d_a = d_g[:, None, :] / T_WINDOW + d_u[..., :hidden]
    d_h0_direct = d_u[..., hidden:]

    attn, v, q, k = cache["attn"], cache["v"], cache["q"], cache["k"]
    scale = 1.0 / np.sqrt(hidden)
    d_attn = np.einsum("bth,bsh->bts", d_a, v)
    d_v = np.einsum("bts,bth->bsh", attn, d_a)
    d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
    d_q = np.einsum("bts,bsh->bth", d_scores, k) * scale
    d_k = np.einsum("bts,bth->bsh", d_scores, q) * scale

    h_flat = cache["h"].reshape(-1, hidden)
    grads["wq"] = h_flat.T @ d_q.reshape(-1, hidden)
    grads["wk"] = h_flat.T @ d_k.reshape(-1, hidden)
    grads["wv"] = h_flat.T @ d_v.reshape(-1, hidden)
    d_h = d_q @ p["wq"].T + d_k @ p["wk"].T + d_v @ p["wv"].T

    grads["temporal_embed"] = d_h.sum(axis=0)
    d_h0 = d_h + d_h0_direct

    z, inv = cache["z"], cache["inv"]
    d_z = d_h0[:, :, None, :] / NUM_JOINTS

    d_r = inv * (d_z - d_z.mean(axis=-1, keepdims=True) - z * (d_z * z).mean(axis=-1, keepdims=True))
    d_lin = d_r * (cache["lin"] > 0.0)

    grads["w_in"] = np.einsum("btjd,btjh->dh", cache["x"], d_lin)
    grads["b_in"] = d_lin.sum(axis=(0, 1, 2))

    return float(total), components, grads
