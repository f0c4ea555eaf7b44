"""Training objective: weighted class, per-frame state, and contrastive terms.

The total loss is 0.6 * class cross-entropy + 0.2 * state cross-entropy
(averaged over frames) + 0.2 * a supervised normalized-temperature
contrastive term over in-batch pairs. Cross-entropies are computed on
pre-temperature logits; the temperature is fit post hoc by calibration and
never participates in training.

Each term returns (loss, gradient w.r.t. its input), and total_loss returns
(total, components, gradients) for the network's hand-written backward pass.
"""

from __future__ import annotations

import warnings

import numpy as np

CLASS_WEIGHT, STATE_WEIGHT, CONTRASTIVE_WEIGHT = 0.6, 0.2, 0.2
CONTRASTIVE_TEMPERATURE = 0.1


class BatchTooSmallForContrastive(UserWarning):
    """No positive pair in the batch: the contrastive term is set to 0."""


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """exp(logits - max) / sum over the last axis, in one new buffer.

    The shift, the exponential and the division run in place on the
    shifted copy, so ``logits`` is never written and the result has the
    bits of the formula with a temporary per step.
    """
    out = logits - logits.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over all leading axes.

    Returns (loss, dloss/dlogits); the gradient already carries the 1/N of
    the mean so callers only scale by their loss weight.
    """
    labels = np.asarray(labels)
    lsm = log_softmax(logits)
    flat_lsm = lsm.reshape(-1, logits.shape[-1])
    flat_y = labels.reshape(-1)
    n = flat_y.shape[0]
    loss = -float(flat_lsm[np.arange(n), flat_y].mean())
    grad = softmax(logits).reshape(-1, logits.shape[-1])
    grad[np.arange(n), flat_y] -= 1.0
    grad = (grad / n).reshape(logits.shape)
    return loss, grad


def contrastive_loss(embeddings: np.ndarray, class_labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Supervised NT-Xent over in-batch pairs of L2-normalized embeddings.

    For each anchor i the positives are the same-class samples j != i:

        L_i = -log( sum_pos exp(sim/kappa) / sum_{j != i} exp(sim/kappa) )

    with sim the dot product and kappa = CONTRASTIVE_TEMPERATURE. Returns (loss, dloss/dembeddings). Anchors with
    no positive are skipped; when no anchor has one (as in a batch of one),
    loss and gradient are 0 and a BatchTooSmallForContrastive warning is
    emitted.
    """
    e = np.asarray(embeddings)
    y = np.asarray(class_labels)
    sims = (e @ e.T) / CONTRASTIVE_TEMPERATURE
    others = ~np.eye(len(e), dtype=bool)
    pos = (y[:, None] == y[None, :]) & others
    valid = pos.any(axis=1)
    n_valid = int(valid.sum())
    if n_valid == 0:
        warnings.warn("no positive pair in batch; contrastive term set to 0", BatchTooSmallForContrastive)
        return 0.0, np.zeros_like(e)

    # Both sums run over every row, with the masks as factors and one shift
    # per row (its maximum, the self-similarity of a unit embedding). An
    # anchor without a positive gets weight 0, and its positive sum is set
    # to 1 so that its log stays finite.
    ex = np.exp(sims - sims.max(axis=1, keepdims=True))
    all_sum = (ex * others).sum(axis=1)
    pos_sum = (ex * pos).sum(axis=1) + ~valid
    loss = float(((np.log(all_sum) - np.log(pos_sum)) * valid).sum() / n_valid)

    # dL/dsims: softmax over all non-self minus softmax over positives,
    # per valid anchor, averaged
    g = ex * (others * (valid / all_sum)[:, None] - pos * (valid / pos_sum)[:, None]) / n_valid
    demb = (g @ e + g.T @ e) / CONTRASTIVE_TEMPERATURE
    return loss, demb


def total_loss(
    class_logits: np.ndarray,
    state_logits: np.ndarray,
    embeddings: np.ndarray,
    class_labels: np.ndarray,
    state_labels: np.ndarray,
):
    """Sum of the three terms, weighted by CLASS_WEIGHT, STATE_WEIGHT and
    CONTRASTIVE_WEIGHT.

    Returns (loss, components, grads): components maps "class", "state" and
    "contrastive" to the unweighted terms, and grads holds the gradients
    w.r.t. (class_logits, state_logits, embeddings), each already scaled by
    its loss weight.
    """
    l_class, d_class = cross_entropy(class_logits, class_labels)
    l_state, d_state = cross_entropy(state_logits, state_labels)
    l_contr, d_emb = contrastive_loss(embeddings, class_labels)

    total = CLASS_WEIGHT * l_class + STATE_WEIGHT * l_state + CONTRASTIVE_WEIGHT * l_contr
    components = {"class": l_class, "state": l_state, "contrastive": l_contr}
    return total, components, (CLASS_WEIGHT * d_class, STATE_WEIGHT * d_state, CONTRASTIVE_WEIGHT * d_emb)
