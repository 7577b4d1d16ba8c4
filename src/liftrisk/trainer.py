"""Loss, Adam optimization, early stopping, and the training loop.

Training monitors the loss (cross-entropy plus the output layer's L2 term)
evaluated on the training set in inference mode after every epoch; there is
no validation split.  When the loss stops improving for ``patience`` epochs
the loop halts and the parameters snapshotted at the best-loss epoch are
restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import TrainingDivergedError
from .fileio import lines_text, write_file
from .nncore import Model

LOG_CLAMP = 1e-12
# images per inference pass, the default training batch size.  A pass's
# transient memory grows with it, through each layer's output: a conv layer
# multiplies its patches a block of images at a time, never the whole
# pass's patch matrix.  Passes split at whole images, so it sets only the
# row count of each forward GEMM
EVAL_BATCH = 32
# elements per Adam block: a block's parameter, gradient, moments and scratch
# stay in cache through all of the update's passes
ADAM_BLOCK = 32768
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)       # per epoch, 1-indexed
    accuracies: list[float] = field(default_factory=list)
    best_epoch: int = 0     # the epoch whose parameters training restores

    @property
    def stopped_epoch(self) -> int:
        return len(self.losses)


def loss(probs: np.ndarray, onehot: np.ndarray, model: Model | None, l2_lambda: float) -> float:
    """Mean categorical cross-entropy (probabilities clamped at 1e-12) plus
    l2_lambda * sum(w^2) over the final output layer's weight matrix."""
    p = np.clip(np.asarray(probs, dtype=np.float64), LOG_CLAMP, None)
    ce = float(-np.mean(np.sum(np.asarray(onehot) * np.log(p), axis=1)))
    if l2_lambda != 0.0:
        if model is None:
            raise ValueError("l2 term needs the model's output layer weights")
        ce += l2_lambda * float(np.sum(np.asarray(model.layers[-1].w, dtype=np.float64) ** 2))
    return ce


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, learning_rate: float) -> AdamState:
    """One bias-corrected update, in place: m <- b1*m + (1-b1)*g,
    v <- b2*v + (1-b2)*g^2, theta <- theta - alpha * m_hat / (sqrt(v_hat) + eps).

    Each parameter is updated in blocks of whole rows (first-axis slices,
    so views for any memory layout) of about ADAM_BLOCK elements.  Every
    element goes through the same operations, in the same order and dtypes,
    as in a whole-array update, so the result is the same bit for bit.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        rows = max(1, ADAM_BLOCK // p[0].size)
        # scratch: g's terms in g's dtype, the step and its denominator in
        # the moments' dtypes, as the whole-array expressions would have them
        g_tmp = np.empty_like(g[:rows])
        step, denom = np.empty_like(m[:rows]), np.empty_like(v[:rows])
        for lo in range(0, len(p), rows):
            block = slice(lo, lo + rows)
            pb, gb, mb, vb = p[block], g[block], m[block], v[block]
            k = len(pb)
            t, s, d = g_tmp[:k], step[:k], denom[:k]
            mb *= b1
            np.multiply(1.0 - b1, gb, out=t)
            mb += t
            vb *= b2
            np.square(gb, out=t)
            np.multiply(1.0 - b2, t, out=t)
            vb += t
            np.divide(mb, bc1, out=s)
            np.multiply(learning_rate, s, out=s)
            np.divide(vb, bc2, out=d)
            np.sqrt(d, out=d)
            np.add(d, ADAM_EPSILON, out=d)
            np.divide(s, d, out=s)
            pb -= s
    return state


class EarlyStopper:
    """Halts after ``patience`` consecutive epochs without the loss improving
    by more than ``min_delta``; remembers the best epoch for restoring."""

    def __init__(self, patience: int, min_delta: float = 0.0):
        self.patience = patience
        self.min_delta = min_delta
        self.best_loss = np.inf
        self.best_epoch = 0
        self.wait = 0

    def update(self, epoch: int, loss_value: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if loss_value < self.best_loss - self.min_delta:
            self.best_loss = loss_value
            self.best_epoch = epoch
            self.wait = 0
            return False
        self.wait += 1
        return self.wait >= self.patience


def _canonical_order(images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sort key independent of presentation order (label, then pixel bytes),
    so the seeded shuffle, and hence training, does not depend on how the
    caller happened to order the dataset."""
    keys = [(int(labels[i]), images[i].tobytes()) for i in range(len(labels))]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)


def _probabilities(model: Model, images: np.ndarray) -> np.ndarray:
    """Inference-mode probability rows, EVAL_BATCH images per forward pass."""
    return np.concatenate([model.forward(images[i: i + EVAL_BATCH], train=False)
                           for i in range(0, images.shape[0], EVAL_BATCH)])


def evaluate(model: Model, images: np.ndarray, onehot: np.ndarray,
             l2_lambda: float) -> tuple[float, float]:
    """(loss, accuracy) in inference mode, batched."""
    probs = _probabilities(model, images)
    acc = float(np.mean(probs.argmax(axis=1) == onehot.argmax(axis=1)))
    return loss(probs, onehot, model, l2_lambda), acc


def train(model: Model, images: np.ndarray, labels: np.ndarray,
          config: PipelineConfig) -> TrainHistory:
    """Train a built model on images [N,H,W,3] with integer class labels.

    `config` gives the learning rate, batch size, patience, min delta, epoch
    cap and seed; the L2 weight and dropout rate are the model's layers'.
    Deterministic given the config seed: one RNG stream drives the per-epoch
    shuffles and dropout masks in sequence.  Raises TrainingDivergedError if
    the monitored loss goes non-finite.
    """
    n = images.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if not model.built:
        raise RuntimeError("model must be built before training")
    images = np.ascontiguousarray(images, dtype=model.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    classes = model.layers[-1].classes
    onehot = np.eye(classes, dtype=model.dtype)[labels]

    order = _canonical_order(images, labels)
    images = images[order]
    onehot = onehot[order]

    l2_lambda = model.layers[-1].l2_lambda
    rng = np.random.default_rng(config.seed)
    params = model.params()
    state = AdamState.for_params(params)
    stopper = EarlyStopper(config.patience, config.min_delta)
    history = TrainHistory()

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        starts = list(range(0, n, config.batch_size))
        # fold a trailing single sample into the previous batch: train-mode
        # batch normalization rejects batches of one
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        for si, start in enumerate(starts):
            stop = starts[si + 1] if si + 1 < len(starts) else n
            batch = perm[start:stop]
            model.forward(images[batch], train=True, rng=rng)
            # the gradients live only for the update
            adam_step(params, model.backward(onehot[batch]), state, config.learning_rate)

        epoch_loss, epoch_acc = evaluate(model, images, onehot, l2_lambda)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, epoch_loss)
        history.losses.append(epoch_loss)
        history.accuracies.append(epoch_acc)

        should_stop = stopper.update(epoch, epoch_loss)
        # true at epoch 1: its loss is finite and min_delta is finite
        if stopper.best_epoch == epoch:
            best_snapshot = model.snapshot()
        if should_stop:
            break

    model.restore(best_snapshot)
    history.best_epoch = stopper.best_epoch
    return history


def predict(model: Model, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(class index, probability vector) per image; ties break to the lowest
    class index."""
    # converting here, not in _probabilities, frees a caller's temporary
    # float64 array before the forward passes
    images = np.asarray(images, dtype=model.dtype)
    probs = _probabilities(model, images)
    return probs.argmax(axis=1), probs


def write_history_csv(path, history: TrainHistory, comments=()) -> None:
    """History as CSV (epoch, loss, accuracy) between optional '#' header
    lines and '#' trailer lines of the best, stopped and restored epochs;
    training restores the best epoch."""
    rows = [f"{i},{lv!r},{av!r}"
            for i, (lv, av) in enumerate(zip(history.losses, history.accuracies), start=1)]
    trailer = [f"# best_epoch,{history.best_epoch}", f"# stopped_epoch,{history.stopped_epoch}",
               f"# restored_from_epoch,{history.best_epoch}"]
    write_file(path, lines_text(["epoch,loss,accuracy", *rows, *trailer], comments))
