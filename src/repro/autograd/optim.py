"""Optimizers for the autograd substrate.

The paper optimizes every model with Adam (learning rate 1e-3) and an L2
regularization factor applied to all embeddings; the regularization is
implemented here as decoupled weight decay so that model code does not have
to thread the penalty through each loss expression.

Two hot-path properties:

* **In-place steps.**  Every optimizer keeps preallocated moment /
  velocity state plus a scratch buffer per parameter and updates with
  ``out=``-style ufuncs, so a step allocates nothing proportional to the
  model size.
* **Sparse-aware steps.**  When a parameter's gradient is an
  :class:`~repro.autograd.sparse.IndexedRows` (embedding lookups under
  :func:`~repro.autograd.sparse.sparse_embedding_grads`), only the
  looked-up rows of the parameter — and of its optimizer state — are
  touched ("lazy" updates, like ``torch.optim.SparseAdam``).  The
  coalesced gradient's rows are gathered once per table (the parameter
  and each state buffer, with ``np.take``), weight decay is computed
  from the gathered parameter rows, the update runs in place on those
  row blocks, and each block is scattered back once.  The cost of a step is proportional to
  the touched rows, not to the table.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.module import Parameter
from repro.autograd.sparse import IndexedRows

__all__ = ["Optimizer", "SGD", "Adam", "Adagrad", "clip_grad_norm"]


class Optimizer:
    """Base optimizer holding a parameter list and common bookkeeping."""

    def __init__(self, params: list[Parameter], lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr
        self.weight_decay = weight_decay
        self._scratch: list[np.ndarray | None] = [None] * len(self.params)

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, IndexedRows):
                coalesced = grad.coalesce()
                indices = coalesced.indices
                param_rows = np.take(param.data, indices, axis=0)
                rows = coalesced.rows
                if self.weight_decay:
                    # rows + decay * param_rows; IEEE addition commutes
                    # bitwise, so adding in place to the product is exact.
                    decayed = np.multiply(param_rows,
                                          param.data.dtype.type(self.weight_decay))
                    decayed += rows
                    rows = decayed
                self._sparse_step(index, param, indices, param_rows, rows)
            else:
                self._dense_step(index, param, grad)

    # ------------------------------------------------------------------ #
    # Hooks implemented by concrete optimizers
    # ------------------------------------------------------------------ #
    def _dense_step(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _sparse_step(self, index: int, param: Parameter, indices: np.ndarray,
                     param_rows: np.ndarray, rows: np.ndarray) -> None:
        """Update only ``param.data[indices]``.

        ``indices`` are unique; ``param_rows`` is a fresh gather of
        ``param.data[indices]`` that the step may update in place and
        scatter back; ``rows`` is the gradient with (lazy) weight decay
        already added and must not be modified."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Buffer management
    # ------------------------------------------------------------------ #
    def _scratch_for(self, index: int, param: Parameter) -> np.ndarray:
        scratch = self._scratch[index]
        if (scratch is None or scratch.shape != param.data.shape
                or scratch.dtype != param.data.dtype):
            scratch = self._scratch[index] = np.empty_like(param.data)
        return scratch

    def _state_for(self, buffers: list, index: int, param: Parameter) -> np.ndarray:
        """Moment/velocity buffer for ``param``, reallocated if the
        parameter was re-shaped or cast (e.g. ``Module.astype``) after the
        optimizer was constructed."""
        state = buffers[index]
        if state.shape != param.data.shape or state.dtype != param.data.dtype:
            state = buffers[index] = np.zeros_like(param.data)
        return state

    def _decayed(self, index: int, param: Parameter, grad: np.ndarray) -> np.ndarray:
        """Dense gradient plus the L2 weight-decay term, in the scratch buffer."""
        if not self.weight_decay:
            return grad
        scratch = self._scratch_for(index, param)
        np.multiply(param.data, param.data.dtype.type(self.weight_decay), out=scratch)
        scratch += grad
        return scratch


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    The sparse path requires ``momentum == 0`` (a velocity is inherently
    dense); with momentum the indexed gradient is densified first.
    """

    def __init__(self, params: list[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _dense_step(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        grad = self._decayed(index, param, grad)
        if self.momentum:
            velocity = self._state_for(self._velocity, index, param)
            velocity *= self.momentum
            velocity += grad
            update = velocity
        else:
            update = grad
        if update is self._scratch[index]:
            update *= self.lr
            param.data -= update
        else:
            scratch = self._scratch_for(index, param)
            np.multiply(update, param.data.dtype.type(self.lr), out=scratch)
            param.data -= scratch

    def _sparse_step(self, index: int, param: Parameter, indices: np.ndarray,
                     param_rows: np.ndarray, rows: np.ndarray) -> None:
        if self.momentum:
            # Momentum couples every row across steps; densify and run the
            # velocity update directly.  ``rows`` already carries the
            # (lazy) weight decay, so _decayed must NOT run again here.
            dense = IndexedRows(indices, rows, param.data.shape).to_dense()
            velocity = self._state_for(self._velocity, index, param)
            velocity *= self.momentum
            velocity += dense
            scratch = self._scratch_for(index, param)
            np.multiply(velocity, param.data.dtype.type(self.lr), out=scratch)
            param.data -= scratch
            return
        # param -= lr * grad
        param_rows -= np.multiply(rows, param.data.dtype.type(self.lr))
        param.data[indices] = param_rows


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2014), the paper's optimizer of choice.

    Indexed gradients take the "lazy Adam" path: moments and parameters
    are only advanced for the looked-up rows.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._update_buf: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        self._step_count += 1
        super().step()

    def _bias_corrections(self) -> tuple[float, float]:
        t = self._step_count
        return 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t

    def _dense_step(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        bias1, bias2 = self._bias_corrections()
        grad = self._decayed(index, param, grad)
        m = self._state_for(self._m, index, param)
        v = self._state_for(self._v, index, param)
        buf = self._update_buf[index]
        if buf is None or buf.shape != param.data.shape or buf.dtype != param.data.dtype:
            buf = self._update_buf[index] = np.empty_like(param.data)

        dtype = param.data.dtype.type
        # Every ufunc below reproduces the seed engine's expression order
        # exactly (multiplication/addition operand order only differs
        # where IEEE arithmetic is bitwise commutative), so a float64 run
        # with dense gradients is bit-identical to the seed trainer.
        # m = beta1 * m + (1 - beta1) * grad
        m *= dtype(self.beta1)
        np.multiply(grad, dtype(1.0 - self.beta1), out=buf)
        m += buf
        # v = beta2 * v + ((1 - beta2) * grad) * grad
        v *= dtype(self.beta2)
        np.multiply(grad, dtype(1.0 - self.beta2), out=buf)
        buf *= grad
        v += buf
        # param -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
        np.divide(v, dtype(bias2), out=buf)
        np.sqrt(buf, out=buf)
        buf += dtype(self.eps)
        numerator = self._scratch_for(index, param)
        np.divide(m, dtype(bias1), out=numerator)
        numerator *= dtype(self.lr)
        numerator /= buf
        param.data -= numerator

    def _sparse_step(self, index: int, param: Parameter, indices: np.ndarray,
                     param_rows: np.ndarray, rows: np.ndarray) -> None:
        bias1, bias2 = self._bias_corrections()
        m = self._state_for(self._m, index, param)
        v = self._state_for(self._v, index, param)
        dtype = param.data.dtype.type
        # Lazy Adam folds lr / bias1 into one scalar where the dense step
        # divides by bias1 first, so the two agree to rounding, not bits.
        # m = beta1 * m + (1 - beta1) * grad
        m_rows = np.take(m, indices, axis=0)
        m_rows *= dtype(self.beta1)
        buf = np.multiply(rows, dtype(1.0 - self.beta1))
        m_rows += buf
        m[indices] = m_rows
        # v = beta2 * v + ((1 - beta2) * grad) * grad
        v_rows = np.take(v, indices, axis=0)
        v_rows *= dtype(self.beta2)
        np.multiply(rows, dtype(1.0 - self.beta2), out=buf)
        buf *= rows
        v_rows += buf
        v[indices] = v_rows
        # param -= ((lr / bias1) * m) / (sqrt(v / bias2) + eps); m_rows is
        # stored already, so it holds the numerator.
        np.divide(v_rows, dtype(bias2), out=buf)
        np.sqrt(buf, out=buf)
        buf += dtype(self.eps)
        m_rows *= dtype(self.lr / bias1)
        m_rows /= buf
        param_rows -= m_rows
        param.data[indices] = param_rows


class Adagrad(Optimizer):
    """Adagrad optimizer, offered for completeness in the grid-search space."""

    def __init__(self, params: list[Parameter], lr: float = 0.01,
                 eps: float = 1e-10, weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self.eps = eps
        self._accum = [np.zeros_like(p.data) for p in self.params]

    def _dense_step(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        grad = self._decayed(index, param, grad)
        accum = self._state_for(self._accum, index, param)
        accum += grad * grad
        param.data -= self.lr * grad / (np.sqrt(accum) + self.eps)

    def _sparse_step(self, index: int, param: Parameter, indices: np.ndarray,
                     param_rows: np.ndarray, rows: np.ndarray) -> None:
        accum = self._state_for(self._accum, index, param)
        dtype = param.data.dtype.type
        # accum += grad * grad
        accum_rows = np.take(accum, indices, axis=0)
        buf = np.multiply(rows, rows)
        accum_rows += buf
        accum[indices] = accum_rows
        # param -= (lr * grad) / (sqrt(accum) + eps); accum_rows is stored
        # already, so it holds the denominator.
        np.sqrt(accum_rows, out=accum_rows)
        accum_rows += dtype(self.eps)
        np.multiply(rows, dtype(self.lr), out=buf)
        buf /= accum_rows
        param_rows -= buf
        param.data[indices] = param_rows


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm observed *before* clipping (useful for logging).
    Parameters without a gradient are skipped.  Indexed (sparse)
    gradients are coalesced in place — duplicate lookups of the same row
    must be summed before the norm is meaningful — and then scaled like
    any dense gradient.

    The squared norm is accumulated with a dot product (no ``grad*grad``
    temporary); its reduction order may differ from the seed's
    ``np.sum`` in the final bit, which only matters on steps where the
    clip actually fires.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    grads: list[np.ndarray | IndexedRows] = []
    for param in params:
        grad = param.grad
        if grad is None:
            continue
        if isinstance(grad, IndexedRows):
            # Coalescing copies (and is memoized), so the scale below
            # cannot alias a graph buffer; store back so the optimizer
            # sees the scaled rows without re-coalescing.
            grad = grad.coalesce()
            param.grad = grad
            flat = grad.rows.reshape(-1)
        else:
            flat = grad.reshape(-1)
        grads.append(grad)
        total += float(flat @ flat)
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grad in grads:
            if isinstance(grad, IndexedRows):
                grad.scale_(scale)
            else:
                grad *= scale
    return norm
