"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The engine is deliberately small: a :class:`Tensor` wraps a ``numpy``
array, remembers the tensors it was computed from and a closure that
propagates gradients to them.  Calling :meth:`Tensor.backward` performs a
topological sort of the graph and accumulates gradients.

Broadcasting is supported for the element-wise operations; gradients of
broadcast operands are reduced back to the operand's shape with
:func:`_unbroadcast`.

Dtype policy
------------
Float arrays keep their dtype through every operation, so a model cast to
``float32`` computes and accumulates gradients in ``float32``; non-float
inputs (Python scalars, lists, int arrays) are coerced to the policy
default of :mod:`repro.autograd.dtype` (``float64`` unless changed).
Scalars appearing in arithmetic adopt the tensor's dtype so constants
never silently upcast a single-precision graph.

Gradient accumulation is in place: each leaf owns a persistent gradient
buffer that is filled with ``copyto``/``+=`` instead of re-allocating
``np.array(copy=True)`` on every backward pass.  Embedding lookups
(:meth:`take_rows`) can record sparse :class:`~repro.autograd.sparse.IndexedRows`
gradients when :func:`~repro.autograd.sparse.sparse_embedding_grads` is
active.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.autograd.dtype import get_default_dtype
from repro.autograd.sparse import IndexedRows, sparse_grads_enabled

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used for evaluation/scoring passes where gradients are not needed;
    operations executed inside the block produce tensors detached from the
    autograd graph.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded in the graph."""
    return _GRAD_ENABLED


def _as_array(value, dtype=None) -> np.ndarray:
    """Coerce ``value`` (scalar, list, ndarray or Tensor) to an ndarray."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after broadcasting.

    NumPy broadcasting may have expanded an operand along leading axes or
    along axes of size 1.  The gradient of the broadcast result with respect
    to that operand is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast_grad(grad: np.ndarray, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Broadcast ``grad`` to ``shape`` without copying unless a cast is needed.

    The result may be a read-only view; every consumer either reads it or
    copies into its own buffer, so the view is safe and saves one full
    allocation per reduction backward.
    """
    grad = np.broadcast_to(grad, shape)
    if grad.dtype != dtype:
        grad = grad.astype(dtype)
    return grad


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Float arrays keep their dtype; everything
        else is coerced to the policy default
        (:func:`repro.autograd.dtype.get_default_dtype`, ``float64``
        unless changed) or to an explicitly passed ``dtype``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_grad_buffer", "name")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            array = np.asarray(data)
            if array.dtype.kind != "f":
                array = array.astype(get_default_dtype())
            self.data = array
        else:
            self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | IndexedRows | None = None
        self._grad_buffer: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def tolist(self):
        return self.data.tolist()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient (the buffer is kept for reuse)."""
        self.grad = None

    def _coerce(self, other) -> "Tensor":
        """Wrap a non-Tensor operand, matching this tensor's float dtype.

        Python scalars would otherwise become 0-d ``float64`` arrays and
        NumPy would upcast the whole expression, silently dragging a
        ``float32`` graph back to double precision.
        """
        if isinstance(other, Tensor):
            return other
        if np.isscalar(other) and self.data.dtype.kind == "f":
            return Tensor(other, dtype=self.data.dtype)
        return Tensor(other)

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"],
                    backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create an output tensor wired to its parents when grad is enabled."""
        tracked = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=tracked, dtype=data.dtype)
        if tracked:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad) -> None:
        if not self.requires_grad:
            return
        if isinstance(grad, IndexedRows):
            # IndexedRows.__add__/__radd__ handle sparse+sparse (chunk
            # append) and dense+sparse (densify) accumulation.
            self.grad = grad if self.grad is None else self.grad + grad
            return
        if isinstance(self.grad, IndexedRows):
            self.grad = self.grad + grad
            return
        if self.grad is None:
            buffer = self._grad_buffer
            if (buffer is None or buffer.shape != self.data.shape
                    or buffer.dtype != self.data.dtype):
                buffer = self._grad_buffer = np.empty_like(self.data)
            np.copyto(buffer, grad)
            self.grad = buffer
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only "
                    "supported for scalar tensors"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape)

        # Topological order of the graph rooted at ``self``.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad
                node._accumulate(node_grad)
            if node._backward is not None:
                contributions = node._backward(node_grad)
                for parent, contribution in zip(node._parents, contributions):
                    if contribution is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + contribution
                    else:
                        grads[key] = contribution

    # ------------------------------------------------------------------ #
    # Element-wise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data + other_t.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape) if self.requires_grad else None,
                _unbroadcast(grad, other_t.shape) if other_t.requires_grad else None,
            )

        return self._make_child(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad):
            return (-grad,)

        return self._make_child(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data - other_t.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape) if self.requires_grad else None,
                _unbroadcast(-grad, other_t.shape) if other_t.requires_grad else None,
            )

        return self._make_child(data, (self, other_t), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data * other_t.data
        self_data, other_data = self.data, other_t.data

        def backward(grad):
            return (
                _unbroadcast(grad * other_data, self.shape) if self.requires_grad else None,
                _unbroadcast(grad * self_data, other_t.shape)
                if other_t.requires_grad else None,
            )

        return self._make_child(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data / other_t.data
        self_data, other_data = self.data, other_t.data

        def backward(grad):
            return (
                _unbroadcast(grad / other_data, self.shape) if self.requires_grad else None,
                _unbroadcast(-grad * self_data / (other_data ** 2), other_t.shape)
                if other_t.requires_grad else None,
            )

        return self._make_child(data, (self, other_t), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data ** exponent
        base = self.data

        def backward(grad):
            return (grad * exponent * base ** (exponent - 1),)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Comparison (detached, no gradient)
    # ------------------------------------------------------------------ #
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return self._make_child(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        source = self.data

        def backward(grad):
            return (grad / source,)

        return self._make_child(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / data,)

        return self._make_child(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return self._make_child(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            return (grad * data * (1.0 - data),)

        return self._make_child(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - data ** 2),)

        return self._make_child(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad):
            return (grad * mask,)

        return self._make_child(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.shape
        dtype = self.data.dtype

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                return (_broadcast_grad(grad, input_shape, dtype),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                grad = np.expand_dims(grad, tuple(a % len(input_shape) for a in axes))
            return (_broadcast_grad(grad, input_shape, dtype),)

        return self._make_child(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum along ``axis``; ties share the gradient equally."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        source = self.data
        dtype = self.data.dtype

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                mask = (source == source.max()).astype(dtype)
                mask /= mask.sum()
                return (mask * grad,)
            expanded_max = source.max(axis=axis, keepdims=True)
            mask = (source == expanded_max).astype(dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            if not keepdims:
                grad = np.expand_dims(grad, axis)
            return (mask * grad,)

        return self._make_child(data, (self,), backward)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Linear algebra and shape manipulation
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data
        a, b = self.data, other_t.data

        def backward(grad):
            grad_a = grad_b = None
            if a.ndim == 2 and b.ndim == 2:
                if self.requires_grad:
                    grad_a = grad @ b.T
                if other_t.requires_grad:
                    grad_b = a.T @ grad
                return (grad_a, grad_b)
            # Batched matmul: contract over the batch dimensions.
            if self.requires_grad:
                grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), self.shape)
            if other_t.requires_grad:
                grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, other_t.shape)
            return (grad_a, grad_b)

        return self._make_child(data, (self, other_t), backward)

    __matmul__ = matmul

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return self._make_child(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            return (grad.reshape(original),)

        return self._make_child(data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad):
            return (np.squeeze(grad, axis=axis),)

        return self._make_child(data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)

        def backward(grad):
            return (np.expand_dims(grad, axis),)

        return self._make_child(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        input_shape = self.shape
        dtype = self.data.dtype
        # A basic index (ints, slices, ``...``, ``None``) selects every
        # element at most once, so a plain in-place add scatters the same
        # sums as the unbuffered ``np.add.at`` that repeated fancy indices
        # need, at a fraction of its cost.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(part is None or part is Ellipsis
                    or isinstance(part, (int, np.integer, slice)) for part in parts)

        def backward(grad):
            full = np.zeros(input_shape, dtype=dtype)
            if basic:
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            return (full,)

        return self._make_child(data, (self,), backward)

    def take_rows(self, indices) -> "Tensor":
        """Gather rows (first-axis indexing), e.g. an embedding lookup.

        ``indices`` may be any integer array; the result has shape
        ``indices.shape + self.shape[1:]``.  The backward pass scatter-adds
        gradients into the source rows, matching ``torch.nn.Embedding`` —
        unless :func:`~repro.autograd.sparse.sparse_embedding_grads` is
        active and this tensor is a leaf, in which case the gradient is
        recorded as an :class:`~repro.autograd.sparse.IndexedRows` and no
        dense ``(num_rows, d)`` matrix is ever materialized.
        """
        idx = np.asarray(indices, dtype=np.int64)
        data = self.data[idx]
        input_shape = self.shape
        dtype = self.data.dtype
        # Only leaves may receive sparse gradients: interior nodes feed
        # their gradient into another backward closure that expects a
        # dense array.
        emit_sparse = (sparse_grads_enabled() and self.requires_grad
                       and self._backward is None)

        def backward(grad):
            rows = np.asarray(grad).reshape(-1, *input_shape[1:])
            if emit_sparse:
                # The copy gives the sparse gradient its own memory: the
                # incoming grad may be a read-only broadcast view or an
                # array shared with another parent's backward, and
                # IndexedRows mutates rows in place (zero_rows, clipping).
                return (IndexedRows(idx.reshape(-1), np.array(rows, copy=True),
                                    input_shape),)
            full = np.zeros(input_shape, dtype=dtype)
            np.add.at(full, idx.reshape(-1), rows)
            return (full,)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Factory helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype or get_default_dtype()),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype or get_default_dtype()),
                      requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: np.random.Generator | None = None,
              scale: float = 1.0, requires_grad: bool = False, dtype=None) -> "Tensor":
        rng = rng or np.random.default_rng()
        values = rng.normal(0.0, scale, size=shape)
        return Tensor(values.astype(dtype or get_default_dtype(), copy=False),
                      requires_grad=requires_grad)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            return tuple(np.split(grad, splits, axis=axis))

        ref = tensors[0]
        return ref._make_child(data, tensors, backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            moved = np.moveaxis(grad, axis, 0)
            return tuple(moved[i] for i in range(len(tensors)))

        ref = tensors[0]
        return ref._make_child(data, tensors, backward)
