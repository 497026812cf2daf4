"""Core tensor and reverse-mode automatic differentiation engine.

This module is the substrate that replaces PyTorch's autograd for the
reproduction.  It implements a define-by-run computation graph over numpy
arrays.  The essential property needed by GEAttack (Algorithm 1 of the paper)
is *higher-order differentiation*: the vector-Jacobian products of every
primitive are themselves expressed with differentiable tensor operations, so
``grad(..., create_graph=True)`` yields gradients that can be differentiated
again.  This is what lets the outer attack loop backpropagate through the
inner GNNExplainer mask-descent steps.

Design notes
------------
* A :class:`Tensor` wraps a float64 numpy array.  Non-leaf tensors carry the
  tuple of parent tensors (``_inputs``) and one VJP closure per parent
  (``_vjps``).
* :func:`grad` performs reverse accumulation over an iterative topological
  sort (no recursion, so arbitrarily deep graphs such as unrolled inner
  optimization loops are safe).
* Gradient construction respects :class:`no_grad`; with
  ``create_graph=True`` the VJP closures execute with graph recording
  enabled and the returned gradients are differentiable.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "astensor",
    "grad",
    "backward",
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "eye",
    "full",
    "arange",
]

# Graph recording is one process-wide flag: one thread per process runs
# Sessions (parallel work is forked processes, each with its own copy).
_GRAD_ENABLED = True


def is_grad_enabled():
    """Return whether graph recording is enabled."""
    return _GRAD_ENABLED


class _GradMode:
    """Context manager toggling graph recording."""

    def __init__(self, enabled):
        self._enabled = enabled
        self._previous = None

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = self._enabled
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def no_grad():
    """Context manager that disables graph recording (like torch.no_grad)."""
    return _GradMode(False)


def enable_grad():
    """Context manager that (re-)enables graph recording."""
    return _GradMode(True)


class Tensor:
    """A numpy-backed tensor participating in the autodiff graph.

    Parameters
    ----------
    data:
        Anything convertible to a numpy float64 array.
    requires_grad:
        Whether gradients should be accumulated for this (leaf) tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "_inputs", "_vjps")

    # Make numpy defer binary operations to Tensor.
    __array_priority__ = 1000

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._inputs = ()
        self._vjps = ()

    # -- shape & conversion helpers ------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self):
        return not self._inputs

    def numpy(self):
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self):
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item()

    def detach(self):
        """Return a new leaf tensor sharing data, cut off from the graph."""
        out = Tensor(self.data)
        return out

    def clone(self):
        """Return a copy of the data as a new leaf tensor."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self):
        self.grad = None

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    # -- arithmetic operators (implementations live in ops.py) ---------
    def __add__(self, other):
        return _ops().add(self, other)

    def __radd__(self, other):
        return _ops().add(other, self)

    def __sub__(self, other):
        return _ops().sub(self, other)

    def __rsub__(self, other):
        return _ops().sub(other, self)

    def __mul__(self, other):
        return _ops().mul(self, other)

    def __rmul__(self, other):
        return _ops().mul(other, self)

    def __truediv__(self, other):
        return _ops().div(self, other)

    def __rtruediv__(self, other):
        return _ops().div(other, self)

    def __neg__(self):
        return _ops().neg(self)

    def __pow__(self, exponent):
        return _ops().power(self, exponent)

    def __matmul__(self, other):
        return _ops().matmul(self, other)

    def __rmatmul__(self, other):
        return _ops().matmul(other, self)

    def __getitem__(self, index):
        return _ops().getitem(self, index)

    # Comparisons return plain numpy boolean arrays (non-differentiable).
    def __lt__(self, other):
        return self.data < _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    def __gt__(self, other):
        return self.data > _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    # -- common tensor methods ------------------------------------------
    def sum(self, axis=None, keepdims=False):
        return _ops().tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return _ops().mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _ops().reshape(self, shape)

    def transpose(self, axes=None):
        return _ops().transpose(self, axes)

    @property
    def T(self):
        return _ops().transpose(self)

    def exp(self):
        return _ops().exp(self)

    def log(self):
        return _ops().log(self)

    def sqrt(self):
        return _ops().power(self, 0.5)

    def abs(self):
        return _ops().absolute(self)

    def backward(self, grad_output=None):
        """Accumulate gradients of this (scalar) tensor into leaf ``.grad``."""
        backward(self, grad_output)


def _raise_item():
    raise ValueError("only single-element tensors can be converted to Python scalars")


def _raw(value):
    return value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)


_OPS_MODULE = None


def _ops():
    """Lazy import of the ops module to avoid a circular import."""
    global _OPS_MODULE
    if _OPS_MODULE is None:
        from repro.autodiff import ops as ops_module

        _OPS_MODULE = ops_module
    return _OPS_MODULE


def astensor(value, requires_grad=False):
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def make_node(data, inputs, vjps):
    """Create an op output tensor, recording the graph edge if enabled.

    Parameters
    ----------
    data:
        Forward-pass numpy result.
    inputs:
        Parent tensors (only :class:`Tensor` instances).
    vjps:
        One callable per parent mapping the output gradient tensor to the
        parent gradient tensor; ``None`` marks a non-differentiable slot.
    """
    out = Tensor(data)
    if is_grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = tuple(inputs)
        out._vjps = tuple(vjps)
    return out


def _topological_order(outputs):
    """Iterative DFS post-order over the subgraph that requires grad."""
    order = []
    visited = set()
    stack = [(node, False) for node in outputs if node.requires_grad]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._inputs:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(store, tensor, contribution):
    key = id(tensor)
    existing = store.get(key)
    store[key] = contribution if existing is None else existing + contribution


def grad(
    outputs,
    inputs,
    grad_outputs=None,
    create_graph=False,
    allow_unused=False,
):
    """Compute gradients of ``outputs`` with respect to ``inputs``.

    Mirrors ``torch.autograd.grad``.  With ``create_graph=True`` the returned
    gradients are themselves differentiable, enabling the second-order
    differentiation that GEAttack's outer loop performs through the inner
    explainer updates.

    Returns a tuple of tensors aligned with ``inputs`` (entries are ``None``
    for unused inputs when ``allow_unused`` is set).
    """
    single_out = isinstance(outputs, Tensor)
    outputs = [outputs] if single_out else list(outputs)
    single_in = isinstance(inputs, Tensor)
    input_list = [inputs] if single_in else list(inputs)

    for tensor in input_list:
        if not isinstance(tensor, Tensor):
            raise TypeError("grad inputs must be Tensors")

    if grad_outputs is None:
        grad_outputs = []
        for out in outputs:
            if out.size != 1:
                raise RuntimeError(
                    "grad of a non-scalar output requires explicit grad_outputs"
                )
            grad_outputs.append(Tensor(np.ones_like(out.data)))
    else:
        grad_outputs = (
            [grad_outputs] if isinstance(grad_outputs, Tensor) else list(grad_outputs)
        )
        grad_outputs = [astensor(g) for g in grad_outputs]
    if len(grad_outputs) != len(outputs):
        raise ValueError("grad_outputs must match outputs in length")

    order = _topological_order(outputs)
    accumulated = {}
    context = enable_grad() if create_graph else no_grad()
    with context:
        for out, gout in zip(outputs, grad_outputs):
            if out.requires_grad:
                _accumulate(accumulated, out, gout)
        for node in reversed(order):
            node_grad = accumulated.get(id(node))
            if node_grad is None or not node._inputs:
                continue
            for parent, vjp in zip(node._inputs, node._vjps):
                if vjp is None or not parent.requires_grad:
                    continue
                contribution = vjp(node_grad)
                if contribution is not None:
                    _accumulate(accumulated, parent, contribution)

    results = []
    for tensor in input_list:
        value = accumulated.get(id(tensor))
        if value is None and not allow_unused:
            raise RuntimeError(
                "one of the requested inputs was not reached during backward; "
                "pass allow_unused=True to permit this"
            )
        if value is not None and not create_graph:
            value = value.detach()
        results.append(value)
    return results[0] if single_in else tuple(results)


def backward(output, grad_output=None):
    """Populate ``.grad`` on every reachable leaf of ``output``'s graph."""
    order = _topological_order([output])
    leaves = [node for node in order if node.is_leaf and node.requires_grad]
    if not leaves:
        return
    grads = grad(
        output,
        leaves,
        grad_outputs=grad_output,
        create_graph=False,
        allow_unused=True,
    )
    if isinstance(grads, Tensor):
        grads = (grads,)
    for leaf, value in zip(leaves, grads):
        if value is None:
            continue
        if leaf.grad is None:
            leaf.grad = value
        else:
            with no_grad():
                leaf.grad = leaf.grad + value


# -- constructors -------------------------------------------------------
def zeros(*shape, requires_grad=False):
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad=False):
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def zeros_like(tensor, requires_grad=False):
    return Tensor(np.zeros_like(_raw(tensor)), requires_grad=requires_grad)


def ones_like(tensor, requires_grad=False):
    return Tensor(np.ones_like(_raw(tensor)), requires_grad=requires_grad)


def eye(n, requires_grad=False):
    return Tensor(np.eye(n), requires_grad=requires_grad)


def full(shape, fill_value, requires_grad=False):
    return Tensor(np.full(shape, float(fill_value)), requires_grad=requires_grad)


def arange(*args, requires_grad=False):
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)


# Re-export nullcontext for internal use by ops.
_nullcontext = nullcontext
