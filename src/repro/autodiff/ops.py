"""Differentiable primitive operations.

Every vector-Jacobian product (VJP) below is expressed with tensor
operations rather than raw numpy, which makes the gradients themselves
differentiable — the property GEAttack relies on to differentiate through
the inner explainer optimization (``create_graph=True``).

Constants captured by VJP closures (index objects, boolean masks from the
forward pass, shapes) are genuinely constant with respect to the inputs and
therefore do not need to be differentiable.

The ops whose VJP reads their own output (``exp``, ``sigmoid``, ``tanh``)
hold it through a ``weakref``: a strong capture would make every tape
reference-cyclic (see :mod:`repro.autodiff.tensor`).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.autodiff.tensor import Tensor, astensor, make_node

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "absolute",
    "sigmoid",
    "tanh",
    "relu",
    "maximum",
    "minimum",
    "matmul",
    "transpose",
    "reshape",
    "broadcast_to",
    "tensor_sum",
    "mean",
    "getitem",
    "scatter_add",
    "concatenate",
    "where",
    "clip",
    "spmm",
]


def _unbroadcast(gradient, shape):
    """Reduce ``gradient`` back to ``shape`` after numpy broadcasting.

    Implemented with differentiable ``tensor_sum``/``reshape`` so that
    higher-order gradients flow through broadcasting correctly.
    """
    if gradient.shape == shape:
        return gradient
    extra = gradient.ndim - len(shape)
    if extra > 0:
        gradient = tensor_sum(gradient, axis=tuple(range(extra)))
    axes = tuple(
        i for i, dim in enumerate(shape) if dim == 1 and gradient.shape[i] != 1
    )
    if axes:
        gradient = tensor_sum(gradient, axis=axes, keepdims=True)
    if gradient.shape != shape:
        gradient = reshape(gradient, shape)
    return gradient


# -- elementwise arithmetic ------------------------------------------------
def add(a, b):
    a, b = astensor(a), astensor(b)
    return make_node(
        a.data + b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(g, b.shape),
        ),
    )


def sub(a, b):
    a, b = astensor(a), astensor(b)
    return make_node(
        a.data - b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(neg(g), b.shape),
        ),
    )


def mul(a, b):
    a, b = astensor(a), astensor(b)
    return make_node(
        a.data * b.data,
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, b), a.shape),
            lambda g: _unbroadcast(mul(g, a), b.shape),
        ),
    )


def div(a, b):
    a, b = astensor(a), astensor(b)
    return make_node(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(div(g, b), a.shape),
            lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape),
        ),
    )


def neg(a):
    a = astensor(a)
    return make_node(-a.data, (a,), (lambda g: neg(g),))


def power(a, exponent):
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = astensor(a)
    exponent = float(exponent)
    data = a.data**exponent
    return make_node(
        data,
        (a,),
        (lambda g: mul(g, mul(Tensor(exponent), power(a, exponent - 1.0))),),
    )


def exp(a):
    a = astensor(a)
    out = make_node(np.exp(a.data), (a,), (None,))
    # VJP refers to the output value itself: d exp(x) = exp(x) dx.
    if out.requires_grad:
        ref = weakref.ref(out)
        out._vjps = (lambda g: mul(g, ref()),)
    return out


def log(a):
    a = astensor(a)
    return make_node(np.log(a.data), (a,), (lambda g: div(g, a),))


def absolute(a):
    a = astensor(a)
    sign = np.sign(a.data)
    return make_node(np.abs(a.data), (a,), (lambda g: mul(g, Tensor(sign)),))


def logistic(x):
    """Numerically stable logistic of an ndarray: :func:`sigmoid`'s forward."""
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
        np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))),
    )


def sigmoid(a):
    a = astensor(a)
    out = make_node(logistic(a.data), (a,), (None,))
    if out.requires_grad:
        ref = weakref.ref(out)
        out._vjps = (lambda g: mul(g, mul(ref(), sub(1.0, ref()))),)
    return out


def tanh(a):
    a = astensor(a)
    out = make_node(np.tanh(a.data), (a,), (None,))
    if out.requires_grad:
        ref = weakref.ref(out)
        out._vjps = (lambda g: mul(g, sub(1.0, mul(ref(), ref()))),)
    return out


def relu(a):
    a = astensor(a)
    mask = (a.data > 0).astype(np.float64)
    return make_node(a.data * mask, (a,), (lambda g: mul(g, Tensor(mask)),))


def maximum(a, b):
    a, b = astensor(a), astensor(b)
    take_a = (a.data >= b.data).astype(np.float64)
    return make_node(
        np.maximum(a.data, b.data),
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, Tensor(take_a)), a.shape),
            lambda g: _unbroadcast(mul(g, Tensor(1.0 - take_a)), b.shape),
        ),
    )


def minimum(a, b):
    a, b = astensor(a), astensor(b)
    take_a = (a.data <= b.data).astype(np.float64)
    return make_node(
        np.minimum(a.data, b.data),
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, Tensor(take_a)), a.shape),
            lambda g: _unbroadcast(mul(g, Tensor(1.0 - take_a)), b.shape),
        ),
    )


def clip(a, low, high):
    """Clamp values; gradient is passed through inside the active range."""
    a = astensor(a)
    inside = ((a.data >= low) & (a.data <= high)).astype(np.float64)
    return make_node(
        np.clip(a.data, low, high), (a,), (lambda g: mul(g, Tensor(inside)),)
    )


def where(condition, a, b):
    """Select from ``a`` where ``condition`` (a constant mask) else ``b``."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    mask = cond.astype(np.float64)
    a, b = astensor(a), astensor(b)
    return make_node(
        np.where(cond.astype(bool), a.data, b.data),
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, Tensor(mask)), a.shape),
            lambda g: _unbroadcast(mul(g, Tensor(1.0 - mask)), b.shape),
        ),
    )


# -- linear algebra ----------------------------------------------------------
def matmul(a, b):
    a, b = astensor(a), astensor(b)
    if a.ndim == 1 and b.ndim == 1:
        # Inner product: route through 2-D matmul for uniform VJPs.
        return reshape(
            matmul(reshape(a, (1, a.size)), reshape(b, (b.size, 1))), ()
        )
    if a.ndim == 1:
        return reshape(matmul(reshape(a, (1, a.size)), b), (b.shape[-1],))
    if b.ndim == 1:
        return reshape(matmul(a, reshape(b, (b.size, 1))), (a.shape[0],))
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports tensors of at most 2 dimensions")
    return make_node(
        a.data @ b.data,
        (a, b),
        (
            lambda g: matmul(g, transpose(b)),
            lambda g: matmul(transpose(a), g),
        ),
    )


def transpose(a, axes=None):
    a = astensor(a)
    if axes is None:
        inverse = None
    else:
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
    return make_node(
        np.transpose(a.data, axes),
        (a,),
        (lambda g: transpose(g, inverse),),
    )


def reshape(a, shape):
    a = astensor(a)
    original = a.shape
    return make_node(
        a.data.reshape(shape), (a,), (lambda g: reshape(g, original),)
    )


def broadcast_to(a, shape):
    a = astensor(a)
    original = a.shape
    return make_node(
        np.broadcast_to(a.data, shape).copy(),
        (a,),
        (lambda g: _unbroadcast(g, original),),
    )


# -- reductions ----------------------------------------------------------
def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tensor_sum(a, axis=None, keepdims=False):
    a = astensor(a)
    axes = _normalize_axis(axis, a.ndim)
    original = a.shape
    kept = tuple(1 if i in axes else dim for i, dim in enumerate(original))

    def vjp(g):
        expanded = g if keepdims or a.ndim == 0 else reshape(g, kept)
        return broadcast_to(expanded, original)

    return make_node(a.data.sum(axis=axes or None, keepdims=keepdims), (a,), (vjp,))


def mean(a, axis=None, keepdims=False):
    a = astensor(a)
    axes = _normalize_axis(axis, a.ndim)
    count = float(np.prod([a.shape[i] for i in axes])) if a.ndim else 1.0
    return div(tensor_sum(a, axis=axis, keepdims=keepdims), count)


# -- indexing ----------------------------------------------------------
def getitem(a, index):
    a = astensor(a)
    shape = a.shape

    def vjp(g):
        return scatter_add(shape, index, g)

    return make_node(a.data[index], (a,), (vjp,))


def scatter_add(shape, index, values):
    """Zeros of ``shape`` with ``values`` added at ``index`` (dup-safe)."""
    values = astensor(values)

    def vjp(g):
        return getitem(g, index)

    data = np.zeros(shape)
    np.add.at(data, index, values.data)
    return make_node(data, (values,), (vjp,))


def concatenate(tensors, axis=0):
    tensors = [astensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(position):
        start, stop = offsets[position], offsets[position + 1]

        def vjp(g):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(int(start), int(stop))
            return getitem(g, tuple(slicer))

        return vjp

    return make_node(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors),
        tuple(make_vjp(i) for i in range(len(tensors))),
    )


# -- sparse-constant products ------------------------------------------------
def spmm(sparse_matrix, dense):
    """Product of a *constant* scipy sparse matrix with a dense tensor.

    Only the dense operand is differentiable; the sparse operand is treated
    as data (the fixed, normalized adjacency during GCN training).  The VJP
    multiplies by the transpose, which is again an ``spmm`` and hence
    differentiable to any order.
    """
    dense = astensor(dense)
    transposed = sparse_matrix.T.tocsr()
    return make_node(
        np.asarray(sparse_matrix @ dense.data),
        (dense,),
        (lambda g: spmm(transposed, g),),
    )
