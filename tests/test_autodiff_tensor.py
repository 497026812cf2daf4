"""Tensor basics: construction, graph bookkeeping, grad-mode semantics."""

import gc
import weakref

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff.tensor import Tensor


class TestConstruction:
    def test_wraps_array_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_constructors(self):
        assert ad.zeros(2, 3).shape == (2, 3)
        assert ad.ones((4,)).data.sum() == 4.0
        assert np.allclose(ad.eye(3).data, np.eye(3))
        assert ad.full((2, 2), 7.0).data.max() == 7.0
        assert ad.arange(5).shape == (5,)
        assert ad.zeros_like(ad.ones(3)).data.sum() == 0.0
        assert ad.ones_like(ad.zeros(3)).data.sum() == 3.0

    def test_len_and_repr(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert len(t) == 2
        assert "requires_grad=True" in repr(t)


class TestGraphBookkeeping:
    def test_leaf_has_no_inputs(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.is_leaf

    def test_op_output_records_inputs(self):
        a = Tensor([1.0], requires_grad=True)
        out = a * 2.0
        assert not out.is_leaf
        assert out.requires_grad

    def test_constant_ops_record_nothing(self):
        a = Tensor([1.0])
        out = a * 2.0
        assert out.is_leaf
        assert not out.requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        out = (a * 2.0).detach()
        assert out.is_leaf
        assert not out.requires_grad

    def test_clone_preserves_flag(self):
        a = Tensor([1.0], requires_grad=True)
        b = a.clone()
        assert b.requires_grad
        b.data[0] = 5.0
        assert a.data[0] == 1.0

    @pytest.mark.parametrize("op", ["sigmoid", "exp", "tanh"])
    def test_dropped_tape_freed_without_cyclic_gc(self, op):
        # Ops whose VJP reads their own output must not make the tape a
        # reference cycle: refcounting alone frees it once it is dropped.
        x = Tensor([0.3, -1.2], requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            out = getattr(ad, op)(ad.exp(x) * 2.0)
            loss = out.sum()
            ad.grad(loss, x)
            alive = [weakref.ref(out), weakref.ref(loss)]
            del out, loss
            assert [ref() for ref in alive] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestGradMode:
    def test_no_grad_disables_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            out = a * 3.0
        assert not out.requires_grad

    def test_nested_modes_restore(self):
        assert ad.is_grad_enabled()
        with ad.no_grad():
            assert not ad.is_grad_enabled()
            with ad.enable_grad():
                assert ad.is_grad_enabled()
            assert not ad.is_grad_enabled()
        assert ad.is_grad_enabled()


class TestGradEngine:
    def test_simple_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        g = ad.grad(y, x)
        assert np.allclose(g.data, [4.0, 6.0])

    def test_grad_accumulates_multiple_uses(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * x + x * 3.0
        g = ad.grad(y.sum(), x)
        assert np.allclose(g.data, [5.0])

    def test_grad_non_scalar_requires_grad_outputs(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            ad.grad(x * 2.0, x)

    def test_grad_with_explicit_grad_outputs(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        g = ad.grad(x * x, x, grad_outputs=Tensor([1.0, 10.0]))
        assert np.allclose(g.data, [2.0, 40.0])

    def test_unused_input_raises_unless_allowed(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).sum()
        with pytest.raises(RuntimeError):
            ad.grad(y, [x, z])
        gx, gz = ad.grad(y, [x, z], allow_unused=True)
        assert gz is None
        assert np.allclose(gx.data, [2.0])

    def test_backward_populates_leaf_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        (x * w).sum().backward()
        assert np.allclose(x.grad.data, [3.0, 4.0])
        assert np.allclose(w.grad.data, [1.0, 2.0])

    def test_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad.data, [5.0])

    def test_grad_detached_by_default(self):
        x = Tensor([2.0], requires_grad=True)
        g = ad.grad((x * x).sum(), x)
        assert not g.requires_grad

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        g = ad.grad(y.sum(), x)
        assert np.allclose(g.data, [1.0])

    def test_grad_tuple_inputs_returns_tuple(self):
        x = Tensor([1.0], requires_grad=True)
        w = Tensor([2.0], requires_grad=True)
        grads = ad.grad((x * w).sum(), [x, w])
        assert isinstance(grads, tuple) and len(grads) == 2
