"""Unit tests for the core Tensor autodiff engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.numeric import gradient_check


def make(shape, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestBasicOps:
    def test_add_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x + y).sum().backward()
        assert np.allclose(x.grad, [1.0, 1.0])
        assert np.allclose(y.grad, [1.0, 1.0])

    def test_mul_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x * y).sum().backward()
        assert np.allclose(x.grad, [3.0, 4.0])
        assert np.allclose(y.grad, [1.0, 2.0])

    def test_sub_and_div(self):
        x = Tensor([4.0, 9.0], requires_grad=True)
        y = Tensor([2.0, 3.0], requires_grad=True)
        ((x - y) / y).sum().backward()
        assert np.allclose(x.grad, [0.5, 1.0 / 3.0])
        # d/dy [(x-y)/y] = -x / y^2
        assert np.allclose(y.grad, [-1.0, -1.0])

    def test_pow(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x ** 3).sum().backward()
        assert np.allclose(x.grad, [12.0, 27.0])

    def test_neg(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        (-x).sum().backward()
        assert np.allclose(x.grad, [-1.0, -1.0])

    def test_scalar_broadcasting(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        (x * 2.0 + 1.0).sum().backward()
        assert np.allclose(x.grad, np.full((2, 2), 2.0))

    def test_broadcast_row_vector(self):
        x = make((3, 4), seed=1)
        b = make((4,), seed=2)
        gradient_check(lambda: (Tensor(x.data, requires_grad=False) + b).sum()
                       if False else (x + b).sum(), [x, b])

    def test_grad_accumulates_when_reused(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert np.allclose(x.grad, [2 * 2.0 + 3.0])


class TestUnaryOps:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "sigmoid", "tanh", "relu", "abs"])
    def test_gradcheck_unary(self, op):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.5, 2.0, size=(3, 3))
        x = Tensor(data, requires_grad=True)
        gradient_check(lambda: getattr(x, op)().sum(), [x])

    def test_clip_gradient_masks_out_of_range(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        x = make((2, 3), seed=4)
        gradient_check(lambda: x.sum(axis=0).sum(), [x])
        x.zero_grad()
        gradient_check(lambda: x.sum(axis=1, keepdims=True).sum(), [x])

    def test_mean_value_and_grad(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        m = x.mean()
        assert np.isclose(m.item(), 2.5)
        m.backward()
        assert np.allclose(x.grad, np.full((2, 2), 0.25))

    def test_mean_axis(self):
        x = make((4, 5), seed=5)
        gradient_check(lambda: x.mean(axis=1).sum(), [x])

    def test_max_axis_routes_gradient_to_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_ties_split_gradient(self):
        x = Tensor([[2.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.5, 0.5]])

    def test_min(self):
        x = Tensor([[3.0, 1.0, 2.0]], requires_grad=True)
        value = x.min(axis=1)
        assert np.isclose(value.data[0], 1.0)
        value.sum().backward()
        assert np.allclose(x.grad, [[0, 1, 0]])


class TestMatmulAndShapes:
    def test_matmul_2d_gradcheck(self):
        a = make((3, 4), seed=6)
        b = make((4, 2), seed=7)
        gradient_check(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_batched_gradcheck(self):
        a = make((2, 3, 4), seed=8)
        b = make((2, 4, 5), seed=9)
        gradient_check(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_broadcast_weight(self):
        a = make((2, 3, 4), seed=10)
        w = make((4, 5), seed=11)
        gradient_check(lambda: a.matmul(w).sum(), [a, w])

    def test_transpose_roundtrip(self):
        x = make((2, 3), seed=12)
        gradient_check(lambda: x.T.matmul(x).sum(), [x])

    def test_reshape(self):
        x = make((2, 6), seed=13)
        gradient_check(lambda: x.reshape(3, 4).sum(axis=0).sum(), [x])

    def test_expand_and_squeeze(self):
        x = make((3, 4), seed=14)
        y = x.expand_dims(1)
        assert y.shape == (3, 1, 4)
        assert y.squeeze(1).shape == (3, 4)
        gradient_check(lambda: x.expand_dims(0).squeeze(0).sum(), [x])

    def test_getitem(self):
        x = make((5, 3), seed=15)
        gradient_check(lambda: x[1:4].sum(), [x])

    def test_take_rows_scatter_adds(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = weight.take_rows(np.array([[0, 1], [1, 1]]))
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # row 0 used once, row 1 used three times, rows 2-3 unused
        assert np.allclose(weight.grad[:, 0], [1.0, 3.0, 0.0, 0.0])

    def test_take_rows_gradcheck(self):
        weight = make((6, 4), seed=16)
        idx = np.array([0, 2, 2, 5])
        gradient_check(lambda: (weight.take_rows(idx) ** 2).sum(), [weight])

    def test_concatenate(self):
        a = make((2, 3), seed=17)
        b = make((2, 2), seed=18)
        out = Tensor.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        gradient_check(lambda: Tensor.concatenate([a, b], axis=1).sum(), [a, b])

    def test_stack(self):
        a = make((2, 3), seed=19)
        b = make((2, 3), seed=20)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        gradient_check(lambda: (Tensor.stack([a, b], axis=1) ** 2).sum(), [a, b])


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._backward is None

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_diamond_graph_gradient(self):
        # z = (x*y) + (x+y); dz/dx = y + 1, dz/dy = x + 1
        x = Tensor([3.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        ((x * y) + (x + y)).sum().backward()
        assert np.allclose(x.grad, [6.0])
        assert np.allclose(y.grad, [4.0])

    def test_deep_chain(self):
        x = Tensor([1.5], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.01
        y.sum().backward()
        assert np.allclose(x.grad, [1.01 ** 50], rtol=1e-10)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_non_differentiable_comparisons(self):
        x = Tensor([1.0, -1.0], requires_grad=True)
        mask = x > 0
        assert isinstance(mask, np.ndarray)
        assert mask.tolist() == [True, False]

    def test_factories(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4
        assert Tensor.randn(2, 2, rng=np.random.default_rng(0)).shape == (2, 2)

    def test_item_and_len_and_repr(self):
        x = Tensor([[1.0, 2.0]])
        assert len(x) == 1
        assert "shape=(1, 2)" in repr(x)
        assert Tensor([3.0]).item() == 3.0


class TestBackwardSkipsConstants:
    """Backward closures compute no gradient for an operand that does not
    require one, and the gradients they do compute keep their bits."""

    @pytest.mark.parametrize("op", [
        lambda x, c: x + c, lambda x, c: x - c, lambda x, c: x * c, lambda x, c: x / c,
        lambda x, c: c + x, lambda x, c: c - x, lambda x, c: c * x, lambda x, c: c / x,
    ])
    def test_elementwise_constant_operand_gets_none(self, op):
        x = make((4, 3), seed=30)
        constant = Tensor(np.random.default_rng(31).uniform(1.0, 2.0, size=(3,)))
        out = op(x, constant)
        grad = np.random.default_rng(32).normal(size=out.shape)
        contributions = dict(zip(map(id, out._parents), out._backward(grad)))
        assert contributions[id(constant)] is None
        assert contributions[id(x)].shape == x.shape

    @pytest.mark.parametrize("shapes", [((4, 3), (3, 2)), ((2, 4, 3), (3, 2)),
                                        ((2, 4, 3), (2, 3, 5))])
    def test_matmul_computes_only_the_required_side(self, shapes):
        rng = np.random.default_rng(33)
        a_data, b_data = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
        both = Tensor(a_data, requires_grad=True).matmul(Tensor(b_data, requires_grad=True))
        grad = rng.normal(size=both.shape)
        grad_a, grad_b = both._backward(grad)

        left = Tensor(a_data, requires_grad=True).matmul(Tensor(b_data))
        assert left._backward(grad)[1] is None
        assert left._backward(grad)[0].tobytes() == grad_a.tobytes()
        right = Tensor(a_data).matmul(Tensor(b_data, requires_grad=True))
        assert right._backward(grad)[0] is None
        assert right._backward(grad)[1].tobytes() == grad_b.tobytes()

    @pytest.mark.parametrize("index", [
        slice(1, 4), (slice(None), slice(2, 5)), 2, (1, slice(None, None, -2)),
        (Ellipsis, 0), (None, slice(1, 3)), np.int64(3),
        [0, 2, 2, 4], (np.array([1, 1, 3]), slice(None)),
        np.array([True, False, True, False, True]),
    ])
    def test_getitem_backward_matches_unbuffered_scatter(self, index):
        x = make((5, 6), seed=34)
        out = x[index]
        grad = np.random.default_rng(35).normal(size=out.shape)
        grad[..., 0] = -0.0
        (full,) = out._backward(grad)
        expected = np.zeros(x.shape)
        np.add.at(expected, index, grad)
        assert full.tobytes() == expected.tobytes()
