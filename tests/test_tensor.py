"""Autograd engine tests: every op checked against numerical gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concat, no_grad
from repro.nn.tensor import scatter_add_rows
from tests.conftest import numeric_gradient


def check_grad(build_fn, *shapes, seed=0, atol=1e-2, rtol=1e-2):
    """Compare autograd gradient with central differences for each input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1, size=s).astype(np.float32) for s in shapes]
    for which in range(len(arrays)):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build_fn(*tensors)
        out.backward()
        analytic = tensors[which].grad

        def scalar_fn(x, _which=which):
            local = [a.copy() for a in arrays]
            local[_which] = x
            with no_grad():
                return float(build_fn(*[Tensor(a) for a in local]).data)

        numeric = numeric_gradient(scalar_fn, arrays[which].copy())
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


class TestElementwise:
    def test_add_grad(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    def test_add_broadcast_grad(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_sub_grad(self):
        check_grad(lambda a, b: (a - b).sum(), (2, 5), (2, 5))

    def test_mul_grad(self):
        check_grad(lambda a, b: (a * b).sum(), (3, 3), (3, 3))

    def test_div_grad(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (3, 3)).astype(np.float32)
        b = (rng.random((3, 3)) + 1.0).astype(np.float32)
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        np.testing.assert_allclose(ta.grad, 1.0 / b, rtol=1e-5)
        np.testing.assert_allclose(tb.grad, -a / b**2, rtol=1e-4)

    def test_neg_pow(self):
        check_grad(lambda a: ((-a) ** 2.0).sum(), (4,))

    def test_scalar_ops(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        out = (2.0 * t + 1.0 - 0.5).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])

    def test_rsub_rdiv(self):
        t = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (1.0 - t).backward()
        np.testing.assert_allclose(t.grad, [-1.0])
        t2 = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (4.0 / t2).backward()
        np.testing.assert_allclose(t2.grad, [-1.0])


class TestMatmulAndShape:
    def test_matmul_grad(self):
        check_grad(lambda a, b: a.matmul(b).sum(), (3, 4), (4, 2))

    def test_matmul_transpose(self):
        check_grad(lambda a, b: a.matmul(b.T).sum(), (3, 4), (2, 4))

    def test_reshape_grad(self):
        check_grad(lambda a: a.reshape(6).sum(), (2, 3))

    def test_transpose_data(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.T.shape == (3, 2)


class TestReductions:
    def test_sum_axis_grad(self):
        check_grad(lambda a: (a.sum(axis=0) ** 2.0).sum(), (3, 4))

    def test_mean_grad(self):
        check_grad(lambda a: a.mean(), (5, 2))

    def test_max_grad_distributes_ties(self):
        t = Tensor(np.array([[1.0, 1.0, 0.0]], dtype=np.float32), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5, 0.0]])


class TestIndexing:
    def test_index_select_scatter_add(self):
        t = Tensor(np.eye(3, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 1, 1, 2, 2, 2])
        t.index_select(idx).sum().backward()
        np.testing.assert_allclose(t.grad.sum(axis=1), [3.0, 6.0, 9.0])

    def test_narrow_grad(self):
        check_grad(lambda a: (a.narrow(1, 2) ** 2.0).sum(), (4, 3))

    def test_getitem_slice(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        t[1:3].sum().backward()
        assert t.grad[0].sum() == 0 and t.grad[1].sum() == 3

    def test_getitem_array(self):
        t = Tensor(np.arange(4, dtype=np.float32).reshape(4, 1), requires_grad=True)
        out = t[np.array([3, 0])]
        np.testing.assert_allclose(out.data.ravel(), [3.0, 0.0])


class TestScatterAddRows:
    """``scatter_add_rows`` is bit-identical to ``np.add.at`` on a zero table."""

    @staticmethod
    def reference(values, index, num_rows):
        out = np.zeros((num_rows,) + values.shape[index.ndim:], dtype=values.dtype)
        np.add.at(out, index, values)
        return out

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), num_rows=st.integers(1, 6),
           width=st.sampled_from([None, 1, 3, 8]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 10_000))
    def test_property_bit_identical_to_add_at(self, n, num_rows, width, dtype, seed):
        # Few rows and many entries: most rows receive many duplicate adds,
        # where a different summation order would change the rounding.
        rng = np.random.default_rng(seed)
        index = rng.integers(0, num_rows, n)
        shape = (n,) if width is None else (n, width)
        values = (rng.normal(0, 1, shape) * 10.0 ** rng.integers(-3, 4, shape)).astype(dtype)
        got = scatter_add_rows(values, index, num_rows)
        want = self.reference(values, index, num_rows)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_multidim_index(self):
        rng = np.random.default_rng(3)
        index = rng.integers(0, 4, (5, 3))
        values = rng.normal(0, 1, (5, 3, 2)).astype(np.float32)
        got = scatter_add_rows(values, index, 4)
        assert got.tobytes() == self.reference(values, index, 4).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 30), num_rows=st.integers(1, 5),
           seed=st.integers(0, 10_000))
    def test_property_index_select_grad_unchanged(self, n, num_rows, seed):
        """The gather's gradient is the in-order ``np.add.at`` scatter."""
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(0, 1, (num_rows, 4)).astype(np.float32),
                       requires_grad=True)
        index = rng.integers(0, num_rows, n)
        weight = rng.normal(0, 1, (n, 4)).astype(np.float32)
        (table.index_select(index) * Tensor(weight)).sum().backward()
        assert table.grad.tobytes() == self.reference(weight, index, num_rows).tobytes()


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["relu", "sigmoid", "tanh", "exp"])
    def test_pointwise_grads(self, op):
        check_grad(lambda a: getattr(a, op)().sum(), (3, 4), seed=2)

    def test_log_grad(self):
        t = Tensor(np.array([1.0, 2.0, 4.0], dtype=np.float32), requires_grad=True)
        t.log().sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 0.5, 0.25])

    def test_leaky_relu(self):
        t = Tensor(np.array([-2.0, 3.0], dtype=np.float32), requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(t.grad, [0.1, 1.0])

    def test_clamp_min(self):
        t = Tensor(np.array([-1.0, 2.0], dtype=np.float32), requires_grad=True)
        t.clamp_min(0.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])


class TestGraphMechanics:
    def test_concat_routes_gradients(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = concat([a, b], axis=0)
        (out * Tensor(np.arange(10, dtype=np.float32).reshape(5, 2))).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (3, 2)
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])

    def test_reused_tensor_accumulates(self):
        t = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (t * t).backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = t * 2.0
        b = t + 1.0
        (a * b).backward()  # d/dt (2t * (t+1)) = 4t + 2
        np.testing.assert_allclose(t.grad, [14.0])

    def test_no_grad_context(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_detach_breaks_tape(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        out = (t.detach() * 3.0).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 5), seed=st.integers(0, 100))
def test_property_matmul_chain_gradcheck(rows, cols, seed):
    """Random matmul+relu chains have correct gradients (property-based)."""
    from hypothesis import assume
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (rows, cols)).astype(np.float32)
    w = rng.normal(0, 1, (cols, 3)).astype(np.float32)
    # Central differences are invalid across the ReLU kink; skip draws whose
    # pre-activations sit within the finite-difference step of zero.
    assume(np.abs(a @ w).min() > 5e-3)
    ta = Tensor(a.copy(), requires_grad=True)
    tw = Tensor(w.copy(), requires_grad=True)
    out = ta.matmul(tw).relu().sum()
    out.backward()

    def f(x):
        with no_grad():
            return float(Tensor(x).matmul(Tensor(w)).relu().sum().data)

    numeric = numeric_gradient(f, a.copy())
    np.testing.assert_allclose(ta.grad, numeric, atol=2e-2, rtol=2e-2)
