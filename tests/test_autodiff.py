import numpy as np
import pytest

from odcast import autodiff as ad
from odcast.autodiff import Tensor, backward, fd_check, grad_of, zero_grads
from odcast.errors import NonFiniteValue, NotScalar, ShapeError, TapeReuse


def param(data, name=None):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True, name=name)


class TestForward:
    def test_matmul(self):
        a, b = param([[1.0, 2.0], [3.0, 4.0]]), param([[5.0], [6.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ad.matmul(param([[1.0, 2.0]]), param([[1.0, 2.0]]))

    def test_transpose(self):
        t = ad.transpose(param([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(t.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_concat_split_round_trip(self):
        a, b = param([[1.0, 2.0]]), param([[3.0, 4.0]])
        joined = ad.concat([a, b], axis=0)
        parts = ad.split(joined, [1, 1], axis=0)
        assert np.array_equal(parts[0].data, a.data)
        assert np.array_equal(parts[1].data, b.data)

    def test_softmax_rows_sum_to_one(self):
        s = ad.softmax(param(np.random.default_rng(0).normal(size=(4, 3))), axis=1)
        assert np.allclose(s.data.sum(axis=1), 1.0)

    def test_bias_add(self):
        # A bias rides in ``linear``; ``add`` takes equal shapes only.
        out = ad.linear(param([[1.0, 2.0], [3.0, 4.0]]), param(np.eye(2)), param([10.0, 20.0]))
        assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
        with pytest.raises(ShapeError):
            ad.add(param([[1.0, 2.0], [3.0, 4.0]]), param([10.0, 20.0]))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            ad.add(param([[1.0, 2.0]]), param([[1.0], [2.0]]))

    def test_relu_derivative_zero_at_zero(self):
        x = param([[0.0, 1.0, -1.0]])
        loss = ad.tensor_sum(ad.relu(x))
        backward(loss)
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


def dense_pair_head(a, b, w, c):
    """The head with its (n^2, m) hidden layer built in full: the reference."""
    n, m = a.shape
    return np.maximum(a[:, None, :] + b[None, :, :], 0.0).reshape(n * n, m) @ w.T + c


class TestPairHead:
    @pytest.mark.parametrize("n, m, blocks", [(3, 2, 1), (64, 64, 4), (75, 64, 6)],
                             ids=["single-block", "several-blocks", "ragged-last-block"])
    def test_forward_matches_dense_formula(self, n, m, blocks):
        rows = max(1, ad._PAIR_BLOCK_ELEMENTS // (n * m))
        assert -(-n // rows) == blocks  # the shape has the block layout its id names
        rng = np.random.default_rng(9)
        a, b = param(rng.normal(size=(n, m))), param(rng.normal(size=(n, m)))
        w, c = param(rng.normal(size=(1, m))), param(rng.normal(size=1))
        out = ad.pair_head(a, b, w, c)
        assert out.data.shape == (n * n, 1)
        assert np.allclose(out.data, dense_pair_head(a.data, b.data, w.data, c.data),
                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape_a, shape_b, shape_w, shape_c", [
        ((3, 2), (2, 2), (1, 2), (1,)), ((3, 2), (3, 1), (1, 2), (1,)),
        ((3,), (3,), (1, 3), (1,)), ((3, 2), (3, 2), (1, 3), (1,)),
        ((3, 2), (3, 2), (2, 2), (1,)), ((3, 2), (3, 2), (1, 2), (2,))],
        ids=["b-rows", "b-width", "vector-a", "w-width", "w-rows", "c-size"])
    def test_shape_error(self, shape_a, shape_b, shape_w, shape_c):
        with pytest.raises(ShapeError):
            ad.pair_head(*(param(np.ones(s)) for s in (shape_a, shape_b, shape_w, shape_c)))

    def test_derivative_zero_at_zero(self):
        # a + b is [0, 1]: the first hidden unit sits exactly on the kink.
        a, b = param([[1.0, 2.0]]), param([[-1.0, -1.0]])
        w, c = param([[3.0, 5.0]]), param([0.5])
        backward(ad.tensor_sum(ad.pair_head(a, b, w, c)))
        assert np.array_equal(a.grad, [[0.0, 5.0]])
        assert np.array_equal(b.grad, [[0.0, 5.0]])
        assert np.array_equal(w.grad, [[0.0, 1.0]])
        assert np.array_equal(c.grad, [1.0])

    def test_matches_central_differences(self):
        n, m = 40, 64
        assert ad._PAIR_BLOCK_ELEMENTS // (n * m) < n  # more than one block
        rng = np.random.default_rng(8)
        # Sums land on integer + 0.75 +- 0.1: mixed signs, no kink within the step.
        a = param(rng.integers(-3, 3, size=(n, m)) + 0.25 + rng.uniform(-0.05, 0.05, (n, m)),
                  "a")
        b = param(rng.integers(-3, 3, size=(n, m)) + 0.5 + rng.uniform(-0.05, 0.05, (n, m)),
                  "b")
        w, c = param(rng.normal(size=(1, m)), "w"), param([0.3], "c")
        assert np.abs(a.data[:, None, :] + b.data[None, :, :]).min() > 0.1
        weights = ad.constant(rng.normal(size=(n * n, 1)))

        def f():
            return ad.mean(ad.square(ad.mul(ad.pair_head(a, b, w, c), weights)))

        assert fd_check(f, [("a", a), ("b", b), ("w", w), ("c", c)]).passed()

    def test_constant_operands_get_no_product(self):
        rng = np.random.default_rng(10)
        data = [rng.normal(size=s) for s in ((5, 3), (5, 3), (1, 3), (1,))]
        g = rng.normal(size=(25, 1))
        full = ad.pair_head(*(param(x) for x in data))._vjp(g)
        for k in range(4):
            operands = [ad.constant(x) if i == k else param(x) for i, x in enumerate(data)]
            grads = ad.pair_head(*operands)._vjp(g)
            assert grads[k] is None
            for i in range(4):
                if i != k:
                    assert np.array_equal(grads[i], full[i])

    @pytest.mark.parametrize("n, m", [(3, 2), (64, 64), (75, 64)],
                             ids=["single-block", "several-blocks", "ragged-last-block"])
    def test_shared_block_buffer_is_bitwise_per_block_allocation(self, n, m):
        rng = np.random.default_rng(11)
        data = [rng.normal(size=s) for s in ((n, m), (n, m), (1, m), (1,))]
        g = rng.normal(size=(n * n, 1))
        out = ad.pair_head(*(param(x) for x in data))
        ref_out, ref_grads = per_block_pair_head(*data, g)
        assert np.array_equal(out.data, ref_out)
        for grad, ref in zip(out._vjp(g), ref_grads):
            assert np.array_equal(grad, ref)


def per_block_pair_head(a, b, w, c, g):
    """The blocked head with a fresh array for every block: forward and all four VJPs."""
    n, m = a.shape
    rows = max(1, ad._PAIR_BLOCK_ELEMENTS // (n * m))
    blocks = [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]
    out = np.empty((n * n, 1))
    for lo, hi in blocks:
        hidden = a[lo:hi, None, :] + b
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden.reshape(-1, m), w.T, out=out[lo * n:hi * n])
    out += c
    pairs = g.reshape(n, n)
    s_a, s_b = np.zeros((n, m)), np.zeros((n, m))
    for lo, hi in blocks:
        mask = a[lo:hi, None, :] + b
        np.greater(mask, 0.0, out=mask)
        s_a[lo:hi] = np.matmul(pairs[lo:hi, None, :], mask)[:, 0]
        s_b += np.matmul(pairs[lo:hi].T[:, None, :], mask.swapaxes(0, 1))[:, 0]
    grad_w = ((a * s_a).sum(axis=0) + (b * s_b).sum(axis=0))[None, :]
    return out, (s_a * w, s_b * w, grad_w, np.array([g.sum()]))


class TestLinear:
    @pytest.mark.parametrize("x_shape, w_shape, out_shape", [
        ((4, 3), (2, 3), (4, 2)), ((4, 3), (5, 2, 3), (5, 4, 2)),
        ((5, 4, 3), (2, 3), (5, 4, 2)), ((5, 4, 3), (5, 2, 3), (5, 4, 2))],
        ids=["2d", "stacked-w", "stacked-x", "both-stacked"])
    def test_forward_is_x_times_w_transposed_plus_bias(self, x_shape, w_shape, out_shape):
        rng = np.random.default_rng(20)
        x, w, b = (param(rng.normal(size=s)) for s in (x_shape, w_shape, (2,)))
        out = ad.linear(x, w, b)
        assert out.data.shape == out_shape
        assert np.allclose(out.data, x.data @ np.swapaxes(w.data, -1, -2) + b.data,
                           rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((4, 3), (2, 4), None), ((4, 3), (2, 3), (3,)), ((2, 4, 3), (3, 2, 3), None),
        ((3,), (2, 3), None), ((1, 2, 4, 3), (2, 3), None)],
        ids=["inner-width", "bias-width", "head-count", "vector-x", "four-axes"])
    def test_shape_error(self, x_shape, w_shape, b_shape):
        b = None if b_shape is None else param(np.ones(b_shape))
        with pytest.raises(ShapeError):
            ad.linear(param(np.ones(x_shape)), param(np.ones(w_shape)), b)

    @pytest.mark.parametrize("x_shape, w_shape, bias", [
        ((4, 3), (2, 3), False), ((4, 3), (2, 3), True), ((4, 3), (3, 2, 3), False),
        ((3, 4, 3), (2, 3), True)],
        ids=["2d", "2d-bias", "stacked-w", "stacked-x-bias"])
    def test_matches_central_differences(self, x_shape, w_shape, bias):
        rng = np.random.default_rng(21)
        x, w = param(rng.normal(size=x_shape), "x"), param(rng.normal(size=w_shape), "w")
        named = [("x", x), ("w", w)]
        b = None
        if bias:
            b = param(rng.normal(size=w_shape[-2]), "b")
            named.append(("b", b))
        assert fd_check(lambda: ad.mean(ad.square(ad.linear(x, w, b))), named).passed()

    def test_constant_operands_get_no_product(self):
        rng = np.random.default_rng(22)
        x_data, w_data = rng.normal(size=(4, 3)), rng.normal(size=(2, 2, 3))
        g = np.ones((2, 4, 2))
        gx, gw, gb = ad.linear(ad.constant(x_data), param(w_data), param(np.zeros(2)))._vjp(g)
        assert gx is None and gw.shape == (2, 2, 3) and np.array_equal(gb, [8.0, 8.0])
        gx, gw, gb = ad.linear(param(x_data), ad.constant(w_data))._vjp(g)
        assert gw is None and gb is None and gx.shape == (4, 3)
        w_ref = param(w_data)
        backward(ad.tensor_sum(ad.square(ad.linear(param(x_data), w_ref))))
        w = param(w_data)
        backward(ad.tensor_sum(ad.square(ad.linear(ad.constant(x_data), w))))
        assert np.array_equal(w.grad, w_ref.grad)


class TestHeads:
    def test_batch_matmul_matches_central_differences(self):
        rng = np.random.default_rng(23)
        a, b = param(rng.normal(size=(3, 2, 4)), "a"), param(rng.normal(size=(3, 4, 5)), "b")
        assert np.allclose(ad.batch_matmul(a, b).data, np.matmul(a.data, b.data))
        assert fd_check(lambda: ad.mean(ad.square(ad.batch_matmul(a, b))),
                        [("a", a), ("b", b)]).passed()
        with pytest.raises(ShapeError):
            ad.batch_matmul(a, param(np.ones((2, 4, 5))))

    def test_merge_heads_places_head_blocks_side_by_side(self):
        a = param(np.arange(24.0).reshape(2, 3, 4))
        out = ad.merge_heads(a).data
        assert out.shape == (4, 6)
        assert np.array_equal(out, np.concatenate([a.data[0].T, a.data[1].T], axis=1))
        with pytest.raises(ShapeError):
            ad.merge_heads(param(np.ones((3, 4))))

    def test_merge_heads_matches_central_differences(self):
        rng = np.random.default_rng(24)
        a = param(rng.normal(size=(3, 2, 4)), "a")
        weights = ad.constant(rng.normal(size=(4, 6)))
        assert fd_check(lambda: ad.mean(ad.square(ad.mul(ad.merge_heads(a), weights))),
                        [("a", a)]).passed()

    def test_views_share_data_and_gradient_with_their_stack(self):
        stack = param(np.arange(12.0).reshape(3, 2, 2), "w")
        view = stack[1]
        assert view.name == "w[1]" and np.array_equal(view.data, [[4.0, 5.0], [6.0, 7.0]])
        view.data[0, 0] = -1.0
        assert stack.data[1, 0, 0] == -1.0
        assert view.grad is None and np.array_equal(grad_of(view), np.zeros((2, 2)))
        backward(ad.tensor_sum(ad.square(stack)))
        assert np.array_equal(view.grad, 2.0 * stack.data[1])
        zero_grads([view])
        assert stack.grad is None
        assert [v.data.shape for v in stack] == [(2, 2)] * 3  # iteration stops at the end

    def test_a_view_used_as_an_operand_fails_at_backward(self):
        stack = param(np.ones((2, 2, 2)))
        with pytest.raises(TypeError, match="view"):
            backward(ad.tensor_sum(ad.matmul(stack[0], stack[1])))


class TestBackward:
    def test_matmul_skips_constant_operand(self):
        rng = np.random.default_rng(3)
        w_data, x_data = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        w, x = param(w_data), ad.constant(x_data)
        product = ad.matmul(w, x)
        assert product._vjp(np.ones((3, 2)))[1] is None
        backward(ad.tensor_sum(ad.square(product)))
        w_ref, x_ref = param(w_data), param(x_data)
        backward(ad.tensor_sum(ad.square(ad.matmul(w_ref, x_ref))))
        assert np.array_equal(w.grad, w_ref.grad)
        assert x.grad is None
        v, u = ad.constant(w_data), param(x_data)
        backward(ad.tensor_sum(ad.square(ad.matmul(v, u))))
        assert np.array_equal(u.grad, x_ref.grad)
        assert v.grad is None

    def test_add_gradient_is_one(self):
        x, y = param([[1.0, 2.0]]), param([[3.0, 4.0]])
        backward(ad.tensor_sum(ad.add(x, y)))
        assert np.array_equal(x.grad, [[1.0, 1.0]])
        assert np.array_equal(y.grad, [[1.0, 1.0]])

    def test_softmax_jacobian_row(self):
        # Select the first softmax output of logits [0, 0]: gradient is
        # [s0*(1-s0), -s0*s1] = [0.25, -0.25].
        x = param([0.0, 0.0])
        s = ad.softmax(x, axis=0)
        picked = ad.tensor_sum(ad.mul(s, ad.constant([1.0, 0.0])))
        backward(picked)
        assert np.allclose(x.grad, [0.25, -0.25])

    def test_sum_of_squares(self):
        p = param([1.0, -2.0, 3.0])
        backward(ad.tensor_sum(ad.square(p)))
        assert np.array_equal(p.grad, [2.0, -4.0, 6.0])

    def test_disconnected_parameter_zero_grad(self):
        used, unused = param([2.0]), param([5.0])
        backward(ad.tensor_sum(ad.square(used)))
        assert np.array_equal(grad_of(unused), [0.0])

    def test_not_scalar(self):
        with pytest.raises(NotScalar):
            backward(ad.square(param([1.0, 2.0])))

    def test_backward_twice_is_an_error(self):
        p = param([1.0])
        loss = ad.tensor_sum(p)
        backward(loss)
        with pytest.raises(TapeReuse):
            backward(loss)

    def test_gradient_accumulates_over_shared_use(self):
        p = param([3.0])
        loss = ad.tensor_sum(ad.mul(p, p))  # p used twice
        backward(loss)
        assert np.array_equal(p.grad, [6.0])

    def test_gradient_linearity(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(3, 3))

        def grad_of_scaled(alpha, beta):
            x = param(x0)
            f = ad.tensor_sum(ad.square(x))
            g = ad.tensor_sum(ad.exp(ad.scale(x, 0.1)))
            backward(ad.add(ad.scale(f, alpha), ad.scale(g, beta)))
            return x.grad

        ga = grad_of_scaled(1.0, 0.0)
        gb = grad_of_scaled(0.0, 1.0)
        combined = grad_of_scaled(2.0, -3.0)
        assert np.allclose(combined, 2.0 * ga - 3.0 * gb, rtol=1e-12)

    def test_split_routes_gradients(self):
        x = param(np.arange(6.0).reshape(2, 3))
        left, right = ad.split(x, [1, 2], axis=1)
        backward(ad.tensor_sum(ad.square(left)))
        expected = np.zeros((2, 3))
        expected[:, 0] = 2.0 * x.data[:, 0]
        assert np.array_equal(x.grad, expected)


class TestFiniteChecks:
    def test_nan_input_aborts(self):
        with pytest.raises(NonFiniteValue):
            Tensor(np.array([1.0, np.nan]))

    def test_finite_entries_whose_sum_overflows_pass(self):
        with np.errstate(over="ignore"):  # the fast check's sum overflows here
            assert np.array_equal(ad.constant(np.array([1e308, 1e308])).data, [1e308, 1e308])

    def test_count_names_the_non_finite_entries(self):
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteValue, match="1/2 non-finite entries"):
            ad.constant(np.array([1e308, np.inf]))

    def test_overflow_aborts(self):
        x = param([800.0])
        with pytest.raises(NonFiniteValue):
            ad.exp(x)

    @pytest.mark.parametrize("into", ["leaf", "interior"])
    def test_gradient_overflowing_only_when_summed_aborts(self, into):
        # Forward values stay finite; each of the two contributions is 1e308
        # and only their sum is inf.
        x = param([1e-300], name="x")
        shared = x if into == "leaf" else ad.scale(x, 1.0)
        loss = ad.tensor_sum(ad.add(ad.scale(shared, 1e308), ad.scale(shared, 1e308)))
        assert np.isfinite(loss.data)
        name = "x" if into == "leaf" else "scale"
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteValue, match=f"gradient into {name}"):
            backward(loss)


class TestFdCheck:
    def test_square_at_three(self):
        theta = param(np.array([3.0]), name="theta")
        report = fd_check(lambda: ad.tensor_sum(ad.square(theta)), [("theta", theta)],
                          h_scale=1e-5, tol=1e-6)
        row = report.rows[0]
        assert row.analytic == pytest.approx(6.0, abs=1e-12)
        assert row.numeric == pytest.approx(6.0, abs=1e-6)
        assert report.passed()

    def test_constant_function(self):
        theta = param(np.array([1.0, 2.0]), name="theta")
        report = fd_check(lambda: ad.constant(np.asarray(4.0)) * ad.constant(np.asarray(1.0)),
                          [("theta", theta)], tol=1e-4)
        assert report.max_rel_error < 1e-4
        assert all(r.analytic == 0.0 for r in report.rows)

    def test_composed_graph_matches_central_differences(self):
        rng = np.random.default_rng(5)
        w = param(rng.normal(size=(3, 4)), name="w")
        x = ad.constant(rng.normal(size=(4, 2)))

        def f():
            return ad.mean(ad.square(ad.relu(ad.matmul(w, x))))

        report = fd_check(f, [("w", w)], tol=1e-6)
        assert report.max_rel_error < 1e-6

    def test_csv_export(self, tmp_path):
        theta = param(np.array([2.0]), name="theta")
        report = fd_check(lambda: ad.tensor_sum(ad.square(theta)), [("theta", theta)])
        out = tmp_path / "fd.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "array,coordinate,analytic,numeric,rel_error"
        assert len(lines) == 2

    def test_subsampling_is_seeded(self):
        theta = param(np.arange(200.0), name="theta")

        def f():
            return ad.tensor_sum(ad.square(theta))

        r1 = fd_check(f, [("theta", theta)], max_coords=64, seed=9)
        zero_grads([theta])
        r2 = fd_check(f, [("theta", theta)], max_coords=64, seed=9)
        assert [r.coordinate for r in r1.rows] == [r.coordinate for r in r2.rows]
        assert len(r1.rows) == 64
