import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odcast import autodiff as ad
from odcast.autodiff import Tensor, backward, fd_check, grad_of, zero_grads
from odcast.errors import NonFiniteValue, NotScalar, ShapeError, TapeReuse


def param(data, name=None):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True, name=name)


# The ops the stage ops were built from, as they were: the references that the
# bitwise properties below compare each stage op with.  TestLinear and TestHeads
# check them against central differences, so a property measures against a
# reference that is itself right.

def _sum_heads(g, ndim):
    """Sum a gradient over the head axis its operand was broadcast along."""
    return g.sum(axis=0) if g.ndim > ndim else g


def linear(x, w, b=None):
    """``x @ w^T + b`` for ``x`` (n, k) or (H, n, k) and ``w`` (m, k) or (H, m, k)."""
    xs, ws = x.data.shape, w.data.shape
    if (not 2 <= len(xs) <= 3 or not 2 <= len(ws) <= 3 or xs[-1] != ws[-1]
            or len(xs) == len(ws) == 3 and xs[0] != ws[0]
            or b is not None and b.data.shape != ws[-2:-1]):
        raise ShapeError(f"linear of {xs} and {ws}")
    out = np.matmul(x.data, w.data.swapaxes(-1, -2))
    if b is not None:
        out += b.data

    def vjp(g):
        return (_sum_heads(g @ w.data, len(xs)) if x.requires_grad else None,
                _sum_heads(g.swapaxes(-1, -2) @ x.data, len(ws)) if w.requires_grad else None,
                g.sum(axis=tuple(range(g.ndim - 1))) if b is not None and b.requires_grad
                else None)

    return ad._make(out, (x, w) if b is None else (x, w, b), vjp, "linear")


def batch_matmul(a, b):
    """One matrix product per head: (H, n, k) by (H, k, m) gives (H, n, m)."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[::2] != b.data.shape[:2]:
        raise ShapeError(f"batch_matmul of {a.data.shape} and {b.data.shape}")

    def vjp(g):
        return (g @ b.data.swapaxes(1, 2) if a.requires_grad else None,
                a.data.swapaxes(1, 2) @ g if b.requires_grad else None)

    return ad._make(np.matmul(a.data, b.data), (a, b), vjp, "batch_matmul")


def merge_heads(a):
    """Heads side by side: (H, k, n) gives (n, H*k) with ``out[j, h*k + i] = a[h, i, j]``."""
    if a.data.ndim != 3:
        raise ShapeError(f"merge_heads needs (H, k, n), got {a.data.shape}")
    heads, k, n = a.data.shape
    out = a.data.transpose(2, 0, 1).reshape(n, heads * k)
    return ad._make(out, (a,), lambda g: (g.reshape(n, heads, k).transpose(1, 2, 0),),
                    "merge_heads")


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
        # A bias rides in ``mlp``; ``add`` takes equal shapes only.
        out = ad.mlp(param([[1.0, 2.0], [3.0, 4.0]]), param(np.eye(2)), param([10.0, 20.0]),
                     param(np.eye(2)), param([0.5, 0.0]))
        assert np.array_equal(out.data, [[11.5, 22.0], [13.5, 24.0]])
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


def dense_pair_head(z, w1, b1, w2, c):
    """The head with its (n^2, m) hidden layer built in full: the reference."""
    n = z.shape[0]
    pairs = np.concatenate([np.repeat(z, n, axis=0), np.tile(z, (n, 1))], axis=1)
    return np.maximum(pairs @ w1.T + b1, 0.0) @ w2.T + c


def four_operand_pair_head(a, b, w, c):
    """The tape op the head was built from before: row ``i*n + j`` is
    ``relu(a[i] + b[j]) @ w^T + c``, with a fresh array for every block."""
    n, m = a.data.shape
    rows = max(1, ad._PAIR_BLOCK_ELEMENTS // (n * m))
    blocks = [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]
    out = np.empty((n * n, 1))
    for lo, hi in blocks:
        hidden = a.data[lo:hi, None, :] + b.data
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden.reshape(-1, m), w.data.T, out=out[lo * n:hi * n])
    out += c.data

    def vjp(g):
        pairs = g.reshape(n, n)
        s_a, s_b = np.zeros((n, m)), np.zeros((n, m))
        for lo, hi in blocks:
            mask = a.data[lo:hi, None, :] + b.data
            np.greater(mask, 0.0, out=mask)
            s_a[lo:hi] = np.matmul(pairs[lo:hi, None, :], mask)[:, 0]
            s_b += np.matmul(pairs[lo:hi].T[:, None, :], mask.swapaxes(0, 1))[:, 0]
        grad_w = ((a.data * s_a).sum(axis=0) + (b.data * s_b).sum(axis=0))[None, :]
        return s_a * w.data, s_b * w.data, grad_w, np.array([g.sum()])

    return ad._make(out, (a, b, w, c), vjp, "pair_head")


def composed_pair_head(z, w1, b1, w2, c):
    """The head as the op chain it replaced: split, two linears, the four-operand head."""
    k = z.data.shape[1]
    w_origin, w_dest = ad.split(w1, [k, k], axis=1)
    return four_operand_pair_head(linear(z, w_origin, b1), linear(z, w_dest), w2, c)


def head_value_and_grads(head, data, live, g):
    """Forward value of ``head`` and each operand's gradient under upstream ``g``;
    ``live[i]`` says whether operand i is a parameter."""
    operands = [Tensor(x.copy(), requires_grad=r) for x, r in zip(data, live)]
    out = head(*operands)
    if out.requires_grad:
        backward(ad.tensor_sum(ad.mul(out, ad.constant(g))))
    return out.data, [t.grad for t in operands]


def head_shapes(n, k, m):
    return ((n, k), (m, 2 * k), (m,), (1, m), (1,))


def assert_bitwise_equal(x, ref):
    """Equal values and equal signs, so -0.0 and 0.0 differ too."""
    assert np.array_equal(x, ref) and np.array_equal(np.signbit(x), np.signbit(ref))


def assert_head_is_bitwise_the_composition(data, live, g):
    out, grads = head_value_and_grads(ad.pair_head, data, live, g)
    ref_out, ref_grads = head_value_and_grads(composed_pair_head, data, live, g)
    assert_bitwise_equal(out, ref_out)
    for grad, ref in zip(grads, ref_grads):
        assert (grad is None) == (ref is None)
        if grad is not None:
            assert_bitwise_equal(grad, ref)


class TestPairHead:
    @pytest.mark.parametrize("n, m, blocks", [(3, 2, 1), (64, 64, 4), (75, 64, 6)],
                             ids=["single-block", "several-blocks", "ragged-last-block"])
    def test_forward_matches_dense_formula(self, n, m, blocks):
        rows = max(1, ad._PAIR_BLOCK_ELEMENTS // (n * m))
        assert -(-n // rows) == blocks  # the shape has the block layout its id names
        rng = np.random.default_rng(9)
        z, w1, b1, w2, c = (param(rng.normal(size=s)) for s in head_shapes(n, 3, m))
        out = ad.pair_head(z, w1, b1, w2, c)
        assert out.data.shape == (n * n, 1)
        assert np.allclose(out.data, dense_pair_head(z.data, w1.data, b1.data, w2.data, c.data),
                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape_z, shape_w1, shape_b1, shape_w2, shape_c", [
        ((3,), (2, 2), (2,), (1, 2), (1,)), ((3, 2), (2, 3), (2,), (1, 2), (1,)),
        ((3, 2), (4,), (2,), (1, 2), (1,)), ((3, 2), (2, 4), (3,), (1, 2), (1,)),
        ((3, 2), (2, 4), (2,), (1, 3), (1,)), ((3, 2), (2, 4), (2,), (2, 2), (1,)),
        ((3, 2), (2, 4), (2,), (1, 2), (2,))],
        ids=["vector-z", "w1-width", "vector-w1", "b1-size", "w-width", "w-rows", "c-size"])
    def test_shape_error(self, shape_z, shape_w1, shape_b1, shape_w2, shape_c):
        with pytest.raises(ShapeError):
            ad.pair_head(*(param(np.ones(s))
                           for s in (shape_z, shape_w1, shape_b1, shape_w2, shape_c)))

    def test_derivative_zero_at_zero(self):
        # The origin layer gives [1, 2] and the destination layer [-1, -1], so
        # their sum is [0, 1]: the first hidden unit sits exactly on the kink.
        z, w1, b1 = param([[1.0]]), param([[1.0, -1.0], [2.0, -1.0]]), param([0.0, 0.0])
        w2, c = param([[3.0, 5.0]]), param([0.5])
        backward(ad.tensor_sum(ad.pair_head(z, w1, b1, w2, c)))
        assert np.array_equal(z.grad, [[5.0]])
        assert np.array_equal(w1.grad, [[0.0, 0.0], [5.0, 5.0]])
        assert np.array_equal(b1.grad, [0.0, 5.0])
        assert np.array_equal(w2.grad, [[0.0, 1.0]])
        assert np.array_equal(c.grad, [1.0])

    def test_matches_central_differences(self):
        n, m = 40, 64
        assert ad._PAIR_BLOCK_ELEMENTS // (n * m) < n  # more than one block
        rng = np.random.default_rng(8)
        # z is the identity, so the origin layer is w1[:, :n]^T + b1 and the
        # destination layer w1[:, n:]^T.  Their sums land on integer + 0.75 +- 0.1:
        # mixed signs, no kink within the step.
        origin = rng.integers(-3, 3, size=(n, m)) + 0.25 + rng.uniform(-0.05, 0.05, (n, m))
        dest = rng.integers(-3, 3, size=(n, m)) + 0.5 + rng.uniform(-0.05, 0.05, (n, m))
        assert np.abs(origin[:, None, :] + dest[None, :, :]).min() > 0.1
        b1 = param(rng.normal(size=m), "b1")
        z = param(np.eye(n), "z")
        w1 = param(np.hstack([(origin - b1.data).T, dest.T]).copy(order="C"), "w1")
        w2, c = param(rng.normal(size=(1, m)), "w2"), param([0.3], "c")
        weights = ad.constant(rng.normal(size=(n * n, 1)))

        def f():
            return ad.mean(ad.square(ad.mul(ad.pair_head(z, w1, b1, w2, c), weights)))

        assert fd_check(f, [("z", z), ("w1", w1), ("b1", b1), ("w2", w2), ("c", c)]).passed()

    def test_constant_operands_get_no_product(self):
        rng = np.random.default_rng(10)
        data = [rng.normal(size=s) for s in head_shapes(5, 3, 4)]
        g = rng.normal(size=(25, 1))
        full = ad.pair_head(*(param(x) for x in data))._vjp(g)
        for k in range(5):
            operands = [ad.constant(x) if i == k else param(x) for i, x in enumerate(data)]
            grads = ad.pair_head(*operands)._vjp(g)
            assert grads[k] is None
            for i in range(5):
                if i != k:
                    assert np.array_equal(grads[i], full[i])

    @pytest.mark.parametrize("n, m", [(3, 2), (64, 64), (75, 64)],
                             ids=["single-block", "several-blocks", "ragged-last-block"])
    def test_shared_block_buffer_is_bitwise_per_block_allocation(self, n, m):
        # The composition allocates a fresh array for every block.
        rng = np.random.default_rng(11)
        data = [rng.normal(size=s) for s in head_shapes(n, 3, m)]
        assert_head_is_bitwise_the_composition(data, [True] * 5, rng.normal(size=(n * n, 1)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 90), k=st.integers(1, 5), m=st.integers(1, 64),
           live=st.lists(st.booleans(), min_size=5, max_size=5), integral=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    # One z column: products with a strided column of w1 would sum in another order.
    @example(n=1, k=1, m=7, live=[True, False, False, False, False], integral=False, seed=236)
    def test_fused_op_is_bitwise_the_composition(self, n, k, m, live, integral, seed):
        # Up to 9 blocks of origin rows.  Small integers put hidden sums exactly
        # on the kink and make gradient entries exactly zero.
        rng = np.random.default_rng(seed)
        if integral:
            data = [rng.integers(-2, 3, size=s).astype(float) for s in head_shapes(n, k, m)]
        else:
            data = [rng.normal(size=s) for s in head_shapes(n, k, m)]
        assert_head_is_bitwise_the_composition(data, live, rng.normal(size=(n * n, 1)))


def composed_masked_mse(raw, y, mask):
    """The loss as the op chain it replaced."""
    diff = ad.add(ad.constant(y), ad.scale(raw, -1.0))
    return ad.mean(ad.mul(ad.square(diff), ad.constant(mask)))


class TestMaskedMse:
    def test_value_and_gradient(self):
        raw = param([[1.0], [3.0], [-2.0]])
        loss = ad.masked_mse(raw, np.array([[2.0], [0.0], [0.0]]), np.array([[1.0], [1.0], [0.0]]))
        assert loss.item() == (1.0 + 9.0) / 3.0
        backward(loss)
        assert np.array_equal(raw.grad, [[-2.0 / 3.0], [2.0], [0.0]])

    @pytest.mark.parametrize("y_shape, mask_shape", [((3,), (3, 1)), ((3, 1), (1, 3))],
                             ids=["y-shape", "mask-shape"])
    def test_shape_error(self, y_shape, mask_shape):
        with pytest.raises(ShapeError):
            ad.masked_mse(param(np.ones((3, 1))), np.ones(y_shape), np.ones(mask_shape))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        raw = param(rng.normal(size=(30, 1)), "raw")
        y = rng.poisson(0.8, size=(30, 1)).astype(float)
        mask = np.where(y > 0.0, 1.0, rng.integers(0, 2, size=(30, 1)))
        report = fd_check(lambda: ad.masked_mse(raw, y, mask), [("raw", raw)])
        assert report.passed(), report.by_array()

    @settings(max_examples=100, deadline=None)
    @given(cells=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_fused_op_is_bitwise_the_composition(self, cells, seed):
        rng = np.random.default_rng(seed)
        raw_data = rng.normal(size=(cells, 1)) * 3.0
        y = rng.poisson(0.7, size=(cells, 1)).astype(float)
        mask = np.where(y > 0.0, 1.0, raw_data > 0.0)
        results = []
        for loss_of in (ad.masked_mse, composed_masked_mse):
            raw = param(raw_data.copy())
            loss = loss_of(raw, y, mask)
            backward(loss)
            results.append((loss.data, raw.grad))
        (loss, grad), (ref_loss, ref_grad) = results
        assert_bitwise_equal(loss, ref_loss)
        assert_bitwise_equal(grad, ref_grad)


def decayed_update_chain(base, decay, update, rows=None):
    """The memory update as the op chain it replaced."""
    if rows is not None:
        active = np.broadcast_to(rows[:, None], update.data.shape)
        update = ad.mul(update, ad.constant(active))
    return ad.add(ad.scale(base, decay), update)


def head_mean_chain(a):
    return ad.scale(ad.tensor_sum(a, axis=0), 1.0 / a.data.shape[0])


def fuse_columns_chain(station, clusters, area, row_scale):
    """Fusion's last step as the op chain it replaced: a row scale as a broadcast
    constant, the area row spread by a ones column, and a concat."""
    n = station.data.shape[0]
    station = ad.mul(station, ad.constant(np.broadcast_to(row_scale[:, None],
                                                          station.data.shape)))
    from_area = ad.matmul(ad.constant(np.ones((n, 1))), area)
    return ad.concat([station, clusters, from_area], axis=1)


# Stage op -> (the op, the chain it replaced, a shape drawer, extra constant arguments).
# A drawer maps sizes to operand shapes; extras map (rng, shapes) to the
# keyword arguments that are not tensors.
STAGE_OPS = {
    "mlp": (ad.mlp, lambda x, w1, b1, w2, b2: linear(ad.relu(linear(x, w1, b1)), w2, b2),
            lambda n, k, m, o, h: ((n, k), (m, k), (m,), (o, m), (o,))),
    "bilinear": (ad.bilinear, lambda x, wx, y, wy: linear(linear(x, wx), linear(y, wy)),
                 lambda n, k, m, o, h: ((n, k), (h, o, k), (m, k), (h, o, k))),
    "head_project": (ad.head_project,
                     lambda w, x, attn: merge_heads(batch_matmul(linear(w, x), attn)),
                     lambda n, k, m, o, h: ((h, o, k), (n, k), (h, n, m))),
    "decayed_update": (lambda base, update, decay=1.0, rows=None:
                       ad.decayed_update(base, decay, update, rows),
                       lambda base, update, decay=1.0, rows=None:
                       decayed_update_chain(base, decay, update, rows),
                       lambda n, k, m, o, h: ((n, k), (n, k))),
    "head_mean": (ad.head_mean, head_mean_chain, lambda n, k, m, o, h: ((h, n, k),)),
    "fuse_columns": (ad.fuse_columns, fuse_columns_chain,
                     lambda n, k, m, o, h: ((n, k), (n, m), (1, o))),
}


def stage_extras(name, rng, shapes, masked):
    """The constant, non-tensor arguments of a stage op."""
    if name == "decayed_update":
        rows = rng.integers(0, 2, size=shapes[0][0]).astype(float) if masked else None
        return {"decay": float(rng.choice([1.0, 0.0, rng.uniform(0.0, 1.0)])), "rows": rows}
    if name == "fuse_columns":  # unmasked: every b is 1, as at a reset
        n = shapes[0][0]
        return {"row_scale": 1.0 / rng.uniform(1.0, 3.0, size=n) if masked else np.ones(n)}
    return {}


def draw_operands(rng, shapes, integral):
    """Normal draws, or small integers whose zeros carry random signs: exact zeros,
    rectifier kinks and -0.0 products then occur, so the signs of zeros are tested."""
    if not integral:
        return [rng.normal(size=s) for s in shapes]
    return [np.copysign(rng.integers(-2, 3, size=s), rng.choice([-1.0, 1.0], size=s))
            for s in shapes]


class TestStageOps:
    @pytest.mark.parametrize("name", sorted(STAGE_OPS))
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.tuples(st.integers(1, 40), *[st.integers(1, 6)] * 4),
           live=st.lists(st.booleans(), min_size=5, max_size=5), integral=st.booleans(),
           masked=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_fused_op_is_bitwise_the_composition(self, name, sizes, live, integral, masked,
                                                 seed):
        op, chain, shapes_of = STAGE_OPS[name]
        rng = np.random.default_rng(seed)
        shapes = shapes_of(*sizes)
        data = draw_operands(rng, shapes, integral)
        live = live[:len(shapes)]
        extras = stage_extras(name, rng, shapes, masked)
        g_shape = op(*(ad.constant(x) for x in data), **extras).data.shape
        g = draw_operands(rng, [g_shape], integral)[0]
        out, grads = head_value_and_grads(lambda *t: op(*t, **extras), data, live, g)
        ref_out, ref_grads = head_value_and_grads(lambda *t: chain(*t, **extras), data, live, g)
        assert_bitwise_equal(out, ref_out)
        for grad, ref in zip(grads, ref_grads):
            assert (grad is None) == (ref is None)
            if grad is not None:
                assert_bitwise_equal(grad, ref)

    @pytest.mark.parametrize("name", sorted(STAGE_OPS))
    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "constant-argument"])
    def test_matches_central_differences(self, name, masked):
        op, _, shapes_of = STAGE_OPS[name]
        rng = np.random.default_rng(30)
        shapes = shapes_of(4, 3, 5, 2, 3)
        tensors = [param(x, f"operand{i}") for i, x in enumerate(draw_operands(rng, shapes, False))]
        extras = stage_extras(name, rng, shapes, masked)
        g = ad.constant(rng.normal(size=op(*tensors, **extras).data.shape))
        report = fd_check(lambda: ad.tensor_sum(ad.mul(op(*tensors, **extras), g)),
                          [(t.name, t) for t in tensors], tol=1e-6)
        assert report.passed(), report.by_array()

    @pytest.mark.parametrize("name, shapes", [
        ("mlp", ((3,), (2, 3), (2,), (1, 2), (1,))),
        ("mlp", ((4, 3), (2, 4), (2,), (1, 2), (1,))),
        ("mlp", ((4, 3), (2, 3), (3,), (1, 2), (1,))),
        ("mlp", ((4, 3), (2, 3), (2,), (1, 3), (1,))),
        ("mlp", ((4, 3), (2, 3), (2,), (1, 2), (2,))),
        ("bilinear", ((4, 3), (2, 5, 3), (6, 3), (2, 4, 3))),
        ("bilinear", ((4, 3), (2, 5, 3), (6, 2), (2, 5, 3))),
        ("bilinear", ((4, 3), (5, 3), (6, 3), (5, 3))),
        ("head_project", ((2, 5, 3), (4, 3), (2, 5, 6))),
        ("head_project", ((2, 5, 3), (4, 2), (2, 4, 6))),
        ("head_project", ((5, 3), (4, 3), (2, 4, 6))),
        ("decayed_update", ((4, 3), (4, 2))), ("fuse_columns", ((4, 3), (3, 2), (1, 2))),
        ("fuse_columns", ((4, 3), (4, 2), (2, 2))), ("fuse_columns", ((4,), (4, 2), (1, 2)))],
        ids=["mlp-vector-x", "mlp-w1-width", "mlp-b1-size", "mlp-w2-width", "mlp-b2-size",
             "bilinear-head-width", "bilinear-y-width", "bilinear-no-heads",
             "head-project-attn-rows", "head-project-x-width", "head-project-no-heads",
             "decayed-update-shapes", "fuse-columns-cluster-rows", "fuse-columns-area-rows",
             "fuse-columns-vector-station"])
    def test_shape_error(self, name, shapes):
        extras = {"row_scale": np.ones(shapes[0][0])} if name == "fuse_columns" else {}
        with pytest.raises(ShapeError):
            STAGE_OPS[name][0](*(param(np.ones(s)) for s in shapes), **extras)

    @pytest.mark.parametrize("rows, scale", [((3,), None), (None, (3,))],
                             ids=["decayed-update-rows", "fuse-columns-row-scale"])
    def test_constant_argument_shape_error(self, rows, scale):
        with pytest.raises(ShapeError):
            if rows is not None:
                ad.decayed_update(param(np.ones((4, 2))), 0.5, param(np.ones((4, 2))),
                                  rows=np.ones(rows))
            else:
                ad.fuse_columns(param(np.ones((4, 2))), param(np.ones((4, 1))),
                                param(np.ones((1, 1))), row_scale=np.ones(scale))

    def test_masked_rows_only_decay(self):
        base, update = param([[2.0, -4.0], [1.0, 1.0]]), param([[5.0, -6.0], [7.0, 8.0]])
        out = ad.decayed_update(base, 0.5, update, rows=np.array([0.0, 1.0]))
        assert_bitwise_equal(out.data, np.array([[1.0, -2.0], [7.5, 8.5]]))
        backward(ad.tensor_sum(out))
        assert_bitwise_equal(update.grad, np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert np.array_equal(base.grad, [[0.5, 0.5], [0.5, 0.5]])

    def test_fused_area_row_is_repeated_with_positive_zeros(self):
        out = ad.fuse_columns(param([[1.0], [2.0]]), param([[3.0], [4.0]]),
                              param([[-0.0, -5.0]]), row_scale=np.array([0.5, 0.25]))
        assert_bitwise_equal(out.data, np.array([[0.5, 3.0, 0.0, -5.0], [0.5, 4.0, 0.0, -5.0]]))

    @pytest.mark.parametrize("name", sorted(STAGE_OPS))
    def test_a_non_finite_forward_value_names_the_op(self, name):
        op, _, shapes_of = STAGE_OPS[name]
        shapes = shapes_of(2, 2, 2, 2, 2)
        # Every operand 1e308: each product or sum of two overflows.
        extras = {"row_scale": np.full(2, 1e308)} if name == "fuse_columns" else {}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteValue, match=f"forward op {name}:"):
            op(*(param(np.full(s, 1e308)) for s in shapes), **extras)

    @pytest.mark.parametrize("name, big", [("mlp", 3), ("bilinear", 3), ("head_project", 2)])
    def test_a_non_finite_gradient_inside_the_op_names_it(self, name, big):
        # Operand ``big`` is 1e200 and the rest ones: the forward value stays finite,
        # and so does the upstream gradient, but their product inside the VJP does not.
        op, _, shapes_of = STAGE_OPS[name]
        shapes = shapes_of(2, 2, 2, 2, 2)
        out = op(*(param(np.full(s, 1e200 if i == big else 1.0)) for i, s in enumerate(shapes)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteValue, match=f"gradient in op {name}"):
            out._vjp(np.full(out.data.shape, 1e200))


class TestLinear:
    """The reference ``linear`` that ``mlp``, ``bilinear`` and ``head_project`` replaced."""

    @pytest.mark.parametrize("x_shape, w_shape, out_shape", [
        ((4, 3), (2, 3), (4, 2)), ((4, 3), (5, 2, 3), (5, 4, 2)),
        ((5, 4, 3), (2, 3), (5, 4, 2)), ((5, 4, 3), (5, 2, 3), (5, 4, 2))],
        ids=["2d", "stacked-w", "stacked-x", "both-stacked"])
    def test_forward_is_x_times_w_transposed_plus_bias(self, x_shape, w_shape, out_shape):
        rng = np.random.default_rng(20)
        x, w, b = (param(rng.normal(size=s)) for s in (x_shape, w_shape, (2,)))
        out = linear(x, w, b)
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
            linear(param(np.ones(x_shape)), param(np.ones(w_shape)), b)

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
        assert fd_check(lambda: ad.mean(ad.square(linear(x, w, b))), named).passed()

    def test_constant_operands_get_no_product(self):
        rng = np.random.default_rng(22)
        x_data, w_data = rng.normal(size=(4, 3)), rng.normal(size=(2, 2, 3))
        g = np.ones((2, 4, 2))
        gx, gw, gb = linear(ad.constant(x_data), param(w_data), param(np.zeros(2)))._vjp(g)
        assert gx is None and gw.shape == (2, 2, 3) and np.array_equal(gb, [8.0, 8.0])
        gx, gw, gb = linear(param(x_data), ad.constant(w_data))._vjp(g)
        assert gw is None and gb is None and gx.shape == (4, 3)
        w_ref = param(w_data)
        backward(ad.tensor_sum(ad.square(linear(param(x_data), w_ref))))
        w = param(w_data)
        backward(ad.tensor_sum(ad.square(linear(ad.constant(x_data), w))))
        assert np.array_equal(w.grad, w_ref.grad)


class TestHeads:
    """The reference head ops ``head_project`` replaced, and views of stacked heads."""

    def test_batch_matmul_matches_central_differences(self):
        rng = np.random.default_rng(23)
        a, b = param(rng.normal(size=(3, 2, 4)), "a"), param(rng.normal(size=(3, 4, 5)), "b")
        assert np.allclose(batch_matmul(a, b).data, np.matmul(a.data, b.data))
        assert fd_check(lambda: ad.mean(ad.square(batch_matmul(a, b))),
                        [("a", a), ("b", b)]).passed()
        with pytest.raises(ShapeError):
            batch_matmul(a, param(np.ones((2, 4, 5))))

    def test_merge_heads_places_head_blocks_side_by_side(self):
        a = param(np.arange(24.0).reshape(2, 3, 4))
        out = merge_heads(a).data
        assert out.shape == (4, 6)
        assert np.array_equal(out, np.concatenate([a.data[0].T, a.data[1].T], axis=1))
        with pytest.raises(ShapeError):
            merge_heads(param(np.ones((3, 4))))

    def test_merge_heads_matches_central_differences(self):
        rng = np.random.default_rng(24)
        a = param(rng.normal(size=(3, 2, 4)), "a")
        weights = ad.constant(rng.normal(size=(4, 6)))
        assert fd_check(lambda: ad.mean(ad.square(ad.mul(merge_heads(a), weights))),
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fast check sets off no overflow warning
            assert np.array_equal(ad.constant(np.array([1e308, 1e308])).data, [1e308, 1e308])

    def test_count_names_the_non_finite_entries(self):
        with warnings.catch_warnings(), \
                pytest.raises(NonFiniteValue, match="1/2 non-finite entries"):
            warnings.simplefilter("error")
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
        report = fd_check(lambda: ad.tensor_sum(ad.square(theta)), [("theta", theta)], tol=1e-6)
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

        r1 = fd_check(f, [("theta", theta)], seed=9)
        zero_grads([theta])
        r2 = fd_check(f, [("theta", theta)], seed=9)
        assert [r.coordinate for r in r1.rows] == [r.coordinate for r in r2.rows]
        assert len(r1.rows) == 64
