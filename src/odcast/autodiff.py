"""Minimal reverse-mode differentiation over 64-bit numpy arrays.

A :class:`Tensor` records the operation that produced it together with
vector-Jacobian closures for its parents; :func:`backward` replays the tape
in reverse topological order.  The op set is small.  Elementwise and shape
ops: matrix multiply, transpose, concat, split, add, mul, scalar scale, exp,
rectifier, softmax over an axis, sum over an axis, mean and square.  Each
stage of the model is one op whose forward is plain numpy and whose VJP is
written out next to it: the rectifier MLP ``mlp``, the per-head ``bilinear``
relation logits, the attention-weighted ``head_project``, the memory
update ``decayed_update``, ``head_mean`` and ``fuse_columns`` for
cross-level fusion, the pairwise MLP head ``pair_head``, which maps an (n, k)
matrix to one value per ordered row pair (n^2 rows) without storing the
(n^2, m) hidden layer, and the masked squared error ``masked_mse`` against a
constant target.  A non-finite intermediate of a stage op makes its output
non-finite, so the output check names the op; the intermediate gradients of
its VJP are checked under its name too.
There is no general broadcasting: biases ride inside ``mlp`` and
``pair_head``, and a leading head axis only in the ops that document it.  A
:class:`View` names one slice of a tensor, such as one head of a stacked
weight, without putting it on the tape.

Every forward value and every gradient is checked for NaN/Inf and aborts
with diagnostics when one appears.
Calling backward twice on the same tape is an error.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteValue, NotScalar, ShapeError, TapeReuse
from .events import write_csv

def _assert_finite(data: np.ndarray, where: str) -> None:
    # The sum of squares is NaN or Inf if some entry is; one BLAS pass that sets
    # off no NumPy overflow warning.  Finite entries can overflow it too, so only
    # a count of non-finite entries raises.  Raveling in memory order keeps a
    # transposed view from being copied.
    flat = data.ravel(order="K")
    if not math.isfinite(float(np.vdot(flat, flat))):
        bad = int((~np.isfinite(data)).sum())
        if bad:
            raise NonFiniteValue(f"{where}: {bad}/{data.size} non-finite entries, "
                                 f"shape {data.shape}")


class Tensor:
    """A node on the tape: forward value, gradient slot, and parent links."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None
        self._backward_ran = False
        _assert_finite(self.data, f"tensor {name or '(leaf)'}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = self.name or ("param" if self.requires_grad else "const")
        return f"Tensor({tag}, shape={self.data.shape})"

    def __getitem__(self, index) -> "View":
        return View(self, index)


class View(Tensor):
    """Slice ``index`` of a tensor under its own name, such as one head of a stack.

    It shares the tensor's data and reads its slice of the tensor's gradient;
    clearing its gradient clears the tensor's.  It is not on the tape, so
    backward fails if an op took it as an operand.
    """

    __slots__ = ("base", "index")

    def __init__(self, base: Tensor, index, name: str | None = None):
        # An index past the end raises IndexError here, which also ends iteration.
        self.data, self.base, self.index = base.data[index], base, index
        self.name, self.requires_grad = name or f"{base.name}[{index}]", base.requires_grad
        self._parents, self._vjp, self._backward_ran = (), None, False

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.base.grad is None else self.base.grad[self.index]

    @grad.setter
    def grad(self, value) -> None:
        if value is not None:
            raise TypeError(f"{self.name} is a view; ops must take the tensor it views")
        self.base.grad = None


def constant(x, name: str | None = None) -> Tensor:
    return Tensor(x, requires_grad=False, name=name)


def detach(t: Tensor) -> Tensor:
    """A constant sharing ``t``'s data, off the tape; the data was checked when
    ``t`` was made, so it is not checked again."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad, out.name = t.data, None, False, t.name
    out._parents, out._vjp, out._backward_ran = (), None, False
    return out


def _make(data: np.ndarray, parents: Sequence[Tensor],
          vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]], op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any([p.requires_grad for p in parents])
    out.name = op
    out._parents = tuple(parents)
    out._vjp = vjp
    out._backward_ran = False
    _assert_finite(data, f"forward op {op}")
    return out


# -- operations ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul of {a.data.shape} and {b.data.shape}")
    out = a.data @ b.data

    def vjp(g: np.ndarray):
        # A constant operand gets no gradient, so its product is skipped.
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(out, (a, b), vjp, "matmul")


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """One hidden rectifier layer, ``relu(x @ w1^T + b1) @ w2^T + b2``, for ``x``
    (n, k), ``w1`` (m, k), ``b1`` (m,), ``w2`` (o, m) and ``b2`` (o,): (n, o)."""
    xs, ws, vs = x.data.shape, w1.data.shape, w2.data.shape
    if (len(xs) != 2 or len(ws) != 2 or len(vs) != 2 or xs[1] != ws[1] or vs[1] != ws[0]
            or b1.data.shape != ws[:1] or b2.data.shape != vs[:1]):
        raise ShapeError(f"mlp of {xs}, {ws}, {b1.data.shape}, {vs} and {b2.data.shape}")
    pre = np.matmul(x.data, w1.data.T)
    pre += b1.data
    mask = pre > 0.0  # derivative at exactly 0 is 0
    hidden = pre * mask
    out = np.matmul(hidden, w2.data.T)
    out += b2.data
    hidden_live = x.requires_grad or w1.requires_grad or b1.requires_grad

    def vjp(g: np.ndarray):
        # A constant operand gets no gradient, so its product is skipped.
        g_pre = None
        if hidden_live:
            g_hidden = g @ w2.data
            _assert_finite(g_hidden, "gradient in op mlp (hidden layer)")
            g_pre = g_hidden * mask
        return (g_pre @ w1.data if x.requires_grad else None,
                g_pre.T @ x.data if w1.requires_grad else None,
                g_pre.sum(axis=0) if b1.requires_grad else None,
                g.T @ hidden if w2.requires_grad else None,
                g.sum(axis=0) if b2.requires_grad else None)

    return _make(out, (x, w1, b1, w2, b2), vjp, "mlp")


def bilinear(x: Tensor, wx: Tensor, y: Tensor, wy: Tensor) -> Tensor:
    """Per-head bilinear scores ``(x @ wx[h]^T) @ (y @ wy[h]^T)^T`` for ``x`` (n, d),
    ``y`` (m, d) and ``wx``, ``wy`` (H, r, d): (H, n, m)."""
    xs, ys, wxs, wys = x.data.shape, y.data.shape, wx.data.shape, wy.data.shape
    if (len(xs) != 2 or len(ys) != 2 or len(wxs) != 3 or wxs[:2] != wys[:2]
            or len(wys) != 3 or xs[1] != wxs[2] or ys[1] != wys[2]):
        raise ShapeError(f"bilinear of {xs}, {wxs}, {ys} and {wys}")
    left = np.matmul(x.data, wx.data.swapaxes(-1, -2))   # (H, n, r)
    right = np.matmul(y.data, wy.data.swapaxes(-1, -2))  # (H, m, r)
    out = np.matmul(left, right.swapaxes(-1, -2))
    left_live = x.requires_grad or wx.requires_grad
    right_live = y.requires_grad or wy.requires_grad

    def vjp(g: np.ndarray):
        # A constant operand gets no gradient, so its product is skipped.
        g_left = g_right = None
        if left_live:
            g_left = g @ right
            _assert_finite(g_left, "gradient in op bilinear (left projection)")
        if right_live:
            g_right = g.swapaxes(-1, -2) @ left
            _assert_finite(g_right, "gradient in op bilinear (right projection)")
        return ((g_left @ wx.data).sum(axis=0) if x.requires_grad else None,
                g_left.swapaxes(-1, -2) @ x.data if wx.requires_grad else None,
                (g_right @ wy.data).sum(axis=0) if y.requires_grad else None,
                g_right.swapaxes(-1, -2) @ y.data if wy.requires_grad else None)

    return _make(out, (x, wx, y, wy), vjp, "bilinear")


def head_project(w: Tensor, x: Tensor, attn: Tensor) -> Tensor:
    """Attention-weighted projections, heads side by side: for ``w`` (H, o, k), ``x``
    (n, k) and ``attn`` (H, n, c), ``out[i, h*o + p] = sum_j attn[h, j, i] (w[h] @ x[j])[p]``,
    a (c, H*o) matrix."""
    ws, xs, attns = w.data.shape, x.data.shape, attn.data.shape
    if (len(ws) != 3 or len(xs) != 2 or len(attns) != 3 or ws[2] != xs[1]
            or attns[:2] != (ws[0], xs[0])):
        raise ShapeError(f"head_project of {ws}, {xs} and {attns}")
    projected = np.matmul(w.data, x.data.swapaxes(-1, -2))  # (H, o, n)
    heads, o, c = ws[0], ws[1], attns[2]
    out = np.matmul(projected, attn.data).transpose(2, 0, 1).reshape(c, heads * o)
    projected_live = w.requires_grad or x.requires_grad

    def vjp(g: np.ndarray):
        # A constant operand gets no gradient, so its product is skipped.
        g_heads = g.reshape(c, heads, o).transpose(1, 2, 0)  # (H, o, c)
        g_projected = None
        if projected_live:
            g_projected = g_heads @ attn.data.swapaxes(1, 2)
            _assert_finite(g_projected, "gradient in op head_project (projection)")
        return (g_projected @ x.data if w.requires_grad else None,
                (g_projected.swapaxes(-1, -2) @ w.data).sum(axis=0) if x.requires_grad else None,
                projected.swapaxes(1, 2) @ g_heads if attn.requires_grad else None)

    return _make(out, (w, x, attn), vjp, "head_project")


def decayed_update(base: Tensor, decay: float, update: Tensor,
                   rows: np.ndarray | None = None) -> Tensor:
    """``base * decay + update``, with row i of ``update`` times ``rows[i]`` when a
    constant 0/1 vector ``rows`` is given."""
    if base.data.shape != update.data.shape or (
            rows is not None and rows.shape != base.data.shape[:1]):
        rows_shape = "" if rows is None else f" by rows {rows.shape}"
        raise ShapeError(f"decayed_update of {base.data.shape} and {update.data.shape}"
                         f"{rows_shape}")
    decay = float(decay)
    column = None if rows is None else rows[:, None]
    out = base.data * decay + (update.data if column is None else update.data * column)

    def vjp(g: np.ndarray):
        return (g * decay if base.requires_grad else None,
                g if column is None else g * column)

    return _make(out, (base, update), vjp, "decayed_update")


def head_mean(a: Tensor) -> Tensor:
    """Mean over the leading (head) axis, as the sum times ``1/H``."""
    factor = 1.0 / a.data.shape[0]
    shape = a.data.shape
    return _make(a.data.sum(axis=0) * factor, (a,),
                 lambda g: (np.broadcast_to((g * factor)[None], shape),), "head_mean")


def fuse_columns(station: Tensor, clusters: Tensor, area: Tensor,
                 row_scale: np.ndarray) -> Tensor:
    """``[station | clusters | area]`` side by side for ``station`` (n, d),
    ``clusters`` (n, c) and ``area`` (1, e), the area row repeated on every row,
    with row i of the station block scaled by the constant ``row_scale[i]``.
    The area block is ``area + 0.0``, which turns -0.0 into +0.0 exactly as a
    product with a column of ones does; the area's gradient, a column sum, is
    taken as that product too, so it sums in BLAS's order.
    """
    ss, cs, es = station.data.shape, clusters.data.shape, area.data.shape
    if (len(ss) != 2 or len(cs) != 2 or len(es) != 2 or cs[0] != ss[0] or es[0] != 1
            or row_scale.shape != ss[:1]):
        raise ShapeError(f"fuse_columns of {ss} scaled by {row_scale.shape}, {cs} and {es}")
    (n, d), c, e = ss, cs[1], es[1]
    column = row_scale[:, None]
    out = np.empty((n, d + c + e))
    np.multiply(station.data, column, out=out[:, :d])
    out[:, d:d + c] = clusters.data
    np.add(area.data, 0.0, out=out[:, d + c:])

    def vjp(g: np.ndarray):
        return (g[:, :d] * column, g[:, d:d + c],
                np.ones((n, 1)).T @ g[:, d + c:] if area.requires_grad else None)

    return _make(out, (station, clusters, area), vjp, "fuse_columns")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got {a.data.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add of {a.data.shape} and {b.data.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


# Elements of one block of the pair head's hidden layer: 64k float64 is
# 512 KB, which stays in a core's L2 cache.
_PAIR_BLOCK_ELEMENTS = 1 << 16


def _pair_sums(buffer: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``a[i] + b[j]`` for origin rows ``lo <= i < hi`` and every ``j``, written
    into the front of ``buffer``: a broadcast copy of the origin rows, then one
    contiguous add, which is about twice as fast as a broadcasting add."""
    block = buffer[:hi - lo]
    block[...] = a[lo:hi, None, :]
    block += b
    return block


def pair_head(z: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, c: Tensor) -> Tensor:
    """Pairwise MLP head: row ``i*n + j`` of the (n^2, 1) result is
    ``relu(w1 @ [z_i ; z_j] + b1) @ w2^T + c`` for ``z`` (n, k), ``w1`` (m, 2k),
    ``b1`` (m,), ``w2`` (1, m) and ``c`` (1,).

    The first layer splits by the columns of ``w1``: ``a = z @ w1[:, :k]^T + b1``
    per origin and ``b = z @ w1[:, k:]^T`` per destination, each computed once
    per node.  The (n^2, m) hidden layer ``relu(a[i] + b[j])`` is never stored:
    forward and VJP walk blocks of origin rows sized to a fixed element budget
    and rebuild each block's hidden values; since ``relu(x) = mask * x``, the
    block's 0/1 mask is all the VJP needs.
    """
    zs, ws = z.data.shape, w1.data.shape
    if (len(zs) != 2 or len(ws) != 2 or ws[1] != 2 * zs[1] or b1.data.shape != ws[:1]
            or w2.data.shape != (1, ws[0]) or c.data.shape != (1,)):
        raise ShapeError(f"pair_head of {zs}, {ws}, {b1.data.shape}, {w2.data.shape} "
                         f"and {c.data.shape}")
    (n, k), m = zs, ws[0]
    # Contiguous halves: a strided column of w1 (k = 1) would send NumPy's
    # products down BLAS paths that sum in another order.
    w_origin, w_dest = w1.data[:, :k].copy(), w1.data[:, k:].copy()
    a = np.matmul(z.data, w_origin.T)
    a += b1.data
    b = np.matmul(z.data, w_dest.T)
    _assert_finite(a, "forward op pair_head (origin layer)")
    _assert_finite(b, "forward op pair_head (destination layer)")
    rows = max(1, _PAIR_BLOCK_ELEMENTS // max(1, n * m))
    blocks = [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]
    out = np.empty((n * n, 1))
    buffer = np.empty((min(rows, n), n, m))  # shared by the blocks: fewer page faults
    for lo, hi in blocks:
        hidden = _pair_sums(buffer, a, b, lo, hi)
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden.reshape(-1, m), w2.data.T, out=out[lo * n:hi * n])
    out += c.data

    def vjp(g: np.ndarray):
        pairs = g.reshape(n, n)
        # A constant operand gets no gradient, and its product is skipped; w2
        # needs both row sums.
        origin_live = z.requires_grad or w1.requires_grad or b1.requires_grad
        dest_live = z.requires_grad or w1.requires_grad
        need_a = origin_live or w2.requires_grad
        need_b = dest_live or w2.requires_grad
        s_a, s_b = np.zeros((n, m)), np.zeros((n, m))
        if need_a or need_b:
            buffer = np.empty((min(rows, n), n, m))
            for lo, hi in blocks:
                mask = _pair_sums(buffer, a, b, lo, hi)
                np.greater(mask, 0.0, out=mask)  # derivative at exactly 0 is 0
                if need_a:  # s_a[i] = sum_j g[i, j] mask[i, j]
                    s_a[lo:hi] = np.matmul(pairs[lo:hi, None, :], mask)[:, 0]
                if need_b:  # s_b[j] = sum_i g[i, j] mask[i, j]
                    s_b += np.matmul(pairs[lo:hi].T[:, None, :], mask.swapaxes(0, 1))[:, 0]
        grad_w2 = None
        if w2.requires_grad:
            grad_w2 = ((a * s_a).sum(axis=0) + (b * s_b).sum(axis=0))[None, :]
        # Gradients into the two first-layer outputs, then through them.  A
        # non-finite entry there makes every gradient it reaches non-finite.
        g_a = s_a * w2.data if origin_live else None
        g_b = s_b * w2.data if dest_live else None
        grad_w1 = None
        if w1.requires_grad:  # zeros plus each half, as two column blocks summed
            grad_w1 = np.zeros((m, 2 * k))
            grad_w1[:, :k] += g_a.T @ z.data
            grad_w1[:, k:] += g_b.T @ z.data
        return (g_a @ w_origin + g_b @ w_dest if z.requires_grad else None,
                grad_w1,
                g_a.sum(axis=0) if b1.requires_grad else None,
                grad_w2,
                np.array([g.sum()]) if c.requires_grad else None)

    return _make(out, (z, w1, b1, w2, c), vjp, "pair_head")


def masked_mse(raw: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """``mean(mask * (y - raw)^2)`` for a constant target ``y`` and constant 0/1
    ``mask``, both of ``raw``'s shape; masked cells get exactly zero gradient."""
    shape = raw.data.shape
    if y.shape != shape or mask.shape != shape:
        raise ShapeError(f"masked_mse of {shape}, {y.shape} and {mask.shape}")
    size = raw.data.size
    diff = y - raw.data
    out = np.asarray((diff * diff * mask).mean())
    return _make(out, (raw,), lambda g: (-2.0 * diff * (g / size * mask),), "masked_mse")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul of {a.data.shape} and {b.data.shape}")

    def vjp(g: np.ndarray):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), vjp, "mul")


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _make(a.data * factor, (a,), lambda g: (g * factor,), "scale")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as a NonFiniteValue abort
        out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # derivative at exactly 0 is 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,), "relu")


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,), "square")


def softmax(a: Tensor, axis: int) -> Tensor:
    # The ufunc reductions are what ``max`` and ``sum`` call, minus their wrappers.
    out = a.data - np.maximum.reduce(a.data, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)

    def vjp(g: np.ndarray):
        inner = np.add.reduce(g * out, axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), vjp, "softmax")


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        shape = a.data.shape
        return _make(np.asarray(a.data.sum()), (a,),
                     lambda g: (np.broadcast_to(g, shape),), "sum")
    out = a.data.sum(axis=axis)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return _make(out, (a,), vjp, "sum")


def mean(a: Tensor) -> Tensor:
    size = a.data.size
    shape = a.data.shape
    return _make(np.asarray(a.data.mean()), (a,),
                 lambda g: (np.broadcast_to(g / size, shape),), "mean")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g: np.ndarray):
        return tuple(np.split(g, bounds, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp, "concat")


def split(a: Tensor, sizes: Sequence[int], axis: int = 0) -> list[Tensor]:
    if sum(sizes) != a.data.shape[axis]:
        raise ShapeError(f"split sizes {sizes} do not cover axis {axis} of {a.data.shape}")
    bounds = np.cumsum(sizes)[:-1]
    pieces = np.split(a.data, bounds, axis=axis)
    outs = []
    offset = 0
    for piece in pieces:
        lo = offset
        hi = offset + piece.shape[axis]
        offset = hi

        def vjp(g: np.ndarray, lo=lo, hi=hi):
            full = np.zeros_like(a.data)
            index = [slice(None)] * a.data.ndim
            index[axis] = slice(lo, hi)
            full[tuple(index)] = g
            return (full,)

        outs.append(_make(piece.copy(), (a,), vjp, "split"))
    return outs


# -- backward pass ------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every reachable tensor."""
    if loss.data.shape != ():
        raise NotScalar(f"backward needs a scalar, got shape {loss.data.shape}")
    if loss._backward_ran:
        raise TapeReuse("backward was already run on this tape")
    loss._backward_ran = True
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.grad = np.ones(())
    # Every contribution into a node arrives before the node is popped.  A grad
    # may alias a VJP output or a read-only view, so it is never updated in place.
    for node in reversed(order):
        if node.grad is None:
            continue
        _assert_finite(node.grad, f"gradient into {node.name or 'tensor'}")
        if node._vjp is None:
            continue
        contributions = node._vjp(node.grad)
        for parent, contribution in zip(node._parents, contributions):
            if not parent.requires_grad or contribution is None:
                continue
            parent.grad = contribution if parent.grad is None else parent.grad + contribution


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def grad_of(t: Tensor) -> np.ndarray:
    """Gradient of a tensor after backward; zeros when unreachable."""
    return t.grad if t.grad is not None else np.zeros_like(t.data)


# -- finite-difference verification --------------------------------------


class FdRow:
    __slots__ = ("array", "coordinate", "analytic", "numeric", "rel_error")

    def __init__(self, array: str, coordinate: int, analytic: float, numeric: float,
                 rel_error: float):
        self.array = array
        self.coordinate = coordinate
        self.analytic = analytic
        self.numeric = numeric
        self.rel_error = rel_error


class FdReport:
    """Per-coordinate finite-difference comparison for a set of parameters."""

    def __init__(self, rows: list[FdRow], tol: float):
        self.rows = rows
        self.tol = tol

    @property
    def max_rel_error(self) -> float:
        return max((r.rel_error for r in self.rows), default=0.0)

    def by_array(self) -> dict[str, float]:
        worst: dict[str, float] = {}
        for r in self.rows:
            worst[r.array] = max(worst.get(r.array, 0.0), r.rel_error)
        return worst

    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def write_csv(self, path) -> None:
        write_csv(path, ("array", "coordinate", "analytic", "numeric", "rel_error"),
                  (f"{r.array},{r.coordinate},{r.analytic!r},{r.numeric!r},{r.rel_error!r}\n"
                   for r in self.rows))


_FD_H_SCALE = 1e-5  # fd_check's step per unit of max(1, |theta_c|)
_FD_MAX_COORDS = 64  # the most coordinates of one array that fd_check perturbs


def fd_check(f: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]],
             tol: float = 1e-4, seed: int = 0) -> FdReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument map that rebuilds its tape
    from the given parameters on every call and returns a scalar.  Larger
    arrays are subsampled to ``_FD_MAX_COORDS`` seeded coordinates; the step
    is ``_FD_H_SCALE * max(1, |theta_c|)`` per coordinate.
    """
    zero_grads(t for _, t in params)
    loss = f()
    backward(loss)
    analytic = {name: grad_of(t).copy() for name, t in params}

    rng = np.random.default_rng(seed)
    rows: list[FdRow] = []
    for name, tensor in params:
        flat = tensor.data.reshape(-1)
        size = flat.size
        if size <= _FD_MAX_COORDS:
            coords = np.arange(size)
        else:
            coords = np.sort(rng.choice(size, size=_FD_MAX_COORDS, replace=False))
        a_flat = analytic[name].reshape(-1)
        for c in coords:
            original = flat[c]
            h = _FD_H_SCALE * max(1.0, abs(original))
            flat[c] = original + h
            f_plus = f().item()
            flat[c] = original - h
            f_minus = f().item()
            flat[c] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(a_flat[c])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            rows.append(FdRow(name, int(c), a, numeric, rel))
    return FdReport(rows, tol)
