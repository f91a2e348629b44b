"""Minimal reverse-mode differentiation over 64-bit numpy arrays.

A :class:`Tensor` records the operation that produced it together with
vector-Jacobian closures for its parents; :func:`backward` replays the tape
in reverse topological order.  The op set is deliberately small: matrix
multiply, the affine map ``linear`` (``x @ w^T + b``), the batched product
and head merge of stacked heads, transpose, concat, split, elementwise
add/mul, scalar scale, exp, rectifier, softmax over an axis, sum over an
axis, mean, square, and the pairwise output layer ``pair_head``, which
maps two (n, m) matrices to one value per ordered row pair (n^2 rows)
without storing the (n^2, m) hidden layer.  There is no general
broadcasting: ``linear`` alone adds a length-m bias to every row and
broadcasts a leading head axis.  A :class:`View` names one slice of a
tensor, such as one head of a stacked weight, without putting it on the
tape.

Every forward value and every gradient is checked for NaN/Inf and aborts
with diagnostics when one appears.
Calling backward twice on the same tape is an error.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteValue, NotScalar, ShapeError, TapeReuse

def _assert_finite(data: np.ndarray, where: str) -> None:
    # A full-array sum is NaN or Inf if some entry is; cheap single pass.  Finite
    # entries can overflow it too, so only a count of non-finite entries raises.
    if not math.isfinite(float(np.add.reduce(data, axis=None))):
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

    # -- sugar ----------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __getitem__(self, index) -> "View":
        return View(self, index)

    def backward(self) -> None:
        backward(self)


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


def as_tensor(x, name: str | None = None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False, name=name)


def constant(x, name: str | None = None) -> Tensor:
    return Tensor(x, requires_grad=False, name=name)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]], op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
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


def _sum_heads(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum a gradient over the head axis its operand was broadcast along."""
    return g.sum(axis=0) if g.ndim > ndim else g


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w^T + b`` for ``x`` (n, k) or (H, n, k) and ``w`` (m, k) or (H, m, k).

    A head axis on either operand broadcasts, giving (H, n, m); ``b`` is a
    length-m bias added to every row.
    """
    xs, ws = x.data.shape, w.data.shape
    if (not 2 <= len(xs) <= 3 or not 2 <= len(ws) <= 3 or xs[-1] != ws[-1]
            or len(xs) == len(ws) == 3 and xs[0] != ws[0]
            or b is not None and b.data.shape != ws[-2:-1]):
        bias = "" if b is None else f" plus {b.data.shape}"
        raise ShapeError(f"linear of {xs} and {ws}{bias}")
    out = np.matmul(x.data, w.data.swapaxes(-1, -2))
    if b is not None:
        out += b.data

    def vjp(g: np.ndarray):
        # A constant operand gets no gradient, so its product is skipped.
        return (_sum_heads(g @ w.data, len(xs)) if x.requires_grad else None,
                _sum_heads(g.swapaxes(-1, -2) @ x.data, len(ws)) if w.requires_grad else None,
                g.sum(axis=tuple(range(g.ndim - 1))) if b is not None and b.requires_grad else None)

    return _make(out, (x, w) if b is None else (x, w, b), vjp, "linear")


def batch_matmul(a: Tensor, b: Tensor) -> Tensor:
    """One matrix product per head: (H, n, k) by (H, k, m) gives (H, n, m)."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[::2] != b.data.shape[:2]:
        raise ShapeError(f"batch_matmul of {a.data.shape} and {b.data.shape}")

    def vjp(g: np.ndarray):
        return (g @ b.data.swapaxes(1, 2) if a.requires_grad else None,
                a.data.swapaxes(1, 2) @ g if b.requires_grad else None)

    return _make(np.matmul(a.data, b.data), (a, b), vjp, "batch_matmul")


def merge_heads(a: Tensor) -> Tensor:
    """Heads side by side: (H, k, n) gives (n, H*k) with ``out[j, h*k + i] = a[h, i, j]``."""
    if a.data.ndim != 3:
        raise ShapeError(f"merge_heads needs (H, k, n), got {a.data.shape}")
    heads, k, n = a.data.shape
    out = a.data.transpose(2, 0, 1).reshape(n, heads * k)
    return _make(out, (a,), lambda g: (g.reshape(n, heads, k).transpose(1, 2, 0),),
                 "merge_heads")


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


def pair_head(a: Tensor, b: Tensor, w: Tensor, c: Tensor) -> Tensor:
    """Pairwise output layer: row ``i*n + j`` of the (n^2, 1) result is
    ``relu(a[i] + b[j]) @ w^T + c`` for ``a``, ``b`` (n, m), ``w`` (1, m), ``c`` (1,).

    The (n^2, m) hidden layer is never stored.  Forward and VJP walk blocks
    of origin rows sized to a fixed element budget and rebuild each block's
    hidden values; since ``relu(x) = mask * x``, the block's 0/1 mask is all
    the VJP needs.
    """
    if (a.data.ndim != 2 or b.data.shape != a.data.shape
            or w.data.shape != (1, a.data.shape[1]) or c.data.shape != (1,)):
        raise ShapeError(f"pair_head of {a.data.shape}, {b.data.shape}, {w.data.shape} "
                         f"and {c.data.shape}")
    n, m = a.data.shape
    rows = max(1, _PAIR_BLOCK_ELEMENTS // max(1, n * m))
    blocks = [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]
    out = np.empty((n * n, 1))
    buffer = np.empty((min(rows, n), n, m))  # shared by the blocks: fewer page faults
    for lo, hi in blocks:
        hidden = np.add(a.data[lo:hi, None, :], b.data, out=buffer[:hi - lo])
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden.reshape(-1, m), w.data.T, out=out[lo * n:hi * n])
    out += c.data

    def vjp(g: np.ndarray):
        pairs = g.reshape(n, n)
        # A constant operand gets no gradient; w needs both row sums.
        need_a = a.requires_grad or w.requires_grad
        need_b = b.requires_grad or w.requires_grad
        s_a, s_b = np.zeros((n, m)), np.zeros((n, m))
        if need_a or need_b:
            buffer = np.empty((min(rows, n), n, m))
            for lo, hi in blocks:
                mask = np.add(a.data[lo:hi, None, :], b.data, out=buffer[:hi - lo])
                np.greater(mask, 0.0, out=mask)  # derivative at exactly 0 is 0
                if need_a:  # s_a[i] = sum_j g[i, j] mask[i, j]
                    s_a[lo:hi] = np.matmul(pairs[lo:hi, None, :], mask)[:, 0]
                if need_b:  # s_b[j] = sum_i g[i, j] mask[i, j]
                    s_b += np.matmul(pairs[lo:hi].T[:, None, :], mask.swapaxes(0, 1))[:, 0]
        grad_w = None
        if w.requires_grad:
            grad_w = ((a.data * s_a).sum(axis=0) + (b.data * s_b).sum(axis=0))[None, :]
        return (s_a * w.data if a.requires_grad else None,
                s_b * w.data if b.requires_grad else None,
                grad_w,
                np.array([g.sum()]) if c.requires_grad else None)

    return _make(out, (a, b, w, c), vjp, "pair_head")


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
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g: np.ndarray):
        inner = (g * out).sum(axis=axis, keepdims=True)
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("array,coordinate,analytic,numeric,rel_error\n")
            for r in self.rows:
                fh.write(f"{r.array},{r.coordinate},{r.analytic!r},{r.numeric!r},"
                         f"{r.rel_error!r}\n")


def fd_check(f: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]],
             h_scale: float = 1e-5, tol: float = 1e-4, max_coords: int = 64,
             seed: int = 0) -> FdReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument map that rebuilds its tape
    from the given parameters on every call and returns a scalar.  Large
    arrays are subsampled to ``max_coords`` seeded coordinates (at least 64
    by default); the step is ``h_scale * max(1, |theta_c|)`` per coordinate.
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
        if size <= max_coords:
            coords = np.arange(size)
        else:
            coords = np.sort(rng.choice(size, size=max_coords, replace=False))
        a_flat = analytic[name].reshape(-1)
        for c in coords:
            original = flat[c]
            h = h_scale * max(1.0, abs(original))
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
