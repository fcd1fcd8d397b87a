"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive computes its forward value with numpy (scipy.sparse for the
sparse-dense product) and, when any input requires gradients, records a tape
node on the output. A node holds three things: one link per input (the
input's own node, the input itself for a leaf that needs a gradient, or None),
the vector-Jacobian closure, and the gradient accumulated during backward.
Nodes never hold tensors that have their own node, and each closure captures
only the arrays and shapes its backward formula reads, so an intermediate
value dies as soon as neither the caller nor a pending closure reads it.

`backward` replays the recorded graph once in reverse topological order,
dropping each closure and each intermediate gradient as soon as it has run.
Only leaves receive `.grad`. Inside `no_grad()` nothing is recorded, which
is how evaluation forwards run. 64-bit floats throughout; no primitive sets
numpy's floating-point error handling, so each follows its caller's.

One structure groups edges by endpoint: a `SegmentIndex` serves the
gathers (whose backward is a segment sum), the segment softmax of attention
weights and the sampled dense-dense product (whose backward reads its CSR).
A sparse-dense product runs on the `csr_array` its `SpmmPlan` is built from,
and on that array's transpose, a view on the same arrays.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import scipy.sparse as sp

from .sparse import expanded_rows


class TensorError(ValueError):
    pass


class _Node:
    """One recorded operation: input links, vjp closure, output gradient."""

    __slots__ = ("parents", "vjp", "grad")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp
        self.grad = None


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _vjp(self):
        """The recorded vjp closure, or None for a tensor with no node."""
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def backward(self):
        backward(self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable leaf; optimizers key their state slots on the name."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_CONSUMED = object()


def _schedule(root: _Node) -> list:
    """The nodes reachable from `root`, parents before children."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if type(p) is _Node and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable grad-requiring leaf."""
    if loss.data.size != 1:
        raise TensorError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise TensorError("loss does not require gradients")
    root = loss._node
    if root is None:  # the loss is itself a leaf
        loss.grad = np.ones_like(loss.data)
        return
    if root.vjp is _CONSUMED:
        raise TensorError("backward called twice without a new forward pass")
    root.grad = np.ones_like(loss.data)
    order = _schedule(root)
    while order:
        node = order.pop()
        if node.vjp is _CONSUMED:
            raise TensorError("backward called twice without a new forward pass")
        grads = node.vjp(node.grad)
        node.vjp = _CONSUMED  # frees the arrays the closure captured
        node.grad = None
        for parent, gin in zip(node.parents, grads):
            if gin is None or parent is None:
                continue
            # gin may alias another node's gradient (add returns g for
            # both inputs), so two leaves can end with one array as .grad;
            # sharing it is safe because no vjp, optimizer or caller writes
            # into a gradient array in place (the in-place Adam step writes
            # only its scratch arrays, its moments and the parameters)
            if parent.grad is None:
                parent.grad = gin
            else:
                parent.grad = parent.grad + gin


class _GradMode(threading.local):
    recording = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no tape nodes in this thread inside the block: every primitive
    returns a plain tensor that needs no gradient. The previous mode comes
    back on exit, also when the block raises."""
    before = _GRAD_MODE.recording
    _GRAD_MODE.recording = False
    try:
        yield
    finally:
        _GRAD_MODE.recording = before


def _make(data, parents, vjp):
    out = Tensor(data)
    if not _GRAD_MODE.recording:
        return out
    links = [p._node or (p if p.requires_grad else None) for p in parents]
    if links.count(None) < len(links):
        out.requires_grad = True
        out._node = _Node(links, vjp)
    return out


def _unbroadcast(grad, shape):
    """Sum grad over the axes numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), vjp)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _make(data, (a, b), vjp)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    sa, sb = a.shape, b.shape
    # each operand's gradient reads the other one: keep an operand only when
    # the other needs a gradient (a Mean macro scales its sum by a constant)
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return _make(data, (a, b), vjp)


def maximum(a, b):
    """Elementwise max; on ties the gradient routes to the first argument."""
    a, b = _wrap(a), _wrap(b)
    take_a = a.data >= b.data
    data = np.where(take_a, a.data, b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g * take_a, sa), _unbroadcast(g * (~take_a), sb)

    return _make(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise TensorError("matmul expects 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    # as in `mul`, keep an operand only when the other needs a gradient (the
    # first pre-process layer's features need none)
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if bd is None else g @ bd.T
        return ga, None if ad is None else ad.T @ g

    return _make(data, (a, b), vjp)


def reshape(a, shape):
    a = _wrap(a)
    old = a.shape

    def vjp(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), vjp)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise TensorError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), vjp)


def narrow(a, axis, start, stop):
    """Contiguous slice [start, stop) along one axis."""
    a = _wrap(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[index] = g
        return (out,)

    return _make(a.data[index].copy(), (a,), vjp)


def gather_rows(a, seg):
    """Select rows a[seg.index], `seg` being a `SegmentIndex` over a's rows;
    the backward pass sums, per row of a, the gradients of its copies."""
    a = _wrap(a)
    if not isinstance(seg, SegmentIndex):
        raise TensorError("gather_rows needs a SegmentIndex")
    if seg.num_segments != a.shape[0]:
        raise TensorError("gather index built for a different row count")

    def vjp(g):
        return (seg.reduce(np.add, g),)

    return _make(a.data[seg.index], (a,), vjp)


def take_per_row(a, cols):
    """One element per row, a[i, cols[i]], returned as a column."""
    a = _wrap(a)
    cols = np.asarray(cols, dtype=np.int64)
    if cols.shape[0] != a.shape[0]:
        raise TensorError("take_per_row needs one column index per row")
    if cols.size and (cols.min() < 0 or cols.max() >= a.shape[1]):
        raise TensorError("column index out of range")
    rows = np.arange(a.shape[0])
    data = a.data[rows, cols][:, None]
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[rows, cols] = g[:, 0]
        return (out,)

    return _make(data, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def log(a):
    a = _wrap(a)
    data = np.log(a.data)
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _make(data, (a,), vjp)


def relu(a):
    a = _wrap(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), vjp)


LEAKY_SLOPE = 0.2  # the negative slope of LeakyReLU and of GAT's attention logits


def leaky_relu(a):
    a = _wrap(a)
    mask = a.data > 0

    def vjp(g):
        return (g * np.where(mask, 1.0, LEAKY_SLOPE),)

    return _make(a.data * np.where(mask, 1.0, LEAKY_SLOPE), (a,), vjp)


def elu(a):
    a = _wrap(a)
    neg = np.exp(np.minimum(a.data, 0.0)) - 1.0
    mask = a.data > 0
    data = np.where(mask, a.data, neg)

    def vjp(g):
        return (g * np.where(mask, 1.0, neg + 1.0),)

    return _make(data, (a,), vjp)


def tanh(a):
    a = _wrap(a)
    data = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - data * data),)

    return _make(data, (a,), vjp)


def sigmoid(a):
    a = _wrap(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), vjp)


def prelu(a, slope):
    """PReLU with a learned scalar slope shared across the tensor."""
    a, slope = _wrap(a), _wrap(slope)
    if slope.size != 1:
        raise TensorError("prelu slope must be a scalar")
    mask = a.data > 0
    s = slope.data.item()
    data = np.where(mask, a.data, s * a.data)
    ad, s_shape = a.data, slope.shape

    def vjp(g):
        ga = g * np.where(mask, 1.0, s)
        gs = np.array((g * ad * (~mask)).sum()).reshape(s_shape)
        return ga, gs

    return _make(data, (a, slope), vjp)


# ---------------------------------------------------------------------------
# softmax and reductions
# ---------------------------------------------------------------------------

def row_softmax(a):
    a = _wrap(a)
    if a.ndim != 2:
        raise TensorError("row_softmax expects a 2-d tensor")
    shifted = a.data - a.data.max(axis=1, keepdims=True) if a.shape[1] else a.data
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (a,), vjp)


def tsum(a):
    a = _wrap(a)
    shape = a.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _make(a.data.sum(), (a,), vjp)


def tmean(a):
    a = _wrap(a)
    return mul(tsum(a), Tensor(1.0 / a.size))


# ---------------------------------------------------------------------------
# segment index and segment softmax (attention normalization)
# ---------------------------------------------------------------------------

class SegmentIndex:
    """Rows grouped by segment: row i of a value matrix belongs to segment
    `index[i]`. `order` (None when the index is already sorted) lists the
    rows segment by segment, stably, and `indptr` bounds each segment's run
    in that order, as in a CSR matrix."""

    __slots__ = ("index", "num_segments", "order", "nonempty", "starts",
                 "indptr")

    def __init__(self, index, num_segments):
        index = np.asarray(index, dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() >= num_segments):
            raise TensorError("segment index out of range")
        self.index = index
        self.num_segments = int(num_segments)
        self.order = (None if np.all(index[1:] >= index[:-1])
                      else np.argsort(index, kind="stable"))
        counts = np.bincount(index, minlength=self.num_segments)
        self.indptr = np.zeros(self.num_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.nonempty = counts > 0
        self.starts = self.indptr[:-1][self.nonempty]

    def sorted(self, x):
        """x's rows (one per index entry) in segment order."""
        return x if self.order is None else x[self.order]

    def reduce(self, ufunc, x):
        """Fold x's rows within each segment with `ufunc` (np.add,
        np.maximum); empty segments give zero rows."""
        out = np.zeros((self.num_segments,) + x.shape[1:])
        if self.index.size:
            out[self.nonempty] = ufunc.reduceat(self.sorted(x), self.starts, axis=0)
        return out

    def csr(self, data, cols, n_cols):
        """The matrix with entry (index[i], cols[i]) = data[i] for every i."""
        return sp.csr_array((self.sorted(data), self.sorted(cols), self.indptr),
                            shape=(self.num_segments, n_cols))


def segment_softmax(a, seg: SegmentIndex):
    """Softmax normalized within each segment; empty segments contribute nothing."""
    a = _wrap(a)
    if not isinstance(seg, SegmentIndex):
        raise TensorError("segment_softmax needs a SegmentIndex")
    if seg.index.shape[0] != a.shape[0]:
        raise TensorError(f"segment index has {seg.index.shape[0]} entries for "
                          f"{a.shape[0]} rows")
    idx = seg.index
    e = np.exp(a.data - seg.reduce(np.maximum, a.data)[idx])
    data = e / seg.reduce(np.add, e)[idx]

    def vjp(g):
        return (data * (g - seg.reduce(np.add, data * g)[idx]),)

    return _make(data, (a,), vjp)


# No primitive by these names exists: every aggregation is one `spmm`. The
# benchmark's layer map (perfbench/layermap.py) still looks each name up in
# this module, so the names stay bound until the layer map drops them.
segment_sum = segment_mean = segment_max = broadcast_to = transpose = exp = None


# ---------------------------------------------------------------------------
# sparse-dense products (every convolution's neighbor aggregation)
# ---------------------------------------------------------------------------

class SpmmPlan:
    """A fixed CSR matrix for repeated `spmm` calls: rows are destinations,
    columns sources, one stored entry per edge. `matrix` is the `csr_array`
    the plan is built from, and `t_matrix` its transpose as scipy's CSC view
    on the same three arrays, so the backward product needs no copy."""

    __slots__ = ("shape", "matrix", "t_matrix")

    def __init__(self, matrix: sp.csr_array):
        if not isinstance(matrix, sp.csr_array):
            raise TensorError("an SpmmPlan is built from a csr_array")
        self.shape, self.matrix, self.t_matrix = matrix.shape, matrix, matrix.T


class AttentionPlan(SpmmPlan):
    """A plan whose entries attention replaces: `by_row` and `by_col` group
    them by row and by column, and `edge_type`, a `SegmentIndex` over
    relations or None, holds each one's relation."""

    __slots__ = ("by_row", "by_col", "edge_type")

    def __init__(self, matrix: sp.csr_array, edge_type=None):
        super().__init__(matrix)
        self.by_row = SegmentIndex(expanded_rows(matrix), self.shape[0])
        self.by_col = SegmentIndex(matrix.indices, self.shape[1])
        self.edge_type = edge_type


def spmm(A: SpmmPlan, x, values=None):
    """Sparse-dense product A @ x; the backward pass is Aᵀ @ g.

    With `values` and an `AttentionPlan` A, a tensor holding one entry per
    edge of A (in A's entry order) becomes the matrix data, and its gradient is the sampled
    dense-dense product (g[row] * x[col]).sum(1)."""
    x = _wrap(x)
    if not isinstance(A, SpmmPlan):
        raise TensorError("spmm needs an SpmmPlan")
    if x.ndim != 2 or x.shape[0] != A.shape[1]:
        raise TensorError(f"spmm shape mismatch: {A.shape} @ {x.shape}")
    if values is None:
        t_matrix = A.t_matrix

        def vjp(g):
            return (t_matrix @ g,)

        return _make(A.matrix @ x.data, (x,), vjp)

    if not isinstance(A, AttentionPlan):
        raise TensorError("spmm with values needs an AttentionPlan")
    values = _wrap(values)
    if values.size != A.matrix.nnz:
        raise TensorError(f"spmm got {values.size} values for {A.matrix.nnz} entries")
    v = values.data.reshape(-1)
    xd, v_shape, m = x.data, values.shape, A.matrix

    def vjp(g):
        gv = _sddmm(g, xd, A.by_row.index, m.indices)
        # the transpose with `v` as entries: a CSC view on A's pattern
        t_values = sp.csc_array((v, m.indices, m.indptr), shape=A.shape[::-1])
        return t_values @ g, gv.reshape(v_shape)

    return _make(sp.csr_array((v, m.indices, m.indptr), shape=A.shape) @ xd,
                 (x, values), vjp)


_SDDMM_BLOCK_BYTES = 1 << 18  # per gathered block: bounds the two gathered copies


def _sddmm(a, b, rows, cols):
    """Row-wise dot products (a[rows] * b[cols]).sum(1), one per (row, col)
    pair, gathered and reduced one block of pairs at a time."""
    out = np.empty(rows.shape[0])
    block = max(1, _SDDMM_BLOCK_BYTES // (8 * max(1, a.shape[1])))
    for s in range(0, rows.shape[0], block):
        e = s + block
        np.einsum("ij,ij->i", np.take(a, rows[s:e], axis=0),
                  np.take(b, cols[s:e], axis=0), out=out[s:e])
    return out


def sddmm(a, b, rows: SegmentIndex, cols: SegmentIndex):
    """Sampled dense-dense product (a[rows.index] * b[cols.index]).sum(1),
    a column; `rows` and `cols` are SegmentIndexes over a's and b's rows.

    Pairs may repeat, and rows of `a` or `b` that no pair touches get zero
    gradient. The backward pass is two sparse-dense products with the
    incoming gradient as the matrix data: G @ b for `a` and Gᵀ @ a for `b`."""
    a, b = _wrap(a), _wrap(b)
    if not isinstance(rows, SegmentIndex) or not isinstance(cols, SegmentIndex):
        raise TensorError("sddmm needs a SegmentIndex for each operand")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise TensorError(f"sddmm shape mismatch: {a.shape} and {b.shape}")
    if rows.num_segments != a.shape[0] or cols.num_segments != b.shape[0]:
        raise TensorError("sddmm index built for a different row count")
    if rows.index.shape != cols.index.shape:
        raise TensorError("sddmm rows and cols must be equal-length vectors")
    ad, bd = a.data, b.data
    data = _sddmm(ad, bd, rows.index, cols.index)[:, None]
    na, nb = a.shape[0], b.shape[0]

    def vjp(g):
        # duplicate pairs stay separate entries, so the products sum them
        g = g[:, 0]
        return rows.csr(g, cols.index, nb) @ bd, cols.csr(g, rows.index, na) @ ad

    return _make(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# regularization layers
# ---------------------------------------------------------------------------

def dropout(a, p, training, rng=None):
    """Inverted dropout: scaling happens at train time, eval is the identity."""
    a = _wrap(a)
    if not 0.0 <= p < 1.0:
        raise TensorError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise TensorError("training-mode dropout needs an rng")
    keep = rng.random(a.shape) >= p

    def vjp(g):
        return (g * (keep / (1.0 - p)),)

    return _make(a.data * (keep / (1.0 - p)), (a,), vjp)


class BatchNormState:
    """Running statistics for one batch-norm site."""

    momentum, eps = 0.1, 1e-5

    def __init__(self, dim):
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)


def batch_norm(a, gamma, beta, state: BatchNormState, training: bool):
    """Per-feature normalization over the row batch, then affine."""
    a, gamma, beta = _wrap(a), _wrap(gamma), _wrap(beta)
    n = a.shape[0]
    ad, gd, g_shape, b_shape = a.data, gamma.data, gamma.shape, beta.shape
    if training:
        # numpy's own `var` steps, without its second pass for the mean;
        # the N x h arrays are reused in place, each step rounding as the
        # plain expressions `(ad - mu) * inv * gd + beta` would
        mu = ad.mean(axis=0)
        out = ad - mu
        var = (out * out).sum(axis=0) / n  # biased: normalized batch has unit variance
        inv = 1.0 / np.sqrt(var + state.eps)
        out *= inv
        out *= gd
        out += beta.data
        m = state.momentum
        unbiased = var * n / (n - 1) if n > 1 else var
        state.running_mean = (1 - m) * state.running_mean + m * mu
        state.running_var = (1 - m) * state.running_var + m * unbiased

        def vjp(g):
            dxhat = g * gd
            # recomputed from the input: captured copies are N x h arrays per site
            centred = ad - mu
            t = dxhat * centred
            dvar = t.sum(axis=0) * (-0.5) * inv ** 3
            np.multiply(dxhat, inv, out=t)
            # -(x * inv).sum() is (-x * inv).sum() exactly: rounding is sign-symmetric
            dmu = -t.sum(axis=0) + dvar * (-2.0 / n) * centred.sum(axis=0)
            xhat = np.multiply(centred, inv, out=dxhat)
            ggamma = np.multiply(g, xhat, out=xhat).sum(axis=0).reshape(g_shape)
            centred *= dvar * 2.0
            centred /= n
            t += centred
            t += dmu / n  # gx = dxhat * inv + dvar * 2 * centred / n + dmu / n
            gbeta = g.sum(axis=0).reshape(b_shape)
            return t, ggamma, gbeta
    else:
        inv = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (ad - state.running_mean) * inv
        out = xhat * gd + beta.data

        def vjp(g):
            gx = g * gd * inv
            ggamma = (g * xhat).sum(axis=0).reshape(g_shape)
            gbeta = g.sum(axis=0).reshape(b_shape)
            return gx, ggamma, gbeta

    return _make(out, (a, gamma, beta), vjp)


def l2_normalize(a):
    """Scale rows to unit Euclidean norm; zero rows stay zero."""
    a = _wrap(a)
    norm = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True))
    zero = norm == 0.0
    safe = np.where(zero, 1.0, norm)
    data = a.data / safe
    ad = a.data

    def vjp(g):
        dot = (g * ad).sum(axis=1, keepdims=True)
        gx = g / safe - ad * dot / safe ** 3
        return (np.where(zero, 0.0, gx),)

    return _make(data, (a,), vjp)


# ---------------------------------------------------------------------------
# numerical checking
# ---------------------------------------------------------------------------

def grad_check(f, params, eps=1e-3, max_coords=24, rng=None):
    """Max relative error of analytic gradients against central differences.

    f must be deterministic (dropout off, batch norm frozen or eval). Large
    parameters are probed on a seeded sample of coordinates.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    out = f()
    if out.data.size != 1:
        raise TensorError("grad_check needs a scalar function")
    backward(out)
    analytic = {id(p): (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for p in params}
    worst = 0.0
    with no_grad():  # a difference quotient needs no tape
        for p in params:
            flat = p.data.reshape(-1)
            ana = analytic[id(p)].reshape(-1)
            if flat.size <= max_coords:
                coords = np.arange(flat.size)
            else:
                coords = np.sort(rng.choice(flat.size, size=max_coords, replace=False))
            for c in coords:
                orig = flat[c]
                flat[c] = orig + eps
                f_plus = float(f().data)
                flat[c] = orig - eps
                f_minus = float(f().data)
                flat[c] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                denom = max(1.0, abs(numeric), abs(ana[c]))
                worst = max(worst, abs(numeric - ana[c]) / denom)
    for p in params:
        p.grad = None
    return worst
