import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hgnn_space.tensor as T
from hgnn_space.tensor import (AttentionPlan, BatchNormState, Parameter,
                               SegmentIndex, SpmmPlan, Tensor, TensorError,
                               grad_check)

TOL = 1e-4


def param(rng, *shape, name="p"):
    return Parameter(rng.standard_normal(shape), name)


# ---------------------------------------------------------------------------
# frozen forward examples
# ---------------------------------------------------------------------------

def test_row_softmax_symmetry():
    out = T.row_softmax(Tensor([[0.0, 0.0]]))
    assert out.data.tolist() == [[0.5, 0.5]]
    rows = T.row_softmax(Tensor(np.random.default_rng(0).standard_normal((5, 7))))
    assert np.allclose(rows.data.sum(axis=1), 1.0, atol=1e-12)


def test_l2_normalize_345():
    out = T.l2_normalize(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]])
    zero = T.l2_normalize(Tensor([[0.0, 0.0]]))
    assert zero.data.tolist() == [[0.0, 0.0]]


def test_segment_softmax_sums_and_empty_segments():
    seg = SegmentIndex([0, 0, 2], 4)
    x = Tensor([[1.0], [2.0], [5.0]])
    out = T.segment_softmax(x, seg)
    assert out.data[0, 0] + out.data[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert out.data[2, 0] == pytest.approx(1.0, abs=1e-12)
    empty = T.segment_softmax(Tensor(np.zeros((0, 1))), SegmentIndex([], 3))
    assert empty.data.shape == (0, 1)


def test_segment_index_out_of_range():
    with pytest.raises(TensorError, match="segment index out of range"):
        SegmentIndex([0, 3], 2)


def test_dropout_identity_cases():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.dropout(x, 0.0, True, np.random.default_rng(0)) is x
    assert T.dropout(x, 0.7, False) is x
    y = T.dropout(x, 0.5, True, np.random.default_rng(0))
    kept = y.data != 0
    assert np.allclose(y.data[kept], x.data[kept] * 2.0)


def test_batch_norm_training_statistics():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((32, 5)) * 10.0 + 2.0)
    state = BatchNormState(5)
    out = T.batch_norm(x, Tensor(np.ones((1, 5))), Tensor(np.zeros((1, 5))),
                       state, training=True)
    assert np.abs(out.data.mean(axis=0)).max() < 1e-9
    # normalized variance is var / (var + eps); within 1e-6 once var >> eps
    assert np.abs(out.data.var(axis=0) - 1.0).max() < 1e-6
    expect = x.data.var(axis=0) / (x.data.var(axis=0) + state.eps)
    assert np.allclose(out.data.var(axis=0), expect, atol=1e-12)


def _product(w):
    return T.tsum(T.matmul(Tensor(np.ones((1, 2))), w))


def test_no_grad_records_nothing_and_restores_the_previous_mode():
    w = Parameter(np.ones((2, 2)), "w")
    with T.no_grad():
        with T.no_grad():
            pass
        y = _product(w)  # still off after the inner block
        assert y._node is None and y._vjp is None and not y.requires_grad
    assert _product(w)._node is not None
    with pytest.raises(RuntimeError, match="boom"):
        with T.no_grad():
            raise RuntimeError("boom")
    assert _product(w)._node is not None


def test_backward_on_a_no_grad_output_raises():
    w = Parameter(np.ones((2, 2)), "w")
    with T.no_grad():
        loss = _product(w)
    with pytest.raises(TensorError, match="does not require gradients"):
        loss.backward()
    assert w.grad is None


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_under_no_grad_matches_the_taped_op(training):
    rng = np.random.default_rng(4)
    x = Parameter(rng.standard_normal((16, 3)) * 3.0 + 1.0, "x")
    gamma, beta = Parameter(rng.standard_normal((1, 3)), "g"), Parameter(
        rng.standard_normal((1, 3)), "b")
    taped, untaped = BatchNormState(3), BatchNormState(3)
    for state in (taped, untaped):
        state.running_mean = np.full(3, 0.5)
        state.running_var = np.full(3, 2.0)
    want = T.batch_norm(x, gamma, beta, taped, training)
    with T.no_grad():
        got = T.batch_norm(x, gamma, beta, untaped, training)
    assert got._node is None and want._node is not None
    assert got.data.tobytes() == want.data.tobytes()
    for a, b in ((untaped.running_mean, taped.running_mean),
                 (untaped.running_var, taped.running_var)):
        assert a.tobytes() == b.tobytes()
    if not training:  # evaluation reads the running statistics and keeps them
        assert untaped.running_mean.tolist() == [0.5] * 3
        assert untaped.running_var.tolist() == [2.0] * 3


def test_matmul_shape_errors():
    with pytest.raises(TensorError, match="shape mismatch"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_computes_only_the_gradients_its_inputs_read():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 3)))
    W = param(rng, 3, 4, name="W")
    g = rng.standard_normal((5, 4))
    assert T.matmul(x, W)._vjp(g)[0] is None  # raw features take no gradient
    assert np.array_equal(T.matmul(x, W)._vjp(g)[1], x.data.T @ g)
    v = Tensor(rng.standard_normal((4, 2)))
    ga, gv = T.matmul(W, v)._vjp(rng.standard_normal((3, 2)))
    assert gv is None and ga.shape == (3, 4)


# ---------------------------------------------------------------------------
# backward machinery
# ---------------------------------------------------------------------------

def test_backward_accumulates_into_parameters():
    rng = np.random.default_rng(0)
    W = param(rng, 3, 4, name="W")
    x = Tensor(rng.standard_normal((2, 3)))
    loss = T.tsum(T.matmul(x, W))
    loss.backward()
    # d sum(xW) / dW = outer-product structure: column sums of x broadcast
    expect = np.repeat(x.data.sum(axis=0)[:, None], 4, axis=1)
    assert np.allclose(W.grad, expect)
    loss2 = T.tsum(T.matmul(x, W))
    loss2.backward()
    assert np.allclose(W.grad, 2 * expect)  # += accumulation


def test_backward_requires_scalar_and_runs_once():
    W = Parameter(np.ones((2, 2)), "W")
    y = T.matmul(Tensor(np.ones((2, 2))), W)
    with pytest.raises(TensorError, match="scalar"):
        y.backward()
    loss = T.tsum(y)
    loss.backward()
    with pytest.raises(TensorError, match="backward called twice"):
        loss.backward()


def test_backward_through_a_consumed_node_raises():
    W = Parameter(np.ones((2, 2)), "W")
    y = T.matmul(Tensor(np.ones((2, 2))), W)
    T.tsum(y).backward()
    with pytest.raises(TensorError, match="backward called twice"):
        T.tsum(T.mul(y, Tensor(2.0))).backward()


def test_an_output_dropped_by_its_caller_dies_before_backward():
    rng = np.random.default_rng(3)
    W = param(rng, 3, 4, name="W")
    b = param(rng, 1, 4, name="b")
    h = T.matmul(Tensor(rng.standard_normal((5, 3))), W)
    out = T.add(h, b)
    h_data = weakref.ref(h.data)
    del h
    assert h_data() is None  # the add's node links the matmul's node, not its output
    T.tsum(out).backward()
    assert W.grad.shape == (3, 4) and b.grad.shape == (1, 4)


def test_backward_releases_captured_arrays_while_the_loss_lives():
    rng = np.random.default_rng(4)
    W1, W2 = param(rng, 3, 4, name="W1"), param(rng, 4, 2, name="W2")
    hidden = T.tanh(T.matmul(Tensor(rng.standard_normal((5, 3))), W1))
    loss = T.tsum(T.matmul(hidden, W2))
    captured = weakref.ref(hidden.data)  # read by the tanh and the matmul vjps
    del hidden
    assert captured() is not None
    loss.backward()
    assert captured() is None
    assert loss.data.size == 1 and W1.grad is not None and W2.grad is not None


def test_loss_independent_of_parameter_gives_no_grad():
    W = Parameter(np.ones((2, 2)), "W")
    loss = T.tsum(T.mul(Tensor(np.ones((2, 2))), 3.0))
    with pytest.raises(TensorError):
        loss.backward()  # nothing requires grad
    loss2 = T.tsum(T.add(T.mul(W, 0.0), Tensor(np.ones((2, 2)))))
    loss2.backward()
    assert np.allclose(W.grad, 0.0)


# ---------------------------------------------------------------------------
# finite-difference oracle per primitive
# ---------------------------------------------------------------------------

def check(f, params, tol=TOL, rng=None):
    err = grad_check(f, params, rng=rng or np.random.default_rng(0))
    assert err < tol, f"gradient error {err:.3e} exceeds {tol}"


def test_grad_identity_is_exact():
    rng = np.random.default_rng(2)
    p = param(rng, 4, 3)
    assert grad_check(lambda: T.tsum(p), [p]) < 1e-10


def test_grad_linear_layer_tight():
    rng = np.random.default_rng(3)
    W, b = param(rng, 5, 4, name="W"), param(rng, 1, 4, name="b")
    x = Tensor(rng.standard_normal((6, 5)))
    v = rng.standard_normal((6, 4))
    check(lambda: T.tsum(T.mul(T.add(T.matmul(x, W), b), Tensor(v))),
          [W, b], tol=1e-6)


@pytest.mark.parametrize("op", [
    lambda a, b: T.add(a, b),
    lambda a, b: T.sub(a, b),
    lambda a, b: T.mul(a, b),
    lambda a, b: T.maximum(a, b),
])
def test_grad_binary_elementwise(op):
    rng = np.random.default_rng(4)
    a, b = param(rng, 5, 6, name="a"), param(rng, 5, 6, name="b")
    v = rng.standard_normal((5, 6))
    check(lambda: T.tsum(T.mul(op(a, b), Tensor(v))), [a, b])


def test_grad_broadcast_row_and_scalar():
    rng = np.random.default_rng(5)
    a = param(rng, 4, 3, name="a")
    row = param(rng, 1, 3, name="row")
    scal = param(rng, 1, 1, name="s")
    v = rng.standard_normal((4, 3))
    check(lambda: T.tsum(T.mul(T.add(T.mul(a, scal), row), Tensor(v))),
          [a, row, scal])


@pytest.mark.parametrize("unary", [
    T.relu, T.tanh, T.sigmoid, T.elu,
    lambda x: T.leaky_relu(x),
    T.row_softmax,
    lambda x: T.l2_normalize(x),
])
def test_grad_unary(unary):
    rng = np.random.default_rng(6)
    # keep values away from kinks so central differences stay clean
    p = Parameter(rng.standard_normal((5, 4)) + 0.2 * np.sign(rng.standard_normal((5, 4))), "p")
    v = rng.standard_normal((5, 4))
    check(lambda: T.tsum(T.mul(unary(p), Tensor(v))), [p])


def test_grad_log():
    rng = np.random.default_rng(7)
    p = Parameter(rng.random((4, 4)) + 0.5, "p")
    v = rng.standard_normal((4, 4))
    check(lambda: T.tsum(T.mul(T.log(p), Tensor(v))), [p])


def test_a_primitive_follows_the_callers_floating_point_policy():
    """No primitive sets numpy's error handling: outside a trial a log of 0
    warns as numpy's does, and under the caller's errstate it does not."""
    zero = Parameter(np.zeros((1, 1)), "z")
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        out = T.log(zero)
    with np.errstate(divide="ignore"):
        out = T.log(zero)
        T.tsum(out).backward()
    assert out.data[0, 0] == -np.inf and zero.grad[0, 0] == np.inf


def test_grad_prelu():
    rng = np.random.default_rng(8)
    p = param(rng, 6, 3, name="x")
    slope = Parameter(np.array([[0.25]]), "slope")
    v = rng.standard_normal((6, 3))
    check(lambda: T.tsum(T.mul(T.prelu(p, slope), Tensor(v))), [p, slope])


def test_grad_shape_ops():
    rng = np.random.default_rng(9)
    a, b = param(rng, 3, 4, name="a"), param(rng, 2, 4, name="b")
    v = rng.standard_normal((2, 5))

    def f():
        cat = T.concat([a, b], axis=0)          # (5, 4)
        sl = T.narrow(cat, 1, 1, 3)             # (5, 2)
        return T.tsum(T.mul(T.reshape(sl, (2, 5)), Tensor(v)))

    check(f, [a, b])


def test_grad_gather_take_and_broadcast_to():
    rng = np.random.default_rng(10)
    a = param(rng, 6, 3, name="a")
    idx = np.array([5, 0, 0, 2, 4])
    cols = np.array([0, 2, 1, 1, 0])
    v = rng.standard_normal((5, 1))

    def f():
        rows = T.gather_rows(a, SegmentIndex(idx, 6))
        return T.tsum(T.mul(T.take_per_row(rows, cols), Tensor(v)))

    check(f, [a])
    v2 = rng.standard_normal((4, 3))
    # the narrowed row broadcasts to (4, 3); its gradient sums the 4 rows
    check(lambda: T.tsum(T.mul(T.narrow(a, 0, 0, 1), Tensor(v2))), [a])


@pytest.mark.parametrize("sorted_index", [True, False])
@pytest.mark.parametrize("op", [T.segment_softmax])
def test_grad_segment_ops(op, sorted_index):
    rng = np.random.default_rng(11)
    idx = np.array([0, 0, 1, 3, 3, 3]) if sorted_index else np.array([3, 0, 1, 3, 0, 3])
    seg = SegmentIndex(idx, 5)
    a = param(rng, 6, 2, name="a")
    v = rng.standard_normal((6, 2))
    check(lambda: T.tsum(T.mul(op(a, seg), Tensor(v))), [a])


def test_grad_segment_softmax_chain():
    rng = np.random.default_rng(12)
    seg = SegmentIndex([0, 0, 0, 2, 2], 3)
    a = param(rng, 5, 1, name="logits")
    b = param(rng, 5, 4, name="values")
    v = rng.standard_normal((3, 4))
    member = Tensor(np.eye(3)[:, seg.index])  # (3, 5) 0/1 segment indicator

    def f():
        alpha = T.segment_softmax(a, seg)
        return T.tsum(T.mul(T.matmul(member, T.mul(alpha, b)), Tensor(v)))

    check(f, [a, b])


def test_grad_batch_norm_training_and_eval():
    rng = np.random.default_rng(13)
    x = param(rng, 8, 3, name="x")
    gamma = Parameter(np.ones((1, 3)) + 0.1 * rng.standard_normal((1, 3)), "g")
    beta = Parameter(0.1 * rng.standard_normal((1, 3)), "b")
    v = rng.standard_normal((8, 3))

    def run(training):
        state = BatchNormState(3)
        state.running_mean = rng.standard_normal(3) * 0.0  # frozen stats
        return lambda: T.tsum(T.mul(
            T.batch_norm(x, gamma, beta, state, training), Tensor(v)))

    check(run(True), [x, gamma, beta])
    check(run(False), [x, gamma, beta])


def _reference_training_batch_norm(ad, gd, bd, eps=1e-5):
    """Training-mode batch norm as plain expressions: output, statistics and
    the vjp of an upstream gradient."""
    n = ad.shape[0]
    mu = ad.mean(axis=0)
    var = ad.var(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    out = (ad - mu) * inv * gd + bd

    def vjp(g):
        dxhat = g * gd
        centred = ad - mu
        xhat = centred * inv
        dvar = (dxhat * centred).sum(axis=0) * (-0.5) * inv ** 3
        dmu = (-dxhat * inv).sum(axis=0) + dvar * (-2.0 / n) * centred.sum(axis=0)
        gx = dxhat * inv + dvar * 2.0 * centred / n + dmu / n
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return out, mu, var, vjp


@pytest.mark.parametrize("shape", [(1, 3), (2, 1), (37, 5), (1200, 64)])
def test_training_batch_norm_equals_the_plain_expressions_bitwise(shape):
    rng = np.random.default_rng(shape[0])
    x = Parameter(rng.normal(3.0, 2.0, size=shape), "x")
    gamma = Parameter(rng.normal(1.0, 0.3, size=(1, shape[1])), "g")
    beta = Parameter(rng.normal(0.0, 0.3, size=(1, shape[1])), "b")
    g = rng.standard_normal(shape)
    state = BatchNormState(shape[1])
    out = T.batch_norm(x, gamma, beta, state, True)
    T.tsum(T.mul(out, Tensor(g))).backward()
    want, mu, var, vjp = _reference_training_batch_norm(x.data, gamma.data, beta.data)
    unbiased = var * shape[0] / (shape[0] - 1) if shape[0] > 1 else var
    pairs = [(out.data, want), (state.running_mean, 0.9 * np.zeros(shape[1]) + 0.1 * mu),
             (state.running_var, 0.9 * np.ones(shape[1]) + 0.1 * unbiased)]
    pairs += list(zip((x.grad, gamma.grad, beta.grad), vjp(g)))
    for got, ref in pairs:
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_grad_random_shapes_all_primitives():
    # sweep over random small shapes, mixing primitives in one expression
    rng = np.random.default_rng(14)
    for trial in range(5):
        n = int(rng.integers(2, 16))
        d = int(rng.integers(1, 16))
        a = Parameter(rng.standard_normal((n, d)), "a")
        W = Parameter(rng.standard_normal((d, d)), "W")
        v = rng.standard_normal((n, d))

        def f():
            h = T.tanh(T.matmul(a, W))
            h = T.l2_normalize(T.add(h, a))
            return T.tsum(T.mul(h, Tensor(v)))

        check(f, [a, W], rng=np.random.default_rng(100 + trial))


# rows 1 and 4 receive no entries; row 2 holds column 0 twice
SPMM_ROWS = np.array([0, 0, 2, 2, 2, 3])
SPMM_COLS = np.array([1, 3, 0, 0, 2, 3])


def _plan(rows, cols, n_rows, n_cols, data=None, kind=SpmmPlan):
    """The plan (of class `kind`) whose CSR matrix stores (rows[i], cols[i]) =
    data[i] for every i (rows sorted); a repeated cell stays two entries."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    data = np.ones(len(rows)) if data is None else data
    return kind(sp.csr_array((data, cols, indptr), shape=(n_rows, n_cols)))


def _dense_of(rows, cols, data, shape):
    out = np.zeros(shape)
    np.add.at(out, (rows, cols), data)
    return out


def test_spmm_matches_dense_with_duplicates_and_empty_rows():
    rng = np.random.default_rng(40)
    w = rng.standard_normal(SPMM_ROWS.size)
    x = rng.standard_normal((4, 3))
    plan = _plan(SPMM_ROWS, SPMM_COLS, 5, 4, w, AttentionPlan)
    assert plan.matrix.nnz == SPMM_ROWS.size
    want = _dense_of(SPMM_ROWS, SPMM_COLS, w, (5, 4)) @ x
    assert np.allclose(T.spmm(plan, Tensor(x)).data, want, atol=1e-14)
    alpha = rng.standard_normal((SPMM_ROWS.size, 1))
    want = _dense_of(SPMM_ROWS, SPMM_COLS, alpha[:, 0], (5, 4)) @ x
    assert np.allclose(T.spmm(plan, Tensor(x), values=Tensor(alpha)).data, want,
                       atol=1e-14)
    ones = _plan(SPMM_ROWS, SPMM_COLS, 5, 4)
    assert np.allclose(T.spmm(ones, Tensor(x)).data,
                       _dense_of(SPMM_ROWS, SPMM_COLS, 1.0, (5, 4)) @ x)


def test_spmm_zero_edges_gives_zero_rows_and_gradients():
    plan = AttentionPlan(sp.csr_array((3, 2)))
    x = Parameter(np.ones((2, 4)), "x")
    values = Parameter(np.zeros((0, 1)), "alpha")
    for out in (T.spmm(plan, x), T.spmm(plan, x, values=values)):
        assert out.shape == (3, 4) and not out.data.any()
        x.grad = values.grad = None
        T.tsum(out).backward()
        assert x.grad.shape == (2, 4) and not x.grad.any()
    assert values.grad.shape == (0, 1)


def test_grad_spmm_fixed_weights():
    rng = np.random.default_rng(41)
    plan = _plan(SPMM_ROWS, SPMM_COLS, 5, 4, rng.standard_normal(SPMM_ROWS.size))
    x = param(rng, 4, 3, name="x")
    v = rng.standard_normal((5, 3))
    check(lambda: T.tsum(T.mul(T.spmm(plan, x), Tensor(v))), [x])


def test_grad_spmm_edge_values():
    rng = np.random.default_rng(42)
    plan = _plan(SPMM_ROWS, SPMM_COLS, 5, 4, kind=AttentionPlan)
    x = param(rng, 4, 3, name="x")
    alpha = param(rng, SPMM_ROWS.size, 1, name="alpha")
    v = rng.standard_normal((5, 3))
    check(lambda: T.tsum(T.mul(T.spmm(plan, x, values=alpha), Tensor(v))),
          [x, alpha])


def test_spmm_rejects_bad_inputs():
    for not_csr in (np.eye(2), sp.coo_array(np.eye(2)), sp.csr_matrix(np.eye(2))):
        with pytest.raises(TensorError, match="csr_array"):
            SpmmPlan(not_csr)
    plan = SpmmPlan(sp.csr_array(np.eye(2)))
    with pytest.raises(TensorError):
        T.spmm(plan, Tensor(np.ones((3, 2))))
    with pytest.raises(TensorError, match="needs an AttentionPlan"):
        T.spmm(plan, Tensor(np.ones((2, 2))), values=Tensor(np.ones(2)))
    with pytest.raises(TensorError, match="3 values for 2 entries"):
        T.spmm(AttentionPlan(plan.matrix), Tensor(np.ones((2, 2))),
               values=Tensor(np.ones(3)))


# row 2 of a and row 4 of b appear in no pair; (0, 1) appears twice
SDDMM_ROWS = SegmentIndex([0, 3, 1, 0, 3, 0], 4)
SDDMM_COLS = SegmentIndex([1, 0, 3, 1, 2, 0], 5)


def test_grad_sddmm_with_duplicate_pairs_and_untouched_rows():
    rng = np.random.default_rng(43)
    a = param(rng, 4, 3, name="a")
    b = param(rng, 5, 3, name="b")
    v = rng.standard_normal((SDDMM_ROWS.index.size, 1))
    check(lambda: T.tsum(T.mul(T.sddmm(a, b, SDDMM_ROWS, SDDMM_COLS), Tensor(v))),
          [a, b])


def test_sddmm_matches_gather_mul_sum_composition():
    rng = np.random.default_rng(44)
    v = rng.standard_normal((SDDMM_ROWS.index.size, 1))
    a = param(rng, 4, 3, name="a")
    b = param(rng, 5, 3, name="b")
    results = []
    for f in (lambda: T.sddmm(a, b, SDDMM_ROWS, SDDMM_COLS),
              lambda: T.matmul(T.mul(T.gather_rows(a, SDDMM_ROWS),
                                     T.gather_rows(b, SDDMM_COLS)),
                               Tensor(np.ones((3, 1))))):  # the sum of each row
        a.grad = b.grad = None
        out = f()
        T.tsum(T.mul(out, Tensor(v))).backward()
        results.append((out.data, a.grad, b.grad))
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12
    assert not results[0][1][2].any() and not results[0][2][4].any()


def test_sddmm_zero_pairs_and_bad_inputs():
    a = Parameter(np.ones((2, 3)), "a")
    b = Parameter(np.ones((4, 3)), "b")

    def sddmm(rows, cols, b=b):
        # an id out of range is refused where its index is built
        return T.sddmm(a, b, SegmentIndex(rows, 2), SegmentIndex(cols, 4))

    out = sddmm([], [])
    assert out.shape == (0, 1)
    T.tsum(out).backward()
    assert a.grad.shape == (2, 3) and not a.grad.any()
    assert b.grad.shape == (4, 3) and not b.grad.any()
    with pytest.raises(TensorError):
        sddmm([0], [0], b=Tensor(np.ones((4, 2))))      # widths differ
    with pytest.raises(TensorError):
        sddmm([0, 1], [0])                               # unequal lengths
    with pytest.raises(TensorError):
        sddmm([2], [0])                                  # row out of range
    with pytest.raises(TensorError):
        sddmm([0], [-1])                                 # column out of range
    rows, cols = SegmentIndex([0], 2), SegmentIndex([3], 4)
    for raw in ((np.array([0]), cols), (rows, [3])):
        with pytest.raises(TensorError, match="needs a SegmentIndex"):
            T.sddmm(a, b, *raw)
    for other in ((SegmentIndex([0], 3), cols), (rows, SegmentIndex([3], 5))):
        with pytest.raises(TensorError, match="different row count"):
            T.sddmm(a, b, *other)


@pytest.mark.parametrize("d", [1, 64, 128])
@pytest.mark.parametrize("blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1),
                                          (3, 5)])
def test_blocked_sddmm_equals_the_one_shot_einsum_bitwise(blocks, extra, d):
    """Pair counts straddle the block, whose size the byte budget and the
    row width set."""
    n_pairs = blocks * (T._SDDMM_BLOCK_BYTES // (8 * d)) + extra
    rng = np.random.default_rng(45)
    a = rng.standard_normal((37, d))
    b = rng.standard_normal((29, d))
    rows = rng.integers(0, 37, n_pairs)
    cols = rng.integers(0, 29, n_pairs)
    got = T._sddmm(a, b, rows, cols)
    want = np.einsum("ij,ij->i", a[rows], b[cols])
    assert got.shape == want.shape == (n_pairs,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# one SegmentIndex against the per-use structures it replaced
# ---------------------------------------------------------------------------

def _reference_gather_grad(index, n_rows, g):
    """The former gather backward: a stable argsort, run boundaries and one
    add.reduceat into the distinct rows."""
    order = np.argsort(index, kind="stable")
    si = index[order]
    out = np.zeros((n_rows,) + g.shape[1:])
    if si.size:
        boundary = np.empty(si.shape[0], dtype=bool)
        boundary[0] = True
        boundary[1:] = si[1:] != si[:-1]
        starts = np.flatnonzero(boundary)
        out[si[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return out


def _reference_segment_softmax(x, index, n_seg, g):
    """The former segment softmax, computed on sorted rows and scattered back
    to row order: (values, gradient of sum(values * g))."""
    if index.size == 0:
        return np.zeros_like(x), np.zeros_like(x)
    order = np.argsort(index, kind="stable")
    si = index[order]
    counts = np.bincount(si, minlength=n_seg)
    nonempty = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nonempty]

    def fold(ufunc, v):
        out = np.zeros((n_seg,) + x.shape[1:])
        out[nonempty] = ufunc.reduceat(v, starts, axis=0)
        return out

    xs, gs = x[order], g[order]
    e = np.exp(xs - fold(np.maximum, xs)[si])
    ys = e / fold(np.add, e)[si]
    gxs = ys * (gs - fold(np.add, ys * gs)[si])
    data, grad = np.empty_like(ys), np.empty_like(gxs)
    data[order] = ys
    grad[order] = gxs
    return data, grad


# (index, number of segments): sorted, unsorted, empty, and with empty segments
GROUPINGS = [
    (np.array([0, 0, 1, 3, 3, 3]), 5),
    (np.array([3, 0, 1, 3, 0, 3, 2]), 4),
    (np.array([], dtype=np.int64), 3),
    (np.array([5, 5, 0, 2, 5]), 7),
    (np.random.default_rng(53).integers(0, 6, size=40), 9),
]


@pytest.mark.parametrize("index,n", GROUPINGS)
def test_gather_rows_equals_the_former_scatter_plan(index, n):
    rng = np.random.default_rng(50)
    g = rng.standard_normal((index.size, 3))
    want = _reference_gather_grad(index, n, g)
    a = Parameter(rng.standard_normal((n, 3)), "a")
    out = T.gather_rows(a, SegmentIndex(index, n))
    T.tsum(T.mul(out, Tensor(g))).backward()
    assert np.array_equal(out.data, a.data[index])
    assert np.array_equal(a.grad, want)


@pytest.mark.parametrize("index,n", GROUPINGS)
@pytest.mark.parametrize("with_inf", [False, True])
def test_segment_softmax_equals_the_former_sorted_space_softmax(index, n, with_inf):
    rng = np.random.default_rng(51)
    x = rng.standard_normal((index.size, 2)) * 4
    if with_inf and index.size:
        x[0, 0], x[-1, 1] = np.inf, -np.inf
    g = rng.standard_normal(x.shape)
    with np.errstate(invalid="ignore"):
        want_data, want_grad = _reference_segment_softmax(x, index, n, g)
        a = Parameter(x.copy(), "a")
        out = T.segment_softmax(a, SegmentIndex(index, n))
        T.tsum(T.mul(out, Tensor(g))).backward()
    assert np.array_equal(out.data, want_data, equal_nan=True)
    assert np.array_equal(a.grad, want_grad, equal_nan=True)
    assert np.isnan(out.data).any() == (with_inf and index.size > 0)


def test_segment_index_groups_without_sorting_a_sorted_index():
    seg = SegmentIndex([0, 0, 2, 2, 2], 4)
    assert seg.order is None
    assert seg.indptr.tolist() == [0, 2, 2, 5, 5]
    seg = SegmentIndex([2, 0, 2, 0], 3)
    assert seg.order.tolist() == [1, 3, 0, 2]
    assert seg.indptr.tolist() == [0, 2, 2, 4]
    assert seg.sorted(np.arange(4.0)).tolist() == [1.0, 3.0, 0.0, 2.0]
    assert seg.reduce(np.add, np.arange(4.0)).tolist() == [4.0, 0.0, 2.0]


def test_gather_rows_rejects_bad_indices():
    a = Tensor(np.ones((4, 2)))
    with pytest.raises(TensorError, match="out of range"):
        T.gather_rows(a, SegmentIndex([0, 4], 4))
    with pytest.raises(TensorError, match="out of range"):
        T.gather_rows(a, SegmentIndex([-1], 4))
    with pytest.raises(TensorError, match="different row count"):
        T.gather_rows(a, SegmentIndex([0, 1], 5))
    with pytest.raises(TensorError, match="needs a SegmentIndex"):
        T.gather_rows(a, np.array([0, 1]))


@pytest.mark.parametrize("rows,cols", [(SPMM_ROWS, SPMM_COLS),
                                       (np.array([0, 1, 1, 3]), np.array([0, 0, 2, 3])),
                                       (np.array([], dtype=np.int64),
                                        np.array([], dtype=np.int64))])
def test_spmm_plan_transpose_is_the_stable_transpose(rows, cols):
    w = np.random.default_rng(52).standard_normal(rows.size)
    plan = _plan(rows, cols, 5, 4, w)
    # the former construction: the entries stably sorted by column
    want = SegmentIndex(cols, 4).csr(w, rows, 5)
    got = plan.t_matrix.tocsr()
    assert got.shape == want.shape == (4, 5)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert np.array_equal(AttentionPlan(plan.matrix).by_col.sorted(w), want.data)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31))
def test_row_softmax_rows_sum_to_one(n, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d)) * 5
    out = T.row_softmax(Tensor(x))
    assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_segment_softmax_sums_within_segments(seed):
    rng = np.random.default_rng(seed)
    n_seg = int(rng.integers(1, 6))
    idx = rng.integers(0, n_seg, size=rng.integers(1, 20))
    seg = SegmentIndex(idx, n_seg)
    out = T.segment_softmax(Tensor(rng.standard_normal((idx.size, 1)) * 4), seg)
    sums = np.zeros(n_seg)
    np.add.at(sums, idx, out.data[:, 0])
    present = np.bincount(idx, minlength=n_seg) > 0
    assert np.abs(sums[present] - 1.0).max() < 1e-12
