import math

import numpy as np
import pytest

from sshpool.errors import ContractError, ShapeError
from sshpool.model import loss
from sshpool.tensor import Tape, Tensor, mean_rows, sum_rows

from op_reference import add, dropout, matmul, relu, row_softmax, scale, transpose


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, Tensor(np.eye(2))).data, a.data)

    def test_permutation_on_rank_one(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        p = Tensor([[0.0, 1.0], [1.0, 0.0]])
        assert matmul(a, p).data.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_against_triple_loop(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(got, naive_matmul(a, b), rtol=1e-12, atol=0)

    def test_triple_loop_up_to_16(self, rng):
        for _ in range(10):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = matmul(Tensor(a), Tensor(b)).data
            want = naive_matmul(a, b)
            scale_ = np.abs(want) + 1.0
            assert np.all(np.abs(got - want) / scale_ <= 1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


class TestRowSoftmax:
    def test_symmetry(self):
        assert row_softmax(Tensor([[0.0, 0.0]])).data.tolist() == [[0.5, 0.5]]

    def test_stability_no_overflow(self):
        out = row_softmax(Tensor([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_matches_scalar_exp_oracle(self):
        out = row_softmax(Tensor([[1.0, 2.0, 3.0]])).data[0]
        denom = math.exp(1) + math.exp(2) + math.exp(3)
        for i, v in enumerate(out):
            assert v == pytest.approx(math.exp(i + 1) / denom, rel=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rows_sum_to_one_and_in_range(self, rng):
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8)))) * 10
            s = row_softmax(Tensor(x)).data
            assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)
            assert np.all((s >= 0.0) & (s <= 1.0))


class TestElementwiseOps:
    def test_relu(self):
        assert relu(Tensor([[-1.0, 2.0]])).data.tolist() == [[0.0, 2.0]]

    def test_relu_keeps_nan_and_gives_positive_zero(self):
        out = relu(Tensor([[np.nan, -0.0, -np.inf, np.inf, 0.0]])).data[0]
        assert np.isnan(out[0])
        assert out[1:].tolist() == [0.0, 0.0, np.inf, 0.0]
        assert not np.signbit(out[1:]).any()

    def test_add_broadcast_row(self, rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(1, 2))
        assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 3))))

    def test_transpose_scale_mean(self, rng):
        x = rng.normal(size=(3, 4))
        assert np.array_equal(transpose(Tensor(x)).data, x.T)
        assert np.array_equal(scale(Tensor(x), 2.5).data, x * 2.5)
        assert np.allclose(mean_rows(Tensor(x)).data, x.mean(axis=0, keepdims=True))

    def test_sum_rows_matches_sequential_loop(self, rng):
        x = rng.normal(size=(7, 3)) * 13.7
        zeros = -np.zeros((3, 2))
        zeros[2, 1] = 0.0
        cases = [x, np.asfortranarray(rng.normal(size=(40, 3))), x[:, 1:2], x[:1], x[:0],
                 zeros, zeros[:, :1], np.asfortranarray(zeros), rng.normal(size=(5, 4))[:, ::2]]
        for x in cases:
            acc = np.zeros(x.shape[1])
            for r in range(x.shape[0]):
                acc = acc + x[r]
            got = sum_rows(Tensor(x)).data[0]
            assert got.tobytes() == acc.tobytes()  # -0.0 sums to +0.0, as from zeros

    def test_ufunc_row_mean_is_ndarray_mean_byte_for_byte(self, rng):
        # ``mean_rows`` and ``classify`` divide ``np.add.reduce`` by the row
        # count, the sequence ``ndarray.mean`` runs, without its wrapper.
        for _ in range(500):
            rows, cols = int(rng.integers(1, 41)), int(rng.integers(1, 65))
            x = rng.choice([-1.0, 1.0], size=(rows, cols)) * 10.0 ** rng.uniform(
                -300, 300, size=(rows, cols))
            x[rng.random(size=x.shape) < 0.1] = -0.0
            want = x.mean(axis=0, keepdims=True)
            assert (np.add.reduce(x, axis=0, keepdims=True) / rows).tobytes() == want.tobytes()
            assert mean_rows(Tensor(x)).data.tobytes() == want.tobytes()

    def test_sum_and_mean_rows_examples(self, rng):
        assert sum_rows(Tensor(np.eye(3))).data.tolist() == [[1.0, 1.0, 1.0]]
        assert mean_rows(Tensor([[4.0, 5.0]])).data.tolist() == [[4.0, 5.0]]
        y = rng.normal(size=(5, 4))
        want_sum = np.zeros(4)
        for r in range(5):
            want_sum = want_sum + y[r]
        assert np.array_equal(sum_rows(Tensor(y)).data[0], want_sum)
        assert np.allclose(mean_rows(Tensor(y)).data[0], want_sum / 5)


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        assert dropout(x, 0.0, True, rng) is x

    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        assert dropout(x, 0.5, False, rng) is x

    def test_survivors_scaled(self):
        x = Tensor(np.ones((50, 50)))
        out = dropout(x, 0.5, True, np.random.default_rng(0)).data
        kept = out[out != 0.0]
        assert np.allclose(kept, 2.0)
        assert 0.4 < kept.size / out.size < 0.6

    def test_bad_probability(self, rng):
        with pytest.raises(ContractError):
            dropout(Tensor(np.ones((2, 2))), 1.0, True, rng)


class TestCrossEntropy:
    def test_uniform_case(self):
        out = loss(Tensor([[0.0, 0.0]]), 0)
        assert out.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_stability(self):
        out = loss(Tensor([[1000.0, 0.0]]), 0)
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_oracle(self, rng):
        logits = rng.normal(size=(1, 5)) * 3
        label = 3
        want = -math.log(np.exp(logits[0]).sum() ** -1 * np.exp(logits[0][label]))
        got = loss(Tensor(logits), label).item()
        assert got == pytest.approx(want, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            loss(Tensor([[0.0, 0.0]]), 2)


class TestBackward:
    def test_linear_map_gradient(self):
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        x = Tensor(np.array([[0.5], [1.5]]))
        with Tape() as tape:
            out = sum_rows(matmul(w, x))
        tape.backward(out)
        # d sum(Wx) / dW has x^T in every row
        assert np.array_equal(w.grad, np.array([[0.5, 1.5], [0.5, 1.5]]))

    def test_loss_independent_of_param(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = Tensor(np.ones((1, 2)), requires_grad=True)
        with Tape() as tape:
            out = sum_rows(transpose(x))
        tape.backward(out)
        assert np.array_equal(w.grad, np.zeros((2, 2)))
        assert not np.signbit(w.grad).any()

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        with Tape() as tape:
            out = sum_rows(w)
        tape.backward(out)
        first = w.grad.copy()
        tape.backward(out)
        assert np.array_equal(w.grad, 2 * first)

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass

    def test_constant_gets_no_grad(self):
        x = Tensor(np.ones((1, 2)))
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        with Tape() as tape:
            out = matmul(x, w)
        tape.backward(out)
        assert x.grad is None
        assert np.array_equal(w.grad, np.ones((2, 1)))

    def test_column_view_grad_lands_in_parent(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        view = Tensor(w.data[:, :2].copy())
        view.grad = w.grad[:, :2]
        x = Tensor(np.array([[1.0, 2.0]]))
        with Tape() as tape:
            out = sum_rows(transpose(matmul(x, view)))
        tape.backward(out)
        # d sum(x V) / dV has x^T in every column; the third column is untouched.
        assert np.array_equal(w.grad, np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))
        assert not np.signbit(w.grad).any()

    def test_reused_input_accumulates(self):
        x = Tensor(np.full((1, 2), 3.0), requires_grad=True)
        with Tape() as tape:
            out = sum_rows(transpose(add(x, x)))
        tape.backward(out)
        assert np.array_equal(x.grad, np.full((1, 2), 2.0))


def fd_gradient(fn, arrays, index, step=1e-5):
    """Central finite differences of a scalar function of numpy arrays."""
    grads = np.zeros_like(arrays[index])
    flat = arrays[index].reshape(-1)
    g = grads.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn(arrays)
        flat[i] = orig - step
        down = fn(arrays)
        flat[i] = orig
        g[i] = (up - down) / (2 * step)
    return grads


def probe(out, r, c):
    """Bilinear scalar readout r @ out @ c keeps every entry on the path."""
    return matmul(matmul(r, out), c)


def check_op(build, arrays, rng, tol=1e-4):
    """Analytic vs finite-difference gradients for every input array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(tensors)
        r = Tensor(rng.normal(size=(1, out.rows)))
        c = Tensor(rng.normal(size=(out.cols, 1)))
        objective = probe(out, r, c)
    tape.backward(objective)

    def eval_fn(arrs):
        outs = build([Tensor(a) for a in arrs])
        return float((r.data @ outs.data @ c.data)[0, 0])

    for idx, t in enumerate(tensors):
        analytic = t.grad
        numeric = fd_gradient(eval_fn, [a.copy() for a in arrays], idx)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) <= tol


class TestFiniteDifferences:
    """Every differentiable op agrees with central differences at <= 1e-4."""

    def test_matmul(self, rng):
        check_op(lambda t: matmul(t[0], t[1]),
                 [rng.normal(size=(4, 6)), rng.normal(size=(6, 3))], rng)

    def test_add_broadcast(self, rng):
        check_op(lambda t: add(t[0], t[1]),
                 [rng.normal(size=(5, 3)), rng.normal(size=(1, 3))], rng)

    def test_relu_away_from_kink(self, rng):
        x = rng.normal(size=(6, 6))
        x[np.abs(x) < 1e-3] += 0.1
        check_op(lambda t: relu(t[0]), [x], rng)

    def test_row_softmax(self, rng):
        check_op(lambda t: row_softmax(t[0]), [rng.normal(size=(5, 7))], rng)

    def test_transpose(self, rng):
        check_op(lambda t: transpose(t[0]), [rng.normal(size=(3, 8))], rng)

    def test_scale_mean_sum(self, rng):
        check_op(lambda t: scale(t[0], -1.7), [rng.normal(size=(4, 4))], rng)
        check_op(lambda t: mean_rows(t[0]), [rng.normal(size=(6, 3))], rng)
        check_op(lambda t: sum_rows(t[0]), [rng.normal(size=(6, 3))], rng)

    def test_dropout_fixed_mask(self, rng):
        # the same seed per evaluation keeps the mask constant across probes
        check_op(lambda t: dropout(t[0], 0.4, True, np.random.default_rng(99)),
                 [rng.normal(size=(5, 5))], rng)

    def test_cross_entropy(self, rng):
        logits = rng.normal(size=(1, 4))
        t = Tensor(logits.copy(), requires_grad=True)
        with Tape() as tape:
            out = loss(t, 2)
        tape.backward(out)
        numeric = fd_gradient(
            lambda arrs: loss(Tensor(arrs[0]), 2).item(),
            [logits.copy()],
            0,
        )
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(t.grad - numeric) / denom) <= 1e-4

    def test_composite_graph(self, rng):
        def build(t):
            h = relu(matmul(t[0], t[1]))
            return row_softmax(matmul(h, transpose(t[2])))

        check_op(
            build,
            [rng.normal(size=(4, 5)), rng.normal(size=(5, 3)), rng.normal(size=(2, 3))],
            rng,
        )


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            with Tape() as tape:
                h = dropout(relu(matmul(x, w)), 0.3, True, np.random.default_rng(3))
                out = sum_rows(transpose(sum_rows(h)))
            tape.backward(out)
            return out.item(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])
