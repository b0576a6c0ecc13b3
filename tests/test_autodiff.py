"""Unit tests for the reverse-mode engine: op semantics, backward rules, oracle."""

import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest

from morphlens import autodiff
from morphlens.autodiff import (
    Tensor,
    _accumulate,
    _as_tensor,
    _attach,
    _recording,
    _tape_order,
    backward,
    conv2d,
    dense,
    dropout,
    global_average_pool,
    gradient_check,
    no_grad,
    relu,
    select,
    softmax_cross_entropy,
)
from morphlens.errors import NotScalarError, ShapeMismatchError
from morphlens.model import ClassificationObjective, build_model, model_shapes, plan_scaling
from morphlens.rng import Lcg


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# Two small taped ops that only the tests need: they turn an op's output into
# a scalar loss with a chosen upstream gradient. Each reruns as itself, so
# gradient_check can replay tapes that end in them, and each hands its
# gradients to _accumulate as the library's ops do.


def reduce_sum(x) -> Tensor:
    """Sum of all elements as a scalar node."""
    x = _as_tensor(x)
    out = Tensor(x.data.sum())
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            _accumulate(x, grad)

        _attach(out, "reduce_sum", (x,), _backward, reduce_sum)
    return out


def multiply(a, b) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"multiply: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data)
    if _recording((a, b)):

        def _backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                _accumulate(a, grad * b.data)
            if b.requires_grad:
                _accumulate(b, grad * a.data)

        _attach(out, "multiply", (a, b), _backward, multiply)
    return out


# conv2d


def test_conv2d_zero_input_gives_zero_output():
    x = Tensor(np.zeros((1, 1, 3, 3)))
    k = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
    out = conv2d(x, k, Tensor(np.zeros(1)), stride=1, padding=1)
    assert out.shape == (1, 1, 3, 3)
    assert (out.data == 0).all()


def test_conv2d_1x1_kernel_scales():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = Tensor(np.array([[[[2.0]]]]))
    out = conv2d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)
    assert np.array_equal(out.data, [[[[2.0, 4.0], [6.0, 8.0]]]])


def test_conv2d_averaging_kernel_equals_mean():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 1, 3, 3))
    k = np.full((1, 1, 3, 3), 1.0 / 9.0)
    out = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(1)), stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(x.mean(), abs=1e-12)


def test_conv2d_output_size_law():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = int(rng.integers(3, 12))
        w = int(rng.integers(3, 12))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        x = Tensor(rng.normal(size=(2, 3, h, w)))
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        if h + 2 * padding < 3 or w + 2 * padding < 3:
            continue
        out = conv2d(x, k, Tensor(np.zeros(4)), stride=stride, padding=padding)
        assert out.shape == (
            2,
            4,
            (h + 2 * padding - 3) // stride + 1,
            (w + 2 * padding - 3) // stride + 1,
        )


def test_conv2d_matches_direct_sum():
    # independent oracle: quadruple loop over output cells
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 7, 6))
    k = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(4,))
    out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2, padding=1)
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for n in range(2):
        for o in range(4):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    window = padded[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    assert out.data[n, o, i, j] == pytest.approx((window * k[o]).sum() + b[o], rel=1e-12)


def test_conv2d_channel_mismatch_raises():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(ShapeMismatchError):
        conv2d(x, k, Tensor(np.zeros(1)))


def test_conv2d_bad_stride_and_padding():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    k = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError):
        conv2d(x, k, Tensor(np.zeros(1)), stride=0)
    with pytest.raises(ValueError):
        conv2d(x, k, Tensor(np.zeros(1)), padding=-1)


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = leaf(rng.normal(size=(1, 2, 5, 5)))
    k = leaf(rng.normal(size=(3, 2, 3, 3)))
    b = leaf(rng.normal(size=(3,)))

    def loss_value():
        return float(reduce_sum(multiply(conv2d(x, k, b, 2, 1), weights)).data)

    weights = Tensor(rng.normal(size=(1, 3, 3, 3)))  # fixed mixing so the loss is non-trivial
    store = backward(reduce_sum(multiply(conv2d(x, k, b, 2, 1), weights)))
    eps = 1e-6
    for tensor in (x, k, b):
        flat = tensor.data.reshape(-1)
        grads = store[tensor].reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 7)):
            saved = flat[idx]
            flat[idx] = saved + eps
            upper = loss_value()
            flat[idx] = saved - eps
            lower = loss_value()
            flat[idx] = saved
            assert grads[idx] == pytest.approx((upper - lower) / (2 * eps), rel=1e-5, abs=1e-8)


def reference_conv2d_forward(x, kernels, bias, stride, padding):
    """The pad + sliding-window formulation, feeding the same GEMM as conv2d."""
    batch = x.shape[0]
    c_out, c_in, k_h, k_w = kernels.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k_h, k_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * out_h * out_w, c_in * k_h * k_w)
    acc = (cols @ kernels.reshape(c_out, -1).T).reshape(batch, out_h, out_w, c_out)
    acc = np.ascontiguousarray(acc.transpose(0, 3, 1, 2))
    acc += bias[None, :, None, None]
    return acc


def reference_conv2d_grads(x, kernels, grad, stride, padding):
    """(dx, dkernels, dbias) by accumulating one strided product per kernel tap."""
    _, _, height, width = x.shape
    _, _, k_h, k_w = kernels.shape
    _, _, out_h, out_w = grad.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    d_padded = np.zeros_like(padded)
    d_kernels = np.zeros_like(kernels)
    for ki in range(k_h):
        for kj in range(k_w):
            rows = slice(ki, ki + stride * out_h, stride)
            cols = slice(kj, kj + stride * out_w, stride)
            d_kernels[:, :, ki, kj] = np.einsum("bohw,bchw->oc", grad, padded[:, :, rows, cols])
            d_padded[:, :, rows, cols] += np.einsum("bohw,oc->bchw", grad, kernels[:, :, ki, kj])
    d_x = d_padded[:, :, padding : padding + height, padding : padding + width]
    return d_x, d_kernels, grad.sum(axis=(0, 2, 3))


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


@pytest.mark.parametrize(
    "batch, c_in, height, width, c_out, k_h, k_w, stride, padding, wanted",
    [
        (1, 3, 9, 9, 4, 3, 3, 1, 1, ("x", "kernels", "bias")),
        (32, 3, 16, 16, 8, 3, 3, 2, 1, ("x", "kernels", "bias")),
        (1, 2, 11, 7, 3, 3, 3, 3, 2, ("x", "kernels", "bias")),
        (32, 2, 10, 13, 4, 3, 3, 3, 0, ("x", "kernels", "bias")),
        (2, 3, 8, 6, 5, 3, 2, 2, 2, ("x", "kernels", "bias")),
        (2, 3, 9, 7, 4, 3, 3, 2, 1, ("x",)),
        (2, 3, 9, 7, 4, 3, 3, 2, 1, ("kernels",)),
        (2, 3, 9, 7, 4, 3, 3, 2, 1, ("bias",)),
    ],
)
def test_conv2d_backward_matches_tap_loop(batch, c_in, height, width, c_out, k_h, k_w, stride, padding, wanted):
    rng = np.random.default_rng(batch * 1000 + height * 10 + stride)
    arrays = {
        "x": rng.normal(size=(batch, c_in, height, width)),
        "kernels": rng.normal(size=(c_out, c_in, k_h, k_w)),
        "bias": rng.normal(size=(c_out,)),
    }
    tensors = {name: Tensor(value, requires_grad=name in wanted) for name, value in arrays.items()}
    out = conv2d(tensors["x"], tensors["kernels"], tensors["bias"], stride, padding)
    upstream = rng.normal(size=out.shape)
    store = backward(reduce_sum(multiply(out, Tensor(upstream))))
    expected = dict(
        zip(("x", "kernels", "bias"), reference_conv2d_grads(arrays["x"], arrays["kernels"], upstream, stride, padding))
    )
    for name, tensor in tensors.items():
        if name in wanted:
            assert relative_error(store[tensor], expected[name]) <= 1e-12, name
        else:
            assert tensor not in store


def tap_loop_input_grad(x_shape, kernels, grad, stride, padding):
    """conv2d's input gradient as a zeroed, padded grid that each tap's strided block is added into, then cropped."""
    batch, c_in, height, width = x_shape
    c_out, _, k_h, k_w = kernels.shape
    _, _, out_h, out_w = grad.shape
    d_cols = kernels.reshape(c_out, -1).T @ grad.reshape(batch, c_out, out_h * out_w)
    d_cols = d_cols.reshape(batch, c_in, k_h, k_w, out_h, out_w)
    padded = np.zeros((batch, c_in, height + 2 * padding, width + 2 * padding))
    for ki in range(k_h):
        for kj in range(k_w):
            padded[:, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride] += d_cols[:, :, ki, kj]
    return padded[:, :, padding : padding + height, padding : padding + width]


@pytest.mark.parametrize(
    "batch, c_in, height, width, c_out, k_h, k_w, stride, padding",
    [
        (1, 3, 9, 9, 4, 3, 3, 1, 1),
        (32, 3, 16, 16, 8, 3, 3, 2, 1),
        (1, 2, 11, 7, 3, 3, 3, 3, 2),
        (32, 2, 10, 13, 4, 3, 3, 3, 0),
        (2, 3, 8, 6, 5, 3, 2, 2, 2),
        (2, 3, 9, 7, 4, 3, 3, 2, 1),
        (12, 3, 9, 7, 4, 3, 3, 2, 1),
    ],
)
def test_conv2d_input_gradient_bits_match_the_tap_loop(batch, c_in, height, width, c_out, k_h, k_w, stride, padding):
    rng = np.random.default_rng(batch * 1000 + height * 10 + stride)
    x = Tensor(rng.normal(size=(batch, c_in, height, width)), requires_grad=True)
    kernels = rng.normal(size=(c_out, c_in, k_h, k_w))
    out = conv2d(x, kernels, np.zeros(c_out), stride, padding)
    upstream = rng.normal(size=out.shape)
    upstream.reshape(-1)[::7] = -0.0
    upstream[-1] = -0.0  # a whole sample of -0.0 upstream
    expected = tap_loop_input_grad(x.shape, kernels, upstream, stride, padding)
    out.grad = upstream
    out._backward()  # the first contribution: the tap loop added into zeros
    assert (np.zeros(x.shape) + expected).tobytes() == x.grad.tobytes()
    earlier = rng.normal(size=x.shape)
    x.grad = earlier.copy()
    out._backward()  # a later contribution is added in place
    assert (earlier + expected).tobytes() == x.grad.tobytes()


@pytest.mark.parametrize("batch", [1, 32])
def test_conv2d_forward_bits_match_reference(batch):
    model = build_model(plan_scaling(0.0), 1)
    size = model.input_resolution
    x = np.random.default_rng(batch).uniform(0.0, 1.0, size=(batch, 3, size, size))
    with no_grad():
        _, activations = model.forward(Tensor(x))
    convs = [(i, layer) for i, layer in enumerate(model.layers) if layer.kind == "conv"]
    assert convs
    for i, layer in convs:
        inputs = activations[i].data
        with no_grad():
            out = conv2d(inputs, layer.kernels, layer.bias, layer.stride, layer.padding)
        expected = reference_conv2d_forward(inputs, layer.kernels.data, layer.bias.data, layer.stride, layer.padding)
        assert np.array_equal(out.data, expected)
        assert np.array_equal(activations[i + 1].data, expected)


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("phi", [1.0, 2.0, 3.0])
def test_conv2d_scaled_layers_match_reference(phi, batch):
    # above phi = 0 the GEMM may sum in another order than the reference, so compare to rounding
    model = build_model(plan_scaling(phi), 1)
    size = model.input_resolution
    rng = np.random.default_rng(int(phi) * 100 + batch)
    with no_grad():
        _, activations = model.forward(Tensor(rng.normal(size=(batch, 3, size, size))))
    convs = [(i, layer) for i, layer in enumerate(model.layers) if layer.kind == "conv"]
    assert len(convs) >= 2
    for i, layer in convs:
        inputs = activations[i].data
        x, kernels, bias = (Tensor(a, requires_grad=True) for a in (inputs, layer.kernels.data, layer.bias.data))
        out = conv2d(x, kernels, bias, layer.stride, layer.padding)
        expected = reference_conv2d_forward(inputs, kernels.data, bias.data, layer.stride, layer.padding)
        assert relative_error(out.data, expected) <= 1e-12, i
        upstream = rng.normal(size=out.shape)
        store = backward(reduce_sum(multiply(out, Tensor(upstream))))
        wanted = reference_conv2d_grads(inputs, kernels.data, upstream, layer.stride, layer.padding)
        for tensor, grad in zip((x, kernels, bias), wanted):
            assert relative_error(store[tensor], grad) <= 1e-12, i


@pytest.fixture
def split_into(monkeypatch):
    """Set the CPU count conv2d splits its samples by, each count with a pool of its own size."""
    original = autodiff._workers

    def shut_a_new_pool() -> None:
        if autodiff._workers not in (None, original):
            autodiff._workers.shutdown()

    def set_cpus(cpus: int) -> None:
        shut_a_new_pool()
        monkeypatch.setattr(autodiff, "_CPUS", cpus)
        monkeypatch.setattr(autodiff, "_workers", None)

    yield set_cpus
    shut_a_new_pool()


# the kernel shapes of the planned convs at phi = 0 and 1
CONV_WEIGHTS = sorted(
    {
        layer.kernels.shape
        for phi in (0.0, 1.0)
        for layer in model_shapes(plan_scaling(phi)).layers
        if layer.kind == "conv"
    }
)


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("weights", CONV_WEIGHTS, ids=str)
def test_conv2d_bytes_do_not_depend_on_the_split(split_into, monkeypatch, weights, stride, padding):
    # every call with two or more samples splits, into up to 3 ranges
    monkeypatch.setattr(autodiff, "_RANGE_BYTES", 1)
    c_out, c_in, k_h, k_w = weights
    rng = np.random.default_rng(c_out * 10 + stride * 2 + padding)
    for batch in (1, 2, 3, 4, 5, 7, 8, 13, 32, 39, 40):
        arrays = [rng.normal(size=shape) for shape in ((batch, c_in, 9, 7), weights, (c_out,))]
        earlier = [rng.normal(size=array.shape) for array in arrays]
        seen = []
        for cpus in (1, 2, 3):
            split_into(cpus)
            leaves = [Tensor(array, requires_grad=True) for array in arrays]
            out = conv2d(*leaves, stride, padding)
            if cpus == 1:
                upstream = rng.normal(size=out.shape)
                upstream.reshape(-1)[::5] = -0.0
            out.grad = upstream
            out._backward()  # the first contribution to each gradient
            got = [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]
            for leaf, grad in zip(leaves, earlier):
                leaf.grad = grad.copy()
            out._backward()  # a later one, added in place
            seen.append(got + [leaf.grad.tobytes() for leaf in leaves])
        assert seen[1] == seen[0], batch
        assert seen[2] == seen[0], batch


@pytest.mark.parametrize("raising", [0, 1, 2])
def test_a_raising_range_is_raised_after_every_range_returned(split_into, raising):
    # range 0 is the calling thread's, ranges 1 and 2 the pool's
    split_into(3)
    ranges = [(0, 3), (3, 6), (6, 10)]
    returned: list[tuple[int, int]] = []
    lock = threading.Lock()

    def work(lo: int, hi: int) -> None:
        if (lo, hi) == ranges[raising]:
            raise RuntimeError(f"range {lo}-{hi} failed")
        time.sleep(0.1)
        with lock:
            returned.append((lo, hi))

    with pytest.raises(RuntimeError, match=f"^range {ranges[raising][0]}-{ranges[raising][1]} failed$"):
        autodiff._in_ranges(work, 10, 3 * autodiff._RANGE_BYTES)
    assert sorted(returned) == ranges[:raising] + ranges[raising + 1 :]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_splits_on_a_pool_of_its_own(split_into):
    # the child inherits the parent's pool object but none of its threads
    split_into(2)
    autodiff._in_ranges(lambda lo, hi: None, 2, 2 * autodiff._RANGE_BYTES)
    assert autodiff._workers is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            seen = []
            autodiff._in_ranges(lambda lo, hi: seen.append((lo, hi)), 2, 2 * autodiff._RANGE_BYTES)
            code = 0 if sorted(seen) == [(0, 1), (1, 2)] else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split did not return within 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_dropped_tape_is_freed_without_cyclic_gc():
    model = build_model(plan_scaling(0.0), 1)
    size = model.input_resolution
    x = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 3, size, size))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        logits, activations = model.forward(Tensor(x))
        assert activations[1].op == "conv2d"
        loss = softmax_cross_entropy(logits, [0, 1])
        store = backward(loss)
        tape = [weakref.ref(logits), weakref.ref(activations[1])]
        del logits, activations, loss, store
        assert [ref() for ref in tape] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


# relu


def test_relu_definition():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_gradient():
    x = leaf([-3.0, -0.5, -1e-9])
    store = backward(reduce_sum(relu(x)))
    assert (relu(x).data == 0).all()
    assert np.array_equal(store[x], np.zeros(3))


def test_relu_pass_through_gradient():
    x = leaf([3.0])
    out = relu(x)
    store = backward(multiply(out, Tensor([5.0])))
    assert np.array_equal(store[x], [5.0])


def test_relu_gradient_zero_at_exact_zero():
    x = leaf([0.0])
    store = backward(reduce_sum(relu(x)))
    assert store[x][0] == 0.0


# global_average_pool


def test_gap_mean_and_constant():
    out = global_average_pool(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 2.5
    const = global_average_pool(Tensor(np.full((1, 3, 4, 5), 7.25)))
    assert np.allclose(const.data, 7.25)


def test_gap_backward_spreads_g_over_cells():
    x = leaf(np.arange(24.0).reshape(1, 2, 3, 4))
    pooled = global_average_pool(x)
    g = 5.0
    store = backward(multiply(select(pooled, 1), Tensor(g)))
    expected = np.zeros((1, 2, 3, 4))
    expected[0, 1] = g / 12.0
    assert np.allclose(store[x], expected)
    # finite-difference cross-check on one cell
    eps = 1e-6
    base = x.data[0, 1, 2, 2]
    x.data[0, 1, 2, 2] = base + eps
    upper = g * global_average_pool(x).data[0, 1]
    x.data[0, 1, 2, 2] = base - eps
    lower = g * global_average_pool(x).data[0, 1]
    x.data[0, 1, 2, 2] = base
    assert (upper - lower) / (2 * eps) == pytest.approx(g / 12.0, rel=1e-6)


@pytest.mark.parametrize(
    "shape", [(1, 8, 32, 32), (1, 16, 16, 16), (32, 16, 16, 16), (208, 16, 16, 16), (3, 5, 7, 9), (2, 4, 1, 1)]
)
def test_gap_equals_numpy_mean_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    signed = rng.normal(size=shape)
    for values in (signed, np.maximum(signed, 0.0), rng.uniform(0.0, 1e6, size=shape)):
        assert global_average_pool(Tensor(values)).data.tobytes() == values.mean(axis=(2, 3)).tobytes()


def test_gap_rejects_empty_grid_and_wrong_rank():
    with pytest.raises(ShapeMismatchError):
        global_average_pool(Tensor(np.zeros((1, 2, 0, 4))))
    with pytest.raises(ShapeMismatchError):
        global_average_pool(Tensor(np.zeros((2, 3, 4))))


# dense


def test_dense_identity_and_dot():
    x = Tensor(np.array([[3.0, -1.0]]))
    identity = Tensor(np.eye(2))
    assert np.array_equal(dense(x, identity, Tensor(np.zeros(2))).data, x.data)
    out = dense(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
    assert np.array_equal(out.data, [[6.0]])


def test_dense_weight_gradient_is_outer_product():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(1, 4)))
    w = leaf(rng.normal(size=(4, 3)))
    b = leaf(rng.normal(size=(3,)))
    upstream = rng.normal(size=(1, 3))
    store = backward(reduce_sum(multiply(dense(x, w, b), Tensor(upstream))))
    assert np.allclose(store[w], np.outer(x.data, upstream))
    assert np.allclose(store[b], upstream[0])


def test_dense_batch_rows_and_shape_errors():
    x = Tensor(np.ones((5, 2)))
    w = Tensor(np.ones((2, 3)))
    assert dense(x, w, Tensor(np.zeros(3))).shape == (5, 3)
    with pytest.raises(ShapeMismatchError):
        dense(Tensor(np.ones(3)), w, Tensor(np.zeros(3)))
    with pytest.raises(ShapeMismatchError):
        dense(x, w, Tensor(np.zeros(4)))


def test_dense_row_is_the_same_bits_in_any_batch_and_in_a_stacked_replay():
    rng = np.random.default_rng(8)
    rows, w, b = rng.normal(size=(40, 16)), leaf(rng.normal(size=(16, 2))), leaf(rng.normal(size=(2,)))
    alone = np.concatenate([dense(Tensor(row[None]), w, b).data for row in rows])
    recorded = dense(Tensor(rows), w, b)
    assert recorded.data.tobytes() == alone.tobytes()
    # weights or bias stacked as three slots replay each slot's rows as recorded
    with no_grad():
        by_weights = recorded._rerun(recorded._parents[0], Tensor(np.stack([w.data] * 3)), b)
        by_bias = recorded._rerun(recorded._parents[0], w, Tensor(np.stack([b.data] * 3)))
    assert by_weights.data.tobytes() == by_bias.data.tobytes() == np.concatenate([alone] * 3).tobytes()


# softmax_cross_entropy


def test_softmax_ce_uniform_case():
    loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)


def test_softmax_ce_saturated_no_overflow():
    loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
    assert np.isfinite(loss.data)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_softmax_ce_gradient_is_softmax_minus_onehot():
    logits = leaf([[0.3, -1.2, 2.0]])
    store = backward(softmax_cross_entropy(logits, [2]))
    expo = np.exp(logits.data - logits.data.max())
    soft = expo / expo.sum()
    soft[0, 2] -= 1.0
    assert np.allclose(store[logits], soft, atol=1e-12)


def test_softmax_ce_gradient_vs_central_differences():
    rng = np.random.default_rng(9)
    logits = leaf(rng.normal(size=(1, 5)))
    store = backward(softmax_cross_entropy(logits, [3]))
    eps = 1e-6
    for i in range(5):
        saved = logits.data[0, i]
        logits.data[0, i] = saved + eps
        upper = float(softmax_cross_entropy(logits, [3]).data)
        logits.data[0, i] = saved - eps
        lower = float(softmax_cross_entropy(logits, [3]).data)
        logits.data[0, i] = saved
        numeric = (upper - lower) / (2 * eps)
        assert abs(store[logits][0, i] - numeric) / max(abs(numeric), 1e-12) < 1e-6


def test_softmax_ce_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor([[0.0, 0.0]]), [-1])


@pytest.mark.parametrize("shape, labels", [((1, 2), [1]), ((4, 2), [0, 1, 1, 0]), ((3, 5), [4, 0, 2])])
def test_softmax_ce_rerun_equals_the_checked_public_call_bit_for_bit(shape, labels):
    rng = np.random.default_rng(len(shape) + shape[-1])
    recorded = softmax_cross_entropy(leaf(rng.normal(size=shape)), labels)
    for _ in range(5):
        moved = Tensor(rng.normal(scale=30.0, size=shape))
        with no_grad():
            replayed = recorded._rerun(moved)
        assert replayed.data.tobytes() == softmax_cross_entropy(moved, labels).data.tobytes()
        z = moved.data
        log_probs = z - z.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        assert replayed.data.tobytes() == (-log_probs[np.arange(len(z)), labels].mean()).tobytes()
    # the public op still checks what the rerun no longer does
    rows = shape[0]
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(rng.normal(size=shape)), [shape[-1]] * rows)
    with pytest.raises(ShapeMismatchError):
        softmax_cross_entropy(Tensor(rng.normal(size=shape)), [0] * (rows + 1))


def test_softmax_ce_rerun_of_stacked_slots_sums_each_slot_as_recorded():
    # 13 rows: numpy sums 8 or more contiguous values pairwise, a strided axis in order
    rng = np.random.default_rng(13)
    logits, labels = rng.normal(scale=3.0, size=(13, 2)), rng.integers(0, 2, size=13)
    recorded = softmax_cross_entropy(leaf(logits), labels)
    slots = [rng.normal(scale=3.0, size=(13, 2)) for _ in range(16)]
    with no_grad():
        replayed = recorded._rerun(Tensor(np.concatenate(slots)))
    assert replayed.data.tobytes() == np.array([softmax_cross_entropy(z, labels).data for z in slots]).tobytes()


def test_softmax_ce_batch_mean():
    logits = Tensor(np.zeros((4, 2)))
    loss = softmax_cross_entropy(logits, [0, 1, 0, 1])
    assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)


# dropout


def test_dropout_eval_is_identity():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    assert dropout(x, 0.5, "eval") is x


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.array([1.0, 2.0]))
    assert dropout(x, 0.0, "train", Lcg(1)) is x


def test_dropout_mean_preserved_at_scale():
    out = dropout(Tensor(np.ones(100000)), 0.5, "train", Lcg(42))
    assert 0.98 <= out.data.mean() <= 1.02


def test_dropout_zeroes_and_scales():
    out = dropout(Tensor(np.ones(1000)), 0.5, "train", Lcg(3))
    values = np.unique(out.data)
    assert set(values.tolist()) <= {0.0, 2.0}


def test_dropout_errors():
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 1.0, "train", Lcg(1))
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 0.5, "test", Lcg(1))
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 0.5, "train", None)


def test_dropout_backward_uses_same_mask():
    x = leaf(np.ones(64))
    out = dropout(x, 0.5, "train", Lcg(5))
    store = backward(reduce_sum(out))
    assert np.array_equal(store[x], np.where(out.data > 0, 2.0, 0.0))


# backward


def test_backward_sum_gives_ones():
    x = leaf(np.arange(6.0).reshape(2, 3))
    store = backward(reduce_sum(x))
    assert np.array_equal(store[x], np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = leaf([1.0, 2.0])
    store = backward(reduce_sum(multiply(x, x)))
    assert np.array_equal(store[x], [2.0, 4.0])


def test_backward_repeated_calls_idempotent():
    x = leaf([1.5, -0.5])
    loss = reduce_sum(multiply(x, x))
    first = backward(loss)[x].copy()
    second = backward(loss)[x]
    assert np.array_equal(first, second)


def test_backward_accumulates_through_shared_node():
    x = leaf([2.0])
    y = relu(x)
    loss = reduce_sum(multiply(y, y))  # both factors share the same node
    store = backward(loss)
    assert np.array_equal(store[x], [4.0])


def zero_fill_backward(loss):
    """Every tape node's gradient under the rule of zeroing them all first and adding each contribution into them."""
    order = _tape_order(loss)
    for node in order:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    return [node.grad.tobytes() for node in order]


def first_of(a, b) -> Tensor:
    """A copy of a that passes no gradient to b."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data.copy())
    if _recording((a, b)):

        def _backward(grad: np.ndarray) -> None:
            _accumulate(a, grad)

        _attach(out, "first_of", (a, b), _backward, None)
    return out


def two_consumer_loss():
    rng = np.random.default_rng(11)
    x = leaf(rng.normal(size=(2, 2, 6, 6)))
    k1, k2 = leaf(rng.normal(size=(3, 2, 3, 3))), leaf(rng.normal(size=(3, 3, 3, 3)))
    b = leaf(rng.normal(size=3))
    hidden = relu(conv2d(x, k1, b, 1, 1))
    # x reaches the loss through two convs and hidden through a conv and a pool
    deep = relu(conv2d(hidden, k2, b, 2, 1))
    side = conv2d(x, k1, b, 2, 0)
    pooled = global_average_pool(hidden)
    features = dropout(global_average_pool(deep), 0.5, "train", Lcg(4))
    w = leaf(rng.normal(size=(3, 2)))
    logits = dense(features, w, leaf([0.0, -0.0]))
    return softmax_cross_entropy(multiply(logits, dense(pooled, w, leaf([1.0, 2.0]))), [0, 1]), side


def select_loss():
    rng = np.random.default_rng(12)
    v = relu(leaf(rng.normal(size=(3, 4))))
    return reduce_sum(multiply(select(v, 1), select(v, 6))), v


def no_contribution_loss():
    a, hidden = leaf([1.5, -2.0]), relu(leaf([-1.0, 3.0]))
    return reduce_sum(multiply(first_of(a, hidden), a)), hidden


@pytest.mark.parametrize("make_loss", [two_consumer_loss, select_loss, no_contribution_loss])
def test_backward_matches_zero_fill_then_add(make_loss):
    loss, _ = make_loss()
    backward(loss)
    first_writes = [node.grad.tobytes() for node in _tape_order(loss)]
    assert first_writes == zero_fill_backward(loss)


def test_backward_gives_zeros_to_a_node_without_a_contribution():
    loss, hidden = no_contribution_loss()
    a, inner = loss._parents[0]._parents[1], hidden._parents[0]
    store = backward(loss)
    assert np.array_equal(store[a], [3.0, -4.0])  # d(a·a)/da
    assert hidden.grad.tobytes() == store[inner].tobytes() == np.zeros(2).tobytes()


def test_backward_rejects_non_scalar():
    x = leaf([1.0, 2.0])
    with pytest.raises(NotScalarError):
        backward(multiply(x, x))


def test_gradient_store_lookup():
    x = leaf([1.0])
    other = leaf([1.0])
    store = backward(reduce_sum(x))
    assert x in store
    assert other not in store
    assert store.get(other) is None
    assert len(store) == 1
    with pytest.raises(KeyError):
        store[other]


def test_no_grad_disables_taping():
    x = leaf([1.0, 2.0])
    with no_grad():
        out = multiply(x, x)
    assert out._backward is None
    assert not out.requires_grad


# gradient_check


class LinearNet:
    def __init__(self):
        self.w = leaf([[1.5], [-2.0]])
        self.b = leaf([0.25])

    def __call__(self, x):
        return reduce_sum(dense(x, self.w, self.b))

    def parameters(self):
        return [("w", self.w), ("b", self.b)]


def test_gradient_check_linear_model_is_exact():
    assert gradient_check(LinearNet(), np.array([[0.7, -0.3]])) < 1e-8


class TwoConvNet:
    """conv -> relu -> conv -> relu -> gap -> dense -> softmax scalar loss."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.k0 = leaf(rng.normal(0.0, 0.4, size=(4, 2, 3, 3)))
        self.b0 = leaf(rng.normal(0.0, 0.2, size=(4,)))
        self.k1 = leaf(rng.normal(0.0, 0.4, size=(5, 4, 3, 3)))
        self.b1 = leaf(rng.normal(0.0, 0.2, size=(5,)))
        self.w = leaf(rng.normal(0.0, 0.5, size=(5, 3)))
        self.bw = leaf(rng.normal(0.0, 0.5, size=(3,)))

    def __call__(self, x):
        h = relu(conv2d(x, self.k0, self.b0, 2, 1))
        h = relu(conv2d(h, self.k1, self.b1, 2, 1))
        return softmax_cross_entropy(dense(global_average_pool(h), self.w, self.bw), [1])

    def parameters(self):
        return [("k0", self.k0), ("b0", self.b0), ("k1", self.k1), ("b1", self.b1), ("w", self.w), ("bw", self.bw)]


def smooth_state(seed):
    """A (net, input) pair whose relu inputs sit clear of zero.

    Central differences are only a valid oracle away from the kinks, so
    states whose smallest |pre-activation| could be crossed by a 1e-5 probe
    are skipped deterministically.
    """
    attempt = seed
    while True:
        net = TwoConvNet(attempt)
        x = np.random.default_rng(attempt + 1000).uniform(0.0, 1.0, size=(1, 2, 8, 8))
        a0 = conv2d(Tensor(x), net.k0, net.b0, 2, 1)
        a1 = conv2d(relu(a0), net.k1, net.b1, 2, 1)
        margin = min(np.abs(a0.data).min(), np.abs(a1.data).min())
        if margin > 1e-3:
            return net, x
        attempt += 7919


def test_gradient_check_two_conv_model():
    net, x = smooth_state(0)
    assert gradient_check(net, x, epsilon=1e-5) < 1e-4


def test_gradient_check_detects_corrupted_backward():
    class Doubled(LinearNet):
        def __call__(self, x):
            out = dense(x, self.w, self.b)
            real = out._backward

            def corrupted():
                real()
                self.w.grad *= 2.0  # sabotage: doubled weight gradient

            out._backward = corrupted
            return reduce_sum(out)

    error = gradient_check(Doubled(), np.array([[0.7, -0.3]]))
    # |2g - g| / max(|2g|, |g|) = 0.5
    assert error == pytest.approx(0.5, abs=1e-6)


def test_gradient_check_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        gradient_check(LinearNet(), np.array([[1.0, 2.0]]), epsilon=0.0)


def test_full_network_backward_vs_finite_differences():
    net, x = smooth_state(41)
    assert gradient_check(net, x, epsilon=1e-5) < 1e-4


def full_call_gradient_check(network, input_values, epsilon=1e-5):
    """The oracle without replay: every probe is a full network(x) call."""
    x = Tensor(np.asarray(input_values, dtype=np.float64))
    store = backward(network(x))
    worst = 0.0
    for _name, param in network.parameters():
        analytic = store[param].reshape(-1)
        flat = param.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            with no_grad():
                upper = float(network(x).data)
            flat[i] = saved - epsilon
            with no_grad():
                lower = float(network(x).data)
            flat[i] = saved
            numeric = (upper - lower) / (2.0 * epsilon)
            denom = max(abs(analytic[i]), abs(numeric), 1e-12)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


class CountingNet:
    """Delegates to a network and counts its calls."""

    def __init__(self, network):
        self.network = network
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.network(x)

    def parameters(self):
        return self.network.parameters()


def randomized_objective(seed, phi=0.0, rows=1):
    model = build_model(plan_scaling(phi), seed=0)
    rng = np.random.default_rng(seed)
    for _, tensor in model.parameters():
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    image = rng.uniform(0.0, 1.0, size=(rows, 3, model.input_resolution, model.input_resolution))
    return ClassificationObjective(model, label=seed % 2), image


def recorded_replays(monkeypatch):
    """Record (probed tensor, length of the leading slot axis) for every replay gradient_check makes."""
    replays = []
    real_replay = autodiff._replay

    def recording_replay(source, nodes, value):
        replays.append((source, len(value)))
        return real_replay(source, nodes, value)

    monkeypatch.setattr(autodiff, "_replay", recording_replay)
    return replays


def slots_by_tensor(replays, network):
    """{parameter name: sorted set of slot counts its replays used}."""
    names = {id(tensor): name for name, tensor in network.parameters()}
    found = {}
    for source, slots in replays:
        found.setdefault(names[id(source)], set()).add(slots)
    return {name: sorted(counts) for name, counts in found.items()}


@pytest.mark.parametrize("seed", [0, 41, 97])
def test_replayed_oracle_matches_full_calls_bit_for_bit_on_two_conv_nets(monkeypatch, seed):
    net, x = smooth_state(seed)
    replays = recorded_replays(monkeypatch)
    assert gradient_check(net, x) == full_call_gradient_check(net, x)
    # every tensor's probes replay stacked, in slots
    used = slots_by_tensor(replays, net)
    assert set(used) == {name for name, _ in net.parameters()}
    assert all(min(counts) > 1 for counts in used.values())


def test_replayed_oracle_matches_full_calls_bit_for_bit_on_default_model(monkeypatch):
    objective, image = randomized_objective(5)
    replays = recorded_replays(monkeypatch)
    assert gradient_check(objective, image) == full_call_gradient_check(objective, image)
    used = slots_by_tensor(replays, objective)
    # the guard and every chunk, the padded last one included, share one shape
    for name, tensor in objective.parameters():
        assert len(used[name]) == 1 and used[name][0] > 1
        assert sum(1 for source, _ in replays if source is tensor) == 1 + -(-2 * tensor.size // used[name][0])


def test_replayed_oracle_stacks_a_single_slot_when_one_copy_fills_the_budget(monkeypatch):
    # at phi = 1 the values downstream of conv0 take about 310 kB per slot, so
    # a second slot would exceed _STACK_BYTES
    objective, image = randomized_objective(5, phi=1.0)
    replays = recorded_replays(monkeypatch)
    counting = CountingNet(objective)
    assert gradient_check(counting, image) == full_call_gradient_check(objective, image)
    used = slots_by_tensor(replays, objective)
    assert used["conv0.kernels"] == used["conv0.bias"] == [1]
    assert all(used[name][0] > 1 for name in used if not name.startswith("conv0."))
    # every tensor replays: the recording, then one guard call per tensor
    assert counting.calls == 1 + len(objective.parameters()) == 1 + 6


def test_replayed_oracle_calls_the_network_once_per_parameter_tensor():
    objective, image = randomized_objective(6)
    counting = CountingNet(objective)
    gradient_check(counting, image)
    tensors = objective.parameters()
    assert sum(p.size for _, p in tensors) == 1426
    # one recording, then one guard call per tensor; every probe is replayed
    assert counting.calls == 1 + len(tensors) == 1 + 6


@pytest.mark.parametrize("rows", [5, 13])
def test_replayed_oracle_stacks_every_tensor_of_a_multi_row_input(monkeypatch, rows):
    # the dense replay splits its folded rows by the recorded row count, and
    # the loss's replay sums 13 rows per slot, in the recording's order
    objective, images = randomized_objective(7, rows=rows)
    replays = recorded_replays(monkeypatch)
    counting = CountingNet(objective)
    assert gradient_check(counting, images) == full_call_gradient_check(objective, images)
    assert set(slots_by_tensor(replays, objective)) == {name for name, _ in objective.parameters()}
    assert max(slots_by_tensor(replays, objective)["head.weights"]) > 1
    # the recording, then one guard call per tensor; every probe is replayed
    assert counting.calls == 1 + len(objective.parameters()) == 1 + 6


class LeakyBiasNet(LinearNet):
    """The bias reads a weight off the tape, so replay alone misses part of dL/dw."""

    def __init__(self, k):
        super().__init__()
        self.k = k

    def __call__(self, x):
        return reduce_sum(dense(x, self.w, Tensor(3 * self.w.data[self.k])))

    def parameters(self):
        return [("w", self.w)]


@pytest.mark.parametrize("k, expected", [(0, 3.0 / 3.7), (1, 3.0 / 2.7)])
def test_replayed_oracle_still_sees_a_parameter_read_off_the_tape(k, expected):
    # analytic dL/dw = x; the full call also sees the bias move by 3 per unit of w[k]
    error = gradient_check(LeakyBiasNet(k), np.array([[0.7, -0.3]]))
    assert error >= 0.5
    assert error == pytest.approx(expected, rel=1e-6)


class TrainDropoutNet:
    """dense -> train-mode dropout -> dense -> softmax loss; the mask is reseeded on every call."""

    def __init__(self):
        rng = np.random.default_rng(3)
        self.w0 = leaf(rng.normal(size=(2, 6)))
        self.b0 = leaf(rng.normal(size=(6,)))
        self.w1 = leaf(rng.normal(size=(6, 2)))
        self.b1 = leaf(rng.normal(size=(2,)))

    def __call__(self, x):
        hidden = dropout(dense(x, self.w0, self.b0), 0.5, "train", Lcg(7))
        return softmax_cross_entropy(dense(hidden, self.w1, self.b1), [1])

    def parameters(self):
        return [("w0", self.w0), ("b0", self.b0), ("w1", self.w1), ("b1", self.b1)]


def test_replayed_oracle_falls_back_to_full_calls_through_train_dropout(monkeypatch):
    x = np.array([[0.7, -0.3]])
    replays = recorded_replays(monkeypatch)
    counting = CountingNet(TrainDropoutNet())
    worst = gradient_check(counting, x)
    assert worst == full_call_gradient_check(TrainDropoutNet(), x)
    # w0 and b0 sit before the dropout: two full calls per component and no
    # replay; w1 and b1 replay stacked after one guard call each
    assert counting.calls == 1 + 2 * (12 + 6) + 2
    assert set(slots_by_tensor(replays, counting)) == {"w1", "b1"}


class LearnableImageNet(TwoConvNet):
    """TwoConvNet whose first conv reads a learnable image, probed like any parameter."""

    def __init__(self, seed):
        super().__init__(seed)
        self.image = leaf(np.random.default_rng(seed + 1000).uniform(0.0, 1.0, size=(1, 2, 8, 8)))

    def __call__(self, x):
        return super().__call__(self.image)

    def parameters(self):
        return [("image", self.image), *super().parameters()]


@pytest.mark.parametrize("seed", [0, 41])
def test_replayed_oracle_rebuilds_the_patch_matrix_of_a_probed_conv_input(monkeypatch, seed):
    counting = CountingNet(LearnableImageNet(seed))
    unused = np.zeros(1)
    replays = recorded_replays(monkeypatch)
    assert gradient_check(counting, unused) == full_call_gradient_check(LearnableImageNet(seed), unused)
    # a replay that reused the image's recorded patches would fail the guard
    # and fall back to two full calls per image component
    assert counting.calls == 1 + len(counting.parameters()) == 1 + 7
    # the image's probes replay stacked, folded into the first conv's batch
    assert min(slots_by_tensor(replays, counting)["image"]) > 1


def test_replayed_oracle_reruns_conv2d_only_where_its_input_changed(monkeypatch):
    objective, image = randomized_objective(7)
    unrecorded_inputs = []
    real_conv2d = autodiff.conv2d

    def counting_conv2d(x, *args):
        if not autodiff._grad_enabled:
            unrecorded_inputs.append(x.shape[1])
        return real_conv2d(x, *args)

    monkeypatch.setattr(autodiff, "conv2d", counting_conv2d)
    replays = recorded_replays(monkeypatch)
    gradient_check(objective, image)
    tensors = objective.parameters()
    conv0 = [(name, p) for name, p in tensors if name.startswith("conv0.")]
    assert sum(p.size for _, p in conv0) == 8 * 3 * 3 * 3 + 8
    # conv0 (3 input channels) runs only in the guard's six full calls; conv1
    # (8 input channels) also reruns in the replays of conv0's two tensors:
    # one stacked guard replay each, then one stacked replay per chunk of
    # probes, all with the same number of slots
    conv0_replays = 0
    for _, tensor in conv0:
        slots = [count for source, count in replays if source is tensor]
        assert len(set(slots)) == 1 and slots[0] > 1
        assert len(slots) == 1 + -(-2 * tensor.size // slots[0])
        conv0_replays += len(slots)
    assert unrecorded_inputs.count(3) == len(tensors) == 6
    assert unrecorded_inputs.count(8) == len(tensors) + conv0_replays


class WideHeadNet:
    """A dense head over 1,000 features: a large probed tensor with almost nothing downstream."""

    def __init__(self):
        rng = np.random.default_rng(11)
        self.w = leaf(rng.normal(0.0, 0.05, size=(1000, 2)))
        self.b = leaf(rng.normal(0.0, 0.05, size=(2,)))

    def __call__(self, x):
        return softmax_cross_entropy(dense(x, self.w, self.b), [1])

    def parameters(self):
        return [("w", self.w), ("b", self.b)]


def test_stacked_replays_count_the_probed_tensor_against_the_budget(monkeypatch):
    values = []
    real_replay = autodiff._replay

    def measuring_replay(source, nodes, value):
        values.append(value.nbytes)
        return real_replay(source, nodes, value)

    monkeypatch.setattr(autodiff, "_replay", measuring_replay)
    x = np.random.default_rng(12).uniform(0.0, 1.0, size=(1, 1000))
    assert gradient_check(WideHeadNet(), x) == full_call_gradient_check(WideHeadNet(), x)
    # counting only the values downstream, w's 4,000 probes would share one
    # 4,000-slot stack of 16 kB copies
    assert max(values) <= autodiff._STACK_BYTES


class ScaledLinearNet(LinearNet):
    """LinearNet with its output scaled by multiply, which refuses operands of two shapes."""

    def __call__(self, x):
        return reduce_sum(multiply(dense(x, self.w, self.b), Tensor([[0.5]])))


@pytest.mark.parametrize("net", [LinearNet, ScaledLinearNet])
def test_oracle_takes_full_calls_through_an_op_that_cannot_stack(monkeypatch, net):
    # reduce_sum sums every slot into one scalar and multiply raises on the
    # stacked operand, so the stacked guard fails either way
    replays = recorded_replays(monkeypatch)
    counting = CountingNet(net())
    assert gradient_check(counting, np.array([[0.7, -0.3]])) == full_call_gradient_check(net(), [[0.7, -0.3]])
    # the recording, then per tensor the guard call and two full calls per component
    assert counting.calls == 1 + (1 + 2 * 2) + (1 + 2 * 1)
    # the stacked guard replay is each tensor's only replay
    assert replays == [(counting.network.w, 4), (counting.network.b, 2)]


def stale_last_slot(x) -> Tensor:
    """Identity whose rerun, given slots, feeds the last one its recorded input."""
    x = _as_tensor(x)
    out = Tensor(x.data.copy())
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            _accumulate(x, grad)

        recorded = x.data.copy()

        def _rerun(a: Tensor) -> Tensor:
            data = a.data.copy()
            if len(data) > len(recorded):
                data[-len(recorded) :] = recorded
            return Tensor(data)

        _attach(out, "stale_last_slot", (x,), _backward, _rerun)
    return out


class StaleSlotNet(TwoConvNet):
    def __call__(self, x):
        h = relu(conv2d(x, self.k0, self.b0, 2, 1))
        h = stale_last_slot(relu(conv2d(h, self.k1, self.b1, 2, 1)))
        return softmax_cross_entropy(dense(global_average_pool(h), self.w, self.bw), [1])


def test_stacked_guard_refuses_a_replay_that_feeds_one_slot_stale_data(monkeypatch):
    net, x = smooth_state(0)
    stale = StaleSlotNet(0)
    for (_, mine), (_, theirs) in zip(stale.parameters(), net.parameters()):
        mine.data = theirs.data.copy()
    replays = recorded_replays(monkeypatch)
    counting = CountingNet(stale)
    assert gradient_check(counting, x) == full_call_gradient_check(net, x)
    # the tensors upstream of the stale op take two full calls per component
    # after their stacked guard fails; w and bw sit downstream of it and stack
    upstream = [stale.k0, stale.b0, stale.k1, stale.b1]
    assert counting.calls == 1 + 6 + 2 * sum(tensor.size for tensor in upstream)
    for tensor in upstream:
        assert sum(1 for source, _ in replays if source is tensor) == 1
    for tensor in (stale.w, stale.bw):
        slots = [count for source, count in replays if source is tensor]
        assert len(slots) == 1 + -(-2 * tensor.size // slots[0])


def test_select_and_multiply_contracts():
    x = leaf([1.0, 2.0, 3.0])
    picked = select(x, 2)
    assert float(picked.data) == 3.0
    store = backward(picked)
    assert np.array_equal(store[x], [0.0, 0.0, 1.0])
    with pytest.raises(IndexError):
        select(x, 3)
    with pytest.raises(ShapeMismatchError):
        multiply(x, Tensor(np.ones(2)))
