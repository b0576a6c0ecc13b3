"""Tape-based reverse-mode automatic differentiation on float64 arrays.

The tape is implicit: each operation returns a Tensor holding references to
its inputs plus a closure that pushes gradients back to them. backward()
walks that graph once in reverse topological order and recomputes gradients
from scratch on every call, so repeated calls on the same tape agree.

A closure reaches its own output only through a weak reference, so the tape
holds no reference cycle: it is freed by reference counting as soon as the
last tensor of it is dropped, without waiting for the cyclic collector.

Each node also records how to rerun itself: the op applied to new parent
tensors, with the op's other arguments fixed. gradient_check uses that to
replay a recorded tape: a probe of one parameter reruns only the nodes
downstream of it and reads every other value from the recording, the way
ADOL-C re-evaluates a taped function at new inputs (Griewank & Walther,
Evaluating Derivatives, 2008). Train-mode dropout records no rerun, since
its mask comes from a generator; a tape holding one falls back to full
network calls, as does a network that reads a parameter off the tape.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NotScalarError, ShapeMismatchError

_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """N-dimensional float64 array with a gradient slot and tape links."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_rerun", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op: str | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None
        self._rerun: Callable[..., Tensor] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _recording(parents: Sequence[Tensor]) -> bool:
    return _grad_enabled and any(p.requires_grad for p in parents)


def _attach(
    out: Tensor,
    op: str,
    parents: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], None],
    rerun: Callable[..., Tensor] | None,
) -> None:
    """Record out on the tape; backward_fn receives out's gradient when called.

    rerun(*parents) recomputes out from (possibly different) parent tensors,
    or is None when the op cannot be replayed exactly.
    """
    out.requires_grad = True
    out.op = op
    out._parents = tuple(parents)
    out._rerun = rerun
    output = weakref.ref(out)
    out._backward = lambda: backward_fn(output().grad)


class GradientStore:
    """Leaf gradients from one backward pass, keyed by tensor identity."""

    def __init__(self, grads: dict[Tensor, np.ndarray]):
        self._grads = grads

    def __getitem__(self, tensor: Tensor) -> np.ndarray:
        try:
            return self._grads[tensor]
        except KeyError:
            raise KeyError("tensor did not participate in the backward pass") from None

    def get(self, tensor: Tensor, default=None):
        return self._grads.get(tensor, default)

    def __contains__(self, tensor: Tensor) -> bool:
        return tensor in self._grads

    def __len__(self) -> int:
        return len(self._grads)

    def items(self):
        return self._grads.items()


def _tape_order(loss: Tensor) -> list[Tensor]:
    """Every node that loss depends on through the tape, parents before children."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return topo


def backward(loss: Tensor) -> GradientStore:
    """Propagate from a scalar loss; returns gradients for every leaf reached.

    Gradients are zeroed and recomputed on entry, so calling backward twice
    on the same tape yields identical results.
    """
    if loss.data.size != 1:
        raise NotScalarError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo = _tape_order(loss)
    for node in topo:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward()
    leaves = {node: node.grad for node in topo if node._backward is None}
    return GradientStore(leaves)


def conv2d(x, kernels, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over a batch x channels x H x W input."""
    x, kernels, bias = _as_tensor(x), _as_tensor(kernels), _as_tensor(bias)
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d input must be 4-D (batch, channels, H, W), got {x.data.shape}")
    if kernels.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d kernels must be 4-D (out, in, kH, kW), got {kernels.data.shape}")
    batch, c_in, height, width = x.shape
    c_out, c_kin, k_h, k_w = kernels.shape
    if c_kin != c_in:
        raise ShapeMismatchError(f"conv2d: kernels expect {c_kin} input channels, input has {c_in}")
    if bias.shape != (c_out,):
        raise ShapeMismatchError(f"conv2d: bias shape {bias.shape} does not match {c_out} output channels")
    if stride < 1:
        raise ValueError(f"conv2d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d padding must be >= 0, got {padding}")
    out_h = (height + 2 * padding - k_h) // stride + 1
    out_w = (width + 2 * padding - k_w) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeMismatchError(
            f"conv2d: kernel {k_h}x{k_w} exceeds padded input {height + 2 * padding}x{width + 2 * padding}"
        )
    padded_shape = (batch, c_in, height + 2 * padding, width + 2 * padding)
    if padding:
        padded = np.zeros(padded_shape)
        padded[:, :, padding : padding + height, padding : padding + width] = x.data
    else:
        padded = x.data
    # Channel-major im2col: per sample, the patch matrix is (c_in·kH·kW) × (oh·ow).
    # Each gathered run is a whole output row rather than kW values, and one
    # stacked GEMM with the flat kernels lands the product in NCHW order.
    s_b, s_c, s_h, s_w = padded.strides
    windows = as_strided(
        padded,
        shape=(batch, c_in, k_h, k_w, out_h, out_w),
        strides=(s_b, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )
    cols = windows.reshape(batch, c_in * k_h * k_w, out_h * out_w)
    flat_kernels = kernels.data.reshape(c_out, -1)
    acc = (flat_kernels @ cols).reshape(batch, c_out, out_h, out_w)
    acc += bias.data[None, :, None, None]
    out = Tensor(acc)
    if _recording((x, kernels, bias)):

        def _backward(grad: np.ndarray) -> None:
            if bias.requires_grad:
                bias.grad += grad.sum(axis=(0, 2, 3))
            rows = grad.reshape(batch, c_out, out_h * out_w)
            if kernels.requires_grad:
                kernels.grad += (rows @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
            if x.requires_grad:
                # col2im: scatter each tap's (B, C, oh, ow) block back onto the padded grid
                d_cols = (flat_kernels.T @ rows).reshape(batch, c_in, k_h, k_w, out_h, out_w)
                grad_padded = np.zeros(padded_shape)
                for ki in range(k_h):
                    for kj in range(k_w):
                        grad_padded[
                            :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                        ] += d_cols[:, :, ki, kj]
                x.grad += grad_padded[:, :, padding : padding + height, padding : padding + width]

        _attach(
            out, "conv2d", (x, kernels, bias), _backward, lambda a, k, b: conv2d(a, k, b, stride, padding)
        )
    return out


def relu(x) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is taken as 0."""
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    if _recording((x,)):
        mask = x.data > 0

        def _backward(grad: np.ndarray) -> None:
            x.grad += grad * mask

        _attach(out, "relu", (x,), _backward, relu)
    return out


def global_average_pool(x) -> Tensor:
    """Mean over the spatial grid: (batch, K, H, W) -> (batch, K)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"global_average_pool input must be 4-D, got {x.data.shape}")
    _, _, height, width = x.shape
    cells = height * width
    if cells == 0:
        raise ShapeMismatchError("global_average_pool input has an empty spatial grid")
    out = Tensor(x.data.mean(axis=(2, 3)))
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            # every cell receives exactly upstream / cells: divide once, broadcast
            per_cell = grad / cells
            x.grad += np.broadcast_to(per_cell[:, :, None, None], x.shape)

        _attach(out, "global_average_pool", (x,), _backward, global_average_pool)
    return out


def dense(x, weights, bias) -> Tensor:
    """Affine map x @ weights + bias; accepts a single row or a batch of rows."""
    x, weights, bias = _as_tensor(x), _as_tensor(weights), _as_tensor(bias)
    if weights.data.ndim != 2:
        raise ShapeMismatchError(f"dense weights must be 2-D (in, out), got {weights.data.shape}")
    one_d = x.data.ndim == 1
    rows = x.data[None, :] if one_d else x.data
    if rows.ndim != 2:
        raise ShapeMismatchError(f"dense input must be 1-D or 2-D, got {x.data.shape}")
    f_in, f_out = weights.shape
    if rows.shape[1] != f_in:
        raise ShapeMismatchError(f"dense: input has {rows.shape[1]} features, weights expect {f_in}")
    if bias.shape != (f_out,):
        raise ShapeMismatchError(f"dense: bias shape {bias.shape} does not match {f_out} outputs")
    result = rows @ weights.data + bias.data
    out = Tensor(result[0] if one_d else result)
    if _recording((x, weights, bias)):

        def _backward(grad: np.ndarray) -> None:
            if one_d:
                grad = grad[None, :]
            if x.requires_grad:
                down = grad @ weights.data.T
                x.grad += down[0] if one_d else down
            if weights.requires_grad:
                weights.grad += rows.T @ grad
            if bias.requires_grad:
                bias.grad += grad.sum(axis=0)

        _attach(out, "dense", (x, weights, bias), _backward, dense)
    return out


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under a softmax.

    Stabilized via the log-sum-exp shift, so saturated logits neither
    overflow nor produce NaN. labels is an int for 1-D logits or a sequence
    with one class index per row for 2-D logits.
    """
    logits = _as_tensor(logits)
    one_d = logits.data.ndim == 1
    z = logits.data[None, :] if one_d else logits.data
    if z.ndim != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy logits must be 1-D or 2-D, got {logits.data.shape}")
    label_array = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, classes = z.shape
    if label_array.shape != (n,):
        raise ShapeMismatchError(f"softmax_cross_entropy: {n} logit rows but labels shape {label_array.shape}")
    if (label_array < 0).any() or (label_array >= classes).any():
        raise ValueError(f"label out of range [0, {classes})")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    row_index = np.arange(n)
    out = Tensor(-log_probs[row_index, label_array].mean())
    if _recording((logits,)):

        def _backward(grad: np.ndarray) -> None:
            grad_z = np.exp(log_probs)
            grad_z[row_index, label_array] -= 1.0
            grad_z /= n
            grad_z *= grad
            logits.grad += grad_z[0] if one_d else grad_z

        _attach(
            out, "softmax_cross_entropy", (logits,), _backward, lambda a: softmax_cross_entropy(a, label_array)
        )
    return out


def dropout(x, rate: float, mode: str = "train", rng=None) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate).

    Eval mode is the identity and returns the input tensor unchanged.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a seeded generator")
    keep = rng.uniform_array(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = Tensor(x.data * keep * scale)
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            x.grad += grad * keep * scale

        # the mask came from rng, so a rerun would draw a different one
        _attach(out, "dropout", (x,), _backward, None)
    return out


def select(x, index: int) -> Tensor:
    """Pick a single element by flat index as a scalar node."""
    x = _as_tensor(x)
    flat = x.data.reshape(-1)
    if not 0 <= index < flat.size:
        raise IndexError(f"flat index {index} out of range for shape {x.data.shape}")
    out = Tensor(flat[index])
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            x.grad.reshape(-1)[index] += float(grad)

        _attach(out, "select", (x,), _backward, lambda a: select(a, index))
    return out


def reduce_sum(x) -> Tensor:
    """Sum of all elements as a scalar node."""
    x = _as_tensor(x)
    out = Tensor(x.data.sum())
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            x.grad += grad

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
                a.grad += grad * b.data
            if b.requires_grad:
                b.grad += grad * a.data

        _attach(out, "multiply", (a, b), _backward, multiply)
    return out


def _downstream(order: Sequence[Tensor], source: Tensor) -> list[Tensor]:
    """The nodes of order whose value depends on source, in order."""
    reached = {id(source)}
    nodes = []
    for node in order:
        if any(id(parent) in reached for parent in node._parents):
            reached.add(id(node))
            nodes.append(node)
    return nodes


def _replay(nodes: Sequence[Tensor]) -> float:
    """Rerun nodes in order; a parent outside nodes keeps its recorded value."""
    fresh: dict[int, Tensor] = {}
    for node in nodes:
        out = node._rerun(*[fresh.get(id(parent), parent) for parent in node._parents])
        fresh[id(node)] = out
    return float(out.data)


def gradient_check(network, input_values, epsilon: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    network must be callable as network(Tensor) -> scalar Tensor and expose
    parameters() yielding (name, Tensor) pairs. Every parameter component is
    probed with a central difference at +-epsilon and compared against the
    tape gradient as |analytic - numeric| / max(|analytic|, |numeric|, 1e-12);
    the max over all components is returned.

    The loss is recorded once. A probe of a parameter then replays only the
    tape nodes downstream of it, under no_grad, with the same op functions;
    every other node keeps its recorded value, so each probed loss equals the
    one a full network(x) call gives. Two cases get full calls instead, for
    one whole parameter tensor: a downstream node that cannot be replayed
    (train-mode dropout), and a network whose loss also depends on the
    parameter off the tape. The guard for the second case shifts every
    component of the tensor by epsilon at once and requires the replayed
    loss to equal a full call bit for bit.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = Tensor(np.asarray(input_values, dtype=np.float64))
    loss = network(x)
    store = backward(loss)
    order = _tape_order(loss)

    def full_call() -> float:
        return float(network(x).data)

    worst = 0.0
    with no_grad():
        for _name, param in network.parameters():
            analytic = store[param].reshape(-1)
            flat = param.data.reshape(-1)
            nodes = _downstream(order, param)
            probe = full_call
            if nodes and all(node._rerun is not None for node in nodes):
                original = flat.copy()
                flat += epsilon
                if _replay(nodes) == full_call():
                    probe = functools.partial(_replay, nodes)
                flat[:] = original
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + epsilon
                upper = probe()
                flat[i] = saved - epsilon
                lower = probe()
                flat[i] = saved
                numeric = (upper - lower) / (2.0 * epsilon)
                denom = max(abs(analytic[i]), abs(numeric), 1e-12)
                error = abs(analytic[i] - numeric) / denom
                if error > worst:
                    worst = error
    return worst
