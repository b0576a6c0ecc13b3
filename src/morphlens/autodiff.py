"""Tape-based reverse-mode automatic differentiation on float64 arrays.

The tape is implicit: each operation returns a Tensor holding references to
its inputs plus a closure that pushes gradients back to them. backward()
walks that graph once in reverse topological order and recomputes gradients
from scratch on every call, so repeated calls on the same tape agree. A
closure hands each contribution to _accumulate: the first one a node gets
is stored, later ones are added in place, so no gradient is zero-filled
before it is written. The result has the bits of zeros plus each
contribution in turn.

A conv's input gradient is one np.bincount per sample over the patch
matrix's gradient (col2im; the im2col unfolding is Chellapilla, Puri &
Simard, 2006): a cached index maps each patch entry to its input cell, and
bincount adds each cell's taps in the order the patch matrix holds them.

A closure reaches its own output only through a weak reference, so the tape
holds no reference cycle: it is freed by reference counting as soon as the
last tensor of it is dropped, without waiting for the cyclic collector.

Each node also records how to rerun itself: the op applied to new parent
tensors, with the op's other arguments fixed. gradient_check uses that to
replay a recorded tape: the probes of one parameter rerun only the nodes
downstream of it, stacked along a leading slot axis, and read every other
value from the recording, the way ADOL-C re-evaluates a taped function at
new inputs (Griewank & Walther, Evaluating Derivatives, 2008). A conv node
rerun on its recorded input reuses the patch matrix its backward keeps, and
the loss node reuses the labels it checked when recorded. A tape that
cannot replay a parameter's slots is refused: train-mode dropout records
no rerun, since its mask comes from a generator, and neither does select,
whose scalar has no slot axis.
"""

from __future__ import annotations

import contextlib
import functools
import math
import weakref
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ArchitectureError, MorphLensError, NotScalarError, ShapeMismatchError

# The process's one heap policy, set at import: glibc gives a freed heap top
# back to the OS once it exceeds twice the largest mmap-sized block freed so
# far (mallopt(3)), so a train step, a stacked replay or an explain request
# would fault its pages in anew on every pass. Freeing one untouched 16 MiB
# block lifts that limit: without it a fresh default train takes 102k-117k
# minor faults and an audit of the default model 29k.
np.empty(1 << 24, np.uint8)

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


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate from a scalar loss; returns {leaf tensor: gradient} for every leaf reached.

    Gradients are zeroed and recomputed on entry, so calling backward twice
    on the same tape yields identical results.
    """
    if loss.data.size != 1:
        raise NotScalarError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo = _tape_order(loss)
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        # every consumer of node ran before it; one that got no contribution gets zeros
        if node.grad is None:
            node.grad = np.zeros(node.data.shape)
        if node._backward is not None:
            node._backward()
    return {node: node.grad for node in topo if node._backward is None}


def _accumulate(node: Tensor, value, owned: bool = False) -> None:
    """Add value to node's gradient: the first contribution is stored, later ones are added in place.

    The first write adds 0.0, as adding value into zeros would: -0.0 becomes
    +0.0. It goes to a new array of node's shape, which value broadcasts to,
    since value may be another node's data or gradient. owned says value is
    a new array of node's shape that nothing else holds: the first write
    then adds 0.0 in place and keeps it, sparing an allocation.
    """
    if node.grad is None:
        node.grad = np.add(value, 0.0, out=value if owned else np.empty(node.data.shape))
    else:
        node.grad += value


@functools.lru_cache(maxsize=32)
def _col2im_index(c_in: int, height: int, width: int, k_h: int, k_w: int, stride: int, padding: int) -> np.ndarray:
    """For one sample, the flat cell of the unpadded input each patch-matrix entry reads.

    Entries are in the patch matrix's (channel, ki, kj, oh, ow) order. A tap
    that reads padding maps to one extra dump bin, c_in * height * width.
    """
    out_h = (height + 2 * padding - k_h) // stride + 1
    out_w = (width + 2 * padding - k_w) // stride + 1
    rows = (np.arange(k_h)[:, None] + stride * np.arange(out_h) - padding)[:, None, :, None]
    cols = (np.arange(k_w)[:, None] + stride * np.arange(out_w) - padding)[None, :, None, :]
    inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    cells = height * width
    channel = np.arange(c_in)[:, None, None, None, None] * cells
    index = np.where(inside, channel + rows * width + cols, c_in * cells).astype(np.intp).reshape(-1)
    index.flags.writeable = False
    return index


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
    taps, cells_out = c_in * k_h * k_w, out_h * out_w
    if padding:
        padded = np.empty((batch, c_in, height + 2 * padding, width + 2 * padding))
        # only the border needs zeros: the copy of x fills the rest
        inner_rows = slice(padding, padding + height)
        padded[:, :, :padding] = padded[:, :, padding + height :] = 0.0
        padded[:, :, inner_rows, :padding] = padded[:, :, inner_rows, padding + width :] = 0.0
        padded[:, :, inner_rows, padding : padding + width] = x.data
    else:
        padded = x.data
    # Channel-major im2col: per sample, the patch matrix is (c_in·kH·kW) × (oh·ow).
    # Each gathered run is a whole output row rather than kW values, and one
    # GEMM per sample with the flat kernels lands the product in NCHW order.
    s_b, s_c, s_h, s_w = padded.strides
    windows = as_strided(
        padded,
        shape=(batch, c_in, k_h, k_w, out_h, out_w),
        strides=(s_b, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )
    cols = np.empty((batch, taps, cells_out))
    np.copyto(cols.reshape(windows.shape), windows)
    flat_kernels = kernels.data.reshape(c_out, -1)
    acc = np.matmul(flat_kernels, cols)
    acc += bias.data[:, None]
    out = Tensor(acc.reshape(batch, c_out, out_h, out_w))
    if _recording((x, kernels, bias)):

        def _backward(grad: np.ndarray) -> None:
            if bias.requires_grad:
                _accumulate(bias, grad.sum(axis=(0, 2, 3)), owned=True)
            rows = grad.reshape(batch, c_out, cells_out)
            if kernels.requires_grad:
                summed = np.matmul(rows, cols.transpose(0, 2, 1)).sum(axis=0)
                _accumulate(kernels, summed.reshape(kernels.shape), owned=True)
            if x.requires_grad:
                index = _col2im_index(c_in, height, width, k_h, k_w, stride, padding)
                cells = c_in * height * width
                first = x.grad is None
                if first:
                    x.grad = np.empty(x.shape)
                # col2im: each cell sums its taps from 0.0 in (ki, kj) order, as
                # adding the taps' strided blocks into a zeroed grid did. Every
                # sample reuses one buffer, so no patch gradient spans the batch.
                d_cols = np.empty(cols.shape[1:])
                for sample, d_rows in zip(x.grad, rows):
                    np.matmul(flat_kernels.T, d_rows, out=d_cols)
                    sums = np.bincount(index, d_cols.reshape(-1), minlength=cells + 1)[:cells]
                    if first:
                        sample[...] = sums.reshape(c_in, height, width)
                    else:
                        sample += sums.reshape(c_in, height, width)

        def _rerun(a: Tensor, k: Tensor, b: Tensor) -> Tensor:
            if a is not x:
                # a new input, with any replay slots folded into its batch axis
                return conv2d(Tensor(a.data.reshape(-1, c_in, height, width)), k, b, stride, padding)
            # The recorded input has the same patch matrix. Kernels stacked as
            # (slots, c_out, ...) or a bias as (slots, c_out) give one output
            # per slot and sample, each slot the recording's own GEMMs.
            per_slot = k.data.reshape(-1, 1, c_out, cols.shape[1]) @ cols
            per_slot = per_slot + b.data.reshape(-1, 1, c_out, 1)
            return Tensor(per_slot.reshape(-1, c_out, out_h, out_w))

        _attach(out, "conv2d", (x, kernels, bias), _backward, _rerun)
    return out


def relu(x) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is taken as 0."""
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    if _recording((x,)):
        mask = x.data > 0

        def _backward(grad: np.ndarray) -> None:
            _accumulate(x, grad * mask, owned=True)

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
    # sum / cells is np.mean's own arithmetic, without its dispatch overhead
    out = Tensor(x.data.sum(axis=(2, 3)) / cells)
    if _recording((x,)):

        def _backward(grad: np.ndarray) -> None:
            # every cell receives exactly upstream / cells: divide once, broadcast
            _accumulate(x, (grad / cells)[:, :, None, None])

        _attach(out, "global_average_pool", (x,), _backward, global_average_pool)
    return out


def _affine(rows: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """rows @ weights + bias, each row its own product: one GEMM over many rows may round a row by their count."""
    return (rows[..., None, :] @ weights)[..., 0, :] + bias


def dense(x, weights, bias) -> Tensor:
    """Affine map x @ weights + bias over a batch of rows; a row's output is the same bits at any batch size."""
    x, weights, bias = _as_tensor(x), _as_tensor(weights), _as_tensor(bias)
    if weights.data.ndim != 2:
        raise ShapeMismatchError(f"dense weights must be 2-D (in, out), got {weights.data.shape}")
    rows = x.data
    if rows.ndim != 2:
        raise ShapeMismatchError(f"dense input must be 2-D (batch, features), got {x.data.shape}")
    f_in, f_out = weights.shape
    if rows.shape[1] != f_in:
        raise ShapeMismatchError(f"dense: input has {rows.shape[1]} features, weights expect {f_in}")
    if bias.shape != (f_out,):
        raise ShapeMismatchError(f"dense: bias shape {bias.shape} does not match {f_out} outputs")
    out = Tensor(_affine(rows, weights.data, bias.data))
    if _recording((x, weights, bias)):

        def _backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                _accumulate(x, grad @ weights.data.T, owned=True)
            if weights.requires_grad:
                _accumulate(weights, rows.T @ grad, owned=True)
            if bias.requires_grad:
                _accumulate(bias, grad.sum(axis=0), owned=True)

        def _rerun(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
            # A replay folds its slots into a's rows, or stacks w as (slots,
            # in, out) or b as (slots, out), and gets (slots·rows, out) back.
            w_slots, b_slots = w.data.reshape(-1, 1, f_in, f_out), b.data.reshape(-1, 1, f_out)
            return Tensor(_affine(a.data.reshape(-1, len(rows), f_in), w_slots, b_slots).reshape(-1, f_out))

        _attach(out, "dense", (x, weights, bias), _backward, _rerun)
    return out


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under a softmax.

    Stabilized via the log-sum-exp shift, so saturated logits neither
    overflow nor produce NaN. logits are (batch, classes) and labels hold
    one class index per row.
    """
    logits = _as_tensor(logits)
    z = logits.data
    if z.ndim != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy logits must be 2-D (batch, classes), got {z.shape}")
    label_array = np.asarray(labels, dtype=np.int64)
    n, classes = z.shape
    if label_array.shape != (n,):
        raise ShapeMismatchError(f"softmax_cross_entropy: {n} logit rows but labels shape {label_array.shape}")
    if (label_array < 0).any() or (label_array >= classes).any():
        raise ValueError(f"label out of range [0, {classes})")
    log_probs = _log_softmax(z)
    row_index = np.arange(n)
    # sum / n is np.mean's own arithmetic, as in global_average_pool
    out = Tensor(-log_probs[row_index, label_array].sum() / n)
    if _recording((logits,)):

        def _backward(grad: np.ndarray) -> None:
            grad_z = np.exp(log_probs)
            grad_z[row_index, label_array] -= 1.0
            grad_z /= n
            grad_z *= grad
            _accumulate(logits, grad_z, owned=True)

        def _rerun(a: Tensor) -> Tensor:
            # One mean per slot that a replay folded into the rows. The labels
            # were checked when this node was recorded; a replay keeps them.
            # Made contiguous, each slot's n values sum in the recording's order.
            per_slot = _log_softmax(a.data.reshape(-1, classes)).reshape(-1, n, classes)
            return Tensor(-np.ascontiguousarray(per_slot[:, row_index, label_array]).sum(axis=1) / n)

        _attach(out, "softmax_cross_entropy", (logits,), _backward, _rerun)
    return out


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of 2-D logits, shifted by each row's max."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


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
            _accumulate(x, grad * keep * scale, owned=True)

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
            if x.grad is None:  # one element is written, so the rest must be zeros
                x.grad = np.zeros(x.shape)
            x.grad.reshape(-1)[index] += float(grad)

        _attach(out, "select", (x,), _backward, None)  # a scalar has no slot axis to replay
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


def _replay(source: Tensor, nodes: Sequence[Tensor], value: np.ndarray) -> np.ndarray:
    """The last node's value when nodes rerun in order with source set to each slot of value.

    value holds one value of source per slot, (slots, *source.shape), and
    every slot replays at once: the values downstream carry the slots folded
    into their batch axis, and the loss comes back as one value per slot. A
    parent outside nodes keeps its recorded value. value reaches the nodes
    as a new Tensor, so no node takes it for its recorded (and unchanged)
    input and reuses a value derived from the old data.
    """
    last_reader = {id(parent): node for node in nodes for parent in node._parents}
    fresh: dict[int, Tensor] = {id(source): Tensor(value)}
    for node in nodes:
        out = node._rerun(*[fresh.get(id(parent), parent) for parent in node._parents])
        for parent in node._parents:
            if last_reader[id(parent)] is node:
                fresh.pop(id(parent), None)  # free each value once its last reader reran
        fresh[id(node)] = out
    return out.data


# Bytes one stacked replay may hold copies of: the probed tensor plus the
# recorded values downstream of it, once per slot. It sets how many probes
# share a replay.
_STACK_BYTES = 1 << 19


def _slot_count(param: Tensor, nodes: Sequence[Tensor]) -> int:
    """Slots per stacked replay of param's probes: as many as the budget allows, spread evenly over the chunks."""
    probes = 2 * param.size
    per_slot = param.data.nbytes + sum(node.data.nbytes for node in nodes)
    most = max(1, min(probes, _STACK_BYTES // per_slot))
    chunks = -(-probes // most)
    return -(-probes // chunks)


def _probe_losses(name: str, param: Tensor, nodes: Sequence[Tensor], full_call, epsilon: float) -> np.ndarray:
    """The loss at each probe of param: probe k < size adds epsilon to component k, probe size + k subtracts it.

    The probes replay stacked, in chunks. The guard shifts every component
    by epsilon at once and makes one full call; a stack of copies of that
    state must replay to the full call's loss in every slot. A tape that
    cannot, or a param with nothing downstream, is an ArchitectureError
    naming name, raised with param's data as it was.
    """
    refused = f"gradient_check cannot replay parameter {name!r}"
    if not nodes:
        raise ArchitectureError(f"{refused}: no op on the tape reads it")
    for node in nodes:
        if node._rerun is None:
            raise ArchitectureError(f"{refused}: op {node.op!r} records no rerun")
    flat = param.data.reshape(-1)
    size = flat.size
    slots = _slot_count(param, nodes)
    original = flat.copy()
    flat += epsilon
    try:
        expected = full_call()
        try:
            got = _replay(param, nodes, np.tile(flat, (slots, 1)).reshape(slots, *param.shape))
        except (MorphLensError, ValueError) as exc:  # an op that cannot take stacked slots
            raise ArchitectureError(f"{refused}: a stacked replay raised {type(exc).__name__}: {exc}") from None
    finally:
        flat[:] = original
    if got.shape != (slots,) or not (got == expected).all():
        raise ArchitectureError(f"{refused}: a stacked replay does not give the full call's loss in every slot")
    # the last chunk's unused slots keep the recorded values, so every
    # replay has the shape the guard checked
    shifted = np.concatenate([flat + epsilon, flat - epsilon])
    losses = np.empty(2 * size)
    stack = np.tile(flat, (slots, 1))
    for start in range(0, 2 * size, slots):
        probes = np.arange(start, min(start + slots, 2 * size))
        used, columns = np.arange(len(probes)), probes % size
        stack[used, columns] = shifted[probes]
        losses[probes] = _replay(param, nodes, stack.reshape(slots, *param.shape))[: len(probes)]
        stack[used, columns] = flat[columns]
    return losses


def gradient_check(network, input_values, epsilon: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    network must be callable as network(Tensor) -> scalar Tensor and expose
    parameters() yielding (name, Tensor) pairs. Every parameter component is
    probed with a central difference at +-epsilon and compared against the
    tape gradient as |analytic - numeric| / max(|analytic|, |numeric|, 1e-12);
    the max over all components is returned. A component whose analytic or
    numeric gradient is NaN or infinite rates inf, and the check returns inf
    at the first tensor that holds one. An epsilon that is not finite and
    positive is a ValueError.

    The loss is recorded once. The probes of a parameter tensor then replay
    only the tape nodes downstream of the tensor, under no_grad, with the
    same op functions, and every other node keeps its recorded value, so
    each probed loss equals the one a full network(x) call gives. The tensor
    gets a leading slot axis, one probe per slot, with as many slots (one or
    more) as copies of the tensor and of the recorded values downstream fit
    _STACK_BYTES, and every slot runs the whole downstream forward with its
    own parameter value. The probed tensor reaches the replay as a new
    Tensor, so a conv that reads it rebuilds its patch matrix. Per tensor,
    one full call at every component shifted by epsilon guards the replay
    (see _probe_losses), so a check makes 1 + T network calls for T
    parameter tensors. It raises ArchitectureError, naming the tensor, when
    a node downstream cannot be replayed (train-mode dropout, select) or
    cannot take slots, when the loss also reads the tensor off the tape, or
    when no op on the tape reads it (the loss is the tensor itself, or does
    not depend on it).
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    x = Tensor(np.asarray(input_values, dtype=np.float64))
    loss = network(x)
    store = backward(loss)
    order = _tape_order(loss)

    def full_call() -> float:
        return float(network(x).data)

    worst = 0.0
    with no_grad():
        for name, param in network.parameters():
            losses = _probe_losses(name, param, _downstream(order, param), full_call, epsilon)
            analytic = store[param].reshape(-1)
            numeric = (losses[: analytic.size] - losses[analytic.size :]) / (2.0 * epsilon)
            if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
                return math.inf
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
            errors = np.abs(analytic - numeric) / denom
            worst = float(errors.max(initial=worst))
    return worst
