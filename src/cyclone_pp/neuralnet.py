"""The post-processing network, its layers and Adam, on numpy alone.

``Network`` is the one topology the package trains: a kh x kw
convolution, softplus, and a 1x1 convolution to the two Gaussian heads.
Convolutions are one BLAS matmul over im2col patch rows (Chellapilla,
Puri & Simard 2006); parameters are Kaiming-initialized float32 and
fitted by Adam over one flat vector. Layers cache their forward inputs
and accumulate parameter gradients in place. A layer can write its
result into a given array. The network runs one block of rows at a
time through three hidden arrays that it reuses; its callers cut their
rows into blocks of ``BLOCK_ROWS`` (``row_blocks``), so nothing of
hidden size grows with the rows, and a training epoch runs forward,
loss and backward one block at a time. The hidden layer and the sigma
head in ``models`` share one softplus kernel, ``softplus_and_slope``.
No external ML framework is involved.

``im2col`` turns a (channels, rows, cols) stack into patch rows: one
row per grid cell, holding the C*kh*kw inputs a kernel sees there. A
2x2 kernel with one-sided (right/bottom) zero padding keeps the spatial
shape. Given a cell mask it builds the rows of those cells only; their
neighbours stay in the columns, so each masked row is exact. Patch rows
and the network's inputs and outputs are 2-D (rows, width) matrices.
Per-cell dense stages are 1x1 convolutions, whose patch rows are the
channels themselves.

BLAS sums a matmul in an order that depends on its thread count, so
``one_blas_thread`` pins numpy's bundled OpenBLAS to one thread while a
fit or a prediction runs: their bits do not depend on
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import base64
import contextlib
import ctypes
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .storage import write_text

ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: the one floating-point type of network parameters and activations
DTYPE = np.float32

#: rows per block of a forward or a training epoch. A numpy prototype of
#: the blocked epoch at 58,520 rows ran fastest at 4,096 (1,024 to 16,384
#: tried); its hidden arrays are then 0.5 MB each at width 32
BLOCK_ROWS = 4096

CHECKPOINT_FORMAT = "cyclone-pp-net/5"
#: a checkpoint's four arrays: the names of ``Network.parameters``, in order
CHECKPOINT_ARRAYS = ("conv_kernels", "conv_bias", "head_kernels", "head_bias")


class TrainingDiverged(ValueError):
    """A loss or gradient stopped being finite; the CLI reports it in one line."""


def softplus_and_slope(x, out=None, slope=None, scratch=None):
    """ln(1 + e^x) and its slope 1 / (1 + e^-x), from one e = exp(-|x|):
    log1p(e) + max(x, 0) and max(e, x > 0) / (1 + e); +-inf give exact
    results and NaN stays NaN. ``out``, ``slope`` and ``scratch`` (new when
    None) are arrays like ``x`` for the softplus, the slope and the
    intermediates; ``out`` may be ``x`` itself. Returns (out, slope)."""
    out = np.empty_like(x) if out is None else out
    slope = np.empty_like(x) if slope is None else slope
    tmp = np.empty_like(x) if scratch is None else scratch
    e = np.exp(np.negative(np.abs(x, out=slope), out=slope), out=slope)
    positive = np.maximum(x, 0.0, out=tmp)
    np.log1p(e, out=out)  # out may be x: every read of x comes first
    out += positive
    # the slope is 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below;
    # max(e, x > 0) is that numerator, without a branch (at x = 0, e is 1)
    numerator = np.maximum(e, np.greater(positive, 0.0, out=tmp), out=tmp)
    np.divide(numerator, np.add(1.0, e, out=slope), out=slope)
    return out, slope


def kaiming_init(fan_in: int, shape, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean Gaussian draws with variance 2 / fan_in."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def im2col(x, kernel, mask: np.ndarray | None = None, dtype=None) -> np.ndarray:
    """The (R, C*kh*kw) patch rows of a (C, H, W) stack for a (kh, kw) kernel.

    Row (i, j) holds x[:, i:i+kh, j:j+kw] in the kernels' (C, kh, kw)
    order, zero past the bottom and right edges; the rows run over the
    H*W cells in row-major order. With a boolean (H, W) ``mask`` only the
    R masked cells get rows. The rows are gathered one tap at a time and
    cast to ``dtype`` (default: x's) as they are copied in, so no padded
    or cast copy of the stack exists.
    """
    channels, rows, cols = x.shape
    kh, kw = kernel
    ii, jj = np.nonzero(np.ones((rows, cols), bool) if mask is None else mask)
    mat = np.zeros((len(ii), channels, kh, kw), x.dtype if dtype is None else dtype)
    for di in range(kh):
        for dj in range(kw):
            inside = (ii + di < rows) & (jj + dj < cols)
            mat[inside, :, di, dj] = x[:, ii[inside] + di, jj[inside] + dj].T
    return mat.reshape(len(ii), -1)


def row_blocks(rows: np.ndarray):
    """A (n, width) row matrix in blocks of at most ``BLOCK_ROWS`` rows, in order."""
    for lo in range(0, len(rows), BLOCK_ROWS):
        yield rows[lo:lo + BLOCK_ROWS]


def _layer_array(rows: np.ndarray) -> np.ndarray:
    """An (n, width) row matrix seen as the (1, width, n, 1) array a layer takes."""
    return rows.T[None, :, :, None]


def _row_matrix(x: np.ndarray) -> np.ndarray:
    """The (n, width) row matrix behind a (1, width, n, 1) layer array."""
    return x[0, :, :, 0].T


@dataclass
class Parameter:
    """A trainable array and its gradient accumulator."""

    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = ""

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class ConvLayer:
    """2D cross-correlation, one matmul over patch rows.

    It wraps the (out, in, kh, kw) ``kernels`` and (out,) ``bias``
    parameters it is given. ``forward`` takes the ``im2col`` patch rows
    of its input for this layer's kernel size, as a (1, width, n, 1)
    layer array, and returns one output row per patch row in the same
    layout. A 1x1 layer's patch rows are its input channels, so it takes
    the previous layer's output as is. ``backward`` returns the gradient
    with respect to the patch rows; ``input_grad=False`` marks a first
    layer whose input gradient nobody consumes. Either may write its
    result rows into ``out``, a C-contiguous (n, width) matrix.
    """

    def __init__(self, kernels: Parameter, bias: Parameter, input_grad: bool = True):
        self.kernels = kernels
        self.bias = bias
        self.input_grad = input_grad
        self._rows = None
        self._input_shape = None

    def _kernel_matrix(self) -> np.ndarray:
        return self.kernels.value.reshape(len(self.kernels.value), -1)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._input_shape = x.shape
        self._rows = _row_matrix(x)
        out = np.matmul(self._rows, self._kernel_matrix().T, out=out)
        out += self.bias.value
        return _layer_array(out)

    def backward(self, grad_out: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray | None:
        g = _row_matrix(grad_out)
        self.kernels.grad += (g.T @ self._rows).reshape(self.kernels.value.shape)
        # a matmul with ones sums the rows far faster than g.sum(axis=0)
        self.bias.grad += np.ones(len(g), g.dtype) @ g
        if not self.input_grad:
            return None
        return _layer_array(np.matmul(g, self._kernel_matrix(), out=out))


class SoftplusLayer:
    """Elementwise softplus that keeps only its slope, the logistic.

    Forward is one ``softplus_and_slope`` over its input. ``out``,
    ``slope`` and ``scratch`` are arrays shaped like the input to write
    the softplus, the logistic and the intermediates into (new when
    None); ``out`` may be the input itself. Backward multiplies the
    logistic by the upstream gradient in place, so each forward serves
    one backward.
    """

    _slope = None  # the logistic of the last forward, until its backward

    def forward(self, x: np.ndarray, out: np.ndarray | None = None,
                slope: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
        out, self._slope = softplus_and_slope(x, out, slope, scratch)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad, self._slope = self._slope, None
        grad *= grad_out
        return grad


class Network:
    """A kh x kw conv, softplus, then a 1x1 conv to the (mu, sigma) heads.

    The network is its four ``CHECKPOINT_ARRAYS``, held as parameters
    named by those keys. ``kaiming`` draws them and ``load_network``
    reads them, in ``DTYPE``; float64 arrays make the float64 network
    that gradient checks use. ``forward`` takes one block of the first
    conv's ``im2col`` patch rows, an (n, C*kh*kw) matrix, and returns the
    (n, 2) raw head values, a new array each call. ``backward`` takes
    the (n, 2) gradient of that block. The first conv's input gradient
    is never needed, so it stops there and returns nothing. The layers
    keep the block's inputs, so each ``backward`` follows the ``forward``
    of its own block; callers cut their rows with ``row_blocks``.

    The layers take (1, width, n, 1) views of the row matrices, the
    layout whose shapes the benchmark's tracer (``perfbench/tracing.py``)
    reads to count rows and GFLOP, so the network converts at its
    boundary; no conversion copies. Three (block, hidden) arrays are the
    network's own and reused: the conv output, with the softplus taken
    in place over it; the softplus slope; and one that holds the
    softplus intermediates in ``forward`` and the head's input gradient
    in ``backward``, neither of which outlives its pass. Each is made for
    the longest block yet and used through a prefix view, so a short
    last block makes none. ``drop_buffers`` frees the arrays and the
    layers' cached inputs, as a finished fit or prediction does.
    """

    def __init__(self, conv_kernels, conv_bias, head_kernels, head_bias):
        conv_k, conv_b, head_k, head_b = (Parameter(value, name=key) for value, key in zip(
            (conv_kernels, conv_bias, head_kernels, head_bias), CHECKPOINT_ARRAYS))
        self.conv = ConvLayer(conv_k, conv_b, input_grad=False)
        self.softplus = SoftplusLayer()
        self.head = ConvLayer(head_k, head_b)
        self._buffers = [None, None, None]

    @classmethod
    def kaiming(cls, in_channels: int, hidden: int, kernel,
                rng: np.random.Generator) -> "Network":
        """Kaiming kernels drawn from ``rng``, conv then head, in float64
        and rounded to ``DTYPE``; zero biases."""
        kh, kw = kernel
        conv = kaiming_init(in_channels * kh * kw, (hidden, in_channels, kh, kw), rng)
        head = kaiming_init(hidden, (2, hidden, 1, 1), rng)
        return cls(conv.astype(DTYPE), np.zeros(hidden, DTYPE),
                   head.astype(DTYPE), np.zeros(2, DTYPE))

    @property
    def shape(self) -> tuple[int, int, tuple[int, int]]:
        """(input channels, hidden width, first kernel size)."""
        hidden, in_channels, kh, kw = self.conv.kernels.value.shape
        return in_channels, hidden, (kh, kw)

    def parameters(self) -> list[Parameter]:
        return [self.conv.kernels, self.conv.bias, self.head.kernels, self.head.bias]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def _buffer(self, i: int, rows: int, dtype) -> np.ndarray:
        """The first ``rows`` rows of hidden-size buffer i, made anew when
        it is shorter or of another dtype."""
        buf = self._buffers[i]
        if buf is None or len(buf) < rows or buf.dtype != dtype:
            buf = self._buffers[i] = np.empty((rows, len(self.conv.bias.value)), dtype)
        return buf[:rows]

    def forward(self, rows: np.ndarray) -> np.ndarray:
        n, dtype = len(rows), np.result_type(rows, self.conv.kernels.value)
        h = self.conv.forward(_layer_array(rows), out=self._buffer(0, n, dtype))
        hidden = self.softplus.forward(h, out=h, slope=_layer_array(self._buffer(1, n, dtype)),
                                       scratch=_layer_array(self._buffer(2, n, dtype)))
        return _row_matrix(self.head.forward(hidden))

    def backward(self, grad: np.ndarray) -> None:
        out = self._buffer(2, len(grad), np.result_type(grad, self.head.kernels.value))
        self.conv.backward(self.softplus.backward(self.head.backward(_layer_array(grad), out=out)))

    def drop_buffers(self) -> None:
        self._buffers = [None, None, None]
        self.conv._rows = self.head._rows = None
        self.softplus._slope = None


class Adam:
    """Adam with bias correction over one flat vector; one step counter.

    It gathers its parameters into one value vector and one gradient
    vector, and makes each parameter's value and grad views of them, so
    a step is one elementwise update of the same bits as one update per
    parameter. It uses the usual constants: learning rate 0.001, betas
    (0.9, 0.999) and eps 1e-8. A non-finite gradient aborts training
    rather than poisoning the moment estimates, naming its parameter.
    """

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self._value = np.concatenate([p.value.ravel() for p in self.params])
        self._grad = np.concatenate([p.grad.ravel() for p in self.params])
        lo = 0
        for p in self.params:
            hi = lo + p.value.size
            p.value = self._value[lo:hi].reshape(p.value.shape)
            p.grad = self._grad[lo:hi].reshape(p.grad.shape)
            lo = hi
        self._m = np.zeros_like(self._value)
        self._v = np.zeros_like(self._value)

    def step(self) -> None:
        if not np.all(np.isfinite(self._grad)):
            bad = next(p for p in self.params if not np.all(np.isfinite(p.grad)))
            raise TrainingDiverged(f"non-finite gradient in parameter {bad.name!r}")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        m, v, g = self._m, self._v, self._grad
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        self._value -= ADAM_LR * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


@functools.cache
def _openblas():
    """(get, set) of the bundled OpenBLAS's thread count, or None; looked
    up on the first pin."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            dll = ctypes.CDLL(str(lib))
            get = dll.scipy_openblas_get_num_threads64_
            put = dll.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Pins numpy's bundled OpenBLAS to one thread while held, then
    restores the count it found. Without that library (another BLAS
    build) it does nothing, and the bits may depend on the thread count."""
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put = calls
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(rec: dict) -> np.ndarray:
    raw = base64.b64decode(rec["data"])
    a = np.frombuffer(raw, dtype=np.dtype(rec["dtype"]))
    return a.reshape(rec["shape"]).copy()


def save_network(path, net: Network, meta: dict | None = None) -> None:
    """Write a bit-exact JSON checkpoint (base64 row-major arrays)."""
    doc = {"format": CHECKPOINT_FORMAT, "meta": meta or {}}
    for p in net.parameters():
        doc[p.name] = _encode_array(p.value)
    write_text(path, json.dumps(doc, sort_keys=True))


def load_network(path) -> tuple[Network, dict]:
    """Rebuild a network from a checkpoint; inverse of save_network.

    Another format, a missing or mistyped key and arrays that do not
    make up a ``Network`` are ValueErrors.
    """
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {fmt!r} in {path}; "
                         f"retrain it to get {CHECKPOINT_FORMAT}")
    try:
        arrays = [_decode_array(doc[key]) for key in CHECKPOINT_ARRAYS]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: "
                         f"{type(exc).__name__}: {exc}") from None
    conv_k, conv_b, head_k, head_b = arrays
    hidden = conv_k.shape[:1]
    if (conv_k.ndim != 4 or conv_b.shape != hidden or head_b.shape != (2,)
            or head_k.shape != (2, *hidden, 1, 1)
            or any(a.dtype != DTYPE for a in arrays)):
        shapes = ", ".join(f"{k} {a.dtype}{list(a.shape)}"
                           for k, a in zip(CHECKPOINT_ARRAYS, arrays))
        raise ValueError(f"checkpoint {path} holds {shapes}; not a "
                         f"{np.dtype(DTYPE)} conv -> softplus -> 1x1 network")
    if not isinstance(doc.get("meta"), dict):
        raise ValueError(f"checkpoint {path} has no 'meta' object")
    return Network(*arrays), doc["meta"]
