import json
import warnings

import numpy as np
import pytest
from scipy.special import expit

from cyclone_pp import neuralnet
from cyclone_pp.neuralnet import (
    CHECKPOINT_ARRAYS,
    DTYPE,
    Adam,
    ConvLayer,
    Network,
    Parameter,
    SoftplusLayer,
    TrainingDiverged,
    im2col,
    kaiming_init,
    load_network,
    row_blocks,
    save_network,
    softplus_and_slope,
)


def softplus_reference(x):
    """The layer's softplus and slope, each step into a fresh array."""
    e = np.exp(-np.abs(x))
    out = np.log1p(e)
    out += np.maximum(x, 0.0)
    slope = np.maximum(e, x >= 0)
    slope /= 1.0 + e
    return out, slope


#: inputs at both branches' limits, signed zeros and infinities
EXTREMES = [1e4, -1e4, 0.0, -0.0, 88.0, -88.0, 1e-30, -1e-30, np.inf, -np.inf]


def conv_reference(x, kernels, bias):
    """Direct quadruple-loop cross-correlation with right/bottom zero pad."""
    channels, rows, cols = x.shape
    out_ch, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, kh - 1), (0, kw - 1)))
    out = np.zeros((out_ch, rows, cols))
    for o in range(out_ch):
        for i in range(rows):
            for j in range(cols):
                acc = bias[o]
                for c in range(channels):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += kernels[o, c, ki, kj] * xp[c, i + ki, j + kj]
                out[o, i, j] = acc
    return out


def patch_rows(stacks, kernel):
    """The patch rows of several (C, H, W) stacks, one stack after another."""
    return np.concatenate([im2col(x, kernel) for x in stacks])


def forward(layer, rows):
    """A layer's forward over an (n, width) row matrix, as an (n, out)
    matrix; the layers take (1, width, n, 1) views of their rows."""
    return layer.forward(rows.T[None, :, :, None])[0, :, :, 0].T


def backward(layer, grad):
    """A layer's backward of an (n, out) gradient, as an (n, width) matrix."""
    out = layer.backward(grad.T[None, :, :, None])
    return None if out is None else out[0, :, :, 0].T


def conv(layer, x):
    """A conv layer applied to a (C, H, W) stack through its patch rows."""
    out = forward(layer, im2col(x, layer.kernels.value.shape[2:]))
    return out.T.reshape(-1, *x.shape[1:])


def conv_layer(in_channels, out_channels, kernel=(2, 2), rng=None,
               input_grad=True) -> ConvLayer:
    """A float64 conv layer: Kaiming kernels (from default_rng(0) unless
    given a generator) and a zero bias."""
    kh, kw = kernel
    kernels = kaiming_init(in_channels * kh * kw, (out_channels, in_channels, kh, kw),
                           np.random.default_rng(0) if rng is None else rng)
    return ConvLayer(Parameter(kernels, name="kernels"),
                     Parameter(np.zeros(out_channels), name="bias"), input_grad)


def float64_network(rng, in_channels=3, hidden=4, kernel=(2, 2)) -> Network:
    """A Network with float64 parameters, fine enough for finite differences."""
    drawn = Network.kaiming(in_channels, hidden, kernel, rng)
    return Network(*(p.value.astype(np.float64) for p in drawn.parameters()))


def finite_difference(f, x, h=1e-4):
    """Central-difference gradient of scalar f() w.r.t. array x, in place."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def softplus(x):
    """The kernel's softplus alone."""
    return softplus_and_slope(np.asarray(x, dtype=float))[0]


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0))

    def test_large_x_passthrough(self):
        assert softplus(np.array([40.0, 100.0, 500.0])).tolist() == [40.0, 100.0, 500.0]

    def test_very_negative(self):
        assert softplus(-100.0) == pytest.approx(np.exp(-100.0), rel=1e-12)

    def test_positive_and_monotone(self):
        x = np.linspace(-50, 50, 501)
        y = softplus(x)
        assert np.all(y > 0)
        assert np.all(np.diff(y) > 0)

    def test_gradient_matches_finite_difference(self):
        x = np.array([-3.0, 0.0, 0.7, 5.0])
        layer = SoftplusLayer()
        layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        h = 1e-6
        fd = (softplus(x + h) - softplus(x - h)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)
        assert grad[1] == 0.5

    def test_layer_keeps_the_bits_of_fresh_temporaries(self):
        # a conv output: a (batch, width, rows, 1) view of a row matrix
        rng = np.random.default_rng(7)
        rows = (4 * rng.standard_normal((5 * 9, 6))).astype(DTYPE)
        rows.flat[:len(EXTREMES)] = EXTREMES
        x = rows.reshape(5, 9, 1, 6).transpose(0, 3, 1, 2)
        g = rng.standard_normal(x.shape).astype(DTYPE)
        want, slope = softplus_reference(x)
        layer = SoftplusLayer()
        out = layer.forward(x)
        assert out.dtype == DTYPE and out.strides == x.strides
        assert out.tobytes() == want.tobytes()
        assert layer.backward(g).tobytes() == (slope * g).tobytes()

    @pytest.mark.parametrize("block", [1, 100, 1 << 16])
    def test_layer_bits_do_not_depend_on_the_block(self, block):
        # one layer fed a row matrix a block of rows at a time, as the
        # network's forward is; 250 rows leave a short last block of 100
        rng = np.random.default_rng(7)
        rows = (4 * rng.standard_normal((250, 6))).astype(DTYPE)
        rows.flat[:len(EXTREMES)] = EXTREMES
        g = rng.standard_normal(rows.shape).astype(DTYPE)
        want, slope = softplus_reference(rows)
        layer = SoftplusLayer()
        out = np.empty_like(rows)
        grad = np.empty_like(rows)
        for start in range(0, len(rows), block):
            part = slice(start, start + block)
            out[part] = layer.forward(rows[part])
            grad[part] = layer.backward(g[part])
        assert out.tobytes() == want.tobytes()
        assert grad.tobytes() == (slope * g).tobytes()


class TestSoftplusAndSlope:
    @pytest.mark.parametrize("dtype, bound, ulp", [
        (np.float64, 700.0, (2, 3)), (DTYPE, 80.0, (3, 4))], ids=["float64", "float32"])
    def test_matches_logaddexp_and_expit(self, dtype, bound, ulp):
        # the slope of x < 0 is e^x / (1 + e^x): within 2 eps of expit
        # relative, which reads 3 ulp (float64) or 4 (float32) just above a
        # power of two; for x >= 0 it is 1 / (1 + e^-x) bit for bit
        x = np.concatenate([np.linspace(-bound, bound, 140_001),
                            np.random.default_rng(5).normal(0.0, 5.0, 100_000)]).astype(dtype)
        out, slope = softplus_and_slope(x)
        assert out.dtype == slope.dtype == dtype
        for got, want, most in ((out, np.logaddexp(dtype(0), x), ulp[0]),
                                (slope, expit(x), ulp[1])):
            assert want.dtype == dtype
            assert (np.abs(got - want) / np.spacing(want)).max() <= most
            assert (np.abs(got - want) / want).max() <= 2.5 * np.finfo(dtype).eps
        positive = x >= 0
        assert slope[positive].tobytes() == (1 / (1 + np.exp(-x[positive]))).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, DTYPE])
    def test_exact_at_the_limits(self, dtype):
        x = np.array([0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, np.nan], dtype)
        out, slope = softplus_and_slope(x)
        ln2 = np.log(dtype(2))
        assert out[:6].tolist() == [ln2, ln2, 1e4, 0.0, np.inf, 0.0]
        assert slope[:6].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]
        assert np.isnan(out[6]) and np.isnan(slope[6])

    def test_no_float_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, slope = softplus_and_slope(np.array([-1e3, 1e3]))
        assert out.tolist() == [0.0, 1e3] and slope.tolist() == [0.0, 1.0]

    def test_writes_into_the_given_arrays(self):
        x = np.random.default_rng(3).normal(0.0, 30.0, (4, 5)).astype(DTYPE)
        want, want_slope = softplus_reference(x)
        slope, scratch = np.empty_like(x), np.empty_like(x)
        out, got_slope = softplus_and_slope(x, out=x, slope=slope, scratch=scratch)
        assert out is x and got_slope is slope
        assert x.tobytes() == want.tobytes() and slope.tobytes() == want_slope.tobytes()


class TestKaimingInit:
    def test_sample_variance(self):
        for fan_in in (4, 100):
            w = kaiming_init(fan_in, (100_000,), np.random.default_rng(1))
            assert float(np.var(w)) == pytest.approx(2.0 / fan_in, rel=0.03)
            assert float(np.mean(w)) == pytest.approx(0.0, abs=3e-3 / np.sqrt(fan_in) * 10)

    def test_fan_in_two_gives_unit_variance(self):
        w = kaiming_init(2, (100_000,), np.random.default_rng(2))
        assert float(np.var(w)) == pytest.approx(1.0, rel=0.03)

    def test_seeded_reproducibility(self):
        a = kaiming_init(8, (4, 2, 2, 2), np.random.default_rng(7))
        b = kaiming_init(8, (4, 2, 2, 2), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_fan_in(self):
        with pytest.raises(ValueError):
            kaiming_init(0, (3,), np.random.default_rng(0))


class TestIm2col:
    def test_row_holds_the_patch_in_kernel_order(self):
        x = np.arange(3 * 4 * 5, dtype=float).reshape(3, 4, 5)
        rows = im2col(x, (2, 2))
        assert rows.shape == (20, 12)
        np.testing.assert_array_equal(rows[2 * 5 + 3], x[:, 2:4, 3:5].ravel())
        # the bottom-right cell sees zeros past both edges
        corner = rows[-1].reshape(3, 2, 2)
        np.testing.assert_array_equal(corner[:, 0, 0], x[:, 3, 4])
        assert not corner[:, 1:, :].any() and not corner[:, :, 1:].any()

    def test_masked_rows_equal_the_full_rows(self):
        # a masked cell keeps its unmasked neighbours in its row
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6, 5))
        mask = rng.random((6, 5)) < 0.3
        rows = im2col(x, (2, 2), mask)
        assert rows.shape == (int(mask.sum()), 16)
        np.testing.assert_array_equal(rows, im2col(x, (2, 2))[mask.ravel()])

    @pytest.mark.parametrize("mask", [None, np.eye(4, 5, dtype=bool)])
    def test_rows_are_one_contiguous_matrix(self, mask):
        rows = im2col(np.ones((3, 4, 5)), (2, 2), mask)
        assert rows.shape == (20 if mask is None else 4, 12) and rows.flags.c_contiguous

    @pytest.mark.parametrize("mask", [None, np.eye(4, 5, dtype=bool)])
    def test_dtype_casts_like_the_cast_stack(self, mask):
        x = np.random.default_rng(3).normal(size=(2, 4, 5))
        rows = im2col(x, (2, 2), mask, dtype=np.float32)
        assert rows.dtype == np.float32
        assert rows.tobytes() == im2col(x.astype(np.float32), (2, 2), mask).tobytes()

    def test_one_by_one_rows_are_the_channels(self):
        x = np.random.default_rng(2).normal(size=(3, 4, 5))
        np.testing.assert_array_equal(im2col(x, (1, 1)), x.reshape(3, -1).T)


class TestConvForward:
    def test_identity_kernel(self):
        layer = conv_layer(1, 1, kernel=(2, 2))
        layer.kernels.value[:] = 0.0
        layer.kernels.value[0, 0, 0, 0] = 1.0
        layer.bias.value[:] = 0.0
        x = np.random.default_rng(0).normal(size=(1, 5, 4))
        np.testing.assert_allclose(conv(layer, x), x)

    def test_all_ones_kernel_on_constant_field(self):
        # 2x2 sum over a constant 3x3 field: 4c inside, halved where the
        # window hangs over the zero pad, c at the bottom-right corner.
        c = 2.5
        layer = conv_layer(1, 1, kernel=(2, 2))
        layer.kernels.value[:] = 1.0
        layer.bias.value[:] = 0.0
        out = conv(layer, np.full((1, 3, 3), c))[0]
        expected = c * np.array([[4.0, 4.0, 2.0],
                                 [4.0, 4.0, 2.0],
                                 [2.0, 2.0, 1.0]])
        np.testing.assert_allclose(out, expected)

    @pytest.mark.parametrize("kernel", [(2, 2), (1, 1)])
    def test_matches_naive_loop(self, kernel):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 5, 6))
        layer = conv_layer(3, 4, kernel=kernel, rng=rng)
        layer.bias.value[:] = rng.normal(size=4)
        want = conv_reference(x, layer.kernels.value, layer.bias.value)
        np.testing.assert_allclose(conv(layer, x), want, rtol=1e-12, atol=1e-12)

    def test_shape_preserved(self):
        layer = conv_layer(25, 32, kernel=(2, 2))
        out = conv(layer, np.zeros((25, 84, 70)))
        assert out.shape == (32, 84, 70)

    def test_float32_stays_float32(self):
        layer = Network.kaiming(2, 3, (2, 2), np.random.default_rng(1)).conv
        out = conv(layer, np.zeros((2, 4, 4), dtype=np.float32))
        assert out.dtype == np.float32


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        layer = conv_layer(2, 3, rng=rng)
        forward(layer, patch_rows(rng.normal(size=(2, 2, 4, 4)), (2, 2)))
        gx = backward(layer, np.zeros((32, 3)))
        assert not gx.any()
        assert not layer.kernels.grad.any()
        assert not layer.bias.grad.any()

    def test_single_pixel_upstream_recovers_input_patch(self):
        # with upstream grad = 1 at one output pixel, the kernel gradient
        # is exactly the padded input patch under that pixel
        rng = np.random.default_rng(4)
        layer = conv_layer(1, 1, kernel=(2, 2), rng=rng)
        x = rng.normal(size=(1, 3, 3))
        conv(layer, x)
        g = np.zeros((9, 1))
        g[1 * 3 + 1] = 1.0
        backward(layer, g)
        np.testing.assert_allclose(layer.kernels.grad[0, 0], x[0, 1:3, 1:3])

    @pytest.mark.parametrize("kernel", [(2, 2), (1, 1)])
    def test_gradients_match_finite_differences(self, kernel):
        rng = np.random.default_rng(11)
        layer = conv_layer(3, 2, kernel=kernel, rng=rng)
        x = patch_rows(rng.normal(size=(2, 3, 4, 5)), kernel)  # gradient w.r.t. the rows
        proj = rng.normal(size=(40, 2))

        def loss():
            return float(np.sum(forward(layer, x) * proj))

        loss()
        gx = backward(layer, proj.copy())
        np.testing.assert_allclose(gx, finite_difference(loss, x), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(layer.kernels.grad,
                                   finite_difference(loss, layer.kernels.value),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(layer.bias.grad,
                                   finite_difference(loss, layer.bias.value),
                                   rtol=1e-4, atol=1e-7)

    def test_input_grad_disabled_returns_none(self):
        rng = np.random.default_rng(6)
        layer = conv_layer(2, 3, rng=rng, input_grad=False)
        x = im2col(rng.normal(size=(2, 4, 4)), (2, 2))
        proj = rng.normal(size=(16, 3))

        def loss():
            return float(np.sum(forward(layer, x) * proj))

        loss()
        assert backward(layer, proj.copy()) is None
        # parameter gradients still flow
        np.testing.assert_allclose(layer.kernels.grad,
                                   finite_difference(loss, layer.kernels.value),
                                   rtol=1e-4, atol=1e-7)

    def test_grads_accumulate_until_zeroed(self):
        rng = np.random.default_rng(5)
        layer = conv_layer(1, 1, rng=rng)
        x = im2col(rng.normal(size=(1, 3, 3)), (2, 2))
        g = rng.normal(size=(9, 1))
        forward(layer, x)
        backward(layer, g)
        once = layer.kernels.grad.copy()
        forward(layer, x)
        backward(layer, g)
        np.testing.assert_allclose(layer.kernels.grad, 2 * once)
        layer.kernels.zero_grad()
        assert not layer.kernels.grad.any()


class TestNetwork:
    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(21)
        net = float64_network(rng)
        x = patch_rows(rng.normal(size=(2, 3, 4, 6)), (2, 2))
        proj = rng.normal(size=(48, 2))

        def loss():
            return float(np.sum(net.forward(x) * proj))

        loss()
        net.zero_grad()
        net.backward(proj.copy())
        for p in net.parameters():
            np.testing.assert_allclose(p.grad, finite_difference(loss, p.value),
                                       rtol=1e-4, atol=1e-7)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        net = Network.kaiming(3, 4, (2, 2), rng)
        x = im2col(rng.normal(size=(3, 5, 5)).astype(DTYPE), (2, 2))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_backward_stops_at_gradless_first_layer(self):
        rng = np.random.default_rng(12)
        net = Network.kaiming(3, 4, (2, 2), rng)
        out = net.forward(im2col(rng.normal(size=(3, 4, 4)).astype(DTYPE), (2, 2)))
        assert out.shape == (16, 2)
        assert net.backward(np.ones((16, 2), dtype=DTYPE)) is None
        assert not net.conv.input_grad and net.conv.kernels.grad.any()

    def test_forward_results_are_independent(self):
        rng = np.random.default_rng(8)
        net = Network.kaiming(3, 4, (2, 2), rng)
        x = patch_rows(rng.normal(size=(2, 3, 4, 4)).astype(DTYPE), (2, 2))
        first = net.forward(x)
        kept = first.copy()
        second = net.forward(2 * x)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    def test_epochs_reuse_the_hidden_buffers(self):
        # the conv output (softplus in place over it) and the slope live in
        # the network's own arrays; the head values are new each forward
        rng = np.random.default_rng(10)
        net = Network.kaiming(3, 4, (2, 2), rng)
        x = patch_rows(rng.normal(size=(2, 3, 4, 4)).astype(DTYPE), (2, 2))
        epochs = []
        for _epoch in range(2):
            out = net.forward(x)
            epochs.append((out, net.head._rows, net.softplus._slope))
            net.backward(np.ones_like(out))
        (out1, hidden1, slope1), (out2, hidden2, slope2) = epochs
        assert np.shares_memory(hidden1, hidden2) and np.shares_memory(slope1, slope2)
        assert not np.shares_memory(out1, out2)

    def test_long_short_long_blocks_make_each_buffer_once(self, monkeypatch):
        # an epoch's row blocks, then the next epoch's first: the hidden
        # arrays, the softplus intermediates among them, are made for the
        # first block and kept through the short one
        scratches = []

        def spy(x, out=None, slope=None, scratch=None):
            scratches.append(scratch)
            return softplus_and_slope(x, out, slope, scratch)

        monkeypatch.setattr(neuralnet, "softplus_and_slope", spy)
        rng = np.random.default_rng(15)
        net = Network.kaiming(3, 4, (2, 2), rng)
        kept = []
        for rows in (40, 10, 40):
            out = net.forward(rng.normal(size=(rows, 12)).astype(DTYPE))
            net.backward(np.ones_like(out))
            kept.append(list(net._buffers))
        assert all(a is b for later in kept[1:] for a, b in zip(kept[0], later))
        assert all(np.shares_memory(s, kept[0][2]) for s in scratches)
        assert [s.shape[2] for s in scratches] == [40, 10, 40]

    def test_drop_buffers_frees_the_block_arrays(self):
        # a finished fit lets go of every block-sized array, the softplus
        # intermediates with them, and the next forward gives the same bytes
        rng = np.random.default_rng(16)
        net = Network.kaiming(3, 4, (2, 2), rng)
        x = rng.normal(size=(40, 12)).astype(DTYPE)
        first = net.forward(x).copy()
        net.backward(np.ones_like(first))
        net.drop_buffers()
        assert net._buffers == [None, None, None]
        assert net.conv._rows is None and net.head._rows is None
        assert net.softplus._slope is None
        assert net.forward(x).tobytes() == first.tobytes()

    def test_buffers_keep_the_bits_of_fresh_arrays(self):
        # the same layers, called without buffers, give the same bytes
        rng = np.random.default_rng(11)
        x = patch_rows(rng.normal(size=(2, 3, 4, 4)).astype(DTYPE), (2, 2))
        g = rng.normal(size=(32, 2)).astype(DTYPE)
        net, fresh = (Network.kaiming(3, 4, (2, 2), np.random.default_rng(0)) for _ in range(2))
        out = net.forward(x)
        net.backward(g)
        conv, soft, head = fresh.conv, fresh.softplus, fresh.head
        want = head.forward(soft.forward(conv.forward(x.T[None, :, :, None])))
        conv.backward(soft.backward(head.backward(g.T[None, :, :, None])))
        assert out.tobytes() == want[0, :, :, 0].T.tobytes()
        for got, expected in zip(net.parameters(), fresh.parameters()):
            assert got.grad.tobytes() == expected.grad.tobytes()

    @pytest.mark.parametrize("dtype", [DTYPE, np.float64])
    def test_softplus_keeps_the_bits_of_fresh_temporaries(self, monkeypatch, dtype):
        # the hidden softplus and its slope, over a full row block and then
        # a shorter one, equal the formula with a fresh array per step
        monkeypatch.setattr(neuralnet, "BLOCK_ROWS", 96)
        rng = np.random.default_rng(14)
        n_in, hidden = 3, 8
        net = Network(rng.normal(0.0, 1e3, (hidden, n_in, 1, 1)).astype(dtype),
                      np.zeros(hidden, dtype), rng.normal(size=(2, hidden, 1, 1)).astype(dtype),
                      np.zeros(2, dtype))
        # zero kernel rows give hidden units that equal their bias exactly
        net.conv.kernels.value[:3] = 0.0
        net.conv.bias.value[:3] = [1e4, -1e4, 0.0]
        x = rng.normal(size=(150, n_in)).astype(dtype)
        x[:3] = np.array([[1e4, -1e4, 0.0], [-0.0, 30.0, -30.0], [1e-3, 0.0, -1e4]]).T
        for block in row_blocks(x):
            net.forward(block)
        h = forward(Network(*(p.value for p in net.parameters())).conv, x[96:])
        want, slope = softplus_reference(h)
        assert (h == 1e4).any() and (h == -1e4).any() and (h == 0.0).any()
        assert net.head._rows.tobytes() == want.tobytes()
        assert net.softplus._slope[0, :, :, 0].T.tobytes() == slope.tobytes()

    def test_backward_leaves_grad_out_untouched(self):
        rng = np.random.default_rng(9)
        net = Network.kaiming(3, 4, (2, 2), rng)
        net.forward(patch_rows(rng.normal(size=(2, 3, 4, 4)).astype(DTYPE), (2, 2)))
        g = rng.normal(size=(32, 2)).astype(DTYPE)
        kept = g.copy()
        net.backward(g)
        assert g.tobytes() == kept.tobytes()
        layer = SoftplusLayer()
        layer.forward(rng.normal(size=(2, 4, 4, 4)).astype(DTYPE))
        g = rng.normal(size=(2, 4, 4, 4)).astype(DTYPE)
        kept = g.copy()
        grad = layer.backward(g)
        assert g.tobytes() == kept.tobytes() and not np.shares_memory(grad, g)

    def test_parameters_are_named_by_checkpoint_key(self):
        # a divergence error names the layer
        net = Network.kaiming(3, 4, (2, 2), np.random.default_rng(0))
        assert tuple(p.name for p in net.parameters()) == CHECKPOINT_ARRAYS

    def test_parameters_are_float32(self):
        net = Network.kaiming(3, 4, (2, 2), np.random.default_rng(0))
        assert all(p.value.dtype == p.grad.dtype == DTYPE for p in net.parameters())
        out = net.forward(im2col(np.zeros((3, 4, 4), dtype=DTYPE), (2, 2)))
        assert out.dtype == DTYPE

    @pytest.mark.parametrize("kernel,hidden", [((2, 2), 32), ((1, 1), 16)])
    def test_kaiming_draws_conv_then_head(self, kernel, hidden):
        # float64 draws from one stream, rounded: the weights of every
        # earlier fit are reproduced exactly
        net = Network.kaiming(7, hidden, kernel, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        conv = kaiming_init(7 * kernel[0] * kernel[1], (hidden, 7, *kernel), rng)
        head = kaiming_init(hidden, (2, hidden, 1, 1), rng)
        assert net.conv.kernels.value.tobytes() == conv.astype(DTYPE).tobytes()
        assert net.head.kernels.value.tobytes() == head.astype(DTYPE).tobytes()
        assert not net.conv.bias.value.any() and not net.head.bias.value.any()
        assert net.shape == (7, hidden, kernel)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]))
        opt = Adam([p])
        before = p.value.copy()
        opt.step()
        np.testing.assert_array_equal(p.value, before)

    def test_first_step_formula(self):
        # from zero state the bias corrections cancel and the first update
        # is -lr * g / (|g| + eps)
        g = np.array([2.0, -0.5, 1e-3])
        p = Parameter(np.zeros(3), grad=g.copy())
        opt = Adam([p])
        opt.step()
        expected = -0.001 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.value, expected, rtol=1e-12)

    def test_constant_gradient_step_approaches_lr_sign(self):
        g = np.array([0.37, -4.2])
        p = Parameter(np.zeros(2), grad=g.copy())
        opt = Adam([p])
        for _ in range(10_000):
            p.grad[:] = g
            before = p.value.copy()
            opt.step()
        last_step = p.value - before
        np.testing.assert_allclose(last_step, -0.001 * np.sign(g), rtol=1e-6)

    def test_nan_gradient_aborts(self):
        p = Parameter(np.zeros(2), grad=np.array([1.0, np.nan]))
        with pytest.raises(TrainingDiverged):
            Adam([p]).step()

    def test_inf_gradient_aborts(self):
        p = Parameter(np.zeros(1), grad=np.array([np.inf]))
        with pytest.raises(TrainingDiverged):
            Adam([p]).step()

    def test_one_vector_steps_the_bits_of_one_update_per_parameter(self):
        # the network's four arrays become views of one value vector
        shapes = [(4, 3, 2, 2), (4,), (2, 4, 1, 1), (2,)]
        values = [np.random.default_rng(i).normal(size=shape).astype(DTYPE)
                  for i, shape in enumerate(shapes)]
        together = [Parameter(v.copy()) for v in values]
        apart = [Parameter(v.copy()) for v in values]
        opts = [Adam(together)] + [Adam([p]) for p in apart]
        for k in range(5):
            for a, b in zip(together, apart):
                a.grad[...] = b.grad[...] = np.sin(b.value + k)
            for opt in opts:
                opt.step()
        for a, b in zip(together, apart):
            assert a.value.shape == b.value.shape
            assert a.value.tobytes() == b.value.tobytes()

    def test_non_finite_gradient_names_its_parameter(self):
        net = Network.kaiming(3, 4, (2, 2), np.random.default_rng(0))
        opt = Adam(net.parameters())
        net.head.kernels.grad[1, 2] = np.inf
        with pytest.raises(TrainingDiverged, match="parameter 'head_kernels'$"):
            opt.step()

    def test_trajectory_reproducible(self):
        def run():
            rng = np.random.default_rng(8)
            p = Parameter(rng.normal(size=4))
            opt = Adam([p])
            for k in range(50):
                p.grad[:] = np.sin(p.value + k)
                opt.step()
                p.zero_grad()
            return p.value

        np.testing.assert_array_equal(run(), run())


class TestOneBlasThread:
    """The pin saves the BLAS thread count, sets one thread and restores
    the count on the way out, as a ``with`` block or as a decorator."""

    @pytest.fixture()
    def blas(self, monkeypatch):
        blas = {"threads": 4}
        monkeypatch.setattr(neuralnet, "_openblas", lambda: (
            lambda: blas["threads"], lambda n: blas.update(threads=n)))
        return blas

    def test_nested_hold_restores_the_count_it_found(self, blas):
        @neuralnet.one_blas_thread()
        def fit():
            return blas["threads"]

        with neuralnet.one_blas_thread():
            assert blas["threads"] == 1
            with neuralnet.one_blas_thread():
                assert blas["threads"] == 1
            # the inner pin found 1 and restores 1, not the outer's 4
            assert blas["threads"] == 1
            assert fit() == 1 and blas["threads"] == 1
        assert blas["threads"] == 4
        assert fit() == 1 and blas["threads"] == 4

    def test_restored_when_the_body_raises(self, blas):
        with pytest.raises(TrainingDiverged):
            with neuralnet.one_blas_thread():
                raise TrainingDiverged("stop")
        assert blas["threads"] == 4


class TestCheckpoint:
    def _net(self, kernel=(2, 2)):
        return Network.kaiming(5, 8, kernel, np.random.default_rng(33))

    def test_round_trip_bit_exact(self, tmp_path):
        net = self._net()
        path = tmp_path / "net.json"
        save_network(path, net, meta={"variant": "cnn", "seed": 5})
        loaded, meta = load_network(path)
        assert meta == {"variant": "cnn", "seed": 5}
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert a.value.tobytes() == b.value.tobytes()
            assert a.value.dtype == b.value.dtype

    def test_loaded_network_predicts_identically(self, tmp_path):
        net = self._net()
        path = tmp_path / "net.json"
        save_network(path, net)
        loaded, _ = load_network(path)
        x = im2col(np.random.default_rng(1).normal(size=(5, 6, 7)).astype(DTYPE), (2, 2))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # the network is its four checkpoint arrays; none is drawn first
        path = tmp_path / "net.json"
        save_network(path, self._net())

        def no_draw(*args):
            raise AssertionError("a load drew Kaiming weights")

        monkeypatch.setattr(neuralnet, "kaiming_init", no_draw)
        loaded, _ = load_network(path)
        assert loaded.shape == (5, 8, (2, 2))

    def test_one_by_one_first_kernel_round_trip(self, tmp_path):
        net = self._net(kernel=(1, 1))
        path = tmp_path / "fcn.json"
        save_network(path, net)
        loaded, _ = load_network(path)
        assert loaded.shape == (5, 8, (1, 1))

    def test_float32_round_trip(self, tmp_path):
        net = self._net()
        path = tmp_path / "net32.json"
        save_network(path, net)
        loaded, _ = load_network(path)
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert b.value.dtype == np.float32
            assert a.value.tobytes() == b.value.tobytes()

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(path, self._net())
        assert [p.name for p in tmp_path.iterdir()] == ["net.json"]

    def test_failed_save_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            save_network(tmp_path / "net.json", self._net(), meta={"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other/9", "layers": []}')
        with pytest.raises(ValueError, match="format"):
            load_network(path)

    def test_first_format_refused(self, tmp_path):
        # format 1 checkpoints do not record their fold; retrain them
        path = tmp_path / "net.json"
        save_network(path, self._net())
        doc = json.loads(path.read_text())
        doc["format"] = "cyclone-pp-net/1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="cyclone-pp-net/1"):
            load_network(path)

    def test_second_format_refused(self, tmp_path):
        # format 2 held a typed layer list
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"format": "cyclone-pp-net/2", "meta": {},
                                    "layers": [{"type": "softplus"}]}))
        with pytest.raises(ValueError, match="cyclone-pp-net/2"):
            load_network(path)

    def edited(self, tmp_path, edit):
        path = tmp_path / "net.json"
        save_network(path, self._net())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("key", [*CHECKPOINT_ARRAYS, "meta"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = self.edited(tmp_path, lambda doc: doc.pop(key))
        with pytest.raises(ValueError, match=key):
            load_network(path)

    @pytest.mark.parametrize("key,value", [
        ("conv_bias", {"dtype": "<f4", "shape": [7]}),
        ("conv_bias", {"dtype": "no-such-type", "shape": [8], "data": ""}),
        ("head_bias", [0.0, 0.0]),
        ("meta", "none"),
    ])
    def test_mistyped_entry_rejected(self, tmp_path, key, value):
        path = self.edited(tmp_path, lambda doc: doc.update({key: value}))
        with pytest.raises(ValueError):
            load_network(path)

    @pytest.mark.parametrize("key,array", [
        ("conv_bias", np.zeros(7, dtype=DTYPE)),
        ("head_kernels", np.zeros((2, 8, 2, 2), dtype=DTYPE)),
        ("head_bias", np.zeros(3, dtype=DTYPE)),
        ("conv_kernels", np.zeros((8, 5, 2), dtype=DTYPE)),
        ("conv_kernels", np.zeros((8, 5, 2, 2))),
    ])
    def test_wrong_array_rejected(self, tmp_path, key, array):
        from cyclone_pp.neuralnet import _encode_array
        path = self.edited(tmp_path, lambda doc: doc.update({key: _encode_array(array)}))
        with pytest.raises(ValueError, match="not a float32 conv"):
            load_network(path)

    def test_save_twice_identical_bytes(self, tmp_path):
        net = self._net()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(a, net, meta={"k": 1})
        save_network(b, net, meta={"k": 1})
        assert a.read_bytes() == b.read_bytes()
