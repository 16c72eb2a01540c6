"""Unit tests for the numpy NN framework: gradients, shapes, optimisers, losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.functional import (
    accuracy,
    col2im,
    im2col,
    log_softmax,
    one_hot,
    softmax,
)


def numerical_input_gradient_check(module, x, rng, tolerance=1e-4, probes=4):
    """Compare analytic input gradients against central finite differences."""
    output = module(x)
    upstream = rng.normal(size=output.shape)
    analytic = module.backward(upstream)
    eps = 1e-5
    for _ in range(probes):
        index = tuple(int(rng.integers(0, s)) for s in x.shape)
        plus = x.copy()
        plus[index] += eps
        minus = x.copy()
        minus[index] -= eps
        numeric = (float(np.sum(module(plus) * upstream)) - float(np.sum(module(minus) * upstream))) / (2 * eps)
        assert abs(analytic[index] - numeric) < tolerance * (1 + abs(numeric))


LAYER_CASES = [
    ("linear", lambda: nn.Linear(6, 4, rng=1), (3, 6)),
    ("linear-3d", lambda: nn.Linear(6, 4, rng=1), (2, 5, 6)),
    ("conv", lambda: nn.Conv2d(3, 4, 3, padding=1, rng=1), (2, 3, 8, 8)),
    ("conv-stride", lambda: nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=1), (2, 3, 8, 8)),
    ("conv-depthwise", lambda: nn.Conv2d(4, 4, 3, padding=1, groups=4, rng=1), (2, 4, 6, 6)),
    ("conv-grouped", lambda: nn.Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=1), (2, 4, 8, 8)),
    ("bn2d", lambda: nn.BatchNorm2d(3), (4, 3, 5, 5)),
    ("bn1d", lambda: nn.BatchNorm1d(6), (8, 6)),
    ("layernorm", lambda: nn.LayerNorm(8), (2, 5, 8)),
    ("relu", lambda: nn.ReLU(), (3, 4, 5)),
    ("leaky", lambda: nn.LeakyReLU(0.1), (3, 4, 5)),
    ("gelu", lambda: nn.GELU(), (3, 4, 5)),
    ("sigmoid", lambda: nn.Sigmoid(), (3, 4)),
    ("tanh", lambda: nn.Tanh(), (3, 4)),
    ("maxpool", lambda: nn.MaxPool2d(2), (2, 3, 8, 8)),
    ("avgpool", lambda: nn.AvgPool2d(2), (2, 3, 8, 8)),
    ("gap", lambda: nn.GlobalAvgPool2d(), (2, 3, 8, 8)),
    ("flatten", lambda: nn.Flatten(), (2, 3, 4, 4)),
    ("attention", lambda: nn.MultiHeadSelfAttention(8, 2, rng=1), (2, 5, 8)),
    ("patchembed", lambda: nn.PatchEmbedding(8, 4, 3, 8, rng=1), (2, 3, 8, 8)),
]


@pytest.mark.parametrize("name,layer_factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_layer_gradient_matches_finite_differences(name, layer_factory, shape, rng):
    layer = layer_factory()
    x = rng.normal(size=shape)
    numerical_input_gradient_check(layer, x, rng)


@pytest.mark.parametrize("name,layer_factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_layer_backward_shape_matches_input(name, layer_factory, shape, rng):
    layer = layer_factory()
    x = rng.normal(size=shape)
    out = layer(x)
    grad_in = layer.backward(rng.normal(size=out.shape))
    assert grad_in.shape == x.shape


# every layer kind that keeps backward state, with the conv cases also on
# the implicit engine (and a 1x1 conv, which that override sends pointwise)
STATEFUL_CASES = (
    LAYER_CASES
    + [(f"{name}-implicit", factory, shape) for name, factory, shape in LAYER_CASES if name.startswith("conv")]
    + [
        ("conv-k1-implicit", lambda: nn.Conv2d(6, 4, 1, rng=1), (2, 6, 8, 8)),
        ("dropout", lambda: nn.Dropout(0.5, rng=0), (3, 4)),
    ]
)


@pytest.mark.parametrize("name,layer_factory,shape", STATEFUL_CASES, ids=[c[0] for c in STATEFUL_CASES])
def test_backward_after_a_no_grad_forward_raises(name, layer_factory, shape, rng, monkeypatch):
    """A no_grad() forward keeps nothing, so the backward after it raises
    instead of returning gradients from the grad-mode forward before it."""
    monkeypatch.setenv("REPRO_CONV_ENGINE", "implicit" if name.endswith("-implicit") else "auto")
    layer = layer_factory()
    out = layer(rng.normal(size=shape))
    with nn.no_grad():
        layer(rng.normal(size=shape))
    with pytest.raises(RuntimeError, match="grad mode"):
        layer.backward(rng.normal(size=out.shape))


def test_grad_mode_is_per_thread_and_restored():
    import threading

    seen = []
    assert nn.grad_enabled()
    with nn.no_grad():
        assert not nn.grad_enabled()
        with nn.no_grad():
            assert not nn.grad_enabled()
        assert not nn.grad_enabled()
        thread = threading.Thread(target=lambda: seen.append(nn.grad_enabled()))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [True]
    assert nn.grad_enabled()
    with pytest.raises(KeyError):
        with nn.no_grad():
            raise KeyError("inside")
    assert nn.grad_enabled()


def test_linear_parameter_gradients_accumulate(rng):
    layer = nn.Linear(4, 3, rng=0)
    x = rng.normal(size=(5, 4))
    layer.zero_grad()
    out = layer(x)
    layer.backward(np.ones_like(out))
    first = layer.weight.grad.copy()
    layer(x)
    layer.backward(np.ones_like(out))
    assert np.allclose(layer.weight.grad, 2 * first)


def test_conv_rejects_bad_group_configuration():
    with pytest.raises(ValueError):
        nn.Conv2d(3, 4, 3, groups=2)


def test_batchnorm_updates_running_statistics(rng):
    bn = nn.BatchNorm2d(3)
    x = rng.normal(2.0, 3.0, size=(16, 3, 4, 4))
    bn.train()
    bn(x)
    assert not np.allclose(bn.get_buffer("running_mean"), 0.0)
    bn.eval()
    out_eval = bn(x)
    assert out_eval.shape == x.shape


def test_dropout_identity_in_eval_mode(rng):
    dropout = nn.Dropout(0.5, rng=0)
    x = rng.normal(size=(10, 10))
    dropout.eval()
    assert np.allclose(dropout(x), x)
    dropout.train()
    dropped = dropout(x)
    assert not np.allclose(dropped, x)


def test_sequential_runs_layers_in_order(rng):
    model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    x = rng.normal(size=(3, 4))
    out = model(x)
    assert out.shape == (3, 2)
    grad = model.backward(np.ones_like(out))
    assert grad.shape == x.shape
    assert len(model) == 3


def test_module_freeze_blocks_optimizer_updates(rng):
    layer = nn.Linear(4, 2, rng=0)
    layer.freeze()
    optimizer = nn.SGD(layer.parameters(), lr=0.1)
    x = rng.normal(size=(3, 4))
    out = layer(x)
    before = layer.weight.data.copy()
    layer.backward(np.ones_like(out))
    optimizer.step()
    assert np.allclose(layer.weight.data, before)


def test_state_dict_round_trip(tmp_path, rng):
    model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=0), nn.BatchNorm2d(4), nn.ReLU())
    x = rng.normal(size=(2, 3, 6, 6))
    model.train()
    model(x)
    path = tmp_path / "model.npz"
    nn.save_state_dict(model, path)
    other = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=5), nn.BatchNorm2d(4), nn.ReLU())
    nn.load_state_dict(other, path)
    model.eval()
    other.eval()
    assert np.allclose(model(x), other(x))


def test_load_state_dict_reports_missing_keys():
    model = nn.Linear(3, 2, rng=0)
    with pytest.raises(KeyError):
        model.load_state_dict({"weight": np.zeros((2, 3))})


@pytest.mark.parametrize("optimizer_name", ["sgd", "adam"])
def test_optimizers_reduce_quadratic_loss(optimizer_name, rng):
    param = nn.Parameter(rng.normal(size=(5,)))
    optimizer = (
        nn.SGD([param], lr=0.1, momentum=0.5)
        if optimizer_name == "sgd"
        else nn.Adam([param], lr=0.1)
    )
    initial = float(np.sum(param.data**2))
    for _ in range(50):
        optimizer.zero_grad()
        param.accumulate_grad(2 * param.data)
        optimizer.step()
    assert float(np.sum(param.data**2)) < initial * 0.1


def test_step_lr_and_cosine_lr_decay():
    param = nn.Parameter(np.zeros(3))
    optimizer = nn.SGD([param], lr=1.0)
    scheduler = nn.StepLR(optimizer, step_size=2, gamma=0.1)
    for _ in range(4):
        scheduler.step()
    assert optimizer.lr == pytest.approx(0.01)
    optimizer2 = nn.Adam([param], lr=1.0)
    cosine = nn.CosineLR(optimizer2, total_epochs=10)
    for _ in range(10):
        cosine.step()
    assert optimizer2.lr == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_matches_manual_computation(rng):
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 1])
    criterion = nn.CrossEntropyLoss()
    loss = criterion(logits, labels)
    manual = -np.mean(log_softmax(logits)[np.arange(4), labels])
    assert loss == pytest.approx(manual)
    grad = criterion.backward()
    assert grad.shape == logits.shape
    # gradient rows sum to zero for hard labels
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_gradient_matches_finite_differences(rng):
    logits = rng.normal(size=(3, 4))
    labels = np.array([1, 0, 3])
    criterion = nn.CrossEntropyLoss(label_smoothing=0.1)
    criterion(logits, labels)
    grad = criterion.backward()
    eps = 1e-6
    for index in [(0, 1), (2, 3), (1, 0)]:
        plus = logits.copy()
        plus[index] += eps
        minus = logits.copy()
        minus[index] -= eps
        numeric = (criterion(plus, labels) - criterion(minus, labels)) / (2 * eps)
        assert grad[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


def test_mse_loss_and_gradient(rng):
    predictions = rng.normal(size=(4, 3))
    targets = rng.normal(size=(4, 3))
    criterion = nn.MSELoss()
    loss = criterion(predictions, targets)
    assert loss == pytest.approx(float(np.mean((predictions - targets) ** 2)))
    grad = criterion.backward()
    assert grad.shape == predictions.shape


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(6, 9)) * 20
    probabilities = softmax(logits)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    assert np.all(probabilities >= 0)


def test_one_hot_and_accuracy():
    labels = np.array([0, 2, 1])
    encoded = one_hot(labels, 3)
    assert encoded.shape == (3, 3)
    assert np.array_equal(np.argmax(encoded, axis=1), labels)
    logits = np.array([[3.0, 0, 0], [0, 0, 5.0], [0, 1.0, 0]])
    assert accuracy(logits, labels) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)


def test_im2col_col2im_are_adjoint(rng):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    x = rng.normal(size=(2, 3, 6, 6))
    cols, out_h, out_w = im2col(x, kernel=3, stride=1, padding=1)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel=3, stride=1, padding=1)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _reference_im2col(x, kernel, stride, padding):
    """Reference unfold: ``np.pad``, then the strided kernel-placement view
    reshaped into columns."""
    n, c = x.shape[:2]
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel * kernel)
    return cols, out_h, out_w


def _reference_batchnorm_forward(self, x):
    """Reference BatchNorm forward: every element-wise step broadcasts the
    per-channel vectors over the ``(rows, C)`` matrix."""
    self._shape = x.shape
    x2 = self._to_2d(x)
    if self.training:
        mean = x2.mean(axis=0)
        var = x2.var(axis=0)
        n = x2.shape[0]
        unbiased = var * n / max(n - 1, 1)
        self.set_buffer(
            "running_mean",
            (1 - self.momentum) * self.get_buffer("running_mean") + self.momentum * mean,
        )
        self.set_buffer(
            "running_var",
            (1 - self.momentum) * self.get_buffer("running_var") + self.momentum * unbiased,
        )
    else:
        mean = self.get_buffer("running_mean")
        var = self.get_buffer("running_var")
    self._std_inv = 1.0 / np.sqrt(var + self.eps)
    self._x_hat = (x2 - mean) * self._std_inv
    out2 = self.gamma.data * self._x_hat + self.beta.data
    # the forward-time record the backward follows (no arithmetic)
    self._grads = self._grad_params()
    return self._from_2d(out2, x.shape)


def _im2col_inputs(rng):
    """NCHW batches with the layouts the networks feed ``im2col``."""
    channel_last = rng.normal(size=(2, 9, 9, 5)).transpose(0, 3, 1, 2)
    yield channel_last  # what BatchNorm2d and the activations after it return
    yield channel_last[:, 1:4]  # a group slice, as Conv2d._unfold_group passes
    yield rng.normal(size=(2, 3, 9, 9))
    yield rng.normal(size=(1, 3, 9, 9))
    yield rng.normal(size=(2, 3, 9, 9)).astype(np.float32)


def test_im2col_matches_reference_loop(rng):
    """The gather unfold equals the per-offset loop and the strided-view
    unfold byte for byte, for any geometry, layout and dtype."""
    geometries = ((3, 1, 1), (2, 2, 0), (3, 2, 1), (4, 3, 2), (1, 2, 0))
    for x in _im2col_inputs(rng):
        n, c = x.shape[:2]
        for kernel, stride, padding in geometries:
            cols, out_h, out_w = im2col(x, kernel=kernel, stride=stride, padding=padding)
            assert cols.flags.c_contiguous
            assert cols.dtype == x.dtype
            padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            reference = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
            for ky in range(kernel):
                for kx in range(kernel):
                    reference[:, :, ky, kx] = padded[
                        :, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride
                    ]
            reference = reference.transpose(0, 4, 5, 1, 2, 3).reshape(cols.shape)
            np.testing.assert_array_equal(cols, reference)
            np.testing.assert_array_equal(cols, _reference_im2col(x, kernel, stride, padding)[0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["train", "eval", "no-grad", "frozen"])
@pytest.mark.parametrize(
    "kind,layout",
    [("2d", "channel-last"), ("2d", "nchw"), ("1d", "contiguous"), ("1d", "transposed")],
)
def test_batchnorm_matches_reference_broadcast(kind, layout, mode, dtype, rng):
    """The per-sample-row forward gives the (rows, C) broadcast form's bytes:
    output (and its strides), the retained x_hat and the backward grads.  An
    eval forward under no_grad() or of a frozen layer keeps no x_hat (its
    × gamma and + beta run in place); the frozen one gives the trainable
    layer's input gradient and no gamma or beta gradient."""
    if kind == "2d":
        shape = (4, 6, 5, 5)
        x = rng.normal(1.0, 2.0, size=(4, 5, 5, 6)).transpose(0, 3, 1, 2)
        make = nn.BatchNorm2d
    else:
        shape = (12, 6)
        x = rng.normal(1.0, 2.0, size=(6, 12)).T
        make = nn.BatchNorm1d
    if layout in ("nchw", "contiguous"):
        x = np.ascontiguousarray(x)
    x = x.astype(dtype, copy=False)
    assert x.shape == shape
    upstream = rng.normal(size=shape).astype(dtype)
    params = {
        name: rng.uniform(0.5, 1.5, size=6) if name in ("gamma", "running_var")
        else rng.normal(size=6)
        for name in ("gamma", "beta", "running_mean", "running_var")
    }

    def run(forward, mode):
        bn = make(6)
        bn.gamma.data = params["gamma"].copy()
        bn.beta.data = params["beta"].copy()
        bn.set_buffer("running_mean", params["running_mean"].copy())
        bn.set_buffer("running_var", params["running_var"].copy())
        bn.astype(dtype)
        if mode != "train":
            bn.eval()
        if mode == "frozen":
            bn.freeze()
        if mode == "no-grad":
            with nn.no_grad():
                return bn, forward(bn, x), None
        out = forward(bn, x)
        return bn, out, bn.backward(upstream)

    new_bn, new_out, new_grad = run(make.forward, mode)
    # the reference keeps x_hat and takes every gradient, in grad mode
    ref_bn, ref_out, ref_grad = run(_reference_batchnorm_forward, "train" if mode == "train" else "eval")
    assert new_out.strides == ref_out.strides
    pairs = [
        (new_out, ref_out),
        (new_bn.get_buffer("running_mean"), ref_bn.get_buffer("running_mean")),
        (new_bn.get_buffer("running_var"), ref_bn.get_buffer("running_var")),
    ]
    if mode in ("train", "eval"):
        assert new_bn._x_hat.strides == ref_bn._x_hat.strides
        pairs += [
            (new_bn._x_hat, ref_bn._x_hat),
            (new_grad, ref_grad),
            (new_bn.gamma.grad, ref_bn.gamma.grad),
            (new_bn.beta.grad, ref_bn.beta.grad),
        ]
    else:
        assert new_bn._x_hat is None
    if mode == "frozen":
        assert new_bn.gamma.grad is None and new_bn.beta.grad is None
        pairs.append((new_grad, ref_grad))
    if mode == "no-grad":
        with pytest.raises(RuntimeError, match="grad mode"):
            new_bn.backward(upstream)
    for new, ref in pairs:
        assert new.dtype == ref.dtype
        assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("architecture", ["resnet18", "mobilenetv2"])
def test_models_match_reference_kernels(architecture, tiny_dataset, monkeypatch):
    """Whole networks give the same bytes as with the strided-view im2col and
    the broadcast BatchNorm forward patched in: eval predict_proba, the eval
    input gradient (with trainable weights, so the convs keep their inputs
    and re-gather columns for the weight gradient) and the state dict after
    one training step.  Both runs share one BLAS, so any build holds."""
    from repro.config import TrainingConfig
    from repro.models.registry import build_classifier
    from repro.nn import conv, functional, norm, pooling

    images = np.random.default_rng(5).normal(size=(6, 3, 12, 12))

    def run():
        clf = build_classifier(architecture, tiny_dataset.num_classes, image_size=12, rng=11)
        # off-default BatchNorm parameters, so a reordered gamma/std_inv rounds
        bn_rng = np.random.default_rng(7)
        for module in clf.model.modules():
            if isinstance(module, norm._BatchNormBase):
                size = module.num_features
                module.gamma.data = bn_rng.uniform(0.5, 1.5, size=size)
                module.beta.data = bn_rng.normal(size=size)
                module.set_buffer("running_mean", bn_rng.normal(size=size))
                module.set_buffer("running_var", bn_rng.uniform(0.5, 1.5, size=size))
        proba = clf.predict_proba(images)
        logits = clf.model(images)
        input_grad = clf.model.backward(np.ones_like(logits))
        clf.fit(
            tiny_dataset,
            TrainingConfig(epochs=1, batch_size=len(tiny_dataset)),
            rng=3,
        )
        return [proba, input_grad, *clf.model.state_dict().values()]

    new = run()
    monkeypatch.setattr(conv, "im2col", _reference_im2col)
    monkeypatch.setattr(functional, "im2col", _reference_im2col)
    monkeypatch.setattr(pooling, "im2col", _reference_im2col)
    monkeypatch.setattr(norm._BatchNormBase, "forward", _reference_batchnorm_forward)
    reference = run()
    assert len(new) == len(reference)
    for left, right in zip(new, reference):
        assert left.tobytes() == right.tobytes()


def _zoo_conv_layers(monkeypatch):
    """One conv layer per ``groups == 1`` geometry of resnet18, mobilenetv2
    and vit on 16-pixel images, keyed by ``(C, O, k, stride, padding, H, W)``
    (vit has none: its patch embedding is a Linear)."""
    from repro.models.registry import build_classifier

    layers = {}
    original = nn.Conv2d.forward

    def record(self, x):
        if self.groups == 1:
            geometry = (self.in_channels, self.out_channels, self.kernel_size,
                        self.stride, self.padding, *x.shape[2:])
            layers.setdefault(geometry, self)
        return original(self, x)

    with monkeypatch.context() as patch:
        patch.setattr(nn.Conv2d, "forward", record)
        for architecture in ("resnet18", "mobilenetv2", "vit"):
            build_classifier(architecture, 10, image_size=16, rng=0).predict_proba(
                np.zeros((1, 3, 16, 16))
            )
    assert layers
    return layers


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 33, 64, 65, 120, 128, 129, 256])
def test_no_grad_conv_is_one_gemm_over_the_whole_batch(batch, monkeypatch):
    """Every ungrouped float64 conv gives ``im2col(x)[0] @ w.reshape(O, -1).T``
    over the whole batch, byte for byte, at every ``groups == 1`` geometry of
    the zoo on 16-pixel images, though it multiplies one image tile at a
    time.  Tiles against the transposed view ``W.T`` differ: on OpenBLAS
    0.3.31 the last 64 rows of ``A @ W.T`` differ from ``A[-64:] @ W.T`` at
    K = 144, O = 16, and one-image tiles differ at the O = 16, 8x8-output
    geometries.  Tiles against a C-contiguous copy of ``W.T`` match, so the
    conv multiplies against that copy.  Batches 5, 33, 65, 129 and 256 end
    in a part-filled tile at one geometry or more.  In grad mode a trainable
    conv keeps its input, re-gathers it for the whole-batch weight GEMM
    ``grad_flat.T @ im2col(x)[0]`` and folds ``col2im(grad_flat @ w_mat)``
    tile by tile, all byte-equal to the whole-batch forms; a frozen conv
    keeps nothing and gives the trainable conv's input gradient."""
    monkeypatch.delenv("REPRO_CONV_ENGINE", raising=False)
    layers = _zoo_conv_layers(monkeypatch)

    rng = np.random.default_rng(batch)
    for (channels, out_channels, kernel, stride, padding, h, w), layer in layers.items():
        x = rng.normal(size=(batch, channels, h, w))
        with nn.no_grad():
            out = layer(x)
        assert layer._engine == "im2col"
        cols, out_h, out_w = im2col(x, kernel, stride, padding)
        reference = cols @ layer.weight.data.reshape(out_channels, -1).T
        reference = reference.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
        if layer.use_bias:
            reference = reference + layer.bias.data[None, :, None, None]
        assert out.dtype == reference.dtype == np.float64
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes(), (channels, out_channels, kernel, h)

        # grad mode: a trainable weight keeps the input, a frozen one nothing
        upstream = rng.normal(size=reference.shape)
        grad_flat = upstream.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        w_mat = layer.weight.data.reshape(out_channels, -1)
        input_reference = col2im(grad_flat @ w_mat, x.shape, kernel, stride, padding)
        for frozen in (False, True):
            layer.weight.requires_grad = not frozen
            layer.zero_grad()
            out = layer(x)
            assert layer._x is (None if frozen else x)
            assert out.tobytes() == reference.tobytes(), (frozen, channels, out_channels, kernel, h)
            input_grad = layer.backward(upstream)
            assert input_grad.tobytes() == input_reference.tobytes(), (frozen, channels, out_channels, kernel, h)
            if not frozen:
                weight_reference = (grad_flat.T @ cols).reshape(layer.weight.data.shape)
                assert layer.weight.grad.tobytes() == weight_reference.tobytes()


def test_im2col_index_is_memoised_read_only():
    """The gather index is built once per geometry and shared, so no caller
    may write to it."""
    from repro.nn.functional import _im2col_index

    index = _im2col_index(3, 9, 9, 3, 2, 1)
    assert _im2col_index(3, 9, 9, 3, 2, 1) is index
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 0


def test_im2col_preserves_dtype(rng):
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    cols, _, _ = im2col(x, kernel=3, stride=1, padding=1)
    assert cols.dtype == np.float32


def test_pooling_backward_keeps_forward_dtype(rng):
    for pool in (nn.MaxPool2d(2), nn.AvgPool2d(2)):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = pool(x)
        assert out.dtype == np.float32
        grad = pool.backward(np.ones_like(out, dtype=np.float64))
        assert grad.dtype == np.float32


@pytest.mark.parametrize("groups", [1, 2], ids=["ungrouped", "grouped"])
def test_conv_backward_keeps_forward_dtype(rng, groups):
    conv = nn.Conv2d(4, 4, 3, padding=1, groups=groups, rng=1)
    x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
    out = conv(x)
    grad = conv.backward(np.ones_like(out, dtype=np.float64))
    assert grad.dtype == np.float32
    assert grad.shape == x.shape


def test_sigmoid_forward_keeps_forward_dtype(rng):
    sigmoid = nn.Sigmoid()
    x = rng.normal(size=(3, 4)).astype(np.float32)
    out = sigmoid(x)
    assert out.dtype == np.float32
    assert sigmoid.backward(np.ones_like(out)).dtype == np.float32
    # integer inputs still promote so the exponentials stay exact
    assert sigmoid(np.arange(-2, 3).reshape(1, 5)).dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_grouped_conv_matches_ungrouped_halves(rng, dtype):
    """The groups > 1 loop agrees with independent groups==1 fast-path convs."""
    grouped = nn.Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=1)
    halves = [nn.Conv2d(2, 3, 3, stride=2, padding=1, rng=2), nn.Conv2d(2, 3, 3, stride=2, padding=1, rng=3)]
    for g, half in enumerate(halves):
        half.weight.copy_(grouped.weight.data[g * 3 : (g + 1) * 3])
        half.bias.copy_(grouped.bias.data[g * 3 : (g + 1) * 3])
    x = rng.normal(size=(2, 4, 8, 8)).astype(dtype)
    out = grouped(x)
    expected = np.concatenate([half(x[:, g * 2 : (g + 1) * 2]) for g, half in enumerate(halves)], axis=1)
    np.testing.assert_array_equal(out, expected)

    upstream = rng.normal(size=out.shape)
    grad = grouped.backward(upstream)
    expected_grad = np.concatenate(
        [half.backward(upstream[:, g * 3 : (g + 1) * 3]) for g, half in enumerate(halves)],
        axis=1,
    )
    np.testing.assert_allclose(grad, expected_grad, rtol=0.0, atol=1e-12)
    for g, half in enumerate(halves):
        np.testing.assert_allclose(
            grouped.weight.grad[g * 3 : (g + 1) * 3], half.weight.grad, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            grouped.bias.grad[g * 3 : (g + 1) * 3], half.bias.grad, rtol=0.0, atol=1e-12
        )


def test_conv_eval_mode_drops_im2col_scratch_but_backward_still_works(rng):
    """A train-mode forward keeps only the input itself, never the k^2-sized
    column matrix; a no_grad() forward keeps nothing, and a frozen conv
    (white-box prompting's source model) keeps nothing yet gives the same
    input gradient and no weight gradient.  An eval backward equals a
    train-mode one."""
    conv = nn.Conv2d(3, 4, 3, padding=1, rng=1)
    x = rng.normal(size=(2, 3, 8, 8))

    conv.train()
    out_train = conv(x)
    assert conv._x is x
    upstream = rng.normal(size=out_train.shape)
    grad_train = conv.backward(upstream)
    weight_grad_train = conv.weight.grad.copy()
    conv.zero_grad()

    conv.eval()
    out_eval = conv(x)
    np.testing.assert_array_equal(out_train, out_eval)
    grad_eval = conv.backward(upstream)
    np.testing.assert_array_equal(grad_train, grad_eval)
    np.testing.assert_array_equal(weight_grad_train, conv.weight.grad)
    conv.zero_grad()

    with nn.no_grad():
        np.testing.assert_array_equal(conv(x), out_eval)
    assert conv._x is None

    conv.freeze()
    np.testing.assert_array_equal(conv(x), out_eval)
    assert conv._x is None
    np.testing.assert_array_equal(conv.backward(upstream), grad_eval)
    assert conv.weight.grad is None and conv.bias.grad is None


def test_clip_grad_norm_scales_gradients(rng):
    params = [nn.Parameter(rng.normal(size=(4,))) for _ in range(3)]
    for param in params:
        param.accumulate_grad(rng.normal(size=(4,)) * 100)
    from repro.nn.functional import clip_grad_norm

    clip_grad_norm(params, max_norm=1.0)
    total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
    assert total <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# conv engines and precision tiers
# ---------------------------------------------------------------------------

ENGINE_CASES = [
    ("k3", dict(in_channels=3, out_channels=4, kernel_size=3, padding=1), (2, 3, 8, 8)),
    ("k3-stride", dict(in_channels=3, out_channels=4, kernel_size=3, stride=2, padding=1), (2, 3, 9, 9)),
    ("k5-pad2", dict(in_channels=2, out_channels=3, kernel_size=5, padding=2), (2, 2, 10, 10)),
    ("k3-nopad", dict(in_channels=4, out_channels=6, kernel_size=3), (3, 4, 7, 7)),
    ("k1", dict(in_channels=6, out_channels=4, kernel_size=1), (2, 6, 8, 8)),
    ("k1-stride", dict(in_channels=6, out_channels=4, kernel_size=1, stride=2), (2, 6, 9, 9)),
    ("grouped", dict(in_channels=4, out_channels=6, kernel_size=3, stride=2, padding=1, groups=2), (2, 4, 8, 8)),
    ("depthwise", dict(in_channels=4, out_channels=4, kernel_size=3, padding=1, groups=4), (2, 4, 6, 6)),
    ("big", dict(in_channels=8, out_channels=8, kernel_size=3, padding=1), (8, 8, 16, 16)),
]


def _run_conv(conv_kwargs, x, upstream, engine, monkeypatch, training=True):
    """One forward+backward under a forced engine; returns all four tensors."""
    monkeypatch.setenv("REPRO_CONV_ENGINE", engine)
    conv = nn.Conv2d(rng=1, **conv_kwargs)
    if not training:
        conv.eval()
    out = conv(x)
    grad_input = conv.backward(upstream)
    return out, grad_input, conv.weight.grad.copy(), conv.bias.grad.copy()


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize(
    "name,conv_kwargs,shape", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES]
)
def test_conv_engines_agree_within_float64_tolerance(
    name, conv_kwargs, shape, training, rng, monkeypatch
):
    """Implicit-GEMM (and the pointwise shortcut it enables for k=1) must match
    the explicit im2col engine to 1e-9 at float64 on every geometry — stride,
    padding, groups (where implicit falls back to im2col) and eval mode."""
    x = rng.normal(size=shape)
    probe = nn.Conv2d(rng=1, **conv_kwargs)
    upstream = rng.normal(size=probe(x).shape)
    reference = _run_conv(conv_kwargs, x, upstream, "im2col", monkeypatch, training)
    implicit = _run_conv(conv_kwargs, x, upstream, "implicit", monkeypatch, training)
    for ref, got, label in zip(reference, implicit, ("out", "grad_input", "grad_weight", "grad_bias")):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9, err_msg=f"{name}/{label}")


FROZEN_CASES = [
    ("linear", lambda: nn.Linear(6, 4, rng=1), (3, 6), "auto"),
    ("linear-3d", lambda: nn.Linear(6, 4, rng=1), (2, 5, 6), "auto"),
] + [
    (f"{name}-{engine}", lambda kwargs=kwargs: nn.Conv2d(rng=1, **kwargs), shape, engine)
    for name, kwargs, shape in ENGINE_CASES
    for engine in ("im2col", "implicit")
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "name,layer_factory,shape,engine", FROZEN_CASES, ids=[c[0] for c in FROZEN_CASES]
)
def test_frozen_layer_keeps_no_weight_operand(name, layer_factory, shape, engine, dtype, rng, monkeypatch):
    """A frozen Linear or Conv2d (every engine: im2col, implicit and the
    pointwise path k=1 takes under the override) keeps no weight-gradient
    operand and computes no parameter gradient, and its output and input
    gradient are the trainable layer's bytes.  A trainable im2col conv
    (ungrouped, grouped or depthwise) keeps the input itself."""
    monkeypatch.setenv("REPRO_CONV_ENGINE", engine)
    x = rng.normal(size=shape).astype(dtype)
    operands = ("_x2", "_x", "_windows", "_pw_x3")

    def run(frozen):
        layer = layer_factory().astype(dtype)
        layer.eval()
        if frozen:
            layer.freeze()
        out = layer(x)
        kept = [getattr(layer, attr) for attr in operands if getattr(layer, attr, None) is not None]
        grad = layer.backward(np.ones_like(out))
        return layer, out, grad, kept

    full, full_out, full_grad, full_kept = run(frozen=False)
    frozen, frozen_out, frozen_grad, frozen_kept = run(frozen=True)
    assert len(full_kept) == 1 and frozen_kept == []
    if getattr(full, "_engine", None) == "im2col":
        assert full_kept[0] is x
    assert all(param.grad is not None for param in full.parameters())
    assert all(param.grad is None for param in frozen.parameters())
    assert frozen_out.tobytes() == full_out.tobytes()
    assert frozen_grad.dtype == full_grad.dtype
    assert frozen_grad.tobytes() == full_grad.tobytes()


def test_conv_float64_auto_keeps_the_explicit_engine(rng, monkeypatch):
    """The reference tier carries a bit-identity contract: under "auto" a
    float64 conv must run the historical im2col path, never the re-tiled
    engines whose GEMMs round differently."""
    monkeypatch.delenv("REPRO_CONV_ENGINE", raising=False)
    for kwargs, shape in (
        (dict(in_channels=3, out_channels=4, kernel_size=3, padding=1), (16, 3, 16, 16)),
        (dict(in_channels=6, out_channels=4, kernel_size=1), (2, 6, 8, 8)),
    ):
        conv = nn.Conv2d(rng=1, **kwargs)
        conv(rng.normal(size=shape))
        assert conv._engine == "im2col"


def test_conv_float32_auto_selects_fast_engines(rng, monkeypatch):
    """The float32 tier picks pointwise for 1x1 convs and implicit GEMM once
    the would-be column buffer is large, and its results stay float32 and
    within float32 accumulation tolerance of the explicit engine."""
    monkeypatch.delenv("REPRO_CONV_ENGINE", raising=False)
    pointwise = nn.Conv2d(6, 4, 1, rng=1)
    pointwise(rng.normal(size=(2, 6, 8, 8)).astype(np.float32))
    assert pointwise._engine == "pointwise"

    kwargs = dict(in_channels=8, out_channels=8, kernel_size=3, padding=1)
    x = rng.normal(size=(16, 8, 32, 32)).astype(np.float32)
    auto = nn.Conv2d(rng=1, **kwargs).astype(np.float32)
    out_auto = auto(x)
    assert auto._engine == "implicit"
    assert out_auto.dtype == np.float32
    upstream = rng.normal(size=out_auto.shape).astype(np.float32)
    grad_auto = auto.backward(upstream)
    assert grad_auto.dtype == np.float32

    monkeypatch.setenv("REPRO_CONV_ENGINE", "im2col")
    explicit = nn.Conv2d(rng=1, **kwargs).astype(np.float32)
    out_ref = explicit(x)
    grad_ref = explicit.backward(upstream)
    np.testing.assert_allclose(out_auto, out_ref, rtol=0.0, atol=1e-4)
    np.testing.assert_allclose(grad_auto, grad_ref, rtol=0.0, atol=1e-4)
    np.testing.assert_allclose(auto.weight.grad, explicit.weight.grad, rtol=0.0, atol=1e-3)


def test_conv_engine_override_rejects_unknown_value(monkeypatch):
    from repro.nn.conv import conv_engine_override

    monkeypatch.setenv("REPRO_CONV_ENGINE", "winograd")
    with pytest.raises(ValueError, match="REPRO_CONV_ENGINE"):
        conv_engine_override()


def test_matmul_col2im_matches_unfused_form(monkeypatch):
    """The image-tiled fold gives ``col2im(grad_flat @ w_mat)`` byte for byte
    at every ``groups == 1`` zoo geometry on 16-pixel images, in float64,
    float32 and a float32 gradient against float64 weights (the product's
    dtype accumulates): each tile's rows of an NN GEMM round as the whole
    GEMM's do, and the fold adds in the same order.  At float64 every
    geometry meets a batch that ends in a part-filled tile after a full one;
    16 and 32 are the training batches."""
    from repro.nn.functional import _col2im_block_images, conv_output_size, matmul_col2im

    layers = _zoo_conv_layers(monkeypatch)
    part_filled = set()
    for geometry, layer in layers.items():
        channels, out_channels, kernel, stride, padding, h, w = geometry
        out_h = conv_output_size(h, kernel, stride, padding)
        out_w = conv_output_size(w, kernel, stride, padding)
        for grad_dtype, weight_dtype in (
            (np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)
        ):
            w_mat = layer.weight.data.reshape(out_channels, -1).astype(weight_dtype)
            block = _col2im_block_images(out_h * out_w * w_mat.shape[1] * w_mat.itemsize)
            for batch in (5, 16, 32, 33, 65, 129):
                shape = (batch, channels, h, w)
                grad_flat = np.random.default_rng(batch).normal(
                    size=(batch * out_h * out_w, out_channels)
                ).astype(grad_dtype)
                fused = matmul_col2im(grad_flat, w_mat, shape, kernel, stride, padding)
                unfused = col2im(grad_flat @ w_mat, shape, kernel, stride, padding)
                assert fused.dtype == unfused.dtype == weight_dtype
                assert fused.tobytes() == unfused.tobytes(), (geometry, batch, grad_dtype, weight_dtype)
                if grad_dtype == weight_dtype == np.float64 and batch > block and batch % block:
                    part_filled.add(geometry)
    assert part_filled == set(layers)


def test_col2im_blocking_is_bitwise_stable(rng):
    """Image blocking re-tiles only the scatter-add, so any block size must
    fold to bitwise-identical gradients (the float64 contract depends on it)."""
    import repro.nn.functional as F

    x_shape = (7, 3, 8, 8)
    cols, out_h, out_w = im2col(rng.normal(size=x_shape), kernel=3, stride=1, padding=1)
    grad_cols = rng.normal(size=cols.shape)
    results = []
    original = F._COL2IM_BLOCK_BYTES
    try:
        for block_bytes in (1, 1 << 12, original, 1 << 30):
            F._COL2IM_BLOCK_BYTES = block_bytes
            results.append(col2im(grad_cols, x_shape, kernel=3, stride=1, padding=1))
    finally:
        F._COL2IM_BLOCK_BYTES = original
    for other in results[1:]:
        np.testing.assert_array_equal(results[0], other)


def test_functional_ops_preserve_float32(rng):
    x32 = rng.normal(size=(4, 5)).astype(np.float32)
    assert softmax(x32).dtype == np.float32
    assert log_softmax(x32).dtype == np.float32
    from repro.nn.functional import sigmoid

    assert sigmoid(x32).dtype == np.float32
    assert one_hot(np.array([0, 2]), 3, dtype=np.float32).dtype == np.float32
    # the defaults are unchanged: float64 in, float64 out; ints promote
    assert softmax(x32.astype(np.float64)).dtype == np.float64
    assert one_hot(np.array([0, 2]), 3).dtype == np.float64


def test_accuracy_empty_batch_and_shape_contract():
    for dtype in (np.float64, np.float32):
        assert accuracy(np.empty((0, 5), dtype=dtype), np.empty((0,), dtype=np.int64)) == 0.0
    with pytest.raises(ValueError, match="2-D"):
        accuracy(np.zeros((3,)), np.zeros((3,), dtype=np.int64))
    with pytest.raises(ValueError, match="batch size"):
        accuracy(np.zeros((3, 2)), np.zeros((4,), dtype=np.int64))


def test_module_astype_casts_params_buffers_and_optimizer_follows(rng):
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=1), nn.BatchNorm2d(4), nn.ReLU(), nn.Flatten(),
    )
    model.astype(np.float32)
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    assert {b.dtype for _, b in model.named_buffers()} == {np.dtype(np.float32)}
    # optimiser scratch allocates from the parameter dtype
    optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    out = model(x)
    model.backward(np.ones_like(out))
    optimizer.step()
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    with pytest.raises(ValueError, match="unsupported parameter dtype"):
        model.astype(np.int32)


def test_cross_entropy_targets_follow_logits_dtype(rng):
    criterion = nn.CrossEntropyLoss()
    logits32 = rng.normal(size=(4, 3)).astype(np.float32)
    labels = np.array([0, 1, 2, 1])
    criterion(logits32, labels)
    assert criterion.backward().dtype == np.float32
    criterion(logits32.astype(np.float64), labels)
    assert criterion.backward().dtype == np.float64
