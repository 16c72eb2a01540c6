"""Fused optimiser sweeps must be bit-identical to the naive expressions.

The artifact store keys shadow pools by weight fingerprints, so the fused
in-place Adam/SGD passes must reproduce the original expression-per-line
update math byte for byte — otherwise every cached pool would silently
invalidate.  These tests drive the shipped optimisers and literal reference
implementations of the pre-fusion expressions over identical parameter/grad
streams (vectors to rank-4 tensors) and require exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam
from repro.nn.parameter import Parameter


def _make_params(rng: np.random.Generator, shapes):
    return [Parameter(rng.normal(0, 1, shape), name=f"p{i}") for i, shape in enumerate(shapes)]


def _clone_params(params):
    return [Parameter(p.data.copy(), name=p.name) for p in params]


def _set_grads(params, grads):
    for param, grad in zip(params, grads):
        param.grad = grad.copy()


SHAPES = [(7, 3), (16,), (2, 4, 3, 3), (5, 8, 6)]  # ranks 1 to 4


class _ReferenceSGD:
    """The pre-fusion SGD step, expression for expression."""

    def __init__(self, parameters, lr, momentum, weight_decay, nesterov):
        self.parameters = list(parameters)
        self.lr, self.momentum = float(lr), float(momentum)
        self.weight_decay, self.nesterov = float(weight_decay), bool(nesterov)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            velocity *= self.momentum
            velocity += grad
            update = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * update


class _ReferenceAdam:
    """The pre-fusion Adam step, expression for expression."""

    def __init__(self, parameters, lr, betas, eps, weight_decay):
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps, self.weight_decay = float(eps), float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            if self.weight_decay:
                param.data -= self.lr * self.weight_decay * param.data
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _run_pair(fused, reference, params_fused, params_reference, steps=7, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grads = [rng.normal(0, 1, p.data.shape) for p in params_fused]
        _set_grads(params_fused, grads)
        _set_grads(params_reference, grads)
        fused.step()
        reference.step()
        for left, right in zip(params_fused, params_reference):
            np.testing.assert_array_equal(left.data, right.data, err_msg=left.name)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("optimizer_cls", [Adam])
def test_adam_fused_bit_identical(optimizer_cls, weight_decay, rng):
    params = _make_params(rng, SHAPES)
    reference_params = _clone_params(params)
    fused = optimizer_cls(params, lr=1e-2, weight_decay=weight_decay)
    reference = _ReferenceAdam(
        reference_params, lr=1e-2, betas=(0.9, 0.999), eps=1e-8, weight_decay=weight_decay
    )
    _run_pair(fused, reference, params, reference_params)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("nesterov", [False, True])
@pytest.mark.parametrize("optimizer_cls", [SGD])
def test_sgd_fused_bit_identical(optimizer_cls, nesterov, weight_decay, rng):
    params = _make_params(rng, SHAPES)
    reference_params = _clone_params(params)
    fused = optimizer_cls(
        params, lr=1e-2, momentum=0.9, weight_decay=weight_decay, nesterov=nesterov
    )
    reference = _ReferenceSGD(
        reference_params, lr=1e-2, momentum=0.9, weight_decay=weight_decay, nesterov=nesterov
    )
    _run_pair(fused, reference, params, reference_params)


def test_fused_step_skips_gradless_parameters(rng):
    params = _make_params(rng, [(4, 4), (3,)])
    params[1].requires_grad = False
    optimizer = Adam(params, lr=1e-2)
    _set_grads(params, [rng.normal(0, 1, p.data.shape) for p in params])
    frozen = params[1].data.copy()
    before = params[0].data.copy()
    optimizer.step()
    np.testing.assert_array_equal(params[1].data, frozen)
    assert not np.array_equal(params[0].data, before)


def test_fused_step_allocates_scratch_once(rng):
    params = _make_params(rng, [(6, 6)])
    optimizer = SGD(params, lr=1e-2)
    _set_grads(params, [rng.normal(0, 1, (6, 6))])
    optimizer.step()
    scratch = optimizer._scratch
    _set_grads(params, [rng.normal(0, 1, (6, 6))])
    optimizer.step()
    assert optimizer._scratch is scratch  # persistent, not re-allocated per step
