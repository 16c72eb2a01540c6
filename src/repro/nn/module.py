"""Module base class, Sequential container and the grad mode."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter, as_param_dtype


class _GradMode(threading.local):
    # a class attribute, so every thread starts with grad mode on
    enabled = True


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    """Whether forwards in this thread keep the state their backward reads."""
    return _GRAD_MODE.enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Run forwards in this thread that keep no backward state.

    Inference (``ImageClassifier.predict_logits``/``features``) runs under
    it; a ``backward`` after a forward run here raises instead of reading an
    earlier forward's state.  Outputs are byte-identical to a grad-mode
    forward.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


class Module:
    """Base class for layers and models.

    Subclasses implement :meth:`forward` and :meth:`backward`.  In grad mode
    ``forward`` keeps on ``self`` exactly what ``backward`` will read, and
    under :func:`no_grad` it keeps nothing; ``backward`` receives the
    gradient of the loss with respect to the module output and must return
    the gradient with respect to the module input, accumulating the
    gradients of the parameters that were trainable at forward time.
    """

    def __init__(self) -> None:
        self.training: bool = True
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    # -- registration -----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal --------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its submodules (depth-first)."""
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes ------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def freeze(self) -> "Module":
        """Mark every parameter as non-trainable (e.g. a frozen source model)."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state ------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter values plus any registered buffers, keyed by dotted path."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        if missing:
            raise KeyError(f"state dict is missing keys: {sorted(missing)}")
        for name, param in own_params.items():
            param.copy_(state[name])
        for name, _ in own_buffers.items():
            self._set_buffer_by_path(name, as_param_dtype(state[name]))

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Non-trainable state (e.g. BatchNorm running statistics)."""
        for name, buf in getattr(self, "_buffers", {}).items():
            yield (f"{prefix}{name}", buf)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        if "_buffers" not in self.__dict__:
            object.__setattr__(self, "_buffers", {})
        self._buffers[name] = as_param_dtype(value)

    def get_buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = as_param_dtype(value)

    def _set_buffer_by_path(self, path: str, value: np.ndarray) -> None:
        parts = path.split(".")
        module: Module = self
        for part in parts[:-1]:
            module = module._modules[part]
        module.set_buffer(parts[-1], value)

    def astype(self, dtype) -> "Module":
        """Cast every parameter and buffer to ``dtype`` (``float32``/``float64``).

        This is how a model enters the low-precision training tier: build (and
        initialise) in ``float64`` so RNG streams are unchanged, then cast.
        Optimisers allocate their scratch with ``zeros_like``/``empty_like``,
        so construct them *after* the cast.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"unsupported parameter dtype {dtype}")
        for module in self.modules():
            for param in module._parameters.values():
                param.data = param.data.astype(dtype, copy=False)
                if param.grad is not None:
                    param.grad = param.grad.astype(dtype, copy=False)
            for name, buf in getattr(module, "_buffers", {}).items():
                module._buffers[name] = buf.astype(dtype, copy=False)
        return self

    # -- computation ------------------------------------------------------
    def _grad_params(self) -> Optional[FrozenSet[str]]:
        """Names of this layer's own parameters its backward will give a
        gradient, decided at forward time: ``None`` under :func:`no_grad`,
        else those whose ``requires_grad`` is on.  Backward follows the
        record even if a flag flips in between."""
        if not grad_enabled():
            return None
        return frozenset(
            name for name, param in self._parameters.items() if param.requires_grad
        )

    def _saved(self, state):
        """``state`` as the last forward kept it for backward; raises when
        that forward ran under :func:`no_grad` and kept nothing."""
        if state is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a forward run in grad mode"
            )
        return state

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = f"layer{len(self._order)}"
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def layers(self) -> List[Module]:
        return [self._modules[name] for name in self._order]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for name in reversed(self._order):
            grad_output = self._modules[name].backward(grad_output)
        return grad_output
