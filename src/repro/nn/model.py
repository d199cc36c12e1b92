"""The :class:`Sequential` model container.

Besides the usual forward / backward / predict interface, the container
exposes the hooks the fault-sneaking attack relies on:

* :meth:`Sequential.logits` — the input to the final softmax layer (eq. (3)
  of the paper operates on logits, not probabilities);
* :meth:`Sequential.forward_between` — run an arbitrary slice of layers,
  which lets the attack cache the activations feeding the attacked layer;
* :meth:`Sequential.named_parameters` and in-place writable
  ``layer.params[...]`` arrays — the attack mutates parameters directly;
* :meth:`Sequential.snapshot` / :meth:`Sequential.restore` — cheap state
  save/restore around an attack or fault-injection campaign.

:class:`PrefixCache` is the re-measurement kernel built on
``forward_between``: it keeps a clean model's activations below the first
modified layer and re-runs only the suffix for every modified copy.
"""

from __future__ import annotations

import copy as _copy
from typing import Iterator, Sequence

import numpy as np

from repro.nn.layers import Layer, Softmax, layer_from_config
from repro.nn.metrics import accuracy as _accuracy
from repro.utils.errors import ConfigurationError

__all__ = ["PrefixCache", "Sequential", "predict_classes"]


class Sequential:
    """A feed-forward stack of layers executed in order.

    Parameters
    ----------
    layers:
        The layers, executed first to last.  Layer names must be unique; a
        duplicate name gets a numeric suffix appended automatically.
    name:
        Optional model name used in reprs and serialised archives.
    """

    def __init__(self, layers: Sequence[Layer], *, name: str = "sequential"):
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.name = name
        self.layers: list[Layer] = list(layers)
        self._uniquify_names()

    # -- construction helpers -------------------------------------------------
    def _uniquify_names(self) -> None:
        seen: dict[str, int] = {}
        for layer in self.layers:
            base = layer.name
            if base not in seen:
                seen[base] = 0
                continue
            seen[base] += 1
            layer.name = f"{base}_{seen[base]}"
            seen[layer.name] = 0

    # -- inference -------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full network, including any trailing softmax."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    @property
    def logits_end(self) -> int:
        """Index one past the last layer that produces logits.

        If the network ends with a :class:`Softmax` layer, logits are the
        input to that layer; otherwise the final layer output already is the
        logit vector.
        """
        if self.layers and isinstance(self.layers[-1], Softmax):
            return len(self.layers) - 1
        return len(self.layers)

    def logits(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Return the pre-softmax class scores ``Z(θ, x)``."""
        return self.forward_between(x, 0, self.logits_end, training=training)

    def forward_between(
        self, x: np.ndarray, start: int = 0, stop: int | None = None, training: bool = False
    ) -> np.ndarray:
        """Run only ``self.layers[start:stop]`` on ``x``.

        Used by the attack's feature cache: activations below the first
        attacked layer are computed once, then only the suffix is re-run as
        the parameter modification evolves.
        """
        stop = len(self.layers) if stop is None else stop
        if not 0 <= start <= stop <= len(self.layers):
            raise ConfigurationError(
                f"invalid layer slice [{start}, {stop}) for a model with "
                f"{len(self.layers)} layers"
            )
        out = x
        for layer in self.layers[start:stop]:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Return predicted integer labels for a batch of inputs."""
        return np.argmax(self.predict_logits(x, batch_size=batch_size), axis=1)

    def predict_logits(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Return logits, evaluated in mini-batches to bound memory use."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.logits(x[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    def predict_proba(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Return softmax probabilities for a batch of inputs."""
        logits = self.predict_logits(x, batch_size=batch_size)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def evaluate(self, x: np.ndarray, y: np.ndarray, *, batch_size: int = 256) -> float:
        """Return classification accuracy on ``(x, y)``."""
        return _accuracy(y, self.predict(x, batch_size=batch_size))

    # -- training support --------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient from the final layer to the input."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_between(
        self, grad_output: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Backpropagate through only ``self.layers[start:stop]``."""
        stop = len(self.layers) if stop is None else stop
        grad = grad_output
        for layer in reversed(self.layers[start:stop]):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self) -> None:
        """Reset parameter gradients on every layer."""
        for layer in self.layers:
            layer.zero_grads()

    # -- parameter access ---------------------------------------------------------
    @property
    def n_params(self) -> int:
        """Total number of trainable scalars in the model."""
        return sum(layer.n_params for layer in self.layers)

    def get_layer(self, name: str) -> Layer:
        """Return the layer with the given name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}; available: {[l.name for l in self.layers]}")

    def layer_index(self, name: str) -> int:
        """Return the positional index of the layer with the given name."""
        for index, layer in enumerate(self.layers):
            if layer.name == name:
                return index
        raise KeyError(f"no layer named {name!r}")

    def trainable_layers(self) -> list[Layer]:
        """Return layers holding at least one trainable parameter."""
        return [layer for layer in self.layers if layer.params]

    def named_parameters(self) -> Iterator[tuple[str, str, np.ndarray]]:
        """Yield ``(layer_name, param_name, array)`` for every parameter."""
        for layer in self.layers:
            for param_name, value in layer.params.items():
                yield layer.name, param_name, value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Return a deep copy of every parameter, keyed by ``layer/param``."""
        return {
            f"{layer_name}/{param_name}": value.copy()
            for layer_name, param_name, value in self.named_parameters()
        }

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from a :meth:`snapshot` dictionary (in place)."""
        for layer_name, param_name, value in self.named_parameters():
            key = f"{layer_name}/{param_name}"
            if key not in state:
                raise KeyError(f"snapshot is missing parameter {key!r}")
            stored = state[key]
            if stored.shape != value.shape:
                raise ConfigurationError(
                    f"snapshot shape mismatch for {key}: {stored.shape} vs {value.shape}"
                )
            value[...] = stored

    def copy(self) -> "Sequential":
        """Return an independent deep copy of the model (structure + weights)."""
        return _copy.deepcopy(self)

    # -- description -------------------------------------------------------------
    def get_config(self) -> dict:
        """Return a serialisable description of the architecture."""
        return {
            "name": self.name,
            "layers": [layer.get_config() for layer in self.layers],
        }

    @classmethod
    def from_config(cls, config: dict) -> "Sequential":
        """Rebuild an (untrained) model from :meth:`get_config` output."""
        layers = [layer_from_config(layer_cfg) for layer_cfg in config["layers"]]
        return cls(layers, name=config.get("name", "sequential"))

    def summary(self) -> str:
        """Return a human-readable, layer-by-layer summary table."""
        lines = [f"Model {self.name!r} — {self.n_params:,} parameters", "-" * 60]
        for index, layer in enumerate(self.layers):
            lines.append(
                f"{index:>3}  {layer.__class__.__name__:<12} {layer.name:<24} "
                f"{layer.n_params:>12,}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sequential(name={self.name!r}, layers={len(self.layers)}, "
            f"n_params={self.n_params})"
        )


def predict_classes(logits: np.ndarray) -> np.ndarray:
    """Arg-max class of each logit row; a non-finite row predicts no class.

    A row containing NaN or ±Inf gets ``-1``, which matches no label, so an
    image whose logits blew up never matches one by accident (``np.argmax``
    alone would return the index of the first NaN).
    """
    logits = np.asarray(logits)
    return np.where(np.isfinite(logits).all(axis=1), np.argmax(logits, axis=1), -1)


class PrefixCache:
    """Clean activations below layer ``start`` for suffix-only re-measurement.

    The activations of ``images`` through ``model.layers[:start]`` are
    computed once, in the same ``batch_size`` mini-batches as
    :meth:`Sequential.predict_logits`.  :meth:`logits` then runs only
    ``layers[start:logits_end]`` of any model whose layers below ``start``
    equal the clean model's — every copy modified only from ``start`` on —
    and returns exactly the logits ``predict_logits`` would: each layer sees
    the same batch arrays in the same order.
    """

    def __init__(
        self, model: Sequential, images: np.ndarray, start: int, *, batch_size: int = 256
    ):
        self.start = int(start)
        self._prefix = [
            model.forward_between(images[first : first + batch_size], 0, self.start)
            for first in range(0, images.shape[0], batch_size)
        ]

    def logits(self, model: Sequential) -> np.ndarray:
        """Logits of ``model`` on the cached images, re-running the suffix only."""
        return np.concatenate(
            [
                model.forward_between(batch, self.start, model.logits_end)
                for batch in self._prefix
            ],
            axis=0,
        )

    def predict(self, model: Sequential) -> np.ndarray:
        """Predicted classes of ``model`` (``-1`` for non-finite logit rows)."""
        return predict_classes(self.logits(model))
