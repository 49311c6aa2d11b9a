"""Small dense GCN: forward pass, row-wise cross-entropy, analytic gradients.

The model is one or two graph-convolution layers. Each layer computes
``P_l = A_hat @ H_l @ W_l (+ b_l)``; hidden layers apply the configured
activation, the final layer emits raw logits. ``forward`` and
``gradient`` take one calling convention: the first layer's message
``A_hat @ X`` (``feature_message``; it depends on the graph alone, so a
client holds it) and the node indices whose logits the caller reads
(the train rows for the loss, the test rows for accuracy). The last
layer is built for those rows only.
Parameters are grouped into a shared encoder and an optional client-local
head (the final layer, in cross-domain federations) and travel between
client and server as flat vectors with a canonical layer-ordered,
row-major layout.

Everything here is pure and double-precision; parameter values returned
from one call are never aliased into another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedModelError
from .graphs import NormalizedAdjacency

__all__ = [
    "ModelConfig",
    "Layer",
    "ParameterSet",
    "FlatVector",
    "init_params",
    "feature_message",
    "forward",
    "gradient",
    "flatten",
    "unflatten",
    "layer_slices",
    "induced_operator",
    "ACTIVATIONS",
]

SHARED = "shared"
LOCAL = "local"
ACTIVATIONS = ("relu", "identity")


def _check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise InputError(f"activation must be {' or '.join(map(repr, ACTIVATIONS))}")


@dataclass(frozen=True)
class ModelConfig:
    """The GCN shapes this module trains: 1 or 2 layers, a positive hidden
    width (also for 1 layer, where it goes unused), and one of ACTIVATIONS.
    The data decides the input and output widths (see ``init_params``)."""

    n_layers: int = 2
    hidden_dim: int = 16
    activation: str = "relu"
    bias: bool = True

    def __post_init__(self):
        if self.n_layers not in (1, 2):
            raise InputError("layers must be 1 or 2")
        if self.hidden_dim < 1:
            raise InputError("hidden width must be >= 1")
        _check_activation(self.activation)


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray          # (fan_in, fan_out)
    bias: np.ndarray | None     # (fan_out,) or None
    group: str                  # SHARED or LOCAL

    def size(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)


@dataclass(frozen=True)
class ParameterSet:
    layers: tuple[Layer, ...]

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class LayerSpec:
    """Shape descriptor for one layer inside a flat vector."""

    index: int
    group: str
    w_shape: tuple[int, int]
    b_size: int  # 0 when the layer has no bias

    @property
    def size(self) -> int:
        return self.w_shape[0] * self.w_shape[1] + self.b_size


@dataclass(frozen=True)
class FlatVector:
    """Concatenated parameters of the selected layers, canonical order:
    layers ascending, weight (row-major) then bias within each layer."""

    values: np.ndarray
    layout: tuple[LayerSpec, ...]

    def __post_init__(self):
        expect = sum(s.size for s in self.layout)
        if self.values.shape != (expect,):
            raise InputError(
                f"flat vector length {self.values.shape} does not match layout ({expect})"
            )


def init_params(config: ModelConfig, in_dim: int, out_dim: int, seed: int,
                cross_domain: bool = False) -> ParameterSet:
    """Seeded uniform initialization, scale sqrt(6 / (fan_in + fan_out)),
    of an ``in_dim -> out_dim`` model of ``config``'s shape.

    In cross-domain mode the final layer is tagged as the client-local
    head; everything else is the shared encoder. Biases start at zero.
    RNG order: one uniform draw per layer, ascending.
    """
    if min(in_dim, out_dim) < 1:
        raise InputError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    dims = [in_dim]
    if config.n_layers == 2:
        dims.append(config.hidden_dim)
    dims.append(out_dim)
    layers = []
    for li in range(config.n_layers):
        fan_in, fan_out = dims[li], dims[li + 1]
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-s, s, size=(fan_in, fan_out))
        b = np.zeros(fan_out) if config.bias else None
        last = li == config.n_layers - 1
        group = LOCAL if (cross_domain and last) else SHARED
        layers.append(Layer(weight=w, bias=b, group=group))
    if cross_domain and all(l.group == LOCAL for l in layers):
        raise InputError("cross-domain mode needs at least one shared encoder layer")
    return ParameterSet(layers=tuple(layers))


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(x, 0.0) if kind == "relu" else x


def feature_message(adj: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """The first layer's message ``A_hat @ x``; ``x`` needs one row per
    node (InputError otherwise). It depends on the graph alone, so a
    client computes it once (``ClientState.message``)."""
    if x.shape[0] != adj.n_nodes:
        raise InputError(f"feature rows {x.shape[0]} != adjacency size {adj.n_nodes}")
    return adj @ np.asarray(x, dtype=np.float64)


def forward(
    params: ParameterSet,
    adj: NormalizedAdjacency,
    message: np.ndarray,
    rows: np.ndarray,
    activation: str = "relu",
):
    """Run the propagation stack from the first layer's ``message``
    (``feature_message(adj, X)``, which a client holds) and build the
    last layer for the node indices ``rows`` only.

    Returns ``(messages, preacts)``: messages[l] is layer l's input
    A_hat @ H_l and preacts[l] its pre-activation; the logits of ``rows``
    are preacts[-1]. Hidden layers span every node; the last layer's
    message and pre-activation hold the rows only. An activation outside
    ACTIVATIONS is an InputError.
    """
    _check_activation(activation)
    m = message
    messages = []
    preacts = []
    last = params.n_layers - 1
    for li, layer in enumerate(params.layers):
        if m.shape[1] != layer.weight.shape[0]:
            raise InputError(
                f"layer {li}: input width {m.shape[1]} != fan_in {layer.weight.shape[0]}"
            )
        if li == last:
            m = m[rows]
        p = m @ layer.weight
        if layer.bias is not None:
            p = p + layer.bias
        messages.append(m)
        preacts.append(p)
        if li < last:
            m = adj @ _activate(p, activation)
    return messages, preacts


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of logit rows ``z`` with labels ``y``
    (log-sum-exp form), and those rows' softmax probabilities."""
    if y.size == 0:
        raise InputError("no rows selected")
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1)
    lse = zmax[:, 0] + np.log(total)
    nll = lse - z[np.arange(z.shape[0]), y]
    return float(nll.sum() / nll.size), e / total[:, None]


def gradient(
    params: ParameterSet,
    adj: NormalizedAdjacency,
    message: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    activation: str = "relu",
) -> tuple[float, ParameterSet | None]:
    """Loss and analytic gradients of the mean cross-entropy over the
    node indices ``rows`` (``labels`` covers every node; ``message`` is
    as in ``forward``). The gradients come back ParameterSet-shaped, with
    the same groups.

    The last layer is built for ``rows`` only, so divergence is decided
    on the logits the loss reads: when those are not all finite,
    training has diverged, the result is ``(inf, None)`` and the caller
    decides what to do.
    """
    messages, preacts = forward(params, adj, message, rows, activation)
    logits = preacts[-1]
    if not np.isfinite(logits).all():
        return float("inf"), None

    y = labels[rows]
    loss, dp = _cross_entropy(logits, y)
    dp[np.arange(dp.shape[0]), y] -= 1.0
    dp *= 1.0 / dp.shape[0]  # d loss / d logits of the rows

    grads: list[Layer] = [None] * params.n_layers  # type: ignore[list-item]
    for li in range(params.n_layers - 1, -1, -1):
        layer = params.layers[li]
        gw = messages[li].T @ dp
        gb = dp.sum(axis=0) if layer.bias is not None else None
        grads[li] = Layer(weight=gw, bias=gb, group=layer.group)
        if li > 0:
            # only the last layer sits above another (at most 2 layers):
            # its rows' gradient scatters into zeros for the other nodes
            up = np.zeros((adj.n_nodes, layer.weight.shape[0]))
            up[rows] = dp @ layer.weight.T
            dp = adj @ up
            if activation == "relu":
                dp = dp * (preacts[li - 1] > 0.0)

    return loss, ParameterSet(layers=tuple(grads))


def layout_group(layout: tuple[LayerSpec, ...]) -> str:
    """The group a layout covers: its one group, or "all" when mixed."""
    groups = {s.group for s in layout}
    return groups.pop() if len(groups) == 1 else "all"


def layer_layout(params: ParameterSet, group: str = "all") -> tuple[LayerSpec, ...]:
    """The layout ``flatten(params, group)`` gives, read from the layer
    shapes alone."""
    if group not in ("all", SHARED, LOCAL):
        raise InputError(f"unknown group {group!r}")
    return tuple(
        LayerSpec(index=li, group=layer.group, w_shape=layer.weight.shape,
                  b_size=layer.bias.size if layer.bias is not None else 0)
        for li, layer in enumerate(params.layers)
        if group in ("all", layer.group)
    )


def flatten(params: ParameterSet, group: str = "all") -> FlatVector:
    """Concatenate the selected layers into one vector (see FlatVector)."""
    layout = layer_layout(params, group)
    chunks = []
    for spec in layout:
        layer = params.layers[spec.index]
        chunks.append(layer.weight.ravel())
        if layer.bias is not None:
            chunks.append(layer.bias)
    values = np.concatenate(chunks) if chunks else np.zeros(0)
    return FlatVector(values=values, layout=layout)


def layer_slices(layout: tuple[LayerSpec, ...]) -> list[tuple[int, int]]:
    """(start, stop) of each layer's block inside the flat vector."""
    out = []
    off = 0
    for s in layout:
        out.append((off, off + s.size))
        off += s.size
    return out


def unflatten(flat: FlatVector, template: ParameterSet) -> ParameterSet:
    """Rebuild a ParameterSet from ``template`` with the layers covered by
    ``flat.layout`` replaced by the flat values. Raises on any shape or
    group mismatch."""
    layers = list(template.layers)
    off = 0
    for spec in flat.layout:
        if spec.index >= len(layers):
            raise InputError(f"layout names layer {spec.index}, model has {len(layers)}")
        old = layers[spec.index]
        if old.weight.shape != spec.w_shape or spec.b_size != (
            old.bias.size if old.bias is not None else 0
        ):
            raise InputError(f"layout mismatch at layer {spec.index}")
        if old.group != spec.group:
            raise InputError(f"group mismatch at layer {spec.index}")
        w_n = spec.w_shape[0] * spec.w_shape[1]
        w = flat.values[off:off + w_n].reshape(spec.w_shape).copy()
        off += w_n
        b = None
        if spec.b_size:
            b = flat.values[off:off + spec.b_size].copy()
            off += spec.b_size
        elif old.bias is not None:
            b = old.bias.copy()
        layers[spec.index] = Layer(weight=w, bias=b, group=old.group)
    return ParameterSet(layers=tuple(layers))


def induced_operator(params: ParameterSet, adj: NormalizedAdjacency) -> np.ndarray:
    """Dense node-space propagation operator of a 1-layer linear model.

    Only defined when the model is a single bias-free layer with a scalar
    (1x1) weight, giving W * A_hat, or an n x n weight, giving A_hat @ W.
    """
    if params.n_layers != 1:
        raise UnsupportedModelError("operator extraction requires a 1-layer model")
    layer = params.layers[0]
    if layer.bias is not None:
        raise UnsupportedModelError("operator extraction requires a bias-free layer")
    w = layer.weight
    if w.shape == (1, 1):
        return float(w[0, 0]) * adj.dense()
    if w.shape == (adj.n_nodes, adj.n_nodes):
        return adj.dense() @ w
    raise UnsupportedModelError(
        f"weight shape {w.shape} is neither scalar nor {adj.n_nodes}x{adj.n_nodes}"
    )
