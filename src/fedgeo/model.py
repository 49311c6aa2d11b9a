"""Small dense GCN: forward pass, row-wise cross-entropy, analytic gradients.

The model is one or two graph-convolution layers. Each layer computes
``P_l = A_hat @ H_l @ W_l (+ b_l)``; hidden layers apply the configured
activation, the final layer emits raw logits. ``forward`` and
``gradient`` act on a batch of K graphs at once (one per client): a
``GraphBatch`` holds their node rows concatenated, with a block-diagonal
A_hat and the stacked first-layer messages ``A_hat @ X``
(``feature_message``; it depends on the graph alone, so the batch
computes it once, per operator, which may hold several graphs side by
side), and ``Rows`` name the node rows whose logits the
caller reads (the train rows for the loss, the test rows for accuracy).
The last layer is built for those rows only. Their parameters come
stacked, one slice per graph: ``layer_views`` of a (K, L) matrix whose
row k is graph k's flat vector. Products with the weights run graph by
graph (``_products``), everything else over all rows at once. The losses
(when a step needs them) and bias gradients of all graphs are one
product with a 0/1 matrix (``GraphBatch.sums``, ``Rows.sums``) that
adds each graph's rows in row order from +0.0. So each graph's values
are bit for bit those of a batch of that graph alone.
Parameters are grouped into a shared encoder and an optional client-local
head (the final layer, in cross-domain federations) and travel between
client and server as flat vectors with a canonical layer-ordered,
row-major layout; ``layer_slices`` is the one place that layout's
offsets are computed, and ``layer_views`` the one place they are read.

Everything here is double-precision, and pure but for held workspaces.
The per-graph operands of those products are sliced once and held by
the object that owns the data: a ``Layer`` holds its weight's per-graph
views for as long as it lives (as long as the ``layer_views`` of a
matrix that the caller holds, such as a federation's parameter and
gradient matrices), and a ``GraphBatch`` or ``Rows`` holds the row
views of its messages and its step buffers (``buffer``) for as long as
it lives. ``forward`` writes its pre-activations into such buffers, so
they hold until the next ``forward`` or ``gradient`` on the same batch.
``gradient``'s divergence flags are new on every call, and so is its
matrix unless the caller passes the views of one to write into
(``out``); parameter values are never aliased into another call's
(``layer_views`` alone returns views, of the array it is given).
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .errors import InputError, check_integer
from .graphs import NormalizedAdjacency, block_diagonal

__all__ = [
    "ModelConfig",
    "Layer",
    "ParameterSet",
    "FlatVector",
    "GraphBatch",
    "Rows",
    "init_params",
    "shared_length",
    "feature_message",
    "graph_batch",
    "check_layer_count",
    "layer_views",
    "forward",
    "gradient",
    "flatten",
    "unflatten",
    "layer_slices",
    "ACTIVATIONS",
]

SHARED = "shared"
LOCAL = "local"
GROUPS = ("all", SHARED, LOCAL)  # what flatten selects: every layer, or one group's
ACTIVATIONS = ("relu", "identity")


def _check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise InputError(f"activation must be {' or '.join(map(repr, ACTIVATIONS))}")


def check_layer_count(n_layers: int) -> None:
    """InputError naming ``n_layers`` unless it is 1 or 2, the depths
    ``gradient`` differentiates (and whose broadcast layers are adjacent)."""
    if n_layers not in (1, 2):
        raise InputError(f"layers must be 1 or 2, not {n_layers}")


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
        check_integer("n_layers", self.n_layers)
        check_layer_count(self.n_layers)
        check_integer("hidden_dim", self.hidden_dim)
        if self.hidden_dim < 1:
            raise InputError("hidden width must be >= 1")
        _check_activation(self.activation)
        if not isinstance(self.bias, bool):  # "false" is a true string
            raise InputError(f"bias must be a bool, not {self.bias!r}")


@dataclass(frozen=True)
class Layer:
    """One layer's weight (fan_in, fan_out) and bias (fan_out,) or None,
    or a stack of K of each (see ``layer_views``), and its group. A
    stacked layer holds the per-graph weight views that ``forward`` and
    ``gradient`` read (and ``gradient`` writes, of its ``out``), made on
    first read: a new parameter matrix comes with new layers, so they
    never outlive the matrix's layers."""

    weight: np.ndarray          # (fan_in, fan_out), or (K, fan_in, fan_out)
    bias: np.ndarray | None     # (fan_out,) or (K, fan_out), or None
    group: str                  # SHARED or LOCAL

    @cached_property
    def per_graph(self) -> list[np.ndarray]:
        """Each graph's ``weight[k]``, a view."""
        return list(self.weight)

    @cached_property
    def per_graph_t(self) -> list[np.ndarray]:
        """Each graph's ``weight[k].T``, a view, for the backward pass."""
        return list(self.weight.transpose(0, 2, 1))


@dataclass(frozen=True)
class ParameterSet:
    """A model's layers; ``values`` is the array they are views of when
    ``layer_views`` made them, else None."""

    layers: tuple[Layer, ...]
    values: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @cached_property
    def layout(self) -> tuple[LayerSpec, ...]:
        """``layer_layout(self)``, read once: the layout ``gradient``
        gives its matrix."""
        return layer_layout(self)


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


def _fans(config: ModelConfig, in_dim: int, out_dim: int) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each layer of an ``in_dim -> out_dim`` model."""
    dims = [in_dim] + [config.hidden_dim] * (config.n_layers - 1) + [out_dim]
    return list(zip(dims[:-1], dims[1:]))


def shared_length(config: ModelConfig, in_dim: int, out_dim: int,
                  cross_domain: bool = False) -> int:
    """Length of the shared FlatVector of the model ``init_params`` builds
    with these arguments, computed without building it."""
    fans = _fans(config, in_dim, out_dim)
    if cross_domain:  # the last layer is the client-local head
        fans = fans[:-1]
    return sum(a * b + (b if config.bias else 0) for a, b in fans)


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
    layers = []
    for li, (fan_in, fan_out) in enumerate(_fans(config, in_dim, out_dim)):
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
    node (InputError otherwise). It depends on the graph alone, so
    ``graph_batch`` computes it once per operator."""
    if x.shape[0] != adj.n_nodes:
        raise InputError(f"feature rows {x.shape[0]} != adjacency size {adj.n_nodes}")
    return adj @ np.asarray(x, dtype=np.float64)


def _segments(bounds: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(start, stop) of each graph's rows, from K + 1 offsets."""
    b = bounds.tolist()
    return tuple(zip(b[:-1], b[1:]))


def _segment_sums(bounds: np.ndarray) -> sp.csr_array:
    """The (K, n) 0/1 matrix whose row k selects rows bounds[k]:bounds[k + 1]
    of an n-row array: ``sums @ x`` adds each segment's rows in row order
    from +0.0 (a segment without rows sums to 0)."""
    n = int(bounds[-1])
    return sp.csr_array((np.ones(n), np.arange(n), bounds), shape=(bounds.size - 1, n))


class _Segments:
    """What GraphBatch and Rows share: per-graph row views of their
    arrays, made once, and held step buffers. ``message`` and ``spans``
    are the dataclass's."""

    message: np.ndarray
    spans: tuple[tuple[int, int], ...]

    @cached_property
    def slices(self) -> list[slice]:
        """``slice(*spans[k])`` of each graph k."""
        return [slice(a, b) for a, b in self.spans]

    @cached_property
    def held(self) -> dict:
        """The held buffers (``buffer``) and other step constants, by name."""
        return {}

    def views(self, x: np.ndarray) -> list[np.ndarray]:
        """Each graph's rows ``x[a:b]`` of an array of this object's rows."""
        return list(map(x.__getitem__, self.slices))

    @cached_property
    def message_rows(self) -> list[np.ndarray]:
        """Each graph's rows of ``message``, views."""
        return self.views(self.message)

    @cached_property
    def message_cols(self) -> list[np.ndarray]:
        """The transposes of ``message_rows``, for the weight gradients."""
        return [m.T for m in self.message_rows]

    def buffer(self, name: str, width: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """The held (rows, width) buffer ``name`` and its ``views``: made
        on first use and again when the width changes, held by this
        object, and overwritten by the next step that writes it."""
        held = self.held.get(name)
        if held is None or held[0].shape[1] != width:
            buf = np.empty((self.slices[-1].stop, width))
            held = self.held[name] = (buf, self.views(buf))
        return held


@dataclass(frozen=True)
class Rows(_Segments):
    """Node rows of a GraphBatch, graph by graph: graph k's rows are
    ``index[bounds[k]:bounds[k + 1]]``, ascending, and lie in its node
    range. The other fields are what every step reads of them, computed
    once by ``GraphBatch.rows``; ``message``, ``gather`` and ``scatter``
    are built on first read, as a one-layer model reads only the first
    and a two-layer one only the other two. ``gather`` is the one slice
    of A_hat, and ``scatter`` its transpose, so the backward pass is the
    forward's exact adjoint whether or not A_hat is symmetric.

    The rows also hold, for as long as they live, the per-graph views of
    ``message`` and of its transpose, the flat label positions of the
    last logit width, and the buffers of the last layer's product (the
    logits ``forward`` returns), of the cross-entropy gradient and of
    its product back through the last weight (``gradient``)."""

    batch: GraphBatch
    index: np.ndarray   # (R,)
    bounds: np.ndarray  # (K + 1,) offsets into index
    spans: tuple[tuple[int, int], ...]  # (bounds[k], bounds[k + 1]) of each graph
    counts: np.ndarray  # (K,) rows of each graph
    sums: sp.csr_array  # (K, R) 0/1: sums @ x adds each graph's rows of x, see _segment_sums
    pick: tuple[np.ndarray, np.ndarray]  # (row position, label): each row's label logit
    share: np.ndarray   # (R, 1) 1 / its graph's row count, the row's weight in a mean loss

    @cached_property
    def message(self) -> np.ndarray:
        """(R, f) the first-layer message at index, read-only."""
        message = self.batch.message[self.index]
        message.flags.writeable = False
        return message

    def label_positions(self, width: int) -> np.ndarray:
        """The flat position ``row * width + label`` of each row's label
        logit in a C-order (R, width) array, held for the last width."""
        held = self.held.get("pick")
        if held is None or held[0] != width:
            held = self.held["pick"] = (width, self.pick[0] * width + self.pick[1])
        return held[1]

    @cached_property
    def gather(self) -> sp.csr_array:
        """(R, N) A_hat's rows at index: gather @ h is (A_hat @ h)[index]."""
        return self.batch.adj.storage[self.index]

    @cached_property
    def scatter(self) -> sp.csc_array:
        """(N, R) gather's transpose, a view: the adjoint of the forward."""
        return self.gather.T


@dataclass(frozen=True)
class GraphBatch(_Segments):
    """K graphs held as one, their node rows concatenated in order: graph
    k's nodes are rows ``nodes[k]:nodes[k + 1]`` (``spans[k]``, counting
    ``counts[k]``; ``sums`` adds them up). ``adj`` is the block-diagonal
    A_hat, so no graph's values enter another's products; ``message``
    stacks the graphs' first-layer messages (read-only) and ``labels``
    their labels.

    The batch also holds, for as long as it lives, the per-graph views
    of ``message`` and of its transpose, and the hidden layer's product
    (which ``forward`` returns), a buffer over its node rows shared by
    all its ``Rows``."""

    adj: NormalizedAdjacency
    message: np.ndarray  # (N, f)
    labels: np.ndarray   # (N,)
    nodes: np.ndarray    # (K + 1,) node offsets
    spans: tuple[tuple[int, int], ...]
    counts: np.ndarray   # (K,)
    sums: sp.csr_array   # (K, N) 0/1: sums @ x adds each graph's node rows of x

    def rows(self, per_graph: list[np.ndarray]) -> Rows:
        """The Rows of node indices given per graph, each local to its graph."""
        if len(per_graph) != self.nodes.size - 1:
            raise InputError(f"{len(per_graph)} row sets for {self.nodes.size - 1} graphs")
        index = np.concatenate([np.asarray(r, dtype=np.int64) + start
                                for r, start in zip(per_graph, self.nodes[:-1].tolist())])
        bounds = np.cumsum([0] + [len(r) for r in per_graph])
        counts = np.diff(bounds)
        held = counts[counts > 0]  # a graph without rows has no row to weigh
        return Rows(batch=self, index=index, bounds=bounds, spans=_segments(bounds),
                    counts=counts, sums=_segment_sums(bounds),
                    pick=(np.arange(index.size), self.labels[index]),
                    share=np.repeat(1.0 / held, held)[:, None])


def graph_batch(adjs: list[NormalizedAdjacency], features: list[np.ndarray],
                labels: list[np.ndarray], nodes: np.ndarray | None = None) -> GraphBatch:
    """The GraphBatch of K graphs held by the given operators side by
    side, given each operator's A_hat, node features and labels, and the
    (K + 1) offsets ``nodes`` of the graphs in the operators' rows
    (default: each operator one graph). Each operator's message is its
    ``feature_message``. The offsets must rise from 0 to the rows'
    total, and no entry of an operator may join two graphs (InputError
    otherwise)."""
    if not adjs:
        raise InputError("a graph batch needs at least one graph")
    for adj, y in zip(adjs, labels, strict=True):
        if y.shape[0] != adj.n_nodes:
            raise InputError(f"labels {y.shape[0]} != adjacency size {adj.n_nodes}")
    message = np.concatenate([feature_message(a, x) for a, x in zip(adjs, features, strict=True)])
    message.flags.writeable = False  # forward hands it out as messages[0]
    adj = block_diagonal(adjs)
    nodes = np.cumsum([0] + [a.n_nodes for a in adjs]) if nodes is None else np.asarray(nodes)
    if nodes[0] != 0 or nodes[-1] != adj.n_nodes or np.any(np.diff(nodes) <= 0):
        raise InputError(f"graph offsets {nodes.tolist()} do not rise from 0 to the "
                         f"operators' {adj.n_nodes} rows")
    # every row holds its diagonal, so each row's columns have a min and a
    # max, which lie in the row's graph unless an entry joins two graphs
    # (per-row arrays: per-entry ones raised margin_ggrs's peak RSS by 0.3 MB)
    counts = np.diff(nodes)
    starts = adj.storage.indptr[:-1]
    low = np.minimum.reduceat(adj.storage.indices, starts)
    high = np.maximum.reduceat(adj.storage.indices, starts)
    if np.any(low < np.repeat(nodes[:-1], counts)) or np.any(high >= np.repeat(nodes[1:], counts)):
        raise InputError("an operator's entry joins two graphs")
    return GraphBatch(adj=adj, message=message, labels=np.concatenate(labels),
                      nodes=nodes, spans=_segments(nodes), counts=counts,
                      sums=_segment_sums(nodes))


def _product(weight: np.ndarray):
    """``f(a, b, out)`` writing ``a @ b`` to ``out``, for the per-graph
    products with a stack of ``weight``s: ``np.dot``, the BLAS call
    ``np.matmul`` makes at about a third of its per-call cost on tiny
    products, except for a 1 x 1 weight. There ``np.dot`` multiplies a
    1 x 1 by a 1 x 1 directly and keeps a zero's sign, which BLAS adds
    to +0.0, so it gets ``np.matmul``. ``np.dot`` also reports
    floating-point flags that matmul does not, so callers run it with
    warnings off: divergence is decided on the logits, not on warnings."""
    return np.matmul if weight.shape[-2:] == (1, 1) else np.dot


def _products(product, xs: list, ws: list, outs: list) -> None:
    """``product(xs[k], ws[k], outs[k])`` for each graph k (see
    ``_product``) with floating-point warnings off, over operand views
    made beforehand: slicing them inside the loop would cost about as
    much as the tiny products. ``deque`` runs the map out in C."""
    with np.errstate(all="ignore"):
        deque(map(product, xs, ws, outs), maxlen=0)


def forward(
    params: ParameterSet,
    batch: GraphBatch,
    rows: Rows,
    activation: str = "relu",
):
    """Run the propagation stack of K graphs from their first-layer
    ``batch.message``, with graph k's parameters ``params`` slice k
    (stacked, see ``layer_views``), and build the last layer for
    ``rows`` only.

    Returns ``(messages, preacts)``: messages[l] is layer l's input
    A_hat @ H_l and preacts[l] its pre-activation; the logits of ``rows``
    are preacts[-1]. The hidden layer spans every node; the last layer's
    message (``rows.gather @ H``, or the read-only ``rows.message`` of a
    one-layer model) and pre-activation hold the rows only. Products with the
    weights run graph by graph; the rest acts on all rows at once, and
    each row's value is the one a single graph's forward gives. The
    pre-activations are buffers that ``batch`` (the hidden layer's) and
    ``rows`` (the last layer's) hold, so they hold until the next
    ``forward`` or ``gradient`` on the same batch. An activation outside
    ACTIVATIONS, or a model of other than 1 or 2 layers, is an
    InputError.
    """
    _check_activation(activation)
    check_layer_count(params.n_layers)
    n_graphs = batch.nodes.size - 1
    messages = []
    preacts = []
    last = params.n_layers - 1
    for li, layer in enumerate(params.layers):
        if layer.weight.shape[0] != n_graphs:
            raise InputError(f"layer {li}: {layer.weight.shape[0]} parameter sets for "
                             f"{n_graphs} graphs")
        seg = rows if li == last else batch  # a hidden layer is the first
        m = seg.message if li == 0 else rows.gather @ h
        if m.shape[1] != layer.weight.shape[1]:
            raise InputError(
                f"layer {li}: input width {m.shape[1]} != fan_in {layer.weight.shape[1]}"
            )
        p, ps = seg.buffer("product", layer.weight.shape[2])
        _products(_product(layer.weight), seg.message_rows if li == 0 else seg.views(m),
                  layer.per_graph, ps)
        if layer.bias is not None:
            p += np.repeat(layer.bias, seg.counts, axis=0)
        messages.append(m)
        preacts.append(p)
        if li < last:
            h = _activate(p, activation)
    return messages, preacts


def _cross_entropy(z: np.ndarray, pick: np.ndarray, out: np.ndarray | None = None,
                   losses: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Softmax cross-entropy of each logit row of ``z`` with its label
    (log-sum-exp form; None unless ``losses``), and its gradient in the
    row's logits: the softmax probabilities less one at the label,
    written to ``out`` (a new array if None; a C-contiguous array of z's
    shape otherwise). ``pick`` is the flat position ``row * width +
    label`` of each row's label logit in C order.

    The row max is a chain of ``np.maximum`` over the columns, one
    whole-array operation per class rather than NumPy's reduce loop per
    row. It can differ from ``z.max(axis=1)`` only in the sign of a zero
    max, which reaches no output: ``z - zmax`` has the same ``exp``, and
    the log-sum-exp adds ``log(total) >= +0.0`` to it. The denominator
    is NumPy's pairwise row sum ``e.sum(axis=1)`` (sequential below 8
    entries, then 8 running sums in a fixed tree up to 128, then
    halving); a column chain in that order would give its bits."""
    if pick.size == 0:
        raise InputError("no rows selected")
    zmax = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(zmax, z[:, j], out=zmax)
    e = np.subtract(z, zmax[:, None], out=out)
    np.exp(e, out=e)
    total = e.sum(axis=1)
    nll = zmax + np.log(total) - z.ravel()[pick] if losses else None
    e /= total[:, None]
    e.ravel()[pick] -= 1.0  # e is C-contiguous, so ravel is a view
    return nll, e


def _finite_graphs(logits: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Whether each graph's rows ``bounds[k]:bounds[k + 1]`` of ``logits``,
    none empty, are all finite: one ``reduceat`` down the rows, then a
    check of each graph's columns."""
    return np.logical_and.reduceat(np.isfinite(logits), bounds[:-1], axis=0).all(axis=1)


def gradient(
    params: ParameterSet,
    batch: GraphBatch,
    rows: Rows,
    activation: str = "relu",
    out: ParameterSet | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each graph's step over its ``rows`` (labels from
    ``batch.labels``) diverged, and the analytic gradients of each graph's
    mean cross-entropy as one (K, L) matrix: row k is graph k's gradient
    in FlatVector order, laid out as ``layer_views`` reads ``params``
    (see ``forward``). A graph without rows, or a model of other than 1
    or 2 layers, is an InputError. The flags are a new array, and so is
    the matrix unless ``out`` is given: the ``layer_views`` of a (K, L)
    matrix in ``params``' layout (InputError otherwise), which the
    gradient is written into through those views and their held
    per-graph views, and which is returned. The step's other arrays are
    buffers that ``batch`` and ``rows`` hold. Each bias gradient sums its
    rows' terms in row order (``Rows.sums``, ``GraphBatch.sums``).

    The last layer is built for ``rows`` only, so divergence is decided
    on the logits the loss reads: a graph whose logits or mean loss are
    not finite has diverged, its gradients are not meaningful, and the
    caller decides what to do; the other graphs' values are unaffected.
    The losses are computed only when a bound on the logits cannot prove
    them finite.
    """
    check_layer_count(params.n_layers)
    shape = (batch.nodes.size - 1, sum(s.size for s in params.layout))
    if out is not None and (out.values is None or out.values.shape != shape
                            or out.layout != params.layout):
        raise InputError(f"out must be the layer views of a {shape} matrix in the "
                         "parameters' layout")
    messages, preacts = forward(params, batch, rows, activation)
    logits = preacts[-1]
    if not rows.counts.all():
        raise InputError(f"graph {int(np.argmin(rows.counts))}: no rows selected")
    # |logit| < B = M / (4N), M the float maximum and N >= any graph's row count,
    # bounds a row's loss zmax + log(total) - z[pick] by 2B + ln C (C classes) and
    # a graph's sum by M / 2 + N ln C, far below M. NaN and inf fail the comparison.
    width = logits.shape[1]
    safe = max(logits.max(), -logits.min()) < np.finfo(np.float64).max / (4 * rows.index.size)
    # a diverged graph's arithmetic is not finite by design: no warnings
    with nullcontext() if safe else np.errstate(all="ignore"):
        dp, dps = rows.buffer("loss", width)
        nll, _ = _cross_entropy(logits, rows.label_positions(width), out=dp, losses=not safe)
        diverged = np.zeros(shape[0], dtype=bool) if safe else ~(
            _finite_graphs(logits, rows.bounds) & np.isfinite(rows.sums @ nll / rows.counts))
        dp *= rows.share  # d loss / d logits of each graph's rows
        back = [(dp, dps)]  # d loss / d pre-activation of each layer, and its views
        if params.n_layers == 2:
            # the last layer, which holds the rows only, sits above the first
            layer = params.layers[1]
            q, qs = rows.buffer("back", layer.weight.shape[1])
            _products(_product(layer.weight), dps, layer.per_graph_t, qs)
            # a new array, masked in place: a held copy of it raised wide_ggrs's peak RSS
            dp = rows.scatter @ q
            if activation == "relu":
                dp *= preacts[0] > 0.0
            back.insert(0, (dp, batch.views(dp)))

        if out is None:
            out = layer_views(np.empty(shape), params.layout)
        for li, (grad, m, (dp, dps)) in enumerate(zip(out.layers, messages, back)):
            seg = rows if li == params.n_layers - 1 else batch
            ms = seg.message_cols if li == 0 else [x.T for x in seg.views(m)]
            _products(_product(grad.weight), ms, dps, grad.per_graph)
            if grad.bias is not None:
                grad.bias[...] = seg.sums @ dp

    return diverged, out.values


def layer_layout(params: ParameterSet, group: str = "all") -> tuple[LayerSpec, ...]:
    """The layout ``flatten(params, group)`` gives, read from the layer
    shapes alone: their last two axes (weights) and last axis (biases),
    so a stacked set (see ``layer_views``) gives one graph's layout."""
    if group not in GROUPS:
        raise InputError(f"unknown group {group!r}")
    return tuple(
        LayerSpec(index=li, group=layer.group, w_shape=layer.weight.shape[-2:],
                  b_size=layer.bias.shape[-1] if layer.bias is not None else 0)
        for li, layer in enumerate(params.layers)
        if group in ("all", layer.group)
    )


def flatten(params: ParameterSet, group: str = "all") -> FlatVector:
    """Concatenate the selected layers into one vector (see FlatVector)."""
    layout = layer_layout(params, group)
    layers = [params.layers[spec.index] for spec in layout]
    chunks = [a.ravel() for layer in layers for a in (layer.weight, layer.bias) if a is not None]
    return FlatVector(values=np.concatenate(chunks) if chunks else np.zeros(0), layout=layout)


def layer_slices(layout: tuple[LayerSpec, ...]) -> list[tuple[int, int]]:
    """(start, stop) of each layer's block inside the flat vector."""
    stops = list(accumulate(s.size for s in layout))
    return list(zip([0] + stops[:-1], stops))


def layer_views(values: np.ndarray, layout: tuple[LayerSpec, ...]) -> ParameterSet:
    """The layers of ``layout`` as views of ``values``, one flat vector
    (L,) or a stack of them (..., L) in FlatVector order: each weight
    (..., fan_in, fan_out) and bias (..., fan_out) reads and writes its
    block of every row. A layer is numbered by its place in ``layout``."""
    shape = values.shape[:-1]
    return ParameterSet(layers=tuple(
        Layer(weight=values[..., a:b - s.b_size].reshape(shape + s.w_shape, copy=False),
              bias=values[..., b - s.b_size:b] if s.b_size else None, group=s.group)
        for s, (a, b) in zip(layout, layer_slices(layout))
    ), values=values)


def unflatten(flat: FlatVector, template: ParameterSet) -> ParameterSet:
    """Rebuild a ParameterSet from ``template`` with the layers covered by
    ``flat.layout`` replaced by views of a copy of the flat values.
    Raises on any shape or group mismatch."""
    full = layer_layout(template)
    layers = list(template.layers)
    for spec, layer in zip(flat.layout, layer_views(flat.values.copy(), flat.layout).layers):
        if spec.index >= len(full) or spec != full[spec.index]:
            raise InputError(f"layout mismatch at layer {spec.index} of {len(full)}")
        layers[spec.index] = layer
    return ParameterSet(layers=tuple(layers))
