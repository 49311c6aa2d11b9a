"""Client-side local training.

Each round a client receives the shared encoder parameters, trains on
its private graph for E full-batch gradient-descent steps ("epoch" =
one full-batch step; graphs here are small), and returns the shared
displacement delta = theta_local - theta_global. In cross-domain mode
the final layer is a client-local head: it trains locally, persists in
the client state across rounds, and never leaves the client.

Trainers: "fedavg" (E steps), "fedsgd" (forced single step), "fedprox"
(E steps, gradient augmented with mu * (theta - global) over the shared
group). Plain gradient descent throughout — no momentum, no minibatches —
so a round is bitwise deterministic in its inputs.

A ``Federation`` holds its clients' graphs as one batch, with their
train and test rows, and their parameters as one stack. Its clients
belong to one or more runs, independent federations that train in
lockstep, such as the harness's run seeds: each run has its own
broadcast and its own server. ``local_train`` trains all clients
together, one ``model.gradient`` call over the stack per step (the last
layer built for the train rows only), and hands each run's server one
``RoundUpdates``: the matrix of its clients' deltas. A one-run or
one-client federation is the R = 1 or K = 1 case of the same code, and
each client's values are bit for bit those it gets alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .graphs import Graph, NormalizedAdjacency
from .model import (
    FlatVector,
    Layer,
    LayerSpec,
    ModelConfig,
    ParameterSet,
    # flatten: no caller here; perfbench's tracer patches it by name (ROADMAP item 1)
    flatten,  # noqa: F401
    gradient,
    graph_batch,
    layer_layout,
    layout_group,
    stack_params,
    unflatten,
    unstack_params,
)

__all__ = ["ClientState", "Federation", "RoundUpdates", "TrainingConfig", "local_train", "TRAINERS"]

TRAINERS = ("fedavg", "fedsgd", "fedprox")


@dataclass(frozen=True)
class TrainingConfig:
    """Local training settings: a known trainer, lr >= 0, epochs >= 1, and
    mu >= 0 (for every trainer, though only fedprox reads it)."""

    trainer: str = "fedavg"
    lr: float = 0.05
    epochs: int = 1
    mu: float = 0.01

    def __post_init__(self):
        if self.trainer not in TRAINERS:
            raise InputError(f"unknown trainer {self.trainer!r}")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.lr < 0.0:
            raise InputError("learning rate must be nonnegative")
        if self.mu < 0.0:
            raise InputError("mu must be nonnegative")


@dataclass
class ClientState:
    """One client's private state; owned exclusively by that client.

    ``params`` holds the full parameter set including any local head.
    A ``Federation`` over the client copies it and owns it from then on:
    after each of its rounds ``params`` is a view into the federation's
    stack that the next round overwrites in place (copy it to keep a
    round's values), and a ``params`` assigned between rounds is not
    read. A graph whose node count is not the adjacency size is an
    InputError.
    """

    client_id: int
    graph: Graph
    adj: NormalizedAdjacency
    params: ParameterSet

    def __post_init__(self):
        if self.graph.n_nodes != self.adj.n_nodes:
            raise InputError(f"feature rows {self.graph.n_nodes} "
                             f"!= adjacency size {self.adj.n_nodes}")


class Federation:
    """K clients of R runs trained and evaluated as one batch, under one
    ``model`` and one ``training`` config.

    ``run_sizes`` counts the clients of each run, which come in run
    order (default: one run of all clients); ``runs`` holds each run's
    (start, stop) in ``clients``. Every run needs a client, and the
    clients' parameters must share one shape (InputError otherwise).
    ``batch`` holds their graphs as one (``model.GraphBatch``, built
    once, so a client given a new graph needs a new federation), and
    ``train`` and ``test`` their train and test rows in it. It owns the
    clients' parameters, stacked, local heads included (see
    ``ClientState``). Building it changes no client.
    """

    def __init__(self, clients: list[ClientState], model: ModelConfig, training: TrainingConfig,
                 run_sizes: tuple[int, ...] | None = None):
        if not clients:
            raise InputError("a federation needs at least one client")
        run_sizes = (len(clients),) if run_sizes is None else tuple(run_sizes)
        if sum(run_sizes) != len(clients) or min(run_sizes) < 1:
            raise InputError(f"run sizes {run_sizes} do not split {len(clients)} clients "
                             "into runs of at least one")
        first = clients[0]
        layout = layer_layout(first.params)
        for c in clients[1:]:
            if layer_layout(c.params) != layout:
                raise InputError(f"client {c.client_id}'s parameters differ in shape from "
                                 f"client {first.client_id}'s")
        self.clients = tuple(clients)
        self.client_ids = tuple(c.client_id for c in clients)
        self.run_sizes = run_sizes
        stops = np.cumsum(run_sizes).tolist()
        self.runs = tuple(zip([0] + stops[:-1], stops))
        self.model = model
        self.training = training
        self.batch = graph_batch([c.adj for c in clients], [c.graph.features for c in clients],
                                 [c.graph.labels for c in clients])
        self.train = self.batch.rows([np.flatnonzero(c.graph.train_mask) for c in clients])
        self.test = self.batch.rows([np.flatnonzero(c.graph.test_mask) for c in clients])
        self._stack = stack_params([c.params for c in clients])
        self._views = unstack_params(self._stack)

    def params(self, broadcasts: Sequence[FlatVector]) -> ParameterSet:
        """Every client's parameters, stacked in client order, given one
        broadcast per run: the layers the broadcasts cover repeated from
        the client's run's, the others (a local head) copies of the held
        ones."""
        return self._stacked(*self._anchors(broadcasts))

    def _anchors(self, broadcasts: Sequence[FlatVector]) -> tuple[list[ParameterSet], str]:
        """Each run's broadcast unflattened over the first client's
        parameters, and the group they cover. One broadcast per run, each
        with the layout of the clients' parameters, or InputError."""
        if len(broadcasts) != len(self.runs):
            raise InputError(f"{len(broadcasts)} broadcasts for {len(self.runs)} runs")
        group = layout_group(broadcasts[0].layout)
        template = self.clients[0].params
        layout = layer_layout(template, group)
        if any(b.layout != layout for b in broadcasts):
            raise InputError("broadcast layout does not match the client model")
        return [unflatten(b, template) for b in broadcasts], group

    def _stacked(self, anchors: list[ParameterSet], group: str) -> ParameterSet:
        """What ``params`` returns, given ``_anchors``' values."""
        def repeat(arrays):
            return np.repeat(np.stack(arrays), self.run_sizes, axis=0)
        return ParameterSet(layers=tuple(
            Layer(weight=repeat([a.weight for a in per_run]),
                  bias=None if h.bias is None else repeat([a.bias for a in per_run]),
                  group=h.group)
            if group in ("all", h.group) else
            Layer(weight=h.weight.copy(), bias=None if h.bias is None else h.bias.copy(),
                  group=h.group)
            for h, *per_run in zip(self._stack.layers, *(a.layers for a in anchors))
        ))

    def _commit(self, params: ParameterSet) -> None:
        """Hold ``params``; each client's ``params`` becomes its slice."""
        for held, new in zip(self._stack.layers, params.layers):
            np.copyto(held.weight, new.weight)
            if held.bias is not None:
                np.copyto(held.bias, new.bias)
        for c, view in zip(self.clients, self._views):
            c.params = view


@dataclass(frozen=True)
class RoundUpdates:
    """Every client's shared-group displacement of one round, as one
    batch: row k of ``deltas`` (in ``layout``'s canonical order) is
    client ``client_ids[k]``'s, and ``n_train[k]`` its train-node count.
    At least one client, distinct ids and counts >= 1, or InputError.
    """

    client_ids: tuple[int, ...]
    deltas: np.ndarray  # (K, L)
    n_train: tuple[int, ...]
    layout: tuple[LayerSpec, ...]

    def __post_init__(self):
        k = len(self.client_ids)
        if k == 0 or len(set(self.client_ids)) != k:
            raise InputError("a round needs at least one client update and distinct ids")
        if self.deltas.shape != (k, sum(s.size for s in self.layout)):
            raise InputError(f"deltas of shape {self.deltas.shape} do not match {k} clients "
                             "and the layout")
        if len(self.n_train) != k or min(self.n_train) < 1:
            raise InputError("one n_train >= 1 per client required")


def _step(params: ParameterSet, grads: ParameterSet, lr: float,
          anchor: ParameterSet, pulls: list[float]) -> None:
    """theta <- theta - lr * (g + mu * (theta - anchor)) in place, with
    mu = pulls[layer]; a layer with mu = 0 takes a plain step and reads
    nothing of ``anchor``."""
    for p, g, p0, mu in zip(params.layers, grads.layers, anchor.layers, pulls):
        for theta, grad, start in ((p.weight, g.weight, p0.weight), (p.bias, g.bias, p0.bias)):
            if theta is None:
                continue
            if mu > 0.0:
                grad = grad + mu * (theta - start)
            theta -= lr * grad


def local_train(fed: Federation, broadcasts: Sequence[FlatVector],
                round_index: int = 0) -> list[RoundUpdates]:
    """Run one round of local training of every client, given one
    broadcast of shared parameters per run; each run's shared deltas,
    one row per client in federation order.

    Loads its run's broadcast into every client model (a local head
    keeps its previous values), runs E full-batch gradient steps
    (fedsgd: exactly one; fedprox: mu-proximal gradient toward the
    broadcast point), holds the trained parameters in the federation,
    and returns theta_shared_after - theta_shared_broadcast of each
    client. Each step is one ``gradient`` call and one in-place update
    over the stacked parameters of all clients; each client's values are
    those its own one-client federation gives, bit for bit.

    A client whose loss is not finite at some step, or whose delta is
    not finite, has diverged: the DivergenceError names the first such
    client in federation order and its run, and the federation and
    every client keep the parameters they had.
    """
    anchors, group = fed._anchors(broadcasts)
    n_train = fed.train.counts
    if not n_train.all():
        raise InputError(f"client {fed.client_ids[int(np.argmin(n_train))]} "
                         "has no train nodes")

    params = fed._stacked(anchors, group)
    training = fed.training
    n_steps = 1 if training.trainer == "fedsgd" else training.epochs
    # fedprox pulls the broadcast layers, not a local head, toward the
    # client's run's broadcast; without a pull no step reads the anchor
    mu = training.mu if training.trainer == "fedprox" else 0.0
    anchor = fed._stacked(anchors, group) if mu > 0.0 else params
    pulls = [mu if group in ("all", l.group) else 0.0 for l in params.layers]

    diverged = np.zeros(len(fed.clients), dtype=bool)
    for _ in range(n_steps):
        # a diverged client's values are not finite from here on: no warnings
        with np.errstate(all="ignore" if diverged.any() else None):
            losses, grads = gradient(params, fed.batch, fed.train, fed.model.activation)
            diverged |= ~np.isfinite(losses)
            _step(params, grads, training.lr, anchor, pulls)

    layout = broadcasts[0].layout
    stacked = [a.reshape(len(fed.clients), -1) for spec in layout
               for a in (params.layers[spec.index].weight, params.layers[spec.index].bias)
               if a is not None]
    start = np.repeat(np.stack([b.values for b in broadcasts]), fed.run_sizes, axis=0)
    deltas = np.concatenate(stacked, axis=1) - start
    # a displacement whose entries or norm are unrepresentable can never
    # be aggregated; surface it as divergence, not as a malformed input
    # (d . d is finite exactly when d's entries and norm are)
    with np.errstate(over="ignore", invalid="ignore"):
        diverged |= ~np.isfinite(np.vecdot(deltas, deltas))
    if diverged.any():
        k = int(np.argmax(diverged))
        run = next(r for r, (a, b) in enumerate(fed.runs) if a <= k < b)
        raise DivergenceError(round_index, fed.client_ids[k], run)

    fed._commit(params)
    counts = tuple(n_train.tolist())
    return [RoundUpdates(client_ids=fed.client_ids[a:b], deltas=deltas[a:b],
                         n_train=counts[a:b], layout=layout)
            for a, b in fed.runs]
