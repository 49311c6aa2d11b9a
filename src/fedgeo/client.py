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

A ``Federation`` holds its clients' graphs as one batch, built once
with their train and test rows, and ``local_train`` trains all of them
together: each step is one ``model.gradient`` call over the stacked
parameters of every client, which builds the last layer for the train
rows only. A one-client federation is the K = 1 case of the same code,
and each client's values are bit for bit those it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .graphs import Graph, NormalizedAdjacency
from .model import (
    FlatVector,
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

__all__ = ["ClientState", "Federation", "LocalUpdate", "TrainingConfig", "local_train", "TRAINERS"]

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

    ``params`` holds the full parameter set including any local head;
    ``local_train`` refreshes its shared slice from the broadcast vector
    each round and persists the trained values back. A graph whose node
    count is not the adjacency size is an InputError.
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
    """K clients trained and evaluated as one batch, under one ``model``
    and one ``training`` config.

    The clients' parameters must share one shape (InputError otherwise).
    ``batch`` holds their graphs as one (``model.GraphBatch``, built
    once, so a client given a new graph needs a new federation), and
    ``train`` and ``test`` their train and test rows in it. Building it
    changes no client.
    """

    def __init__(self, clients: list[ClientState], model: ModelConfig, training: TrainingConfig):
        if not clients:
            raise InputError("a federation needs at least one client")
        first = clients[0]
        layout = layer_layout(first.params)
        for c in clients[1:]:
            if layer_layout(c.params) != layout:
                raise InputError(f"client {c.client_id}'s parameters differ in shape from "
                                 f"client {first.client_id}'s")
        self.clients = tuple(clients)
        self.model = model
        self.training = training
        self.batch = graph_batch([c.adj for c in clients], [c.graph.features for c in clients],
                                 [c.graph.labels for c in clients])
        self.train = self.batch.rows([np.flatnonzero(c.graph.train_mask) for c in clients])
        self.test = self.batch.rows([np.flatnonzero(c.graph.test_mask) for c in clients])

    def params(self, shared: FlatVector) -> ParameterSet:
        """Every client's parameters, stacked in client order: the layers
        ``shared`` covers from it, the others (a local head) from the
        client's own ``params``."""
        return _stack(self, unflatten(shared, self.clients[0].params),
                      layout_group(shared.layout))


def _stack(fed: Federation, broadcast: ParameterSet, group: str) -> ParameterSet:
    """``Federation.params`` from the broadcast layers of ``group``."""
    return stack_params([
        ParameterSet(layers=tuple(
            b if group in ("all", b.group) else own
            for b, own in zip(broadcast.layers, c.params.layers)))
        for c in fed.clients
    ])


@dataclass(frozen=True)
class LocalUpdate:
    """Shared-group displacement a client sends to the server."""

    client_id: int
    delta: FlatVector
    n_train: int

    def __post_init__(self):
        if self.n_train < 1:
            raise InputError("n_train must be >= 1")


def _step(params: ParameterSet, grads: ParameterSet, lr: float,
          anchor: ParameterSet, pulls: list[float]) -> None:
    """theta <- theta - lr * (g + mu * (theta - anchor)) in place, with
    mu = pulls[layer]; a layer with mu = 0 takes a plain step."""
    for p, g, p0, mu in zip(params.layers, grads.layers, anchor.layers, pulls):
        for theta, grad, start in ((p.weight, g.weight, p0.weight), (p.bias, g.bias, p0.bias)):
            if theta is None:
                continue
            if mu > 0.0:
                grad = grad + mu * (theta - start)
            theta -= lr * grad


def local_train(fed: Federation, global_shared: FlatVector,
                round_index: int = 0) -> list[LocalUpdate]:
    """Run one round of local training of every client; their shared
    deltas, in client order.

    Loads the broadcast shared parameters into every client model (a
    local head keeps its previous values), runs E full-batch gradient
    steps (fedsgd: exactly one; fedprox: mu-proximal gradient toward the
    broadcast point), persists the trained parameters in the states, and
    returns theta_shared_after - theta_shared_broadcast of each client.
    Each step is one ``gradient`` call and one in-place update over the
    stacked parameters of all clients; each client's values are those
    its own one-client federation gives, bit for bit.

    A client whose loss is not finite at some step, or whose delta is
    not finite, has diverged: the DivergenceError names the first such
    client in federation order, and no client's parameters persist.
    """
    group = layout_group(global_shared.layout)
    if layer_layout(fed.clients[0].params, group) != global_shared.layout:
        raise InputError("broadcast layout does not match the client model")
    n_train = np.diff(fed.train.bounds)
    if not n_train.all():
        raise InputError(f"client {fed.clients[int(np.argmin(n_train))].client_id} "
                         "has no train nodes")

    anchor = unflatten(global_shared, fed.clients[0].params)
    params = _stack(fed, anchor, group)
    training = fed.training
    n_steps = 1 if training.trainer == "fedsgd" else training.epochs
    # fedprox pulls the broadcast layers, not a local head, toward anchor
    mu = training.mu if training.trainer == "fedprox" else 0.0
    pulls = [mu if group in ("all", l.group) else 0.0 for l in anchor.layers]

    diverged = np.zeros(len(fed.clients), dtype=bool)
    for _ in range(n_steps):
        # a diverged client's values are not finite from here on: no warnings
        with np.errstate(all="ignore" if diverged.any() else None):
            losses, grads = gradient(params, fed.batch, fed.train, fed.model.activation)
            diverged |= ~np.isfinite(losses)
            _step(params, grads, training.lr, anchor, pulls)

    stacked = [a.reshape(len(fed.clients), -1) for spec in global_shared.layout
               for a in (params.layers[spec.index].weight, params.layers[spec.index].bias)
               if a is not None]
    deltas = np.concatenate(stacked, axis=1) - global_shared.values
    # a displacement whose entries or norm are unrepresentable can never
    # be aggregated; surface it as divergence, not as a malformed input
    # (d . d is finite exactly when d's entries and norm are)
    diverged |= ~np.isfinite([d.dot(d) for d in deltas])
    if diverged.any():
        raise DivergenceError(round_index, fed.clients[int(np.argmax(diverged))].client_id)

    for c, p in zip(fed.clients, unstack_params(params)):
        c.params = p
    return [
        LocalUpdate(client_id=c.client_id,
                    delta=FlatVector(values=d, layout=global_shared.layout), n_train=n)
        for c, d, n in zip(fed.clients, deltas, n_train.tolist())
    ]
