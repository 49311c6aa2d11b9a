"""Client-side local training.

Each round a client receives the shared encoder parameters, trains on
its private graph for E full-batch gradient-descent steps ("epoch" =
one full-batch step; graphs here are small), and returns the shared
displacement delta = theta_local - theta_global. In cross-domain mode
the final layer is a client-local head: it trains locally, persists in
the client state across rounds, and never leaves the client.

Trainers: "fedavg" (E steps), "fedsgd" (forced single step), "fedprox"
(E steps, gradient augmented with mu * (theta - global) over the shared
group). Plain gradient descent throughout — no momentum, no batching —
so a round is bitwise deterministic in its inputs.

A client's graph never changes, so the client computes what depends on
it alone once, when it is built: the first-layer message ``A_hat @ X``
and the indices of its train and test rows. Each step then builds the
last layer for the train rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InputError
from .graphs import Graph, NormalizedAdjacency
from .model import (
    FlatVector,
    Layer,
    ModelConfig,
    ParameterSet,
    feature_message,
    flatten,
    gradient,
    layer_layout,
    layout_group,
    unflatten,
)

__all__ = ["ClientState", "LocalUpdate", "TrainingConfig", "local_train", "TRAINERS"]

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
    each round and persists the trained values back. ``objective``, when
    set, replaces the cross-entropy objective with a custom
    ``params -> (loss, grad ParameterSet)`` callable (surrogate losses
    in tests). The fedprox pull belongs to the descent step, so fedprox
    adds it to a custom objective's gradient too.

    Built from ``graph`` and ``adj`` and held for the client's life:
    ``message`` = ``A_hat @ X`` (the first layer's message), and
    ``train_rows`` and ``test_rows`` (node indices): the message and
    rows that ``model.gradient`` (training) and ``model.forward``
    (evaluation) take. So ``graph`` and
    ``adj`` cannot be reassigned; ``dataclasses.replace`` builds a state
    for a new graph, with these values built anew. Features whose row
    count is not the adjacency size are an InputError.
    """

    client_id: int
    graph: Graph
    adj: NormalizedAdjacency
    params: ParameterSet
    model: ModelConfig = ModelConfig()
    training: TrainingConfig = TrainingConfig()
    objective: Callable[[ParameterSet], tuple[float, ParameterSet]] | None = field(
        default=None, repr=False
    )
    message: np.ndarray = field(init=False, repr=False)
    train_rows: np.ndarray = field(init=False, repr=False)
    test_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.message = feature_message(self.adj, self.graph.features)
        self.message.flags.writeable = False  # forward hands it out as messages[0]
        self.train_rows = np.flatnonzero(self.graph.train_mask)
        self.test_rows = np.flatnonzero(self.graph.test_mask)

    def __setattr__(self, name, value):
        # the message and rows would go stale under a new graph
        if name in ("graph", "adj") and hasattr(self, "message"):
            raise AttributeError(f"{name} is fixed once built; use dataclasses.replace")
        super().__setattr__(name, value)


@dataclass(frozen=True)
class LocalUpdate:
    """Shared-group displacement a client sends to the server."""

    client_id: int
    round: int
    delta: FlatVector
    n_train: int

    def __post_init__(self):
        if self.n_train < 1:
            raise InputError("n_train must be >= 1")


def _step(params: ParameterSet, grads: ParameterSet, lr: float,
          anchor: ParameterSet, pulls: list[float]) -> ParameterSet:
    """theta <- theta - lr * (g + mu * (theta - anchor)) with mu =
    pulls[layer]; a layer with mu = 0 takes a plain step."""
    layers = []
    for p, g, p0, mu in zip(params.layers, grads.layers, anchor.layers, pulls):
        gw, gb = g.weight, g.bias
        if mu > 0.0:
            gw = gw + mu * (p.weight - p0.weight)
            gb = gb + mu * (p.bias - p0.bias) if p.bias is not None else None
        w = p.weight - lr * gw
        b = p.bias - lr * gb if p.bias is not None else None
        layers.append(Layer(weight=w, bias=b, group=p.group))
    return ParameterSet(layers=tuple(layers))


def local_train(state: ClientState, global_shared: FlatVector, round_index: int = 0) -> LocalUpdate:
    """Run one round of local training and return the shared delta.

    Loads the broadcast shared parameters into the client model (the
    local head, if any, keeps its previous values), runs E full-batch
    gradient steps (fedsgd: exactly one; fedprox: mu-proximal gradient
    toward the broadcast point), persists the trained parameters in the
    state, and returns theta_shared_after - theta_shared_broadcast.
    """
    group = layout_group(global_shared.layout)
    if layer_layout(state.params, group) != global_shared.layout:
        raise InputError("broadcast layout does not match the client model")
    n_train = state.train_rows.size
    if n_train < 1 and state.objective is None:
        raise InputError(f"client {state.client_id} has no train nodes")

    anchor = params = unflatten(global_shared, state.params)
    n_steps = 1 if state.training.trainer == "fedsgd" else state.training.epochs
    # fedprox pulls the broadcast layers, not a local head, toward anchor
    mu = state.training.mu if state.training.trainer == "fedprox" else 0.0
    pulls = [mu if group in ("all", l.group) else 0.0 for l in anchor.layers]

    for _ in range(n_steps):
        if state.objective is not None:
            loss, grads = state.objective(params)
        else:
            loss, grads = gradient(params, state.adj, state.message, state.graph.labels,
                                   state.train_rows, state.model.activation)
        if not np.isfinite(loss):
            raise DivergenceError(round_index, state.client_id)
        params = _step(params, grads, state.training.lr, anchor, pulls)

    state.params = params
    new_shared = flatten(params, group=group)
    delta = FlatVector(
        values=new_shared.values - global_shared.values,
        layout=global_shared.layout,
    )
    # a displacement whose entries or norm are unrepresentable can never
    # be aggregated; surface it as divergence, not as a malformed input
    if not np.all(np.isfinite(delta.values)) or not np.isfinite(
        float(np.linalg.norm(delta.values))
    ):
        raise DivergenceError(round_index, state.client_id)
    return LocalUpdate(
        client_id=state.client_id,
        round=round_index,
        delta=delta,
        n_train=max(n_train, 1),
    )
