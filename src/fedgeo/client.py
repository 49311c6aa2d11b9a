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
train and test rows, and their parameters as one (K, L) matrix, row k
client k's flat vector (``model.FlatVector`` order, local head
included), each layer a view of it (``model.layer_views``). The layers
a broadcast covers are adjacent (a model has 1 or 2 layers), so their
columns are one slice of the matrix. Its clients belong to one or more
runs, independent federations that train in lockstep, such as the
harness's run seeds: each run has its own broadcast and its own
server. ``local_train`` trains all clients together, one
``model.gradient`` call and one array update of the whole matrix per
step (the last layer built for the train rows only), and hands each
run's server one ``RoundUpdates``: the matrix of its clients' deltas,
a slice of the trained matrix minus the broadcasts. A one-run or
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
    GROUPS,
    FlatVector,
    LayerSpec,
    ModelConfig,
    ParameterSet,
    check_layer_count,
    flatten,
    gradient,
    graph_batch,
    layer_layout,
    layer_slices,
    layer_views,
)
# no caller here; perfbench's tracer patches it by name (ROADMAP item 1)
from .model import unflatten  # noqa: F401

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
    after each of its rounds ``params`` is ``layer_views`` of the
    client's row of the federation's matrix, which the next round
    overwrites in place (copy it to keep a round's values), and a
    ``params`` assigned between rounds is not read. A graph whose node
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
    """K clients of R runs trained and evaluated as one batch, under one
    ``model`` and one ``training`` config.

    ``run_sizes`` counts the clients of each run, which come in run
    order (default: one run of all clients); ``runs`` holds each run's
    (start, stop) in ``clients``. Every run needs a client, and the
    clients' parameters must share one shape of 1 or 2 layers
    (InputError otherwise); ``layout`` is that shape's FlatVector layout.
    ``batch`` holds their graphs as one (``model.GraphBatch``, built
    once, so a client given a new graph needs a new federation), and
    ``train`` and ``test`` their train and test rows in it. It owns the
    clients' parameters, local heads included, as one (K, L) matrix in
    client order (see ``ClientState``). Building it changes no client.
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
        check_layer_count(first.params.n_layers)
        flats = [flatten(c.params) for c in clients]
        self.layout = flats[0].layout
        for c, flat in zip(clients, flats):
            if flat.layout != self.layout:
                raise InputError(f"client {c.client_id}'s parameters differ in shape from "
                                 f"client {first.client_id}'s")
        self.clients = tuple(clients)
        self.client_ids = tuple(c.client_id for c in clients)
        stops = np.cumsum(run_sizes).tolist()
        self.runs = tuple(zip([0] + stops[:-1], stops))
        self.model = model
        self.training = training
        self.batch = graph_batch([c.adj for c in clients], [c.graph.features for c in clients],
                                 [c.graph.labels for c in clients])
        self.train = self.batch.rows([np.flatnonzero(c.graph.train_mask) for c in clients])
        self.test = self.batch.rows([np.flatnonzero(c.graph.test_mask) for c in clients])
        self._held = np.stack([flat.values for flat in flats])
        self._views = [layer_views(row, self.layout) for row in self._held]
        spans = layer_slices(self.layout)
        self._columns = {layout: slice(spans[layout[0].index][0], spans[layout[-1].index][1])
                         for layout in (layer_layout(first.params, g) for g in GROUPS) if layout}

    def columns(self, layout: tuple[LayerSpec, ...]) -> slice:
        """The columns a broadcast of ``layout``, one group's layout of the
        clients' parameters (or InputError), covers: one slice, as its layers are adjacent."""
        if layout not in self._columns:
            raise InputError("broadcast layout does not match the client model")
        return self._columns[layout]

    def params(self, broadcasts: Sequence[FlatVector]) -> np.ndarray:
        """Every client's parameters as a new (K, L) matrix in client
        order, given one broadcast per run (InputError otherwise): the
        held rows, with the columns the broadcasts cover (``columns``)
        set to the client's run's broadcast."""
        if len(broadcasts) != len(self.runs):
            raise InputError(f"{len(broadcasts)} broadcasts for {len(self.runs)} runs")
        work = self._held.copy()
        for (a, b), v in zip(self.runs, broadcasts):
            work[a:b, self.columns(v.layout)] = v.values
        return work

    def _commit(self, params: np.ndarray) -> None:
        """Hold ``params``; each client's ``params`` becomes views of its row."""
        np.copyto(self._held, params)
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
    of the (K, L) parameter matrix of all clients; each client's values
    are those its own one-client federation gives, bit for bit.

    A client whose loss is not finite at some step, or whose delta is
    not finite, has diverged: the DivergenceError names the first such
    client in federation order and its run, and the federation and
    every client keep the parameters they had.
    """
    work = fed.params(broadcasts)
    n_train = fed.train.counts
    if not n_train.all():
        raise InputError(f"client {fed.client_ids[int(np.argmin(n_train))]} has no train nodes")

    shared = fed.columns(broadcasts[0].layout)
    params = layer_views(work, fed.layout)
    training = fed.training
    n_steps = 1 if training.trainer == "fedsgd" else training.epochs
    # fedprox pulls the broadcast columns, not a local head, toward the run's
    # broadcast start, theta <- theta - lr * (g + mu * (theta - start)); no other trainer reads it
    mu = training.mu if training.trainer == "fedprox" else 0.0
    start = work[:, shared].copy() if mu > 0.0 else None

    diverged = np.zeros(len(fed.clients), dtype=bool)
    for _ in range(n_steps):
        # a diverged client's values are not finite from here on: no warnings
        with np.errstate(all="ignore" if diverged.any() else None):
            losses, grads = gradient(params, fed.batch, fed.train, fed.model.activation)
            diverged |= ~np.isfinite(losses)
            if mu > 0.0:
                grads[:, shared] += mu * (work[:, shared] - start)
            grads *= training.lr
            work -= grads

    deltas = work[:, shared].copy()
    for (a, b), v in zip(fed.runs, broadcasts):
        deltas[a:b] -= v.values
    # a displacement whose entries or norm are unrepresentable can never
    # be aggregated; surface it as divergence, not as a malformed input
    # (d . d is finite exactly when d's entries and norm are)
    with np.errstate(over="ignore", invalid="ignore"):
        diverged |= ~np.isfinite(np.vecdot(deltas, deltas))
    if diverged.any():
        k = int(np.argmax(diverged))
        run = next(r for r, (a, b) in enumerate(fed.runs) if a <= k < b)
        raise DivergenceError(round_index, fed.client_ids[k], run)

    fed._commit(work)
    counts = tuple(n_train.tolist())
    return [RoundUpdates(client_ids=fed.client_ids[a:b], deltas=deltas[a:b],
                         n_train=counts[a:b], layout=broadcasts[0].layout)
            for a, b in fed.runs]
