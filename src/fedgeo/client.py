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
included), each layer a view of it (``model.layer_views``). The shared
layers are adjacent (a model has 1 or 2 layers), so their columns are
one slice of the matrix. Its clients belong to one or more runs,
independent federations that train in lockstep, such as the harness's
run seeds: each run has its own shared parameters and its own server
state, and a round's broadcast is one (R, L_shared) matrix, row r run
r's. ``local_train`` trains all clients together, one
``model.gradient`` call and one array update of the whole matrix per
step (the last layer built for the train rows only), and hands the
server one ``RoundUpdates`` of every run: the matrix of the clients'
deltas, the trained matrix's shared columns minus each client's run's
broadcast row, with the federation's run bounds. A one-run or
one-client federation is the R = 1 or K = 1 case of the same code, and
each client's values are bit for bit those it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, check_integer, check_real
from .graphs import Graph, NormalizedAdjacency
from .model import (
    SHARED,
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
    """Local training settings: a known trainer, a finite lr >= 0, epochs
    >= 1, and a finite mu >= 0 (for every trainer, though only fedprox
    reads it)."""

    trainer: str = "fedavg"
    lr: float = 0.05
    epochs: int = 1
    mu: float = 0.01

    def __post_init__(self):
        if self.trainer not in TRAINERS:
            raise InputError(f"unknown trainer {self.trainer!r}")
        check_integer("epochs", self.epochs)
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        for name in ("lr", "mu"):
            value = getattr(self, name)
            check_real(name, value)
            if not (math.isfinite(value) and value >= 0.0):
                raise InputError(f"{name} must be a finite number >= 0, not {value}")


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
    (start, stop) in ``clients``. Every run needs a client, every client
    a train node, and the clients' parameters must share one shape of 1
    or 2 layers, at least one of them shared (InputError otherwise);
    ``layout`` is that shape's FlatVector layout, ``shared_layout`` its
    shared layers' and ``shared_columns`` the one slice of the layout
    they cover. ``batch`` holds their graphs as one
    (``model.GraphBatch``, built once, so a client given a new graph
    needs a new federation), and ``train`` and ``test`` their train and
    test rows in it. It owns the clients' parameters, local heads
    included, as one (K, L) matrix in client order (see
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
        check_layer_count(first.params.n_layers)
        flats = [flatten(first.params)]
        for prev, c in zip(clients, clients[1:]):
            # the harness gives a seed's clients one ParameterSet: each set is
            # flattened once, a client's compared with the previous one's by identity
            flats.append(flats[-1] if c.params is prev.params else flatten(c.params))
        self.layout = flats[0].layout
        for c, flat in zip(clients, flats):
            if flat.layout != self.layout:
                raise InputError(f"client {c.client_id}'s parameters differ in shape from "
                                 f"client {first.client_id}'s")
        self.shared_layout = layer_layout(first.params, SHARED)
        if not self.shared_layout:
            raise InputError(f"client {first.client_id}'s model has no shared layer")
        spans = layer_slices(self.layout)
        self.shared_columns = slice(spans[self.shared_layout[0].index][0],
                                    spans[self.shared_layout[-1].index][1])
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
        if not self.train.counts.all():
            raise InputError(f"client {self.client_ids[int(np.argmin(self.train.counts))]} "
                             "has no train nodes")
        self.test = self.batch.rows([np.flatnonzero(c.graph.test_mask) for c in clients])
        self._held = np.stack([flat.values for flat in flats])
        self._views = [layer_views(row, self.layout) for row in self._held]

    def params(self, shared: np.ndarray) -> np.ndarray:
        """Every client's parameters as a new (K, L) matrix in client
        order, given the (R, L_shared) matrix of each run's shared
        parameters (InputError naming both shapes otherwise): the held
        rows, with the ``shared_columns`` set to the client's run's row."""
        want = (len(self.runs), self.shared_columns.stop - self.shared_columns.start)
        if shared.shape != want:
            raise InputError(f"shared parameters of shape {shared.shape} do not match the "
                             f"federation's {want}")
        work = self._held.copy()
        work[:, self.shared_columns] = np.repeat(shared, self.run_sizes, axis=0)
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
    The rows belong to one or more runs, run r's rows ``runs[r]`` =
    (start, stop) in run order (default: one run of every row). Every
    run needs a row, ids must be distinct within a run and counts >= 1
    (InputError otherwise). It is the sequence of its runs:
    ``updates[r]`` is run r's rows as a one-run RoundUpdates.
    """

    client_ids: tuple[int, ...]
    deltas: np.ndarray  # (K, L)
    n_train: tuple[int, ...]
    layout: tuple[LayerSpec, ...]
    runs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        k = len(self.client_ids)
        object.__setattr__(self, "runs", ((0, k),) if self.runs is None
                           else tuple((int(a), int(b)) for a, b in self.runs))
        stops = [b for _, b in self.runs]
        if (k == 0 or [a for a, _ in self.runs] != [0] + stops[:-1] or stops[-1] != k
                or any(len(set(self.client_ids[a:b])) != b - a or a == b
                       for a, b in self.runs)):
            raise InputError("a round needs at least one client update in every run and "
                             "distinct ids within a run")
        if self.deltas.shape != (k, sum(s.size for s in self.layout)):
            raise InputError(f"deltas of shape {self.deltas.shape} do not match {k} clients "
                             "and the layout")
        if len(self.n_train) != k or min(self.n_train) < 1:
            raise InputError("one n_train >= 1 per client required")

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, run: int) -> RoundUpdates:
        a, b = self.runs[run]
        return RoundUpdates(client_ids=self.client_ids[a:b], deltas=self.deltas[a:b],
                            n_train=self.n_train[a:b], layout=self.layout)


def local_train(fed: Federation, shared: np.ndarray, round_index: int = 0) -> RoundUpdates:
    """Run one round of local training of every client, given the
    (R, L_shared) matrix of each run's broadcast shared parameters (see
    ``Federation.params``); every client's shared delta, one row per
    client in federation order, in the federation's runs.

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
    work = fed.params(shared)
    cols = fed.shared_columns
    params = layer_views(work, fed.layout)
    training = fed.training
    n_steps = 1 if training.trainer == "fedsgd" else training.epochs
    # fedprox pulls the broadcast columns, not a local head, toward the run's
    # broadcast start, theta <- theta - lr * (g + mu * (theta - start)); no other trainer reads it
    mu = training.mu if training.trainer == "fedprox" else 0.0
    start = work[:, cols].copy() if mu > 0.0 else None

    diverged = np.zeros(len(fed.clients), dtype=bool)
    for _ in range(n_steps):
        # a diverged client's values are not finite from here on: no warnings
        with np.errstate(all="ignore" if diverged.any() else None):
            losses, grads = gradient(params, fed.batch, fed.train, fed.model.activation)
            diverged |= ~np.isfinite(losses)
            if mu > 0.0:
                grads[:, cols] += mu * (work[:, cols] - start)
            grads *= training.lr
            work -= grads

    deltas = np.repeat(shared, fed.run_sizes, axis=0)
    # a displacement whose entries or norm are unrepresentable can never
    # be aggregated; surface it as divergence, not as a malformed input
    # (d . d is finite exactly when d's entries and norm are)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(work[:, cols], deltas, out=deltas)
        diverged |= ~np.isfinite(np.vecdot(deltas, deltas))
    if diverged.any():
        k = int(np.argmax(diverged))
        run = next(r for r, (a, b) in enumerate(fed.runs) if a <= k < b)
        raise DivergenceError(round_index, fed.client_ids[k], run)

    fed._commit(work)
    return RoundUpdates(client_ids=fed.client_ids, deltas=deltas,
                        n_train=tuple(fed.train.counts.tolist()),
                        layout=fed.shared_layout, runs=fed.runs)
