"""Client-side local training.

Each round a client receives the shared encoder parameters, trains on
its private graph for E full-batch gradient-descent steps ("epoch" =
one full-batch step; graphs here are small), and returns the shared
displacement delta = theta_local - theta_global. In cross-domain mode
the final layer is a client-local head: it trains locally, persists in
the federation's ``held`` rows across rounds, and never leaves the
client.

Trainers: "fedavg" (E steps) and "fedprox" (E steps, gradient
augmented with mu * (theta - global) over the shared group); FedSGD is
fedavg at E = 1. Plain gradient descent throughout — no momentum, no
minibatches — so a round is bitwise deterministic in its inputs.

A ``ClientState`` is a client's input record: its rows of a graph that
may hold other clients side by side, as the harness builds each
source's clients. The ``Federation`` built over it owns what training
changes. It holds its clients' graphs as one batch, each distinct graph
and its normalized adjacency once, with their train and test rows, and
their parameters as one (K, L) matrix, ``held``, row k client k's flat
vector (``model.FlatVector`` order, local head included), which each
round replaces with the trained matrix. The shared layers are adjacent (a
model has 1 or 2 layers), so their columns are one slice of the
matrix. Its clients belong to one or more runs, independent
federations that train in lockstep, such as the harness's run seeds:
each run has its own shared parameters and its own server state, and a
round's broadcast is one (R, L_shared) matrix, row r run r's.
``local_train`` trains all clients together, one ``model.gradient``
call and one array update of the whole matrix per step (the last layer
built for the train rows only), and hands the server one
``RoundUpdates`` of every run: the matrix of the clients' deltas, the
trained matrix's shared columns minus each client's run's broadcast
row, with the federation's run bounds. A one-run or
one-client federation is the R = 1 or K = 1 case of the same code, and
each client's values are bit for bit those it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
from .server import RunLayout

__all__ = ["ClientState", "Federation", "RoundUpdates", "TrainingConfig", "local_train", "TRAINERS"]

TRAINERS = ("fedavg", "fedprox")


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


@dataclass(frozen=True)
class ClientState:
    """One client's input record: its id, a graph and its normalized
    adjacency, the client's rows ``nodes`` = (start, stop) of that graph
    (default: the whole graph), and the parameters it starts from, local
    head included. Clients that share a graph share its arrays and
    operator; the graph must have no edge that leaves a client's rows.
    A ``Federation`` over the client copies ``params`` into its ``held``
    matrix and trains that; the record never changes. A graph whose node
    count is not the adjacency size, or rows that are not a non-empty
    span of the graph, are an InputError.
    """

    client_id: int
    graph: Graph
    adj: NormalizedAdjacency
    params: ParameterSet
    nodes: tuple[int, int] | None = None

    def __post_init__(self):
        n = self.graph.n_nodes
        if n != self.adj.n_nodes:
            raise InputError(f"feature rows {n} != adjacency size {self.adj.n_nodes}")
        nodes = (0, n) if self.nodes is None else tuple(self.nodes)
        for end in nodes:
            check_integer("a client's node span end", end)
        nodes = tuple(map(int, nodes))
        if len(nodes) != 2 or not 0 <= nodes[0] < nodes[1] <= n:
            raise InputError(f"client {self.client_id}'s nodes {nodes} are not a non-empty "
                             f"span of its {n}-node graph")
        object.__setattr__(self, "nodes", nodes)


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
    needs a new federation), each distinct graph once: the clients of a
    graph come one after another and cover its rows in order
    (InputError otherwise). ``train`` and ``test`` are their train and
    test rows in it. ``held`` is the (K, L) matrix of the clients'
    current parameters, local heads included, in client order: each
    round replaces it with a new matrix and never writes into it, so a
    reference kept from an earlier round keeps that round's values.
    ``run_layout`` is the run structure of its rounds
    (``server.RunLayout``), built on first read and handed out with
    every round's ``RoundUpdates``.
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
        for p, c in zip([None, *clients], [*clients, None]):
            if p is None or p.nodes[1] == p.adj.n_nodes:  # p ends a graph: c starts one
                ok = c is None or c.nodes[0] == 0
            else:  # c continues p's graph
                ok = c is not None and c.adj is p.adj and c.nodes[0] == p.nodes[1]
            if not ok:
                raise InputError(f"client {(c or p).client_id}'s nodes {(c or p).nodes} are "
                                 "out of place: a graph's clients follow one another and "
                                 "cover its rows in order")
        graphs = [c for c in clients if c.nodes[0] == 0]  # the first client of each graph
        self.batch = graph_batch([c.adj for c in graphs], [c.graph.features for c in graphs],
                                 [c.graph.labels for c in graphs],
                                 np.cumsum([0] + [b - a for a, b in (c.nodes for c in clients)]))
        self.train = self.batch.rows([np.flatnonzero(c.graph.train_mask[slice(*c.nodes)])
                                      for c in clients])
        if not self.train.counts.all():
            raise InputError(f"client {self.client_ids[int(np.argmin(self.train.counts))]} "
                             "has no train nodes")
        self.test = self.batch.rows([np.flatnonzero(c.graph.test_mask[slice(*c.nodes)])
                                     for c in clients])
        self.held = np.stack([flat.values for flat in flats])

    def params(self, shared: np.ndarray) -> np.ndarray:
        """Every client's parameters as a new (K, L) matrix in client
        order, given the (R, L_shared) matrix of each run's shared
        parameters (InputError naming both shapes otherwise): the held
        rows, with the ``shared_columns`` set to the client's run's row."""
        want = (len(self.runs), self.shared_columns.stop - self.shared_columns.start)
        if shared.shape != want:
            raise InputError(f"shared parameters of shape {shared.shape} do not match the "
                             f"federation's {want}")
        work = self.held.copy()
        work[:, self.shared_columns] = np.repeat(shared, self.run_sizes, axis=0)
        return work

    @cached_property
    def run_layout(self) -> RunLayout:
        return RunLayout(self.runs, self.client_ids, tuple(self.train.counts.tolist()),
                         self.shared_layout)

    def first_runs(self, n: int) -> Federation:
        """A federation of runs 0..n-1 alone, under the same configs,
        holding their current rows of ``held``, with a run layout of its
        own."""
        fed = Federation(list(self.clients[:sum(self.run_sizes[:n])]), self.model,
                         self.training, self.run_sizes[:n])
        fed.held = self.held[:len(fed.clients)]
        return fed


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

    ``run_layout`` is the rows' run structure (``server.RunLayout``),
    which the server round reads: ``local_train`` passes its
    federation's, built once, and without one the RoundUpdates builds
    its own from the tuples. A given one must hold the same runs, ids,
    counts and layout (InputError otherwise).
    """

    client_ids: tuple[int, ...]
    deltas: np.ndarray  # (K, L)
    n_train: tuple[int, ...]
    layout: tuple[LayerSpec, ...]
    runs: tuple[tuple[int, int], ...] | None = None
    run_layout: RunLayout | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.client_ids)
        lay = self.run_layout
        if lay is None:
            lay = RunLayout(((0, k),) if self.runs is None else self.runs, self.client_ids,
                            self.n_train, self.layout)
            object.__setattr__(self, "run_layout", lay)
        elif ((lay.client_ids, lay.n_train, lay.layout) != (self.client_ids, self.n_train,
                                                            self.layout)
              or self.runs is not None and tuple(map(tuple, self.runs)) != lay.runs):
            raise InputError("the run layout does not match the round's runs, ids, counts "
                             "and layout")
        object.__setattr__(self, "runs", lay.runs)
        if self.deltas.shape != (k, sum(s.size for s in self.layout)):
            raise InputError(f"deltas of shape {self.deltas.shape} do not match {k} clients "
                             "and the layout")

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
    (fedprox: mu-proximal gradient toward the broadcast point), replaces
    the federation's ``held`` with the trained matrix, and returns
    theta_shared_after - theta_shared_broadcast of each client. Each
    step is one ``gradient`` call and one in-place update of the (K, L)
    parameter matrix of all clients; each client's values
    are those its own one-client federation gives, bit for bit.

    A client whose loss is not finite at some step, or whose delta is
    not finite, has diverged: the DivergenceError names the first such
    client in federation order and its run, and the federation keeps
    the ``held`` it had.
    """
    work = fed.params(shared)
    cols = fed.shared_columns
    params = layer_views(work, fed.layout)
    training = fed.training
    # fedprox pulls the broadcast columns, not a local head, toward the run's
    # broadcast start, theta <- theta - lr * (g + mu * (theta - start)), the
    # pull computed in one buffer held for the round; the deltas subtract the
    # same start, in place
    mu = training.mu if training.trainer == "fedprox" else 0.0
    start = work[:, cols].copy()
    pull = np.empty_like(start) if mu > 0.0 else None

    diverged = np.zeros(len(fed.clients), dtype=bool)
    for _ in range(training.epochs):
        # a diverged client's values are not finite from here on: no warnings
        with np.errstate(all="ignore" if diverged.any() else None):
            losses, grads = gradient(params, fed.batch, fed.train, fed.model.activation)
            diverged |= ~np.isfinite(losses)
            if pull is not None:
                np.subtract(work[:, cols], start, out=pull)
                pull *= mu
                grads[:, cols] += pull
            grads *= training.lr
            work -= grads

    # a displacement whose entries or norm are unrepresentable can never
    # be aggregated; surface it as divergence, not as a malformed input
    # (d . d is finite exactly when d's entries and norm are)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.subtract(work[:, cols], start, out=start)
        diverged |= ~np.isfinite(np.vecdot(deltas, deltas))
    if diverged.any():
        k = int(np.argmax(diverged))
        run = next(r for r, (a, b) in enumerate(fed.runs) if a <= k < b)
        raise DivergenceError(round_index, fed.client_ids[k], run)

    fed.held = work
    lay = fed.run_layout
    return RoundUpdates(client_ids=lay.client_ids, deltas=deltas, n_train=lay.n_train,
                        layout=lay.layout, run_layout=lay)
