"""Non-IID client partitioning by Dirichlet label skew.

For each class, per-client proportions are drawn from
Dirichlet(alpha * 1_K); the class's nodes are shuffled and split at the
cumulative proportion boundaries. The partition is each client's node
ids; the client node sets always cover the original node set exactly
once. ``induced_subgraph`` builds the clients' graphs side by side as
one graph: each client's nodes are relabeled to one contiguous range
and cross-client edges are dropped (clients never see topology they do
not own).

RNG stream order (one ``default_rng(spec.seed)``): for each class in
ascending label order, first the Dirichlet draw, then the permutation of
that class's node indices.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InputError
from .graphs import Graph, PartitionSpec, make_graph

__all__ = [
    "dirichlet_assignments",
    "induced_subgraph",
    "dirichlet_label_partition",
]


def dirichlet_assignments(labels: np.ndarray, spec: PartitionSpec) -> list[np.ndarray]:
    """Split node indices into ``spec.n_clients`` groups by label skew.

    Returns one sorted int array of original node indices per client.
    Classes with fewer than ``n_clients`` nodes are still split
    (best-effort); a warning is emitted because some clients then receive
    no nodes of that class no matter the draw.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = spec.n_clients
    rng = np.random.default_rng(spec.seed)
    classes, counts = np.unique(labels, return_counts=True)
    thin = classes[counts < k].tolist()
    if thin:
        warnings.warn(
            f"classes {thin} have fewer nodes than clients ({k}); "
            "partitioning proceeds best-effort",
            stacklevel=2,
        )
    alpha = np.full(k, spec.dirichlet_alpha)
    owner = np.empty(labels.size, dtype=np.int64)  # each node's client
    for c in classes.tolist():
        props = rng.dirichlet(alpha)
        idx = rng.permutation(np.flatnonzero(labels == c))
        cuts = np.floor(np.cumsum(props)[:-1] * idx.size).astype(np.int64)
        # idx[j] goes to client (number of cuts <= j), the part np.split(idx, cuts) puts it in
        owner[idx] = np.bincount(cuts, minlength=idx.size + 1)[:idx.size].cumsum()
    return [np.flatnonzero(owner == client) for client in range(k)]


def induced_subgraph(g: Graph, groups: list[np.ndarray]) -> Graph:
    """The subgraphs of ``g`` on each group of node ids, side by side as
    one graph: group k's nodes are nodes ``bounds[k]:bounds[k + 1]`` in
    ascending original order, where ``bounds`` are the cumulative group
    sizes from 0, and only the edges inside one group are kept. Features,
    labels and masks are carried over. One group gives the subgraph on
    it alone.

    Each group must be sorted, unique and non-empty original indices,
    and no node may be in two groups (InputError otherwise).
    """
    groups = [np.asarray(ids, dtype=np.int64) for ids in groups]
    if not groups or any(ids.ndim != 1 or ids.size == 0 for ids in groups):
        raise InputError("induced subgraph needs groups of node ids, each of at least one")
    sizes = [ids.size for ids in groups]
    node_ids = np.concatenate(groups)
    rise = np.diff(node_ids)
    rise[np.cumsum(sizes)[:-1] - 1] = 1  # a group may start below the last one's end
    if np.any(rise <= 0):
        raise InputError("node_ids must be sorted and unique")
    owner = np.full(g.n_nodes, -1, dtype=np.int64)
    owner[node_ids] = np.repeat(np.arange(len(groups)), sizes)
    if np.count_nonzero(owner >= 0) != node_ids.size:
        raise InputError("a node is in two groups")
    remap = np.full(g.n_nodes, -1, dtype=np.int64)
    remap[node_ids] = np.arange(node_ids.size)
    u, v = g.edges[:, 0], g.edges[:, 1]
    keep = (owner[u] >= 0) & (owner[u] == owner[v])
    return make_graph(
        node_ids.size,
        remap[g.edges[keep]],
        features=g.features[node_ids],
        labels=g.labels[node_ids],
        train_mask=g.train_mask[node_ids],
        val_mask=g.val_mask[node_ids],
        test_mask=g.test_mask[node_ids],
    )


def dirichlet_label_partition(g: Graph, spec: PartitionSpec) -> list[np.ndarray]:
    """Each of the ``spec.n_clients`` clients' sorted original node ids
    in a partition of ``g``.

    A client drawn an empty node set would have no graph; such clients
    receive one node stolen from the largest client (rare, only under
    extreme skew on tiny graphs) so that coverage stays exact.
    """
    assignment = dirichlet_assignments(g.labels, spec)
    empty = [i for i, ids in enumerate(assignment) if ids.size == 0]
    for i in empty:
        donor = max(range(len(assignment)), key=lambda j: assignment[j].size)
        if assignment[donor].size <= 1:
            raise InputError("not enough nodes to give every client at least one")
        assignment[i] = assignment[donor][-1:]
        assignment[donor] = assignment[donor][:-1]
    return assignment
