"""Non-IID client partitioning by Dirichlet label skew.

For each class, per-client proportions are drawn from
Dirichlet(alpha * 1_K); the class's nodes are shuffled and split at the
cumulative proportion boundaries. Each client receives the induced
subgraph on its nodes: node indices are relabeled to be contiguous and
cross-client edges are dropped (clients never see topology they do not
own). The client node sets always cover the original node set exactly
once.

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
    buckets: list[list[np.ndarray]] = [[] for _ in range(k)]
    thin = [c for c in np.unique(labels).tolist() if np.count_nonzero(labels == c) < k]
    if thin:
        warnings.warn(
            f"classes {thin} have fewer nodes than clients ({k}); "
            "partitioning proceeds best-effort",
            stacklevel=2,
        )
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        props = rng.dirichlet(np.full(k, spec.dirichlet_alpha))
        idx = rng.permutation(idx)
        cuts = np.floor(np.cumsum(props)[:-1] * idx.size).astype(np.int64)
        for client, part in enumerate(np.split(idx, cuts)):
            buckets[client].append(part)
    out = []
    for parts in buckets:
        merged = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        out.append(np.sort(merged))
    return out


def induced_subgraph(g: Graph, node_ids: np.ndarray) -> Graph:
    """Subgraph on ``node_ids`` with nodes relabeled to 0..len-1.

    ``node_ids`` must be sorted, unique original indices. Edges with an
    endpoint outside the set are dropped; features, labels, and masks are
    carried over.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        raise InputError("induced subgraph needs at least one node")
    if np.any(np.diff(node_ids) <= 0):
        raise InputError("node_ids must be sorted and unique")
    remap = np.full(g.n_nodes, -1, dtype=np.int64)
    remap[node_ids] = np.arange(node_ids.size)
    if g.n_edges:
        keep = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        edges = remap[g.edges[keep]]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return make_graph(
        node_ids.size,
        edges,
        features=g.features[node_ids],
        labels=g.labels[node_ids],
        train_mask=g.train_mask[node_ids],
        val_mask=g.val_mask[node_ids],
        test_mask=g.test_mask[node_ids],
    )


def dirichlet_label_partition(g: Graph, spec: PartitionSpec) -> list[Graph]:
    """Partition ``g`` into ``spec.n_clients`` induced client subgraphs.

    A client drawn an empty node set would break the Graph invariant; such
    clients receive one node stolen from the largest client (rare, only
    under extreme skew on tiny graphs) so that coverage stays exact.
    """
    assignment = dirichlet_assignments(g.labels, spec)
    empty = [i for i, ids in enumerate(assignment) if ids.size == 0]
    for i in empty:
        donor = max(range(len(assignment)), key=lambda j: assignment[j].size)
        if assignment[donor].size <= 1:
            raise InputError("not enough nodes to give every client at least one")
        assignment[i] = assignment[donor][-1:]
        assignment[donor] = assignment[donor][:-1]
    return [induced_subgraph(g, ids) for ids in assignment]
