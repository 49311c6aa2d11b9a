"""Graph construction, generation, and normalization.

Graphs are small, undirected, and immutable: node features, integer class
labels, and disjoint train/val/test masks. Edges are stored canonically as
an (m, 2) int array with u < v per row, lexicographically sorted, no
duplicates and no self-loops.

All generators are pure functions of their arguments; anything random takes
an explicit integer seed and draws from a fresh ``numpy.random.default_rng``
in a documented order, so results are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InputError, check_integer, check_real

__all__ = [
    "Graph",
    "NormalizedAdjacency",
    "PartitionSpec",
    "make_graph",
    "check_generator",
    "path_graph",
    "complete_graph",
    "planted_partition_graph",
    "normalized_adjacency",
    "block_diagonal",
    "graph_density",
    "mean_degree",
]


def canonical_edges(edges, n_nodes: int) -> np.ndarray:
    """Validate and canonicalize an edge array.

    Rows are reordered so u < v, duplicates are removed, and rows are
    sorted lexicographically; the result is a new int64 array. Ragged
    rows, an odd number of endpoints, endpoints that are not numbers
    (strings, bools, objects), a non-integral, out-of-range or non-finite
    endpoint and a self-loop raise :class:`InputError`.
    """
    try:
        raw = np.asarray(edges)
    except ValueError as e:  # ragged rows
        raise InputError(f"edges are not rows of two endpoints: {e}") from None
    if raw.size % 2:
        raise InputError(f"edge row {raw.size // 2} has one endpoint, not two")
    raw = raw.reshape(-1, 2)
    if raw.dtype.kind not in "iuf":
        raise InputError(f"edge endpoints must be integer node indices, got dtype {raw.dtype}")
    if raw.dtype.kind == "f":
        x = raw.astype(np.float64)
        bad = ~(np.isfinite(x) & (x == np.trunc(x))).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise InputError(f"edge row {row}: endpoints {x[row].tolist()} are not integers")
    edges = raw.astype(np.int64, copy=False)
    if edges.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if edges.min() < 0 or edges.max() >= n_nodes:
        raise InputError(
            f"edge endpoint out of range [0, {n_nodes}): "
            f"min {edges.min()}, max {edges.max()}"
        )
    if np.any(edges[:, 0] == edges[:, 1]):
        bad = int(np.flatnonzero(edges[:, 0] == edges[:, 1])[0])
        raise InputError(f"self-loop at edge row {bad}")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = lo * n_nodes + hi  # increases exactly when rows are sorted and unique
    if (key[1:] > key[:-1]).all():  # as every generated and induced graph's are
        return np.stack([lo, hi], axis=1)
    return np.stack(np.divmod(np.unique(key), n_nodes), axis=1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Graph:
    """An undirected node-classification graph.

    Edges are canonicalized at construction (u < v, unique, sorted);
    out-of-range endpoints and self-loops raise. Also checked: feature
    rows == label length == n_nodes, masks boolean and pairwise disjoint.
    """

    n_nodes: int
    edges: np.ndarray       # (m, 2) int64, canonical
    features: np.ndarray    # (n_nodes, d) float64
    labels: np.ndarray      # (n_nodes,) int64, values in [0, n_classes)
    train_mask: np.ndarray  # (n_nodes,) bool
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", canonical_edges(self.edges, self.n_nodes))
        if self.n_nodes < 1:
            raise InputError("graph must have at least one node")
        if self.features.shape[0] != self.n_nodes:
            raise InputError(
                f"feature rows ({self.features.shape[0]}) != n_nodes ({self.n_nodes})"
            )
        if self.labels.shape != (self.n_nodes,):
            raise InputError(
                f"label length ({self.labels.shape[0]}) != n_nodes ({self.n_nodes})"
            )
        for name in ("train_mask", "val_mask", "test_mask"):
            m = getattr(self, name)
            if m.shape != (self.n_nodes,) or m.dtype != np.bool_:
                raise InputError(f"{name} must be a boolean vector of length n_nodes")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise InputError("train/val/test masks overlap")
        for name in ("edges", "features", "labels", "train_mask", "val_mask", "test_mask"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.n_nodes else 0


def make_graph(
    n_nodes: int,
    edges,
    features=None,
    labels=None,
    train_mask=None,
    val_mask=None,
    test_mask=None,
) -> Graph:
    """Build a :class:`Graph`, filling defaults.

    Defaults: identity features, all-zero labels, all nodes in the train
    split.
    """
    if features is None:
        features = np.eye(n_nodes, dtype=np.float64)
    else:
        features = np.asarray(features, dtype=np.float64)
    if labels is None:
        labels = np.zeros(n_nodes, dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64)
    if train_mask is None:
        train_mask = np.ones(n_nodes, dtype=bool)
    if val_mask is None:
        val_mask = np.zeros(n_nodes, dtype=bool)
    if test_mask is None:
        test_mask = np.zeros(n_nodes, dtype=bool)
    return Graph(
        n_nodes=n_nodes,
        edges=edges,
        features=features,
        labels=labels,
        train_mask=np.asarray(train_mask, dtype=bool),
        val_mask=np.asarray(val_mask, dtype=bool),
        test_mask=np.asarray(test_mask, dtype=bool),
    )


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetric degree-normalized adjacency with self-loops, CSR storage.

    Entries follow D^{-1/2} (A + I) D^{-1/2} where D is the degree matrix
    of A + I. Symmetric by construction; all eigenvalues lie in [-1, 1]
    and the largest equals 1 for a connected graph. Symmetry is not
    checked, and the model does not rely on it: its backward pass reads
    the transpose of the rows it propagates with (``model.Rows``).
    """

    n_nodes: int
    storage: sp.csr_array = field(repr=False)

    def dense(self) -> np.ndarray:
        return self.storage.toarray()

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        return self.storage @ other


@dataclass(frozen=True)
class PartitionSpec:
    """Label-skew partition parameters: K clients, Dirichlet concentration,
    and the seed (>= 0) that fixes every draw."""

    n_clients: int
    dirichlet_alpha: float
    seed: int

    def __post_init__(self):
        check_integer("n_clients", self.n_clients)
        check_real("dirichlet_alpha", self.dirichlet_alpha)
        check_integer("seed", self.seed)
        # K = 1 is the degenerate single-client federation and is allowed.
        if self.n_clients < 1:
            raise InputError("partition requires at least 1 client")
        # inf passes a bare > 0 and draws NaN shares: every node to one client
        alpha = self.dirichlet_alpha
        if not (math.isfinite(alpha) and alpha > 0):
            raise InputError(f"dirichlet_alpha must be a finite number > 0, not {alpha}")
        if self.seed < 0:
            raise InputError(f"partition seed must be >= 0, got {self.seed}")


def normalized_adjacency(g: Graph) -> NormalizedAdjacency:
    """Symmetric self-loop normalization of the graph's adjacency.

    An isolated node gets a diagonal entry of exactly 1 (its only incidence
    is the self-loop).
    """
    n = g.n_nodes
    u, v = g.edges[:, 0], g.edges[:, 1]
    above = np.bincount(u, minlength=n)  # row j's entries right of the diagonal
    below = np.bincount(v, minlength=n)  # and left of it
    deg = 1.0 + (above + below)  # the self-loop contributes 1 everywhere
    inv_sqrt = 1.0 / np.sqrt(deg)
    w = inv_sqrt[u] * inv_sqrt[v]

    # CSR with each row's columns ascending, written in place: row j holds
    # its edges (u, j) in order of u, the diagonal, then its edges (j, v)
    # in order of v. The canonical edges are sorted by (u, v), so edge e
    # is number e - (u's first edge) of row u's right part; sorted stably
    # by v, they fill the left parts the same way.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + 1 + above, out=indptr[1:])
    diag = indptr[:-1] + below
    e = np.arange(u.size)
    right = diag[u] + 1 + e - (np.cumsum(above) - above)[u]
    by_v = np.argsort(v, kind="stable")
    left = indptr[v[by_v]] + e - (np.cumsum(below) - below)[v[by_v]]
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data[diag], indices[diag] = inv_sqrt * inv_sqrt, np.arange(n)
    data[right], indices[right] = w, v
    data[left], indices[left] = w[by_v], u[by_v]
    mat = sp.csr_array((data, indices, indptr), shape=(n, n))
    return NormalizedAdjacency(n_nodes=n, storage=mat)


def block_diagonal(adjs: list[NormalizedAdjacency]) -> NormalizedAdjacency:
    """The adjacencies side by side, as one block-diagonal operator over
    their concatenated nodes. Each row keeps its entries in its graph's
    order, so a product with it computes every graph's rows exactly as
    the graph's own product does."""
    # the same arrays as scipy.sparse.block_diag(..., format="csr"), kept
    # by hand because scipy goes through COO: 0.25 ms against 3.7 ms for
    # crowd_plain's 91 graphs, 3 seeds of ~31 (Intel Xeon, 1 BLAS thread)
    offsets = np.cumsum([0] + [a.n_nodes for a in adjs])
    nnz = np.cumsum([0] + [a.storage.nnz for a in adjs])
    indptr = np.concatenate(
        [[0]] + [a.storage.indptr[1:] + z for a, z in zip(adjs, nnz[:-1])])
    indices = np.concatenate([a.storage.indices + o for a, o in zip(adjs, offsets[:-1])])
    data = np.concatenate([a.storage.data for a in adjs])
    n = int(offsets[-1])
    return NormalizedAdjacency(n_nodes=n, storage=sp.csr_array((data, indices, indptr), shape=(n, n)))


# the complete and planted generators are dense in n: the planted draw
# takes n^2 coins (n x DRAW_ROWS at a time) and complete_graph keeps
# n^2 / 2 edges, so this limit bounds their time and complete's memory
MAX_DENSE_NODES = 4096
# planted coin rows drawn at once, into one buffer of 2 MB of coins and
# 0.25 MB of hit flags per 1,000 nodes that every chunk reuses
DRAW_ROWS = 256


def check_generator(n_nodes: int = 1, n_blocks: int = 1, block_size: int = 1,
                    p_in: float = 0.0, p_out: float = 0.0,
                    n_classes: int = 1, feature_dim: int = 1, dense: bool = False) -> None:
    """Range rules of the graph generators, shared with the config parser.

    Every argument defaults to a value that passes, so each caller
    names only the settings it uses; a ``dense`` generator's n_nodes or
    n_blocks * block_size may not exceed MAX_DENSE_NODES."""
    if n_nodes < 1:
        raise InputError("need n >= 1")
    if n_blocks < 1 or block_size < 1:
        raise InputError("need blocks >= 1 and block_size >= 1")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise InputError("need 0 <= p_out <= p_in <= 1")
    if n_classes < 1 or feature_dim < 1:
        raise InputError("need classes >= 1 and features >= 1")
    if dense and max(n_nodes, n_blocks * block_size) > MAX_DENSE_NODES:
        raise InputError(f"need at most {MAX_DENSE_NODES} nodes for a dense graph generator")


def path_graph(n: int) -> Graph:
    """Path on n nodes (0-1-2-...); identity features, zero labels."""
    check_generator(n_nodes=n)
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return make_graph(n, edges)


def complete_graph(n: int) -> Graph:
    """Complete graph on n nodes; identity features, zero labels."""
    check_generator(n_nodes=n, dense=True)
    iu = np.triu_indices(n, k=1)
    edges = np.stack(iu, axis=1)
    return make_graph(n, edges)


def planted_partition_graph(
    n_blocks: int,
    block_size: int,
    p_in: float,
    p_out: float,
    n_classes: int,
    feature_dim: int,
    class_sep: float,
    seed: int,
) -> Graph:
    """Stochastic-block-model graph with Gaussian class features.

    Nodes are grouped into ``n_blocks`` consecutive blocks of
    ``block_size``; an edge appears within a block with probability
    ``p_in`` and across blocks with ``p_out``. The class label of a node
    is its block index mod ``n_classes``; features are drawn from
    N(mu_c, I) where mu_c = class_sep * e_{c mod feature_dim}. Splits are
    60/20/20 per class, assigned round-robin over each class's nodes in
    index order.

    RNG stream order (one ``default_rng(seed)``): first the (n, n)
    uniform coin flips of the edges, row-major (strict upper triangle
    used), then an (n, feature_dim) standard-normal draw for feature
    noise. The coins are drawn ``DRAW_ROWS`` rows at a time, which
    consumes the stream as one (n, n) draw does and holds no n x n array;
    in every chunk after the first, each row's coins left of the chunk's
    first diagonal are skipped, not drawn (``bit_generator.advance``).
    A chunk's coins are compared with ``p_out`` in place and then, over
    each block's window of the chunk, with ``p_in``, so no array of
    per-coin probabilities is built; its hits are read as flat indices.
    """
    check_generator(n_blocks=n_blocks, block_size=block_size, p_in=p_in, p_out=p_out,
                    n_classes=n_classes, feature_dim=feature_dim, dense=True)

    n = n_blocks * block_size
    block = np.repeat(np.arange(n_blocks), block_size)
    labels = (block % n_classes).astype(np.int64)

    rng = np.random.default_rng(seed)
    coins = np.empty(min(DRAW_ROWS, n) * n)
    hit = np.empty(coins.size, dtype=bool)
    hits = []
    for r0 in range(0, n, DRAW_ROWS):
        r1 = min(r0 + DRAW_ROWS, n)
        c0 = r0 + 1  # no row of the chunk keeps a coin left of column c0
        draw = coins[:(r1 - r0) * n].reshape(r1 - r0, n)
        if r0 == 0:
            rng.random(out=draw)
        else:
            # each row's coins left of column c0, which no row of the chunk
            # reads, are skipped: ``random`` takes one raw output per coin
            for row in draw:
                rng.bit_generator.advance(c0)
                rng.random(out=row[c0:])
        # chunk[i, j]: coin (r0 + i, c0 + j) is below its probability, p_out
        # everywhere and then p_in over each block's window of the chunk
        chunk = hit[:(r1 - r0) * (n - c0)].reshape(r1 - r0, n - c0)
        np.less(draw[:, c0:], p_out, out=chunk)
        for b in range(r0 // block_size, (r1 - 1) // block_size + 1):
            start, stop = b * block_size, (b + 1) * block_size
            if stop > c0:
                rows = slice(max(start, r0) - r0, min(stop, r1) - r0)
                np.less(draw[rows, max(start, c0):stop], p_in,
                        out=chunk[rows, max(start, c0) - c0:stop - c0])
        r, c = np.divmod(np.flatnonzero(chunk), n - c0)
        r += r0
        c += c0
        upper = c > r
        hits.append(np.stack([r[upper], c[upper]], axis=1))
    edges = np.concatenate(hits)

    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes) % feature_dim] = class_sep
    features = means[labels] + rng.standard_normal((n, feature_dim))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        slot = np.arange(idx.size) % 5  # 0,1,2 train / 3 val / 4 test
        train[idx[slot <= 2]] = True
        val[idx[slot == 3]] = True
        test[idx[slot == 4]] = True

    return make_graph(
        n, edges, features=features, labels=labels,
        train_mask=train, val_mask=val, test_mask=test,
    )


def graph_density(g: Graph) -> float:
    """2|E| / (|V| (|V|-1)); undefined for graphs with fewer than 2 nodes."""
    if g.n_nodes < 2:
        raise InputError("density is undefined for graphs with < 2 nodes")
    return 2.0 * g.n_edges / (g.n_nodes * (g.n_nodes - 1))


def mean_degree(g: Graph) -> float:
    """2|E| / |V|."""
    return 2.0 * g.n_edges / g.n_nodes
