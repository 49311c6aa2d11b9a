import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgeo import (
    Graph,
    InputError,
    complete_graph,
    graph_density,
    make_graph,
    mean_degree,
    normalized_adjacency,
    path_graph,
    planted_partition_graph,
)
from fedgeo import graphs
from fedgeo.graphs import block_diagonal, canonical_edges


def test_canonical_edges_dedup_and_order():
    edges = np.array([[2, 1], [1, 2], [0, 3], [3, 0], [1, 2]])
    canon = canonical_edges(edges, 4)
    assert canon.tolist() == [[0, 3], [1, 2]]


def _unique_rows(edges: np.ndarray) -> np.ndarray:
    """The canonical edges as np.unique(axis=0) sorts them: the reference."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.unique(np.sort(edges, axis=1), axis=0)


@settings(max_examples=150)
@given(n=st.integers(2, 12), data=st.data())
def test_canonical_edges_equal_unique_rows(n, data):
    # duplicates, reversed rows and already-canonical input all come out
    # as np.unique(axis=0) gives them, in a new array; the caller's array
    # stays writeable and unchanged
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = np.array(data.draw(st.lists(pair, max_size=30)), dtype=np.int64).reshape(-1, 2)
    if data.draw(st.booleans(), label="canonical input"):
        edges = _unique_rows(edges)
    before = edges.copy()
    canon = canonical_edges(edges, n)
    want = _unique_rows(before) if before.size else np.zeros((0, 2), dtype=np.int64)
    assert canon.dtype == np.int64 and canon.shape == want.shape
    assert np.array_equal(canon, want)
    assert not np.shares_memory(canon, edges)
    assert edges.flags.writeable and np.array_equal(edges, before)


def test_canonical_edges_reject_non_integral_endpoints_and_odd_counts():
    # a float endpoint used to be truncated silently, and an odd count or
    # ragged rows fell through to a bare ValueError
    with pytest.raises(InputError, match="edge row 0"):
        make_graph(3, [[0.5, 1.9]])
    with pytest.raises(InputError, match="edge row 1"):
        make_graph(3, [[0, 1], [0.2, 2.7]])
    with pytest.raises(InputError, match="edge row 0"):
        make_graph(3, [[0, np.nan]])
    with pytest.raises(InputError, match="edge row 1 has one endpoint"):
        make_graph(3, [0, 1, 2])
    with pytest.raises(InputError, match="rows of two endpoints"):
        make_graph(3, [[0, 1], [2]])
    assert make_graph(3, [[2.0, 0.0]]).edges.tolist() == [[0, 2]]


@pytest.mark.parametrize("edges", [[["0", "1"]], [["a", "b"]], [[True, False]]],
                         ids=["digit strings", "letters", "bools"])
def test_canonical_edges_reject_endpoints_that_are_not_numbers(edges):
    # "0" used to pass through float as node 0, and "a" raised a bare ValueError
    with pytest.raises(InputError, match="dtype"):
        make_graph(3, edges)


def test_direct_graph_construction_canonicalizes_edges():
    z = np.zeros(4, dtype=bool)
    g = Graph(n_nodes=4, edges=np.array([[2, 1], [1, 2], [3, 0], [0, 3], [2, 1]]),
              features=np.eye(4), labels=np.zeros(4, dtype=np.int64),
              train_mask=~z, val_mask=z, test_mask=z)
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[0, 3], [1, 2]]


def test_graph_rejects_self_loops_and_bad_endpoints():
    with pytest.raises(InputError):
        make_graph(3, np.array([[1, 1]]))
    with pytest.raises(InputError):
        make_graph(3, np.array([[0, 3]]))
    with pytest.raises(InputError):
        make_graph(3, np.array([[-1, 0]]))


def test_graph_rejects_overlapping_masks():
    m = np.array([True, False, False])
    with pytest.raises(InputError):
        make_graph(3, np.zeros((0, 2), dtype=int), train_mask=m, val_mask=m)


def test_graph_defaults():
    g = path_graph(4)
    assert g.n_nodes == 4
    assert g.n_edges == 3
    assert g.feature_dim == 4  # identity features
    np.testing.assert_array_equal(g.features, np.eye(4))
    assert g.n_classes == 1
    assert g.train_mask.all()


def test_graph_arrays_are_frozen():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2


def test_normalized_adjacency_path3_values():
    # closed-form entries: with self-loops the path's augmented degrees
    # are (2, 3, 2), so the corners are 1/2, the middle 1/3, and the
    # off-diagonals 1/sqrt(6)
    a = normalized_adjacency(path_graph(3)).dense()
    s = 1.0 / np.sqrt(6.0)
    expected = np.array([
        [0.5, s, 0.0],
        [s, 1.0 / 3.0, s],
        [0.0, s, 0.5],
    ])
    np.testing.assert_allclose(a, expected, atol=1e-15)


def test_normalized_adjacency_triangle_is_third_of_ones():
    a = normalized_adjacency(complete_graph(3)).dense()
    np.testing.assert_allclose(a, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_normalized_adjacency_matches_dense_formula():
    # oracle: build D^(-1/2) (A + I) D^(-1/2) densely from scratch
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        mask = rng.random((n, n)) < 0.3
        a_dense = np.triu(mask, k=1)
        edges = np.argwhere(a_dense)
        g = make_graph(n, edges)
        a_hat = normalized_adjacency(g).dense()

        full = a_dense + a_dense.T + np.eye(n)
        d = full.sum(axis=1)
        expected = full / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(a_hat, expected, atol=1e-14)
        np.testing.assert_allclose(a_hat, a_hat.T, atol=0)


def _coo_adjacency(g) -> sp.csr_array:
    """A_hat built through COO -> CSR, the reference for the direct build."""
    n = g.n_nodes
    deg = np.ones(n)
    np.add.at(deg, g.edges[:, 0], 1.0)
    np.add.at(deg, g.edges[:, 1], 1.0)
    inv_sqrt = 1.0 / np.sqrt(deg)
    u, v = g.edges[:, 0], g.edges[:, 1]
    w = inv_sqrt[u] * inv_sqrt[v]
    rows = np.concatenate([np.arange(n), u, v])
    cols = np.concatenate([np.arange(n), v, u])
    vals = np.concatenate([inv_sqrt * inv_sqrt, w, w])
    return sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()


@settings(max_examples=150)
@given(n=st.integers(1, 12), data=st.data())
def test_normalized_adjacency_equals_the_coo_build(n, data):
    # written as CSR directly: the same arrays, dtypes and sortedness
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
    g = make_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    got, want = normalized_adjacency(g).storage, _coo_adjacency(g)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.shape == want.shape and got.has_sorted_indices == want.has_sorted_indices


def test_normalized_adjacency_isolated_node_diagonal_one():
    g = make_graph(3, np.array([[0, 1]]))
    a = normalized_adjacency(g).dense()
    assert a[2, 2] == 1.0
    assert a[2, 0] == a[2, 1] == 0.0


def test_normalized_adjacency_matmul_is_csr():
    g = path_graph(5)
    adj = normalized_adjacency(g)
    assert isinstance(adj.storage, sp.csr_array)
    x = np.eye(5)
    np.testing.assert_allclose(adj @ x, adj.dense(), atol=0)


def test_block_diagonal_matches_scipy_block_diag():
    # random graph lists, each with a one-node and an edgeless graph
    rng = np.random.default_rng(3)
    for _ in range(25):
        graphs = [make_graph(1, np.zeros((0, 2), dtype=int)),
                  make_graph(int(rng.integers(2, 6)), np.zeros((0, 2), dtype=int))]
        for _ in range(int(rng.integers(0, 5))):
            n = int(rng.integers(1, 10))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            graphs.append(make_graph(n, np.array(edges, dtype=int).reshape(-1, 2)))
        adjs = [normalized_adjacency(graphs[i]) for i in rng.permutation(len(graphs))]
        ours = block_diagonal(adjs)
        want = sp.block_diag([a.storage for a in adjs], format="csr")
        assert ours.n_nodes == want.shape[0] == sum(a.n_nodes for a in adjs)
        assert ours.storage.shape == want.shape
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(ours.storage, name), getattr(want, name))


def test_density_and_mean_degree():
    g = complete_graph(4)
    assert graph_density(g) == 1.0
    assert mean_degree(g) == 3.0
    with pytest.raises(InputError):
        graph_density(path_graph(1))


def test_planted_partition_shapes_and_labels():
    g = planted_partition_graph(
        n_blocks=4, block_size=25, p_in=0.4, p_out=0.05,
        n_classes=4, feature_dim=8, class_sep=1.0, seed=7,
    )
    assert g.n_nodes == 100
    assert g.features.shape == (100, 8)
    assert g.n_classes == 4
    np.testing.assert_array_equal(np.unique(g.labels), np.arange(4))
    # blocks map to classes cyclically
    np.testing.assert_array_equal(g.labels[:25], np.zeros(25, dtype=int))
    np.testing.assert_array_equal(g.labels[25:50], np.ones(25, dtype=int))


def test_planted_partition_deterministic():
    kw = dict(n_blocks=3, block_size=10, p_in=0.5, p_out=0.1,
              n_classes=3, feature_dim=5, class_sep=2.0, seed=11)
    g1 = planted_partition_graph(**kw)
    g2 = planted_partition_graph(**kw)
    np.testing.assert_array_equal(g1.edges, g2.edges)
    np.testing.assert_array_equal(g1.features, g2.features)
    np.testing.assert_array_equal(g1.train_mask, g2.train_mask)


def test_planted_partition_block_densities():
    # statistical oracle: at p_in = 0.8 vs p_out = 0.02 the realized
    # within/between densities must sit near their expectations
    g = planted_partition_graph(
        n_blocks=2, block_size=60, p_in=0.8, p_out=0.02,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=5,
    )
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    n_in_pairs = 2 * (60 * 59 // 2)
    n_out_pairs = 60 * 60
    p_in_hat = same.sum() / n_in_pairs
    p_out_hat = (~same).sum() / n_out_pairs
    assert abs(p_in_hat - 0.8) < 0.05
    assert abs(p_out_hat - 0.02) < 0.01


def test_planted_partition_split_fractions():
    g = planted_partition_graph(
        n_blocks=2, block_size=50, p_in=0.3, p_out=0.05,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=3,
    )
    n = g.n_nodes
    assert g.train_mask.sum() + g.val_mask.sum() + g.test_mask.sum() == n
    # 60/20/20 round-robin: 3 of every 5 nodes train, 1 val, 1 test
    assert g.train_mask.sum() == 60
    assert g.val_mask.sum() == 20
    assert g.test_mask.sum() == 20


def test_planted_partition_rejects_bad_probabilities():
    with pytest.raises(InputError):
        planted_partition_graph(2, 10, p_in=0.1, p_out=0.5,
                                n_classes=2, feature_dim=3, class_sep=1.0, seed=0)
    with pytest.raises(InputError):
        planted_partition_graph(2, 10, p_in=1.5, p_out=0.1,
                                n_classes=2, feature_dim=3, class_sep=1.0, seed=0)


def test_dense_generators_reject_more_than_4096_nodes():
    # the planted draw takes n^2 coins; fail before it
    with pytest.raises(InputError, match="at most 4096 nodes"):
        planted_partition_graph(17, 241, p_in=0.1, p_out=0.01,
                                n_classes=2, feature_dim=3, class_sep=1.0, seed=0)
    with pytest.raises(InputError, match="at most 4096 nodes"):
        complete_graph(4097)
    assert path_graph(5000).n_nodes == 5000  # sparse: not limited


def _planted_one_shot(n_blocks, block_size, p_in, p_out, n_classes, feature_dim,
                      class_sep, seed):
    """The planted graph drawn with one (n, n) coin array: the reference
    for the row-block draw."""
    n = n_blocks * block_size
    block = np.repeat(np.arange(n_blocks), block_size)
    labels = (block % n_classes).astype(np.int64)
    rng = np.random.default_rng(seed)
    prob = np.where(block[:, None] == block[None, :], p_in, p_out)
    coins = rng.random((n, n))
    adj = np.triu(np.ones((n, n), dtype=bool), k=1) & (coins < prob)
    edges = np.stack(np.nonzero(adj), axis=1)
    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes) % feature_dim] = class_sep
    features = means[labels] + rng.standard_normal((n, feature_dim))
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        slot = np.arange(idx.size) % 5
        for mask, held in zip(masks, (slot <= 2, slot == 3, slot == 4)):
            mask[idx[held]] = True
    return make_graph(n, edges, features=features, labels=labels, train_mask=masks[0],
                      val_mask=masks[1], test_mask=masks[2])


@settings(max_examples=120, deadline=None)
@given(
    n_blocks=st.integers(1, 5),
    block_size=st.integers(1, 9),
    draw_rows=st.integers(1, 50),
    probs=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.4, 0.4), (0.7, 0.1)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_blocks=2, block_size=5, draw_rows=16, probs=(0.7, 0.1), seed=0)  # n below the block
@example(n_blocks=2, block_size=8, draw_rows=16, probs=(0.7, 0.1), seed=1)  # n equal to it
@example(n_blocks=5, block_size=7, draw_rows=16, probs=(0.7, 0.1), seed=2)  # 2 blocks and 3 rows
def test_planted_row_blocks_match_the_one_shot_draw(n_blocks, block_size, draw_rows, probs,
                                                    seed):
    # n falls below, on and between multiples of the block, and one block
    # may cover every row; p_in == p_out and p = 0, 1 included
    args = (n_blocks, block_size, *probs, 3, 4, 1.5, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "DRAW_ROWS", draw_rows)
        got = planted_partition_graph(*args)
    want = _planted_one_shot(*args)
    for name in ("edges", "features", "labels", "train_mask", "val_mask", "test_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _planted_by_where(n_blocks, block_size, p_in, p_out, n_classes, feature_dim, class_sep,
                      seed):
    """The planted edges as each chunk's np.where array of per-coin
    probabilities gives them, every coin drawn, and the features drawn
    after them: the reference for the in-place draw."""
    n = n_blocks * block_size
    block = np.repeat(np.arange(n_blocks), block_size)
    rng = np.random.default_rng(seed)
    hits = []
    for r0 in range(0, n, graphs.DRAW_ROWS):
        coins = rng.random((min(graphs.DRAW_ROWS, n - r0), n))
        rows = block[r0:r0 + coins.shape[0], None]
        r, c = np.nonzero(coins < np.where(rows == block[None, :], p_in, p_out))
        r += r0
        upper = c > r
        hits.append(np.stack([r[upper], c[upper]], axis=1))
    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes) % feature_dim] = class_sep
    labels = block % n_classes
    return np.concatenate(hits), means[labels] + rng.standard_normal((n, feature_dim))


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(
    n_blocks=st.integers(1, 9),
    block_size=st.integers(1, 300),
    probs=st.tuples(_PROBABILITY, _PROBABILITY).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_blocks=3, block_size=171, probs=[0.1, 0.6], seed=0)  # blocks straddle chunks
@example(n_blocks=1, block_size=257, probs=[0.3, 0.3], seed=1)  # a last row with no column
@example(n_blocks=9, block_size=1, probs=[0.0, 1.0], seed=2)    # one-node blocks
@example(n_blocks=9, block_size=300, probs=[0.001, 0.02], seed=3)
@example(n_blocks=2, block_size=300, probs=[0.05, 0.5], seed=4)  # three chunks
def test_planted_edges_match_the_per_coin_probability_draw(n_blocks, block_size, probs, seed):
    # blocks of 1 to 300 nodes fall across the DRAW_ROWS-row chunks at
    # every offset; p_out <= p_in, with 0, 1 and equal values. The
    # features are drawn after the coins, so they pin the stream position
    # the skipped coins leave
    p_out, p_in = probs
    args = (n_blocks, block_size, p_in, p_out, 2, 3, 1.0, seed)
    got = planted_partition_graph(*args)
    for a, b in zip((got.edges, got.features), _planted_by_where(*args)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_planted_draw_is_pinned():
    # wide_ggrs's source: a rewrite of the draw that moves an edge or a
    # feature bit changes this digest
    g = planted_partition_graph(8, 250, 0.02, 0.001, 8, 64, 1.0, 1000)
    assert g.n_edges == 6657
    assert hashlib.sha256(g.edges.tobytes() + g.features.tobytes()).hexdigest() == (
        "a8918659aa27bb0395d95ca4f3778b937e36ae0c4415bf12d095a53190d46189"
    )


def test_planted_draw_holds_no_n_by_n_array():
    # NumPy reports its buffers to tracemalloc: one (2000, 2000) float
    # array alone is 30.5 MiB, and the one-shot draw peaked at 72.5 MiB
    planted_partition_graph(8, 250, 0.02, 0.001, 8, 64, 1.0, 1000)  # warm
    tracemalloc.start()
    try:
        planted_partition_graph(8, 250, 0.02, 0.001, 8, 64, 1.0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
