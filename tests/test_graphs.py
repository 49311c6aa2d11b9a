import numpy as np
import pytest
import scipy.sparse as sp

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
from fedgeo.graphs import block_diagonal, canonical_edges


def test_canonical_edges_dedup_and_order():
    edges = np.array([[2, 1], [1, 2], [0, 3], [3, 0], [1, 2]])
    canon = canonical_edges(edges, 4)
    assert canon.tolist() == [[0, 3], [1, 2]]


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
    # the planted draw holds ~19 bytes x n^2 of temporaries; fail before it
    with pytest.raises(InputError, match="at most 4096 nodes"):
        planted_partition_graph(17, 241, p_in=0.1, p_out=0.01,
                                n_classes=2, feature_dim=3, class_sep=1.0, seed=0)
    with pytest.raises(InputError, match="at most 4096 nodes"):
        complete_graph(4097)
    assert path_graph(5000).n_nodes == 5000  # sparse: not limited
