import numpy as np
import pytest

from fedgeo import (
    InputError,
    PartitionSpec,
    dirichlet_assignments,
    dirichlet_label_partition,
    induced_subgraph,
    make_graph,
    planted_partition_graph,
)


def _fixture_graph(seed=7):
    return planted_partition_graph(
        n_blocks=4, block_size=30, p_in=0.3, p_out=0.05,
        n_classes=4, feature_dim=6, class_sep=1.0, seed=seed,
    )


def test_assignments_cover_all_nodes_exactly_once():
    g = _fixture_graph()
    for seed in range(10):
        spec = PartitionSpec(n_clients=4, dirichlet_alpha=0.3, seed=seed)
        parts = dirichlet_assignments(g.labels, spec)
        merged = np.concatenate(parts)
        assert merged.size == g.n_nodes
        np.testing.assert_array_equal(np.sort(merged), np.arange(g.n_nodes))


def test_assignments_deterministic():
    g = _fixture_graph()
    spec = PartitionSpec(n_clients=3, dirichlet_alpha=0.5, seed=42)
    a = dirichlet_assignments(g.labels, spec)
    b = dirichlet_assignments(g.labels, spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_large_alpha_gives_near_uniform_shares():
    # alpha -> infinity concentrates the Dirichlet on the uniform simplex
    # point, so with balanced labels every client's class share must sit
    # within 5% of 1/K
    g = _fixture_graph()
    k = 4
    spec = PartitionSpec(n_clients=k, dirichlet_alpha=1e6, seed=1)
    parts = dirichlet_assignments(g.labels, spec)
    for c in range(g.n_classes):
        class_total = np.count_nonzero(g.labels == c)
        for ids in parts:
            share = np.count_nonzero(g.labels[ids] == c) / class_total
            assert abs(share - 1.0 / k) <= 0.05


def test_small_alpha_skews_shares():
    # alpha = 0.05 makes near-degenerate draws: some client should own
    # the lion's share of at least one class
    g = _fixture_graph()
    spec = PartitionSpec(n_clients=4, dirichlet_alpha=0.05, seed=3)
    parts = dirichlet_assignments(g.labels, spec)
    top = 0.0
    for c in range(g.n_classes):
        class_total = np.count_nonzero(g.labels == c)
        shares = [np.count_nonzero(g.labels[ids] == c) / class_total for ids in parts]
        top = max(top, max(shares))
    assert top > 0.7


def test_spec_rejects_a_negative_seed():
    with pytest.raises(InputError, match="partition seed must be >= 0, got -1"):
        PartitionSpec(n_clients=2, dirichlet_alpha=1.0, seed=-1)


def test_spec_refuses_non_numbers_by_name():
    # a float count or seed would fail later inside NumPy, and a bool pass as 0 or 1
    for name, value in (("n_clients", 2.5), ("n_clients", True), ("seed", 1.5),
                        ("seed", False)):
        with pytest.raises(InputError, match=f"{name} must be an integer, not {value!r}"):
            PartitionSpec(**{"n_clients": 2, "dirichlet_alpha": 1.0, "seed": 0, name: value})
    for value in (True, "1.0"):
        with pytest.raises(InputError, match=f"dirichlet_alpha must be a number, not {value!r}"):
            PartitionSpec(n_clients=2, dirichlet_alpha=value, seed=0)
    # inf would draw NaN shares and hand every node to the last client
    for value in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="dirichlet_alpha must be a finite number > 0"):
            PartitionSpec(n_clients=2, dirichlet_alpha=value, seed=0)
    PartitionSpec(n_clients=np.int64(2), dirichlet_alpha=np.float64(1.0), seed=np.int64(0))


def test_thin_class_warns():
    labels = np.array([0, 0, 0, 1])  # class 1 has 1 node < 3 clients
    spec = PartitionSpec(n_clients=3, dirichlet_alpha=1.0, seed=0)
    with pytest.warns(UserWarning):
        dirichlet_assignments(labels, spec)


def test_partition_returns_client_graphs_covering_nodes():
    g = _fixture_graph()
    spec = PartitionSpec(n_clients=4, dirichlet_alpha=0.3, seed=9)
    parts = dirichlet_label_partition(g, spec)
    assert len(parts) == 4
    assert sum(p.n_nodes for p in parts) == g.n_nodes
    for p in parts:
        assert p.n_nodes >= 1


def test_partition_single_client_is_whole_graph():
    g = _fixture_graph()
    spec = PartitionSpec(n_clients=1, dirichlet_alpha=0.3, seed=0)
    (p,) = dirichlet_label_partition(g, spec)
    assert p.n_nodes == g.n_nodes
    np.testing.assert_array_equal(p.edges, g.edges)
    np.testing.assert_array_equal(p.features, g.features)
    np.testing.assert_array_equal(p.labels, g.labels)


def test_partition_drops_cross_client_edges():
    g = _fixture_graph()
    spec = PartitionSpec(n_clients=4, dirichlet_alpha=0.3, seed=2)
    assignment = dirichlet_assignments(g.labels, spec)
    parts = dirichlet_label_partition(g, spec)
    # count intra-client edges by brute force against the client graphs
    owner = np.empty(g.n_nodes, dtype=int)
    for i, ids in enumerate(assignment):
        owner[ids] = i
    intra = np.count_nonzero(owner[g.edges[:, 0]] == owner[g.edges[:, 1]])
    assert sum(p.n_edges for p in parts) == intra
    assert intra < g.n_edges  # heterophilous cut exists at these sizes


def test_empty_client_receives_a_node():
    # 2 nodes of one class across 3 clients forces an empty draw for
    # someone; the fixer must hand over a node while keeping coverage
    labels = np.zeros(3, dtype=int)
    g = make_graph(3, np.array([[0, 1], [1, 2]]), labels=labels)
    spec = PartitionSpec(n_clients=3, dirichlet_alpha=0.2, seed=0)
    parts = dirichlet_label_partition(g, spec)
    assert sum(p.n_nodes for p in parts) == 3
    assert all(p.n_nodes == 1 for p in parts)


def test_partition_impossible_when_fewer_nodes_than_clients():
    g = make_graph(2, np.array([[0, 1]]))
    spec = PartitionSpec(n_clients=3, dirichlet_alpha=0.3, seed=0)
    with pytest.warns(UserWarning):
        with pytest.raises(InputError):
            dirichlet_label_partition(g, spec)


def test_induced_subgraph_relabels_and_filters():
    g = make_graph(
        5,
        np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]),
        labels=np.array([0, 1, 0, 1, 0]),
    )
    sub = induced_subgraph(g, np.array([0, 2, 4]))
    assert sub.n_nodes == 3
    # only 0-4 survives among {0,2,4}; relabeled to 0-2
    assert sub.edges.tolist() == [[0, 2]]
    np.testing.assert_array_equal(sub.labels, [0, 0, 0])
    np.testing.assert_array_equal(sub.features, g.features[[0, 2, 4]])


def test_induced_subgraph_rejects_unsorted_ids():
    g = make_graph(4, np.array([[0, 1]]))
    with pytest.raises(InputError):
        induced_subgraph(g, np.array([2, 0]))
    with pytest.raises(InputError):
        induced_subgraph(g, np.array([], dtype=int))
