import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgeo import (
    ClientState,
    DivergenceError,
    Federation,
    InputError,
    ModelConfig,
    TrainingConfig,
    flatten,
    gradient,
    init_params,
    local_train,
    make_graph,
    normalized_adjacency,
    path_graph,
    planted_partition_graph,
    unflatten,
)
from fedgeo.model import (
    SHARED,
    FlatVector,
    Layer,
    ParameterSet,
    feature_message,
    graph_batch,
    stack_params,
    unstack_params,
)


def _fixture(seed=0, trainer="fedavg", lr=0.1, epochs=1, mu=0.01, activation="relu",
             cross_domain=False):
    g = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=seed,
    )
    cfg = ModelConfig(n_layers=2, hidden_dim=5, activation=activation)
    params = init_params(cfg, 4, 2, seed=seed + 100, cross_domain=cross_domain)
    state = ClientState(
        client_id=0,
        graph=g,
        adj=normalized_adjacency(g),
        params=params,
        model=cfg,
        training=TrainingConfig(trainer=trainer, lr=lr, epochs=epochs, mu=mu),
    )
    return state, flatten(params, group=SHARED)


def test_zero_lr_gives_zero_delta():
    state, shared = _fixture(lr=0.0)
    update = local_train(Federation([state]), shared)[0]
    assert np.all(update.delta.values == 0.0)
    assert update.n_train == int(state.graph.train_mask.sum())


def test_one_step_quadratic_surrogate_closed_form():
    # a one-node graph (A_hat = [[1]]) under a one-layer, bias-free,
    # identity model: logits = x W, and one step from W0 moves W by
    # exactly -lr * x^T (softmax(x W0) - e_y)
    x = np.array([[0.5, -1.25, 2.0]])
    y = 1
    w0 = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.25]])
    lr = 0.2
    g = make_graph(1, np.zeros((0, 2), dtype=int), features=x, labels=[y])
    params = ParameterSet(layers=(Layer(weight=w0, bias=None, group=SHARED),))
    state = ClientState(
        client_id=0, graph=g, adj=normalized_adjacency(g), params=params,
        model=ModelConfig(n_layers=1, activation="identity", bias=False),
        training=TrainingConfig(trainer="fedavg", lr=lr, epochs=1),
    )
    update = local_train(Federation([state]), flatten(params, group=SHARED))[0]
    z = x @ w0
    p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
    expected = -lr * x.T @ (p - np.eye(2)[y])
    assert update.delta.values == pytest.approx(expected.ravel(), abs=1e-15)


def test_fedsgd_takes_exactly_one_step():
    s1, shared = _fixture(trainer="fedsgd", epochs=7, lr=0.05)
    s2, _ = _fixture(trainer="fedavg", epochs=1, lr=0.05)
    u1 = local_train(Federation([s1]), shared)[0]
    u2 = local_train(Federation([s2]), shared)[0]
    np.testing.assert_array_equal(u1.delta.values, u2.delta.values)


def test_fedavg_multi_epoch_matches_manual_descent():
    # fedavg, fedprox, and fedprox with a local head that the pull skips
    for trainer, mu, cross_domain in (
        ("fedavg", 0.01, False), ("fedprox", 0.5, False), ("fedprox", 0.5, True),
    ):
        state, shared = _fixture(trainer=trainer, epochs=3, lr=0.07, mu=mu,
                                 cross_domain=cross_domain)
        update = local_train(Federation([state]), shared)[0]

        # oracle: run the descent loop by hand through the public gradient,
        # adding fedprox's mu * (theta - theta_0) on the shared layers
        start = unflatten(shared, init_params(
            ModelConfig(n_layers=2, hidden_dim=5), 4, 2, seed=100,
            cross_domain=cross_domain))
        params = start
        batch = graph_batch([state.adj], [feature_message(state.adj, state.graph.features)],
                            [state.graph.labels])
        for _ in range(3):
            _, grads = gradient(stack_params([params]), batch,
                                batch.rows([np.flatnonzero(state.graph.train_mask)]),
                                activation="relu")
            grads = unstack_params(grads)[0]
            layers = []
            for p, p0, gr in zip(params.layers, start.layers, grads.layers):
                gw, gb = gr.weight, gr.bias
                if trainer == "fedprox" and p.group == SHARED:
                    gw = gw + mu * (p.weight - p0.weight)
                    gb = gb + mu * (p.bias - p0.bias)
                layers.append(Layer(
                    weight=p.weight - 0.07 * gw,
                    bias=p.bias - 0.07 * gb,
                    group=p.group,
                ))
            params = ParameterSet(layers=tuple(layers))
        expected = flatten(params, group=SHARED).values - shared.values
        np.testing.assert_allclose(update.delta.values, expected, rtol=0, atol=0)
        np.testing.assert_allclose(flatten(state.params).values,
                                   flatten(params).values, rtol=0, atol=0)


def test_fedprox_large_mu_contracts_delta():
    # with lr * mu = 1 the proximal pull dominates: after the first step
    # theta hovers a gradient-over-mu away from the anchor, so E steps of
    # fedavg drift ~E times farther
    base, shared = _fixture(trainer="fedavg", lr=1e-6, epochs=1500)
    prox, _ = _fixture(trainer="fedprox", lr=1e-6, epochs=1500, mu=1e6)
    u_avg = local_train(Federation([base]), shared)[0]
    u_prox = local_train(Federation([prox]), shared)[0]
    n_avg = np.linalg.norm(u_avg.delta.values)
    n_prox = np.linalg.norm(u_prox.delta.values)
    assert n_prox < 1e-3 * n_avg


def test_fedprox_mu_monotonically_shrinks_delta():
    for trial in range(10):
        state_small, shared = _fixture(seed=trial, trainer="fedprox", mu=0.1,
                                       epochs=5, lr=0.05)
        state_large, _ = _fixture(seed=trial, trainer="fedprox", mu=10.0,
                                  epochs=5, lr=0.05)
        n_small = np.linalg.norm(local_train(Federation([state_small]), shared)[0].delta.values)
        n_large = np.linalg.norm(local_train(Federation([state_large]), shared)[0].delta.values)
        assert n_large <= n_small + 1e-15


def test_fedprox_first_step_equals_fedavg():
    # at theta = anchor the proximal gradient vanishes, so a single step
    # cannot distinguish the trainers
    avg, shared = _fixture(trainer="fedavg", epochs=1, lr=0.05)
    prox, _ = _fixture(trainer="fedprox", epochs=1, lr=0.05, mu=5.0)
    u_avg = local_train(Federation([avg]), shared)[0]
    u_prox = local_train(Federation([prox]), shared)[0]
    np.testing.assert_allclose(u_avg.delta.values, u_prox.delta.values, atol=1e-12)


def test_local_train_deterministic_bitwise():
    s1, shared = _fixture(seed=3, epochs=4)
    s2, _ = _fixture(seed=3, epochs=4)
    u1 = local_train(Federation([s1]), shared)[0]
    u2 = local_train(Federation([s2]), shared)[0]
    np.testing.assert_array_equal(u1.delta.values, u2.delta.values)


def test_local_head_persists_across_rounds():
    g = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=1,
    )
    cfg = ModelConfig(n_layers=2, hidden_dim=5)
    params = init_params(cfg, 4, 2, seed=0, cross_domain=True)
    state = ClientState(
        client_id=0, graph=g, adj=normalized_adjacency(g), params=params,
        training=TrainingConfig(lr=0.1),
    )
    shared = flatten(params, group=SHARED)
    head_before = params.layers[1].weight.copy()
    local_train(Federation([state]), shared, round_index=1)
    head_r1 = state.params.layers[1].weight.copy()
    assert np.any(head_r1 != head_before)  # head trains locally
    # round 2: broadcast does not touch the head
    u2 = local_train(Federation([state]), shared, round_index=2)[0]
    assert u2.delta.values.size == shared.values.size
    assert np.any(state.params.layers[1].weight != head_r1)


def test_no_train_nodes_errors():
    g = make_graph(
        3, np.array([[0, 1]]),
        train_mask=np.zeros(3, bool),
        val_mask=np.zeros(3, bool),
        test_mask=np.ones(3, bool),
    )
    cfg = ModelConfig(n_layers=1)
    params = init_params(cfg, 3, 1, seed=0)
    state = ClientState(client_id=2, graph=g, adj=normalized_adjacency(g), params=params)
    with pytest.raises(InputError):
        local_train(Federation([state]), flatten(params, group=SHARED))


def test_divergence_carries_round_and_client():
    # identity activation keeps the bilinear blow-up alive (relu would
    # die instead of overflowing)
    state, shared = _fixture(seed=2, lr=1e6, epochs=30, activation="identity")
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as err:
            local_train(Federation([state]), shared, round_index=17)
    assert err.value.round_index == 17
    assert err.value.client_id == 0
    assert "round 17" in str(err.value)


def test_divergence_of_a_one_layer_identity_model():
    # a linear model's gradient stays bounded, so it blows up through its
    # inputs: huge features overflow the train-row logits of the second step
    g = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=2,
    )
    big = make_graph(g.n_nodes, g.edges, features=1e160 * g.features, labels=g.labels,
                     train_mask=g.train_mask, val_mask=g.val_mask, test_mask=g.test_mask)
    cfg = ModelConfig(n_layers=1, activation="identity")
    params = init_params(cfg, 4, 2, seed=102)
    state = ClientState(client_id=5, graph=big, adj=normalized_adjacency(big),
                        params=params, model=cfg, training=TrainingConfig(lr=1.0, epochs=3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            local_train(Federation([state]), flatten(params, group=SHARED), round_index=4)
    assert err.value.round_index == 4
    assert err.value.client_id == 5
    assert "round 4" in str(err.value)


def test_replaced_graph_trains_like_a_fresh_state():
    # the cached message and rows follow the graph through
    # dataclasses.replace, never the state they were copied from
    state, shared = _fixture(seed=0, epochs=3)
    g2 = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=4,
    )
    replaced = dataclasses.replace(state, graph=g2, adj=normalized_adjacency(g2))
    fresh = ClientState(client_id=0, graph=g2, adj=normalized_adjacency(g2),
                        params=state.params, model=state.model, training=state.training)
    assert not np.array_equal(replaced.message, state.message)
    np.testing.assert_array_equal(replaced.train_rows, np.flatnonzero(g2.train_mask))
    u_replaced = local_train(Federation([replaced]), shared)[0]
    u_fresh = local_train(Federation([fresh]), shared)[0]
    np.testing.assert_array_equal(u_replaced.delta.values, u_fresh.delta.values)
    assert u_replaced.n_train == u_fresh.n_train
    assert not np.array_equal(local_train(Federation([state]), shared)[0].delta.values,
                              u_fresh.delta.values)
    with pytest.raises(AttributeError):
        state.graph = g2  # would leave the message of the old graph


def test_layout_mismatch_rejected():
    state, _ = _fixture()
    other = init_params(ModelConfig(n_layers=2, hidden_dim=9), 4, 2, seed=0)
    with pytest.raises(InputError):
        local_train(Federation([state]), flatten(other, group=SHARED))


def test_unknown_activation_is_an_error_not_identity():
    state, shared = _fixture()
    with pytest.raises(InputError):
        local_train(Federation([dataclasses.replace(
            state, model=dataclasses.replace(state.model, activation="tanh"))]), shared)


def test_client_state_validation():
    g = make_graph(2, np.array([[0, 1]]))
    params = init_params(ModelConfig(n_layers=1), 2, 1, seed=0)
    adj = normalized_adjacency(g)
    with pytest.raises(InputError):
        ClientState(client_id=0, graph=g, adj=adj, params=params,
                    training=TrainingConfig(trainer="adam"))
    with pytest.raises(InputError):
        ClientState(client_id=0, graph=g, adj=adj, params=params,
                    training=TrainingConfig(epochs=0))
    with pytest.raises(InputError):
        ClientState(client_id=0, graph=g, adj=adj, params=params,
                    training=TrainingConfig(lr=-0.1))
    with pytest.raises(InputError):
        ClientState(client_id=0, graph=g, adj=adj, params=params,
                    training=TrainingConfig(trainer="fedavg", mu=-1.0))
    with pytest.raises(InputError):
        ClientState(client_id=0, graph=g, adj=adj, params=params,
                    model=ModelConfig(activation="tanh"))
    # features and adjacency of different graphs: caught when the state
    # is built, before the first-layer message is computed
    with pytest.raises(InputError, match="feature rows 2 != adjacency size 3"):
        ClientState(client_id=0, graph=g, adj=normalized_adjacency(path_graph(3)),
                    params=params)


def test_divergence_names_the_first_client_whatever_the_step():
    # client 1's logits overflow at the first step; client 0's only at the
    # second, after a step of size ~1e160. A loop over the clients in id
    # order would stop at client 0, so the batch names client 0 too.
    cfg = ModelConfig(n_layers=1, activation="identity", bias=False)
    params = ParameterSet(layers=(
        Layer(weight=np.array([[1.0, 0.0], [1.0, 0.0]]), bias=None, group=SHARED),))
    states = []
    for cid, x, y in ((0, [1e160, 0.0], 1), (1, [1e308, 1e308], 0)):
        g = make_graph(1, np.zeros((0, 2), dtype=int), features=[x], labels=[y])
        states.append(ClientState(client_id=cid, graph=g, adj=normalized_adjacency(g),
                                  params=params, model=cfg,
                                  training=TrainingConfig(lr=1.0, epochs=2)))
    fed = Federation(states)
    with np.errstate(over="ignore", invalid="ignore"):
        losses, _ = gradient(stack_params([params, params]), fed.batch, fed.train, "identity")
        assert np.isfinite(losses[0]) and losses[1] == np.inf
        with pytest.raises(DivergenceError) as err:
            local_train(fed, flatten(params, group=SHARED), round_index=3)
    assert (err.value.round_index, err.value.client_id) == (3, 0)


def _random_client(cid, rng, n_classes, feature_dim, params, model, training):
    n = int(rng.integers(1, 9))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    split = rng.integers(0, 3, size=n)  # 0 train, 1 test, 2 neither
    split[rng.integers(n)] = 0          # at least one train node
    g = make_graph(n, np.array(edges, dtype=int).reshape(-1, 2),
                   features=rng.normal(size=(n, feature_dim)),
                   labels=rng.integers(0, n_classes, size=n),
                   train_mask=split == 0, test_mask=split == 1)
    return ClientState(client_id=cid, graph=g, adj=normalized_adjacency(g), params=params,
                       model=model, training=training)


@settings(max_examples=60, deadline=None)
@given(
    n_clients=st.integers(1, 5),
    n_layers=st.sampled_from((1, 2)),
    activation=st.sampled_from(("relu", "identity")),
    trainer=st.sampled_from(("fedavg", "fedsgd", "fedprox")),
    local_heads=st.booleans(),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_trains_each_client_as_its_own_federation(n_clients, n_layers, activation,
                                                        trainer, local_heads, epochs, seed):
    # no client's values enter another's arithmetic: a K-client batch
    # gives every client's delta and persisted parameters, bit for bit,
    # as K one-client federations do, over two rounds
    rng = np.random.default_rng(seed)
    model = ModelConfig(n_layers=n_layers, hidden_dim=3, activation=activation)
    training = TrainingConfig(trainer=trainer, lr=0.3, epochs=epochs, mu=0.5)
    cross_domain = local_heads and n_layers == 2
    params = init_params(model, 3, 2, seed=seed % 1000, cross_domain=cross_domain)
    shared = flatten(params, group=SHARED)
    draws = [rng.integers(2**32) for _ in range(n_clients)]
    # each client's own head, when it has one
    heads = [dataclasses.replace(params, layers=params.layers[:-1] + (dataclasses.replace(
        params.layers[-1], weight=params.layers[-1].weight + k),)) if cross_domain else params
        for k in range(n_clients)]

    def clients():
        return [_random_client(k, np.random.default_rng(d), 2, 3, h, model, training)
                for k, (d, h) in enumerate(zip(draws, heads))]

    batched, alone = clients(), clients()
    fed = Federation(batched)
    singles = [Federation([c]) for c in alone]
    for t in (1, 2):
        together = local_train(fed, shared, round_index=t)
        apart = [local_train(f, shared, round_index=t)[0] for f in singles]
        for u, v, b, a in zip(together, apart, batched, alone):
            assert (u.client_id, u.n_train) == (v.client_id, v.n_train)
            np.testing.assert_array_equal(u.delta.values, v.delta.values)
            np.testing.assert_array_equal(flatten(b.params).values, flatten(a.params).values)
        shared = FlatVector(values=shared.values + together[-1].delta.values,
                            layout=shared.layout)


def test_federation_validation():
    state, _ = _fixture()
    with pytest.raises(InputError):
        Federation([])
    with pytest.raises(InputError):  # one step loop needs one training config
        Federation([state, dataclasses.replace(
            state, client_id=1, training=TrainingConfig(lr=0.2))])
    other = init_params(ModelConfig(n_layers=2, hidden_dim=9), 4, 2, seed=0)
    with pytest.raises(InputError):
        Federation([state, dataclasses.replace(state, client_id=1, params=other)])
    # each client's message becomes a read-only view of the batch's rows
    fed = Federation([state, dataclasses.replace(state, client_id=1)])
    assert state.message.base is fed.batch.message
    assert not state.message.flags.writeable
