import dataclasses

import numpy as np
import pytest

from fedgeo import (
    ClientState,
    DivergenceError,
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
from fedgeo.model import SHARED, FlatVector, Layer, ParameterSet, feature_message


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
    update = local_train(state, shared)
    assert np.all(update.delta.values == 0.0)
    assert update.n_train == int(state.graph.train_mask.sum())


def test_one_step_quadratic_surrogate_closed_form():
    # loss = 0.5 * (w - a)^2 on a scalar model: one step from w0 moves by
    # exactly -lr * (w0 - a)
    a = 3.0
    w0 = 1.25
    lr = 0.2
    g = make_graph(1, np.zeros((0, 2), dtype=int))
    params = ParameterSet(
        layers=(Layer(weight=np.array([[w0]]), bias=None, group=SHARED),)
    )

    def surrogate(p):
        w = p.layers[0].weight[0, 0]
        grad = ParameterSet(
            layers=(Layer(weight=np.array([[w - a]]), bias=None, group=SHARED),)
        )
        return 0.5 * (w - a) ** 2, grad

    state = ClientState(
        client_id=0, graph=g, adj=normalized_adjacency(g), params=params,
        training=TrainingConfig(trainer="fedavg", lr=lr, epochs=1), objective=surrogate,
    )
    update = local_train(state, flatten(params, group=SHARED))
    expected = -lr * (w0 - a)
    assert update.delta.values[0] == pytest.approx(expected, abs=1e-15)


def test_fedsgd_takes_exactly_one_step():
    s1, shared = _fixture(trainer="fedsgd", epochs=7, lr=0.05)
    s2, _ = _fixture(trainer="fedavg", epochs=1, lr=0.05)
    u1 = local_train(s1, shared)
    u2 = local_train(s2, shared)
    np.testing.assert_array_equal(u1.delta.values, u2.delta.values)


def test_fedavg_multi_epoch_matches_manual_descent():
    # fedavg, fedprox, and fedprox with a local head that the pull skips
    for trainer, mu, cross_domain in (
        ("fedavg", 0.01, False), ("fedprox", 0.5, False), ("fedprox", 0.5, True),
    ):
        state, shared = _fixture(trainer=trainer, epochs=3, lr=0.07, mu=mu,
                                 cross_domain=cross_domain)
        update = local_train(state, shared)

        # oracle: run the descent loop by hand through the public gradient,
        # adding fedprox's mu * (theta - theta_0) on the shared layers
        start = unflatten(shared, init_params(
            ModelConfig(n_layers=2, hidden_dim=5), 4, 2, seed=100,
            cross_domain=cross_domain))
        params = start
        for _ in range(3):
            _, grads = gradient(
                params, state.adj, feature_message(state.adj, state.graph.features),
                state.graph.labels, np.flatnonzero(state.graph.train_mask), activation="relu",
            )
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
    u_avg = local_train(base, shared)
    u_prox = local_train(prox, shared)
    n_avg = np.linalg.norm(u_avg.delta.values)
    n_prox = np.linalg.norm(u_prox.delta.values)
    assert n_prox < 1e-3 * n_avg


def test_fedprox_mu_monotonically_shrinks_delta():
    for trial in range(10):
        state_small, shared = _fixture(seed=trial, trainer="fedprox", mu=0.1,
                                       epochs=5, lr=0.05)
        state_large, _ = _fixture(seed=trial, trainer="fedprox", mu=10.0,
                                  epochs=5, lr=0.05)
        n_small = np.linalg.norm(local_train(state_small, shared).delta.values)
        n_large = np.linalg.norm(local_train(state_large, shared).delta.values)
        assert n_large <= n_small + 1e-15


def test_fedprox_first_step_equals_fedavg():
    # at theta = anchor the proximal gradient vanishes, so a single step
    # cannot distinguish the trainers
    avg, shared = _fixture(trainer="fedavg", epochs=1, lr=0.05)
    prox, _ = _fixture(trainer="fedprox", epochs=1, lr=0.05, mu=5.0)
    u_avg = local_train(avg, shared)
    u_prox = local_train(prox, shared)
    np.testing.assert_allclose(u_avg.delta.values, u_prox.delta.values, atol=1e-12)


def test_local_train_deterministic_bitwise():
    s1, shared = _fixture(seed=3, epochs=4)
    s2, _ = _fixture(seed=3, epochs=4)
    u1 = local_train(s1, shared)
    u2 = local_train(s2, shared)
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
    local_train(state, shared, round_index=1)
    head_r1 = state.params.layers[1].weight.copy()
    assert np.any(head_r1 != head_before)  # head trains locally
    # round 2: broadcast does not touch the head
    u2 = local_train(state, shared, round_index=2)
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
        local_train(state, flatten(params, group=SHARED))


def test_divergence_carries_round_and_client():
    # identity activation keeps the bilinear blow-up alive (relu would
    # die instead of overflowing)
    state, shared = _fixture(seed=2, lr=1e6, epochs=30, activation="identity")
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as err:
            local_train(state, shared, round_index=17)
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
            local_train(state, flatten(params, group=SHARED), round_index=4)
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
    u_replaced = local_train(replaced, shared)
    u_fresh = local_train(fresh, shared)
    np.testing.assert_array_equal(u_replaced.delta.values, u_fresh.delta.values)
    assert u_replaced.n_train == u_fresh.n_train
    assert not np.array_equal(local_train(state, shared).delta.values, u_fresh.delta.values)
    with pytest.raises(AttributeError):
        state.graph = g2  # would leave the message of the old graph


def test_layout_mismatch_rejected():
    state, _ = _fixture()
    other = init_params(ModelConfig(n_layers=2, hidden_dim=9), 4, 2, seed=0)
    with pytest.raises(InputError):
        local_train(state, flatten(other, group=SHARED))


def test_unknown_activation_is_an_error_not_identity():
    state, shared = _fixture()
    with pytest.raises(InputError):
        local_train(dataclasses.replace(
            state, model=dataclasses.replace(state.model, activation="tanh")), shared)


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
