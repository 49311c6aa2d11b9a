import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgeo import (
    ClientState,
    ConfigError,
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
    parse_config,
    path_graph,
    planted_partition_graph,
    unflatten,
)
from fedgeo.model import (
    LOCAL,
    SHARED,
    FlatVector,
    Layer,
    ParameterSet,
    feature_message,
    graph_batch,
    layer_views,
)

from conftest import stack


def _fixture(seed=0, trainer="fedavg", lr=0.1, epochs=1, mu=0.01, activation="relu",
             cross_domain=False):
    g = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=seed,
    )
    cfg = ModelConfig(n_layers=2, hidden_dim=5, activation=activation)
    params = init_params(cfg, 4, 2, seed=seed + 100, cross_domain=cross_domain)
    state = ClientState(client_id=0, graph=g, adj=normalized_adjacency(g), params=params)
    training = TrainingConfig(trainer=trainer, lr=lr, epochs=epochs, mu=mu)
    return Federation([state], cfg, training), flatten(params, group=SHARED)


def test_zero_lr_gives_zero_delta():
    fed, shared = _fixture(lr=0.0)
    update = local_train(fed, shared.values[None])[0]
    assert np.all(update.deltas[0] == 0.0)
    assert update.n_train[0] == int(fed.clients[0].graph.train_mask.sum())


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
    state = ClientState(client_id=0, graph=g, adj=normalized_adjacency(g), params=params)
    fed = Federation([state], ModelConfig(n_layers=1, activation="identity", bias=False),
                     TrainingConfig(trainer="fedavg", lr=lr, epochs=1))
    update = local_train(fed, flatten(params, group=SHARED).values[None])[0]
    z = x @ w0
    p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
    expected = -lr * x.T @ (p - np.eye(2)[y])
    assert update.deltas[0] == pytest.approx(expected.ravel(), abs=1e-15)


def test_fedsgd_is_refused_with_the_fedavg_config_that_replaces_it():
    # fedsgd ran fedavg's one step whatever the epochs: a config naming it
    # fails at parse time and says what to write instead
    text = "data.kind = complete\ndata.n = 4\nclient.trainer = fedsgd\n"
    with pytest.raises(ConfigError, match=r"inline.conf:3: trainer fedsgd is fedavg at one "
                                          r"epoch: use client.trainer = fedavg with "
                                          r"client.epochs = 1"):
        parse_config(text, path="inline.conf")
    with pytest.raises(InputError, match="unknown trainer 'fedsgd'"):
        TrainingConfig(trainer="fedsgd")


def test_fedavg_multi_epoch_matches_manual_descent():
    # fedavg, fedprox, and fedprox with a local head that the pull skips
    for trainer, mu, cross_domain in (
        ("fedavg", 0.01, False), ("fedprox", 0.5, False), ("fedprox", 0.5, True),
    ):
        fed, shared = _fixture(trainer=trainer, epochs=3, lr=0.07, mu=mu,
                               cross_domain=cross_domain)
        state = fed.clients[0]
        update = local_train(fed, shared.values[None])[0]

        # oracle: run the descent loop by hand through the public gradient,
        # adding fedprox's mu * (theta - theta_0) on the shared layers
        start = unflatten(shared, init_params(
            ModelConfig(n_layers=2, hidden_dim=5), 4, 2, seed=100,
            cross_domain=cross_domain))
        params = start
        batch = graph_batch([state.adj], [state.graph.features], [state.graph.labels])
        for _ in range(3):
            _, grads = gradient(stack([params]), batch,
                                batch.rows([np.flatnonzero(state.graph.train_mask)]),
                                activation="relu")
            grads = layer_views(grads[0], fed.layout)
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
        np.testing.assert_allclose(update.deltas[0], expected, rtol=0, atol=0)
        np.testing.assert_allclose(fed.held[0], flatten(params).values, rtol=0, atol=0)


def test_fedprox_large_mu_contracts_delta():
    # with lr * mu = 1 the proximal pull dominates: after the first step
    # theta hovers a gradient-over-mu away from the anchor, so E steps of
    # fedavg drift ~E times farther
    base, shared = _fixture(trainer="fedavg", lr=1e-6, epochs=1500)
    prox, _ = _fixture(trainer="fedprox", lr=1e-6, epochs=1500, mu=1e6)
    u_avg = local_train(base, shared.values[None])[0]
    u_prox = local_train(prox, shared.values[None])[0]
    n_avg = np.linalg.norm(u_avg.deltas[0])
    n_prox = np.linalg.norm(u_prox.deltas[0])
    assert n_prox < 1e-3 * n_avg


def test_fedprox_mu_monotonically_shrinks_delta():
    for trial in range(10):
        fed_small, shared = _fixture(seed=trial, trainer="fedprox", mu=0.1,
                                     epochs=5, lr=0.05)
        fed_large, _ = _fixture(seed=trial, trainer="fedprox", mu=10.0,
                                epochs=5, lr=0.05)
        n_small = np.linalg.norm(local_train(fed_small, shared.values[None])[0].deltas[0])
        n_large = np.linalg.norm(local_train(fed_large, shared.values[None])[0].deltas[0])
        assert n_large <= n_small + 1e-15


def test_fedprox_first_step_equals_fedavg():
    # at theta = anchor the proximal gradient vanishes, so a single step
    # cannot distinguish the trainers
    avg, shared = _fixture(trainer="fedavg", epochs=1, lr=0.05)
    prox, _ = _fixture(trainer="fedprox", epochs=1, lr=0.05, mu=5.0)
    u_avg = local_train(avg, shared.values[None])[0]
    u_prox = local_train(prox, shared.values[None])[0]
    np.testing.assert_allclose(u_avg.deltas[0], u_prox.deltas[0], atol=1e-12)


def test_local_train_deterministic_bitwise():
    f1, shared = _fixture(seed=3, epochs=4)
    f2, _ = _fixture(seed=3, epochs=4)
    u1 = local_train(f1, shared.values[None])[0]
    u2 = local_train(f2, shared.values[None])[0]
    np.testing.assert_array_equal(u1.deltas[0], u2.deltas[0])


def test_local_head_persists_across_rounds():
    g = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=1,
    )
    cfg = ModelConfig(n_layers=2, hidden_dim=5)
    params = init_params(cfg, 4, 2, seed=0, cross_domain=True)
    state = ClientState(client_id=0, graph=g, adj=normalized_adjacency(g), params=params)
    fed = Federation([state], cfg, TrainingConfig(lr=0.1))
    shared = flatten(params, group=SHARED)
    local_train(fed, shared.values[None], round_index=1)
    # the round replaced the held matrix, so this view keeps round 1's head
    head_r1 = layer_views(fed.held[0], fed.layout).layers[1].weight
    assert np.any(head_r1 != params.layers[1].weight)  # head trains locally
    # round 2: broadcast does not touch the head
    u2 = local_train(fed, shared.values[None], round_index=2)[0]
    assert u2.deltas[0].size == shared.values.size
    assert np.any(layer_views(fed.held[0], fed.layout).layers[1].weight != head_r1)


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
        local_train(Federation([state], cfg, TrainingConfig()),
                    flatten(params, group=SHARED).values[None])


def test_divergence_carries_round_and_client():
    # identity activation keeps the bilinear blow-up alive (relu would
    # die instead of overflowing)
    fed, shared = _fixture(seed=2, lr=1e6, epochs=30, activation="identity")
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as err:
            local_train(fed, shared.values[None], round_index=17)
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
    state = ClientState(client_id=5, graph=big, adj=normalized_adjacency(big), params=params)
    fed = Federation([state], cfg, TrainingConfig(lr=1.0, epochs=3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            local_train(fed, flatten(params, group=SHARED).values[None], round_index=4)
    assert err.value.round_index == 4
    assert err.value.client_id == 5
    assert "round 4" in str(err.value)


def test_a_diverging_client_trains_without_warnings():
    # three one-client runs of isolated nodes under one identity layer;
    # run 1's broadcast has a -inf weight, so its logits are not all
    # finite. Its divergence is raised, and nothing on the way warns.
    no_edges = np.zeros((0, 2), dtype=int)
    clients = []
    for n, labels in ((2, [0, 1]), (3, [0, 0, 0]), (2, [1, 1])):
        g = make_graph(n, no_edges, features=np.ones((n, 1)), labels=np.array(labels),
                       train_mask=np.ones(n, dtype=bool))
        params = ParameterSet(layers=(Layer(weight=np.zeros((1, 2)), bias=None, group=SHARED),))
        clients.append(ClientState(client_id=0, graph=g, adj=normalized_adjacency(g),
                                   params=params))
    fed = Federation(clients, ModelConfig(n_layers=1, activation="identity"),
                     TrainingConfig(lr=0.1, epochs=2), (1, 1, 1))
    broadcasts = np.array([[0.5, -0.25], [1.0, -np.inf], [-2.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as err:
            local_train(fed, broadcasts, round_index=3)
    assert (err.value.round_index, err.value.run) == (3, 1)


def test_replaced_graph_trains_like_a_fresh_state():
    # a federation batches the graph of the state it is given, never
    # that of the state it was copied from
    fed, shared = _fixture(seed=0, epochs=3)
    state = fed.clients[0]
    g2 = planted_partition_graph(
        n_blocks=2, block_size=8, p_in=0.6, p_out=0.2,
        n_classes=2, feature_dim=4, class_sep=1.0, seed=4,
    )
    replaced = dataclasses.replace(state, graph=g2, adj=normalized_adjacency(g2))
    fresh = ClientState(client_id=0, graph=g2, adj=normalized_adjacency(g2),
                        params=state.params)
    u_replaced = local_train(Federation([replaced], fed.model, fed.training),
                             shared.values[None])[0]
    u_fresh = local_train(Federation([fresh], fed.model, fed.training), shared.values[None])[0]
    np.testing.assert_array_equal(u_replaced.deltas[0], u_fresh.deltas[0])
    assert u_replaced.n_train == u_fresh.n_train
    assert not np.array_equal(local_train(fed, shared.values[None])[0].deltas[0],
                              u_fresh.deltas[0])


def test_layout_mismatch_rejected():
    fed, _ = _fixture()
    other = init_params(ModelConfig(n_layers=2, hidden_dim=9), 4, 2, seed=0)
    with pytest.raises(InputError):
        local_train(fed, flatten(other, group=SHARED).values[None])


def test_unknown_activation_is_an_error_not_identity():
    fed, shared = _fixture()
    with pytest.raises(InputError):
        local_train(Federation(list(fed.clients), dataclasses.replace(
            fed.model, activation="tanh"), fed.training), shared.values[None])


def test_client_state_validation():
    g = make_graph(2, np.array([[0, 1]]))
    params = init_params(ModelConfig(n_layers=1), 2, 1, seed=0)
    adj = normalized_adjacency(g)
    with pytest.raises(InputError):
        TrainingConfig(trainer="adam")
    with pytest.raises(InputError):
        TrainingConfig(epochs=0)
    for value in (2.5, True):
        with pytest.raises(InputError, match=f"epochs must be an integer, not {value!r}"):
            TrainingConfig(epochs=value)
    with pytest.raises(InputError):
        TrainingConfig(lr=-0.1)
    with pytest.raises(InputError):
        TrainingConfig(trainer="fedavg", mu=-1.0)
    # nan < 0.0 is False, so a sign check alone lets nan through; parse_config refuses both
    for name in ("lr", "mu"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(InputError, match=f"{name} must be a finite number >= 0, "
                                                 f"not {value}"):
                TrainingConfig(**{name: value})
        # a bool would pass as 0 or 1
        for value in (True, False, "0.1"):
            with pytest.raises(InputError, match=f"{name} must be a number, not {value!r}"):
                TrainingConfig(**{name: value})
    TrainingConfig(lr=1, mu=np.float64(0.5))
    with pytest.raises(InputError):
        ModelConfig(activation="tanh")
    ClientState(client_id=0, graph=g, adj=adj, params=params)
    # features and adjacency of different graphs: caught when the state
    # is built, before a federation computes the first-layer message
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
                                  params=params))
    fed = Federation(states, cfg, TrainingConfig(lr=1.0, epochs=2))
    with np.errstate(over="ignore", invalid="ignore"):
        losses, _ = gradient(stack([params, params]), fed.batch, fed.train, "identity")
        assert np.isfinite(losses[0]) and losses[1] == np.inf
        with pytest.raises(DivergenceError) as err:
            local_train(fed, flatten(params, group=SHARED).values[None], round_index=3)
    assert (err.value.round_index, err.value.client_id) == (3, 0)


def _random_client(cid, rng, n_classes, feature_dim, params):
    n = int(rng.integers(1, 9))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    split = rng.integers(0, 3, size=n)  # 0 train, 1 test, 2 neither
    split[rng.integers(n)] = 0          # at least one train node
    g = make_graph(n, np.array(edges, dtype=int).reshape(-1, 2),
                   features=rng.normal(size=(n, feature_dim)),
                   labels=rng.integers(0, n_classes, size=n),
                   train_mask=split == 0, test_mask=split == 1)
    return ClientState(client_id=cid, graph=g, adj=normalized_adjacency(g), params=params)


@settings(max_examples=60, deadline=None)
@given(
    run_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n_layers=st.sampled_from((1, 2)),
    activation=st.sampled_from(("relu", "identity")),
    trainer=st.sampled_from(("fedavg", "fedprox")),
    local_heads=st.booleans(),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_trains_each_client_as_its_own_federation(run_sizes, n_layers, activation,
                                                        trainer, local_heads, epochs, seed):
    # no client's values enter another's arithmetic, nor one run's
    # another's: a batch of R runs, each with its own broadcast, gives
    # every run's deltas and every client's persisted parameters, bit for
    # bit, as the run's own federation and one-client federations do,
    # over two rounds
    rng = np.random.default_rng(seed)
    model = ModelConfig(n_layers=n_layers, hidden_dim=3, activation=activation)
    training = TrainingConfig(trainer=trainer, lr=0.3, epochs=epochs, mu=0.5)
    cross_domain = local_heads and n_layers == 2
    params = init_params(model, 3, 2, seed=seed % 1000, cross_domain=cross_domain)
    broadcasts = np.stack([flatten(init_params(model, 3, 2, seed=seed % 1000 + r,
                                               cross_domain=cross_domain), group=SHARED).values
                           for r in range(len(run_sizes))])
    n_clients = sum(run_sizes)
    # each client's own head, when it has one
    heads = [dataclasses.replace(params, layers=params.layers[:-1] + (dataclasses.replace(
        params.layers[-1], weight=params.layers[-1].weight + k),)) if cross_domain else params
        for k in range(n_clients)]
    runs = np.repeat(np.arange(len(run_sizes)), run_sizes)
    # ids restart in each run, as each run seed's do
    clients = [_random_client(k - sum(run_sizes[:r]), rng, 2, 3, h)
               for k, (r, h) in enumerate(zip(runs, heads))]
    fed = Federation(clients, model, training, tuple(run_sizes))
    per_run = [Federation(clients[a:b], model, training) for a, b in fed.runs]
    singles = [Federation([c], model, training) for c in clients]
    for t in (1, 2):
        together = local_train(fed, broadcasts, round_index=t)
        assert len(together) == len(run_sizes)
        for r, ((a, b), u, f) in enumerate(zip(fed.runs, together, per_run)):
            v = local_train(f, broadcasts[r:r + 1], round_index=t)[0]
            assert (u.client_ids, u.n_train) == (v.client_ids, v.n_train)
            np.testing.assert_array_equal(u.deltas, v.deltas)
            for k in range(a, b):
                w = local_train(singles[k], broadcasts[r:r + 1], round_index=t)[0]
                assert (u.client_ids[k - a], u.n_train[k - a]) == (w.client_ids[0],
                                                                   w.n_train[0])
                np.testing.assert_array_equal(u.deltas[k - a], w.deltas[0])
        for others in (per_run, singles):
            np.testing.assert_array_equal(fed.held, np.concatenate([f.held for f in others]))
        broadcasts = broadcasts + np.stack([u.deltas[-1] for u in together])


def test_federation_flattens_each_shared_parameter_set_once(monkeypatch):
    # the harness hands a seed's clients one ParameterSet; a set is
    # flattened once for its run of consecutive clients, compared by
    # identity, and each client's row holds its own set's local head
    import fedgeo.client
    model = ModelConfig(n_layers=2, hidden_dim=3)
    a, b = (init_params(model, 3, 2, seed=s, cross_domain=True) for s in (1, 2))
    sets = (a, a, b, b, b, a)
    rng = np.random.default_rng(4)
    clients = [_random_client(k, rng, 2, 3, p) for k, p in enumerate(sets)]
    flattened = []
    flatten_ = fedgeo.client.flatten
    monkeypatch.setattr(fedgeo.client, "flatten",
                        lambda params, *args: flattened.append(params) or flatten_(params, *args))
    fed = Federation(clients, model, TrainingConfig(lr=0.0), (3, 3))
    assert [p is a for p in flattened] == [True, False, True]
    local_train(fed, np.stack([flatten_(a, SHARED).values, flatten_(b, SHARED).values]))
    for row, p in zip(fed.held, sets):
        assert (flatten_(layer_views(row, fed.layout), LOCAL).values.tobytes()
                == flatten_(p, LOCAL).values.tobytes())


def test_federation_validation():
    fed, _ = _fixture()
    state = fed.clients[0]
    with pytest.raises(InputError):
        Federation([], fed.model, fed.training)
    other = init_params(ModelConfig(n_layers=2, hidden_dim=9), 4, 2, seed=0)
    with pytest.raises(InputError):
        Federation([state, dataclasses.replace(state, client_id=1, params=other)],
                   fed.model, fed.training)
    for sizes in ((), (2,), (0, 1), (1, 1)):
        with pytest.raises(InputError, match="do not split 1 clients"):
            Federation([state], fed.model, fed.training, sizes)
    _, shared = _fixture()
    n = shared.values.size
    with pytest.raises(InputError, match=fr"shared parameters of shape \(2, {n}\) do not "
                                         fr"match the federation's \(1, {n}\)"):
        local_train(fed, np.stack([shared.values, shared.values]))
    local = ParameterSet(layers=tuple(dataclasses.replace(layer, group=LOCAL)
                                      for layer in state.params.layers))
    with pytest.raises(InputError, match="client 0's model has no shared layer"):
        Federation([dataclasses.replace(state, params=local)], fed.model, fed.training)
    bare = dataclasses.replace(state.graph, train_mask=np.zeros(state.graph.n_nodes, bool))
    with pytest.raises(InputError, match="client 7 has no train nodes"):
        Federation([state, dataclasses.replace(state, client_id=7, graph=bare)],
                   fed.model, fed.training)


def test_a_model_of_other_than_one_or_two_layers_is_refused_by_name():
    fed, _ = _fixture()
    state = fed.clients[0]
    rng = np.random.default_rng(0)
    deep = ParameterSet(layers=tuple(Layer(weight=rng.normal(size=shape), bias=None,
                                           group=SHARED)
                                     for shape in ((4, 5), (5, 5), (5, 2))))
    for params, n in ((deep, 3), (ParameterSet(layers=()), 0)):
        with pytest.raises(InputError, match=f"layers must be 1 or 2, not {n}"):
            Federation([dataclasses.replace(state, params=params)], fed.model, fed.training)


def _per_layer_stack(sets):
    """Each layer's weights and biases of K sets stacked to new arrays."""
    return ParameterSet(layers=tuple(
        Layer(weight=np.stack([s.layers[li].weight for s in sets]),
              bias=None if layer.bias is None else np.stack([s.layers[li].bias for s in sets]),
              group=layer.group)
        for li, layer in enumerate(sets[0].layers)))


def _per_layer_step(params, grads, lr, anchor, pulls):
    """theta <- theta - lr * (g + mu * (theta - anchor)) in place, layer by
    layer, with mu = pulls[layer]; a layer with mu = 0 takes a plain step
    and reads nothing of ``anchor``."""
    for p, g, p0, mu in zip(params.layers, grads.layers, anchor.layers, pulls):
        for theta, grad, start in ((p.weight, g.weight, p0.weight), (p.bias, g.bias, p0.bias)):
            if theta is None:
                continue
            if mu > 0.0:
                grad = grad + mu * (theta - start)
            theta -= lr * grad


@settings(max_examples=40, deadline=None)
@given(
    run_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    trainer=st.sampled_from(("fedavg", "fedprox")),
    activation=st.sampled_from(("relu", "identity")),
    bias=st.booleans(),
    epochs=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_one_matrix_step_is_the_per_layer_step(run_sizes, trainer, activation, bias,
                                                   epochs, seed):
    # local_train's step over the (K, L) matrix gives, bit for bit, what
    # the step written layer by layer over contiguous per-layer stacks
    # gives, over two rounds of a cross-domain federation; the oracle
    # pulls only the shared layer, and the local head, moved by the first
    # step, would take other bits from a pull
    rng = np.random.default_rng(seed)
    model = ModelConfig(n_layers=2, hidden_dim=3, activation=activation, bias=bias)
    training = TrainingConfig(trainer=trainer, lr=0.3, epochs=epochs, mu=0.5)
    params = init_params(model, 3, 2, seed=seed % 1000, cross_domain=True)
    fed = Federation([_random_client(k, rng, 2, 3, params) for k in range(sum(run_sizes))],
                     model, training, tuple(run_sizes))
    layout, shared = fed.layout, flatten(params, group=SHARED).layout
    n_shared = sum(spec.size for spec in shared)  # the shared layer comes first
    pulls = [training.mu if trainer == "fedprox" and spec.group == SHARED else 0.0
             for spec in layout]
    runs = np.repeat(np.arange(len(run_sizes)), run_sizes)
    held = np.stack([flatten(c.params).values for c in fed.clients])
    for t in (1, 2):
        broadcasts = rng.normal(size=(len(run_sizes), n_shared))
        rows = [np.concatenate([broadcasts[r], row[n_shared:]])
                for r, row in zip(runs, held)]
        theta, anchor = (_per_layer_stack([unflatten(FlatVector(values=v, layout=layout), params)
                                           for v in rows]) for _ in range(2))
        for _ in range(epochs):
            _, grads = gradient(theta, fed.batch, fed.train, activation)
            _per_layer_step(theta, layer_views(grads, layout), training.lr, anchor, pulls)
        held = np.concatenate([a.reshape(len(rows), -1) for layer in theta.layers
                               for a in (layer.weight, layer.bias) if a is not None], axis=1)

        updates = local_train(fed, broadcasts, round_index=t)
        deltas = np.concatenate([u.deltas for u in updates])
        assert deltas.tobytes() == (held[:, :n_shared] - np.stack(rows)[:, :n_shared]).tobytes()
        assert fed.held.tobytes() == held.tobytes()


def test_divergence_names_the_run_of_the_first_diverged_client():
    # two runs of two clients, ids restarting in each; only the run
    # given a huge broadcast diverges, and the lower run is named first
    model = ModelConfig(n_layers=2, hidden_dim=3)
    params = init_params(model, 3, 2, seed=5)
    shared = flatten(params, group=SHARED)
    huge = FlatVector(values=1e300 * np.ones_like(shared.values), layout=shared.layout)
    rng = np.random.default_rng(11)
    fed = Federation([_random_client(k % 2, rng, 2, 3, params) for k in range(4)], model,
                     TrainingConfig(lr=0.3), (2, 2))
    for broadcasts, run in (((shared, huge), 1), ((huge, shared), 0), ((huge, huge), 0)):
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                local_train(fed, np.stack([b.values for b in broadcasts]), round_index=4)
        assert (err.value.round_index, err.value.client_id, err.value.run) == (4, 0, run)
    assert [u.client_ids for u in local_train(fed, np.stack([shared.values] * 2))] == [
        (0, 1), (0, 1)]


def test_building_a_federation_leaves_its_clients_untouched():
    rng = np.random.default_rng(7)
    params = init_params(ModelConfig(n_layers=2, hidden_dim=3), 3, 2, seed=0)
    clients = [_random_client(k, rng, 2, 3, params) for k in range(4)]
    before = [dict(vars(c)) for c in clients]
    fed = Federation(clients, ModelConfig(n_layers=2, hidden_dim=3), TrainingConfig())
    for c, attrs in zip(clients, before):
        assert vars(c).keys() == attrs.keys()
        assert all(getattr(c, name) is value for name, value in attrs.items())
    # the batch's message rows of client k are its own A_hat @ X, bit for bit
    nodes = fed.batch.nodes.tolist()
    for c, a, b in zip(clients, nodes[:-1], nodes[1:]):
        want = feature_message(c.adj, c.graph.features)
        assert fed.batch.message[a:b].shape == want.shape
        assert fed.batch.message[a:b].tobytes() == want.tobytes()
    assert not fed.batch.message.flags.writeable


def test_a_diverging_round_changes_no_parameters():
    # a round that diverges must leave the federation's held matrix and
    # the evaluation parameters as they were, so the next round trains
    # as if the failed one never ran
    model = ModelConfig(n_layers=2, hidden_dim=3)
    params = init_params(model, 3, 2, seed=5, cross_domain=True)
    shared = flatten(params, group=SHARED)

    def federation():
        rng = np.random.default_rng(11)
        return Federation([_random_client(k, rng, 2, 3, params) for k in range(3)], model,
                          TrainingConfig(lr=0.3, epochs=2))

    fed, twin = federation(), federation()
    for f in (fed, twin):
        local_train(f, shared.values[None], round_index=1)
    before, held = fed.held, fed.held.tobytes()
    evaluated = fed.params(shared.values[None]).tobytes()
    huge = FlatVector(values=1e300 * np.ones_like(shared.values), layout=shared.layout)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError):
            local_train(fed, huge.values[None], round_index=2)
    assert fed.held is before and fed.held.tobytes() == held
    assert fed.params(shared.values[None]).tobytes() == evaluated
    again, untouched = (local_train(f, shared.values[None], round_index=2)[0] for f in (fed, twin))
    assert again.deltas.tobytes() == untouched.deltas.tobytes()
    assert fed.held.tobytes() == twin.held.tobytes()


def test_the_federation_owns_its_clients_parameters():
    # the held matrix is the clients' parameters: a round replaces it,
    # leaving a matrix kept from the round before as it was, and the next
    # round's local heads continue from it; a client's record is its
    # input and cannot be changed
    model = ModelConfig(n_layers=2, hidden_dim=3)
    training = TrainingConfig(lr=0.3)
    params = init_params(model, 3, 2, seed=2, cross_domain=True)
    shared = flatten(params, group=SHARED)
    rng = np.random.default_rng(4)
    clients = [_random_client(k, rng, 2, 3, params) for k in range(2)]
    fed = Federation(clients, model, training)
    local_train(fed, shared.values[None], round_index=1)
    r1 = fed.held
    kept = r1.tobytes()
    # records that start from the round-1 rows train round 2 as fed does
    resumed = Federation([dataclasses.replace(c, params=layer_views(row, fed.layout))
                          for c, row in zip(clients, r1)], model, training)
    u2, v2 = (local_train(f, shared.values[None], round_index=2)[0] for f in (fed, resumed))
    assert fed.held is not r1 and r1.tobytes() == kept
    assert not np.array_equal(fed.held, r1)  # the local heads trained on
    assert u2.deltas.tobytes() == v2.deltas.tobytes()
    assert fed.held.tobytes() == resumed.held.tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        fed.clients[0].params = init_params(model, 3, 2, seed=9, cross_domain=True)


def test_a_new_parameter_matrix_trains_as_in_a_fresh_federation():
    # each round frees the last round's parameter matrix and allocates a
    # same-shaped one, perhaps at the same address: a step must read the
    # new matrix's weights, never views held from an old one, so every
    # round gives the bytes of a federation built for that round alone,
    # also after first_runs drops the last run. The rounds run back to
    # back, so that each allocates as the one before did, and both
    # layers' weights are 3 x 3, so that a reused address also has the
    # shape of an earlier weight
    model = ModelConfig(n_layers=2, hidden_dim=3, activation="relu")
    training = TrainingConfig(trainer="fedprox", lr=0.3, epochs=2, mu=0.5)
    params = init_params(model, 3, 3, seed=7, cross_domain=True)
    rng = np.random.default_rng(8)
    clients = [_random_client(k % 3, rng, 3, 3, params) for k in range(6)]
    fed = Federation(clients, model, training, (3, 3))
    width = fed.shared_columns.stop - fed.shared_columns.start
    rounds = []
    for t in range(1, 7):
        if t == 4:
            fed = fed.first_runs(1)
        shared = rng.normal(size=(len(fed.runs), width))
        start = fed.held.tobytes()
        deltas = local_train(fed, shared, round_index=t).deltas.tobytes()
        rounds.append((fed.run_sizes, start, shared, deltas, fed.held.tobytes()))
    for t, (run_sizes, start, shared, deltas, held) in enumerate(rounds, 1):
        fresh = Federation(clients[:sum(run_sizes)], model, training, run_sizes)
        fresh.held = np.frombuffer(start).reshape(fresh.held.shape).copy()
        assert local_train(fresh, shared, round_index=t).deltas.tobytes() == deltas
        assert fresh.held.tobytes() == held


def test_a_federation_builds_its_run_layout_once_and_first_runs_its_own():
    # every round of a federation carries the one RunLayout it holds;
    # first_runs(n) is a new federation of n runs with a layout of its own
    model = ModelConfig(n_layers=2, hidden_dim=3, activation="relu")
    training = TrainingConfig(lr=0.3)
    params = init_params(model, 3, 3, seed=7)
    rng = np.random.default_rng(8)
    clients = [_random_client(k, rng, 3, 3, params) for k in (0, 1, 2, 0, 1, 0)]
    fed = Federation(clients, model, training, (3, 2, 1))
    width = fed.shared_columns.stop - fed.shared_columns.start
    first = local_train(fed, rng.normal(size=(3, width)), round_index=1)
    second = local_train(fed, rng.normal(size=(3, width)), round_index=2)
    assert first.run_layout is second.run_layout is fed.run_layout
    assert fed.run_layout.runs == fed.runs == ((0, 3), (3, 5), (5, 6))
    assert fed.run_layout.n_train == tuple(fed.train.counts.tolist())
    part = fed.first_runs(2)
    lay = part.run_layout
    assert lay is not fed.run_layout
    assert (lay.runs, lay.client_ids, lay.n_train) == (((0, 3), (3, 5)), part.client_ids,
                                                       fed.run_layout.n_train[:5])
    updates = local_train(part, rng.normal(size=(2, width)), round_index=3)
    assert updates.run_layout is lay and len(updates) == 2
