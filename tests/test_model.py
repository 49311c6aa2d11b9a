import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedgeo import (
    FlatVector,
    InputError,
    ModelConfig,
    NormalizedAdjacency,
    flatten,
    forward,
    gradient,
    init_params,
    make_graph,
    normalized_adjacency,
    path_graph,
    planted_partition_graph,
    unflatten,
)
from fedgeo import model
from fedgeo.model import (
    ACTIVATIONS,
    LOCAL,
    SHARED,
    Layer,
    ParameterSet,
    _cross_entropy,
    _finite_graphs,
    feature_message,
    graph_batch,
    layer_views,
)

from conftest import stack


def _one_graph(adj, features, labels, rows):
    """A batch of one graph, and its rows."""
    batch = graph_batch([adj], [features], [labels])
    return batch, batch.rows([rows])


def _random_case(seed, n_layers=2, activation="relu", bias=True):
    rng = np.random.default_rng(seed)
    g = planted_partition_graph(
        n_blocks=2,
        block_size=int(rng.integers(4, 11)),
        p_in=0.6,
        p_out=0.2,
        n_classes=int(rng.integers(2, 4)),
        feature_dim=int(rng.integers(3, 7)),
        class_sep=1.0,
        seed=seed,
    )
    cfg = ModelConfig(
        n_layers=n_layers,
        hidden_dim=int(rng.integers(4, 9)),
        activation=activation,
        bias=bias,
    )
    params = init_params(cfg, g.feature_dim, g.n_classes, seed=seed + 1)
    return g, normalized_adjacency(g), cfg, params


def _naive_forward(params, a_dense, x, activation):
    # independent re-implementation: dense products, explicit layer loop
    h = np.array(x, dtype=float)
    last = len(params.layers) - 1
    for li, layer in enumerate(params.layers):
        p = a_dense @ h @ layer.weight
        if layer.bias is not None:
            p = p + layer.bias
        if li < last and activation == "relu":
            p = np.where(p > 0.0, p, 0.0)
        h = p
    return h


def test_forward_matches_naive_reimplementation():
    for seed in range(8):
        g, adj, cfg, params = _random_case(seed)
        every = np.arange(g.n_nodes)
        ours = forward(stack([params]),
                       *_one_graph(adj, g.features, g.labels, every),
                       cfg.activation)[1][-1]
        theirs = _naive_forward(params, adj.dense(), g.features, cfg.activation)
        np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_forward_identity_single_layer_is_linear_map():
    g = path_graph(3)
    w = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    params = ParameterSet(layers=(Layer(weight=w, bias=None, group=SHARED),))
    adj = normalized_adjacency(g)
    out = forward(stack([params]),
                  *_one_graph(adj, g.features, g.labels, np.arange(3)),
                  "identity")[1][-1]
    np.testing.assert_allclose(out, adj.dense() @ np.eye(3) @ w, atol=1e-15)


def test_forward_shape_errors():
    g, adj, cfg, params = _random_case(1)
    rows = np.flatnonzero(g.train_mask)
    with pytest.raises(InputError):
        forward(stack([params]),
                *_one_graph(adj, g.features[:, :-1], g.labels, rows),
                cfg.activation)
    with pytest.raises(InputError):
        feature_message(adj, g.features[:-1])
    with pytest.raises(InputError):
        forward(stack([params]),
                *_one_graph(adj, g.features, g.labels, rows), "tanh")


def test_masked_cross_entropy_against_manual():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    mask = np.array([True, False, True, True, False, True])
    # manual: softmax probabilities, negative log likelihood
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    manual = -np.mean(np.log(p[mask, labels[mask]]))
    assert abs(_cross_entropy(logits[mask], np.arange(4) * 3 + labels[mask])[0].mean() - manual) < 1e-12


def test_masked_cross_entropy_handles_huge_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    labels = np.array([0, 1])
    loss = _cross_entropy(logits, np.arange(2) * 2 + labels)[0].mean()
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_masked_cross_entropy_empty_mask():
    with pytest.raises(InputError):
        _cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=int))


def _reduce_cross_entropy(z, labels):
    """The loss and logit gradient by NumPy's row reduce and tuple-indexed
    label picks: the expressions ``_cross_entropy`` replaces."""
    pick = (np.arange(z.shape[0]), labels)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1)
    nll = zmax[:, 0] + np.log(total) - z[pick]
    dz = e / total[:, None]
    dz[pick] -= 1.0
    return nll, dz


def _bits(x):
    """x's bytes with every NaN made one NaN, so NaN compares as NaN."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                     st.floats(allow_nan=False, allow_infinity=False))
# 9 classes of signed zeros: the column chain keeps the first zero's sign
# (+0.0), NumPy's reduce at this width gives -0.0
_OPPOSITE_ZEROS = np.array([[0.0, -0.0, -0.0, -0.0, 0.0, -1.0, 0.0, -1.0, 0.0]])


@settings(max_examples=300)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    width=st.integers(1, 12),
    data=st.data(),
)
@example(sizes=[1], width=9, data=None)
def test_cross_entropy_and_finiteness_are_the_row_reduce_bits(sizes, width, data):
    # the column chain, the flat picks and the reduceat down the rows give
    # the bits of NumPy's per-row reduce and tuple-indexed picks, NaN as NaN
    bounds = np.cumsum([0] + sizes)
    n = int(bounds[-1])
    if data is None:
        z, labels = _OPPOSITE_ZEROS, np.array([3])
        chain = np.maximum.accumulate(z, axis=1)[:, -1]  # max(max(z0, z1), z2)...
        assert chain == 0.0 and np.signbit(chain) != np.signbit(z.max(axis=1))
    else:
        z = data.draw(arrays(np.float64, (n, width), elements=_ENTRIES), label="z")
        labels = data.draw(arrays(np.int64, n, elements=st.integers(0, width - 1)),
                           label="labels")
    with np.errstate(all="ignore"):
        got = _cross_entropy(z, np.arange(n) * width + labels)
        want = _reduce_cross_entropy(z, labels)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and _bits(g) == _bits(w)
    finite = np.logical_and.reduceat(np.isfinite(z).all(axis=1), bounds[:-1])
    assert np.array_equal(_finite_graphs(z, bounds), finite)


# three graphs of isolated nodes under one identity layer: the logits are
# each graph's weight row. The middle graph's non-label logit is -inf; its
# softmax loss is finite, but its step has diverged.
_ISOLATED_SIZES = (2, 3, 2)
_ISOLATED_LABELS = [np.array([0, 1]), np.array([0, 0, 0]), np.array([1, 1])]
_ISOLATED_WEIGHTS = [np.array([[0.5, -0.25]]), np.array([[1.0, -np.inf]]),
                     np.array([[-2.0, 3.0]])]


def _isolated_step(ks):
    """``gradient`` of the batch of the isolated graphs ``ks``, every node a row."""
    no_edges = np.zeros((0, 2), dtype=int)
    params = stack([ParameterSet(layers=(Layer(weight=_ISOLATED_WEIGHTS[k], bias=None,
                                                group=SHARED),)) for k in ks])
    batch = graph_batch([normalized_adjacency(make_graph(_ISOLATED_SIZES[k], no_edges))
                         for k in ks], [np.ones((_ISOLATED_SIZES[k], 1)) for k in ks],
                        [_ISOLATED_LABELS[k] for k in ks])
    return gradient(params, batch, batch.rows([np.arange(_ISOLATED_SIZES[k]) for k in ks]),
                    "identity")


def test_a_minus_inf_logit_marks_only_its_graph_as_diverged():
    # the other two keep the bits they get in batches of their own
    losses, grads = _isolated_step([0, 1, 2])
    assert np.isfinite(losses[[0, 2]]).all() and losses[1] == np.inf
    for k in (0, 2):
        own_losses, own_grads = _isolated_step([k])
        assert losses[k].tobytes() == own_losses[0].tobytes()
        assert grads[k].tobytes() == own_grads[0].tobytes()


def test_a_diverged_graph_raises_no_warning():
    # divergence is decided on the logits; the diverged graph's
    # arithmetic, products included, warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        losses, _ = _isolated_step([0, 1, 2])
    assert losses[1] == np.inf


class _MatmulNumpy:
    """NumPy whose ``dot(a, b, out)`` is ``np.matmul(a, b, out=out)``: put
    in the model's place of ``np``, it runs the per-graph products as
    one ``np.matmul`` per graph."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def dot(a, b, out):
        return np.matmul(a, b, out=out)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    widths=st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16)),
    n_layers=st.sampled_from((1, 2)),
    bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(sizes=[1, 1], widths=(1, 1, 1), n_layers=2, bias=False, seed=0, data=None)
def test_per_graph_products_are_the_matmul_bits(sizes, widths, n_layers, bias, seed, data):
    # the per-graph products keep the bits of one np.matmul(..., out=) per
    # graph: 1-row and width-1 (gemv) shapes, 1 x 1 by 1 x 1 products of
    # signed zeros, transposed operands, and graphs without rows
    # (evaluation rows only)
    f, c, hidden = widths
    rng = np.random.default_rng(seed)

    def subsets(min_size, label):
        return [sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n),
                                 label=f"{label} {k}")) if data else list(range(n))
                for k, n in enumerate(sizes)]

    graphs = []
    for n in sizes:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graphs.append(make_graph(n, np.array(pairs, dtype=int).reshape(-1, 2),
                                 features=rng.normal(size=(n, f)),
                                 labels=rng.integers(0, c, size=n)))
    batch = graph_batch([normalized_adjacency(g) for g in graphs], [g.features for g in graphs],
                        [g.labels for g in graphs])
    train, test = batch.rows(subsets(1, "train")), batch.rows(subsets(0, "test"))

    def spread(shape):  # magnitudes over 2^-40..2^40, and some signed zeros
        x = rng.normal(size=shape) * np.exp2(rng.integers(-40, 41, size=shape))
        return np.where(rng.random(shape) < 0.2, np.copysign(0.0, x), x)

    x, w = spread((test.index.size, f)), spread((len(sizes), c, f))
    for weight in (w.transpose(0, 2, 1), np.ascontiguousarray(w.transpose(0, 2, 1))):
        want = np.empty((x.shape[0], c))
        for k, (a, b) in enumerate(test.spans):
            np.matmul(x[a:b], weight[k], out=want[a:b])
        assert model._per_graph(x, weight, test.spans).tobytes() == want.tobytes()

    cfg = ModelConfig(n_layers=n_layers, hidden_dim=hidden, bias=bias)
    params = stack([init_params(cfg, f, c, seed=seed % 1000 + k) for k in range(len(sizes))])

    def outputs():
        messages, preacts = forward(params, batch, test)
        return messages + preacts + list(gradient(params, batch, train))

    got = outputs()
    with mock.patch.object(model, "np", _MatmulNumpy()):
        want = outputs()
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _fd_gradient(params, adj, features, labels, rows, activation, step=1e-4):
    template = params
    flat = flatten(params)

    def loss_at(values):
        p = unflatten(FlatVector(values=values, layout=flat.layout), template)
        return gradient(stack([p]), *_one_graph(adj, features, labels, rows),
                        activation=activation)[0][0]

    fd = np.zeros_like(flat.values)
    for i in range(flat.values.size):
        up = flat.values.copy()
        dn = flat.values.copy()
        up[i] += step
        dn[i] -= step
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * step)
    return fd


def test_gradient_matches_finite_differences_relu():
    # the analytic backward pass against central differences, 20 seeded
    # graph/model pairs
    worst = 0.0
    for seed in range(20):
        g, adj, cfg, params = _random_case(seed)
        assert g.n_nodes <= 20
        rows = np.flatnonzero(g.train_mask)
        _, grads = gradient(stack([params]), *_one_graph(adj, g.features, g.labels, rows),
                            activation=cfg.activation)
        ga = grads[0]
        gf = _fd_gradient(params, adj, g.features, g.labels, rows, cfg.activation)
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(gf), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-4, f"seed {seed}: relative error {rel:.3e}"
    assert worst < 1e-4


def test_gradient_matches_finite_differences_identity_1layer():
    for seed in (3, 5):
        g, adj, cfg, params = _random_case(seed, n_layers=1, activation="identity")
        rows = np.flatnonzero(g.train_mask)
        _, grads = gradient(stack([params]), *_one_graph(adj, g.features, g.labels, rows),
                            activation="identity")
        ga = grads[0]
        gf = _fd_gradient(params, adj, g.features, g.labels, rows, "identity")
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(gf), 1e-12)
        assert rel < 1e-6


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_gradient_matches_finite_differences_on_a_non_symmetric_operator(activation):
    # NormalizedAdjacency does not check symmetry, so the last layer's
    # gradient must go back through the adjoint of its forward operator,
    # not through A_hat's columns, which equal it only when A_hat = A_hat^T
    rng = np.random.default_rng(6)
    dense = rng.uniform(0.1, 1.0, size=(6, 6)) * (rng.random((6, 6)) < 0.6)
    assert not np.array_equal(dense, dense.T)
    adj = NormalizedAdjacency(n_nodes=6, storage=sp.csr_array(dense))
    features, labels = rng.normal(size=(6, 3)), rng.integers(0, 2, size=6)
    rows = np.array([0, 2, 3, 5])
    params = init_params(ModelConfig(hidden_dim=4, activation=activation), 3, 2, seed=1)
    _, grads = gradient(stack([params]), *_one_graph(adj, features, labels, rows), activation)
    fd = _fd_gradient(params, adj, features, labels, rows, activation)
    assert np.abs(grads[0] - fd).max() < 1e-6


def _full_row_gradient(params, a, x, labels, mask, activation):
    # reference: dense A_hat, logits for every node, and a gradient that
    # is zero on the rows outside the mask; returns the logits too
    hs, ms, ps = [x], [], []
    last = len(params.layers) - 1
    for li, layer in enumerate(params.layers):
        m = a @ hs[-1]
        p = m @ layer.weight
        if layer.bias is not None:
            p = p + layer.bias
        ms.append(m)
        ps.append(p)
        hs.append(np.maximum(p, 0.0) if li < last and activation == "relu" else p)
    z = hs[-1]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    prob = e / e.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(prob[mask, labels[mask]]))
    g = prob.copy()
    g[np.arange(len(z)), labels] -= 1.0
    g[~mask] = 0.0
    g /= mask.sum()
    chunks = []
    for li in range(last, -1, -1):
        layer = params.layers[li]
        chunks[:0] = [(ms[li].T @ g).ravel()] + ([g.sum(axis=0)] if layer.bias is not None else [])
        if li > 0:
            g = a @ (g @ layer.weight.T)
            if activation == "relu":
                g = g * (ps[li - 1] > 0.0)
    return loss, np.concatenate(chunks), z


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    dims=st.tuples(st.integers(1, 4), st.integers(2, 3), st.integers(1, 4)),
    n_layers=st.sampled_from((1, 2)),
    activation=st.sampled_from(ACTIVATIONS),
    bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_gradient_on_train_rows_matches_full_row_reference(n, dims, n_layers, activation,
                                                           bias, seed, data):
    # the last layer is built for the train rows only; its logits, the
    # loss and the gradients match those built for every node
    train = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="train")
    mask = np.isin(np.arange(n), sorted(train))
    d, c, hidden = dims
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = make_graph(n, np.array(edges, dtype=int).reshape(-1, 2),
                   features=rng.normal(size=(n, d)), labels=rng.integers(0, c, size=n),
                   train_mask=mask)
    cfg = ModelConfig(n_layers=n_layers, hidden_dim=hidden, activation=activation, bias=bias)
    params = init_params(cfg, d, c, seed=seed % 1000)
    adj, train_rows = normalized_adjacency(g), np.flatnonzero(mask)

    want_loss, want, want_logits = _full_row_gradient(params, adj.dense(), g.features,
                                                      g.labels, mask, activation)
    batch, rows = _one_graph(adj, g.features, g.labels, train_rows)
    logits = forward(stack([params]), batch, rows, activation)[1][-1]
    want_logits = want_logits[train_rows]
    assert logits.shape == want_logits.shape
    assert np.linalg.norm(logits - want_logits) <= 1e-12 * np.linalg.norm(want_logits)

    losses, grads = gradient(stack([params]), batch, rows, activation)
    loss = losses[0]
    got = grads[0]
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _row_order_sum(column: np.ndarray) -> float:
    """The entries of ``column`` added one by one, in order, from +0.0."""
    total = 0.0
    for v in column.tolist():
        total += v
    return total


@settings(max_examples=150)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    width=st.one_of(st.just(1), st.integers(2, 64)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_segment_sums_add_each_graphs_rows_in_order(sizes, width, seed, data):
    # GraphBatch.sums and Rows.sums give each graph's bias gradient: over
    # two or more columns, the bits of x[a:b].sum(axis=0), which adds the
    # rows in order. NumPy sums a single column pairwise, so there the
    # product is checked against the row-order sum from +0.0 instead. An
    # all-zero column may sum to +0.0 where NumPy gives -0.0 (NumPy starts
    # from the first row, the product from +0.0); np.array_equal counts
    # the two zeros equal.
    rng = np.random.default_rng(seed)
    no_edges = np.zeros((0, 2), dtype=int)
    batch = graph_batch([normalized_adjacency(make_graph(n, no_edges)) for n in sizes],
                        [np.zeros((n, 1)) for n in sizes],
                        [np.zeros(n, dtype=int) for n in sizes])
    rows = batch.rows([sorted(data.draw(st.sets(st.integers(0, n - 1)), label=f"rows {k}"))
                       for k, n in enumerate(sizes)])
    for seg in (batch, rows):
        n = seg.spans[-1][1]
        x = rng.normal(size=(n, width)) * np.exp2(rng.integers(-40, 41, size=(n, width)))
        got = seg.sums @ x
        assert got.shape == (len(sizes), width)
        for k, (a, b) in enumerate(seg.spans):
            want = x[a:b].sum(axis=0) if width > 1 else [_row_order_sum(x[a:b, 0])]
            assert np.array_equal(got[k], want), (k, a, b)


@settings(max_examples=100)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    width=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rows_gather_and_scatter_are_the_full_products_bit_for_bit(sizes, width, seed, data):
    # the last layer's message is gather @ h, not (A_hat @ h)[index], and
    # its gradient goes back as scatter @ d, not A_hat @ (d scattered into
    # zeros): a sparse product adds each row's stored terms in order from
    # +0.0, and the dropped terms are exact +0.0. Graphs with no row and
    # with one row included.
    rng = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graphs.append(make_graph(n, np.array(pairs, dtype=int).reshape(-1, 2),
                                 features=rng.normal(size=(n, 3))))
    batch = graph_batch([normalized_adjacency(g) for g in graphs], [g.features for g in graphs],
                        [g.labels for g in graphs])
    rows = batch.rows([sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n),
                                        label=f"rows {k}")) for k, n in enumerate(sizes)])
    n_nodes, n_rows = batch.message.shape[0], rows.index.size
    gather, scatter = rows.gather, rows.scatter
    assert gather.shape == (n_rows, n_nodes) and scatter.shape == (n_nodes, n_rows)
    assert scatter.format == "csc"  # gather's transpose: its CSR arrays read as columns
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(scatter, name), getattr(gather, name)), name

    def spread(shape):  # magnitudes over 2^-40..2^40, and some signed zeros
        x = rng.normal(size=shape) * np.exp2(rng.integers(-40, 41, size=shape))
        return np.where(rng.random(shape) < 0.1, -0.0, x)

    h = spread((n_nodes, width))
    assert (rows.gather @ h).tobytes() == (batch.adj @ h)[rows.index].tobytes()
    d = spread((n_rows, width))
    up = np.zeros((n_nodes, width))
    up[rows.index] = d
    assert (rows.scatter @ d).tobytes() == (batch.adj @ up).tobytes()
    assert rows.message.tobytes() == batch.message[rows.index].tobytes()
    assert rows.message.shape == (n_rows, 3) and not rows.message.flags.writeable


def test_divergence_is_decided_on_the_train_rows():
    # node 2 is isolated, so only its own logits overflow: outside the
    # train rows they are never built; inside, the step diverges
    g = make_graph(3, np.array([[0, 1]]), features=np.array([[1.0], [-1.0], [1e308]]),
                   labels=np.array([0, 1, 0]), train_mask=np.array([True, True, False]))
    params = ParameterSet(layers=(Layer(weight=np.array([[4.0, -4.0]]), bias=None,
                                        group=SHARED),))
    adj = normalized_adjacency(g)
    losses, _ = gradient(stack([params]),
                         *_one_graph(adj, g.features, g.labels, np.array([0, 1])), "identity")
    assert np.isfinite(losses[0])
    with np.errstate(over="ignore", invalid="ignore"):
        losses, _ = gradient(stack([params]),
                             *_one_graph(adj, g.features, g.labels, np.array([0, 2])), "identity")
    assert losses[0] == float("inf")


@settings(max_examples=60, deadline=None)
@given(
    n_layers=st.sampled_from((1, 2)),
    bias=st.booleans(),
    local_head=st.booleans(),
    n_sets=st.integers(1, 4),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_layer_views_are_the_per_layer_stacks(n_layers, bias, local_head, n_sets, dims, seed):
    # layer_views of stacked flat vectors hold, bit for bit, each layer's
    # arrays stacked one by one; a write through a view lands in the
    # matrix at the columns flatten gives that layer; unflatten inverts
    # flatten bit for bit, of every group
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(n_layers=n_layers, hidden_dim=dims[1], bias=bias)
    template = init_params(cfg, dims[0], dims[2], seed=seed % 1000,
                           cross_domain=local_head and n_layers == 2)
    layout = flatten(template).layout
    sets = [unflatten(FlatVector(values=rng.normal(size=sum(s.size for s in layout)),
                                 layout=layout), template) for _ in range(n_sets)]
    for s in sets:
        for group in ("all", SHARED, LOCAL):
            back = unflatten(flatten(s, group), s)
            assert [(l.weight.tobytes(), None if l.bias is None else l.bias.tobytes(), l.group)
                    for l in back.layers] == [
                (l.weight.tobytes(), None if l.bias is None else l.bias.tobytes(), l.group)
                for l in s.layers]

    matrix = np.stack([flatten(s).values for s in sets])
    views = layer_views(matrix, layout)
    assert len(views.layers) == n_layers
    for li, view in enumerate(views.layers):
        weights = np.stack([s.layers[li].weight for s in sets])
        assert view.weight.shape == weights.shape and view.weight.tobytes() == weights.tobytes()
        assert view.group == template.layers[li].group
        if bias:
            biases = np.stack([s.layers[li].bias for s in sets])
            assert view.bias.shape == biases.shape and view.bias.tobytes() == biases.tobytes()
        else:
            assert view.bias is None
    for k, s in enumerate(sets):
        assert flatten(layer_views(matrix[k], layout)).values.tobytes() == matrix[k].tobytes()

    filled = ParameterSet(layers=tuple(
        Layer(weight=np.full(l.weight.shape, 2.0 * li + 1.0),
              bias=None if l.bias is None else np.full(l.bias.shape, 2.0 * li + 2.0),
              group=l.group)
        for li, l in enumerate(template.layers)))
    for li, view in enumerate(views.layers):
        view.weight[...] = 2.0 * li + 1.0
        if view.bias is not None:
            view.bias[...] = 2.0 * li + 2.0
    assert (matrix == flatten(filled).values).all()


def test_flatten_unflatten_round_trip_bitwise():
    for seed in range(5):
        _, _, cfg, params = _random_case(seed)
        flat = flatten(params)
        back = unflatten(flat, params)
        for a, b in zip(params.layers, back.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.group == b.group


def test_flatten_group_selection_cross_domain():
    cfg = ModelConfig(n_layers=2, hidden_dim=5)
    params = init_params(cfg, 4, 3, seed=0, cross_domain=True)
    assert params.layers[0].group == SHARED
    assert params.layers[1].group == LOCAL
    shared = flatten(params, group=SHARED)
    local = flatten(params, group=LOCAL)
    assert shared.values.size == 4 * 5 + 5
    assert local.values.size == 5 * 3 + 3
    assert flatten(params).values.size == shared.values.size + local.values.size


def test_unflatten_replaces_only_named_layers():
    cfg = ModelConfig(n_layers=2, hidden_dim=5)
    params = init_params(cfg, 4, 3, seed=0, cross_domain=True)
    shared = flatten(params, group=SHARED)
    new = unflatten(
        FlatVector(values=np.zeros_like(shared.values), layout=shared.layout), params
    )
    assert np.all(new.layers[0].weight == 0.0)
    np.testing.assert_array_equal(new.layers[1].weight, params.layers[1].weight)


def test_unflatten_layout_mismatch_errors():
    cfg = ModelConfig(n_layers=2, hidden_dim=5)
    params = init_params(cfg, 4, 3, seed=0)
    other = init_params(ModelConfig(n_layers=2, hidden_dim=6), 4, 3, seed=0)
    flat = flatten(params)
    with pytest.raises(InputError):
        unflatten(flat, other)


def test_init_params_deterministic_and_bounded():
    cfg = ModelConfig(n_layers=2, hidden_dim=8)
    a = init_params(cfg, 10, 4, seed=5)
    b = init_params(cfg, 10, 4, seed=5)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)
        assert np.all(la.bias == 0.0)
    s0 = np.sqrt(6.0 / (10 + 8))
    assert np.max(np.abs(a.layers[0].weight)) <= s0
    c = init_params(cfg, 10, 4, seed=6)
    assert np.any(c.layers[0].weight != a.layers[0].weight)


def test_gradient_refuses_a_model_of_three_layers_by_name():
    # backpropagation is written for 1 or 2 layers; a deeper model is an
    # InputError naming its layer count, not a bare numpy error
    g, adj, cfg, params = _random_case(0)
    deep = ParameterSet(layers=params.layers[:1] + (
        Layer(weight=np.ones((cfg.hidden_dim, cfg.hidden_dim)), bias=None, group=SHARED),)
        + params.layers[1:])
    with pytest.raises(InputError, match="layers must be 1 or 2, not 3"):
        gradient(stack([deep]), *_one_graph(adj, g.features, g.labels,
                                            np.flatnonzero(g.train_mask)))


def test_model_config_validation():
    with pytest.raises(InputError, match="layers must be 1 or 2, not 3"):
        ModelConfig(n_layers=3)
    with pytest.raises(InputError):
        ModelConfig(n_layers=1, activation="tanh")
    with pytest.raises(InputError):
        init_params(ModelConfig(n_layers=1), 0, 2, seed=0)
    with pytest.raises(InputError):
        ModelConfig(n_layers=1, hidden_dim=0)
    # 1.0 and True pass a membership test in (1, 2); 2.5 fails only mid-round
    for name, value in (("n_layers", 1.0), ("n_layers", True), ("hidden_dim", 2.5),
                        ("hidden_dim", True)):
        with pytest.raises(InputError, match=f"{name} must be an integer, not {value!r}"):
            ModelConfig(**{name: value})
    # any non-empty string is true, so "false" would build bias vectors
    for value in ("false", 0, 1, None):
        with pytest.raises(InputError, match=f"bias must be a bool, not {value!r}"):
            ModelConfig(bias=value)

