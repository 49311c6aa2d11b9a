import dataclasses
import hashlib
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgeo import (
    AggregatorConfig,
    InputError,
    RoundUpdates,
    align_regulate,
    initial_reference,
    proxy_map,
    regulate_and_aggregate,
    sensitivity_normalize,
    subspace_project,
    update_reference,
)
from fedgeo import server
from fedgeo.model import SHARED, FlatVector, LayerSpec, layer_slices
from fedgeo.server import (
    _PROXY_SEED,
    FALLBACKS,
    MODES,
    REFERENCES,
    WEIGHTINGS,
    ProxyVector,
    ReferenceStack,
    RunLayout,
    _appended,
    _sign_projection,
    _top_directions,
    check_projection,
)


# one client's row of a round, as the tests below write it
Update = namedtuple("Update", "client_id delta n_train")


def _round(updates):
    """The RoundUpdates of ``updates``, which share one layout."""
    return RoundUpdates(np.stack([u.delta.values for u in updates]),
                        RunLayout(((0, len(updates)),), tuple(int(u.client_id) for u in updates),
                                  tuple(int(u.n_train) for u in updates),
                                  updates[0].delta.layout))


def _scalar_update(client_id, w, n_train=1):
    layout = (LayerSpec(index=0, group=SHARED, w_shape=(1, 1), b_size=0),)
    return Update(
        client_id=client_id,
        delta=FlatVector(values=np.array([float(w)]), layout=layout),
        n_train=n_train,
    )


def _layout_two(d1=3, d2=2):
    # two bias-free square-ish layers for block structure tests
    return (
        LayerSpec(index=0, group=SHARED, w_shape=(1, d1), b_size=0),
        LayerSpec(index=1, group=SHARED, w_shape=(1, d2), b_size=0),
    )


def _update_two(client_id, values, n_train=1):
    layout = _layout_two()
    return Update(
        client_id=client_id,
        delta=FlatVector(values=np.asarray(values, dtype=float), layout=layout),
        n_train=n_train,
    )


def _one_run(r, basis):
    """The one-run stack of reference ``r``, an empty window and the (d, b) ``basis``."""
    return ReferenceStack(r=r[None], window=np.zeros((1, 0, len(r))),
                          fill=np.zeros(1, dtype=np.intp), basis=basis[None],
                          rank=np.array([basis.shape[1]]))


def _run(stack, i):
    """Run i's reference, window (its rows, oldest first) and (d, rank) basis."""
    return (stack.r[i], stack.window[i, stack.window.shape[1] - stack.fill[i]:],
            stack.basis[i, :, :stack.rank[i]])


def _directions(w, m):
    """The (d, rank) basis ``_top_directions`` gives the one (d x n) window ``w``."""
    q, rank = _top_directions(w[None], m)
    return q[0, :, :rank[0]]


def _check_state(stack):
    # what every stack a round returns holds: a finite reference, an
    # orthonormal basis in each run's first rank columns and zeros after,
    # and zeros before each run's last fill window rows
    assert np.isfinite(stack.r).all()
    n = stack.window.shape[1]
    for i, (fill, rank) in enumerate(zip(stack.fill.tolist(), stack.rank.tolist())):
        basis = stack.basis[i, :, :rank]
        assert np.max(np.abs(basis.T @ basis - np.eye(rank)), initial=0.0) <= 1e-10
        assert not stack.basis[i, :, rank:].any()
        assert not stack.window[i, :n - fill].any()


def test_aggregator_config_validation():
    with pytest.raises(InputError):
        AggregatorConfig(mode="median")
    with pytest.raises(InputError):
        AggregatorConfig(alpha=1.0)
    with pytest.raises(InputError):
        AggregatorConfig(beta=-0.1)
    with pytest.raises(InputError):
        AggregatorConfig(epsilon=0.0)
    with pytest.raises(InputError):
        AggregatorConfig(epsilon="median")
    for value in (float("inf"), float("nan")):
        with pytest.raises(InputError, match=f"epsilon must be a finite positive number or "
                                             f"'adaptive', not {value}"):
            AggregatorConfig(epsilon=value)
    with pytest.raises(InputError):
        AggregatorConfig(subspace_dim=9, window=8)
    with pytest.raises(InputError):
        AggregatorConfig(weights="by_loss")
    # a float or bool count would fail only mid-round, or count as 1
    for name, value in (("window", 2.5), ("window", True), ("subspace_dim", 1.5),
                        ("subspace_dim", False), ("proxy_dim", 2.5), ("proxy_dim", True)):
        with pytest.raises(InputError, match=f"{name} must be an integer, not {value!r}"):
            AggregatorConfig(**{name: value})
    AggregatorConfig(window=np.int64(4), subspace_dim=np.int64(2), proxy_dim=None)
    # a bool is not a number here: False would pass as alpha 0, True as epsilon 1
    for name, value in (("alpha", False), ("beta", True), ("epsilon", True),
                        ("alpha", "0.5")):
        with pytest.raises(InputError, match=f"{name} must be a number, not {value!r}"):
            AggregatorConfig(**{name: value})
    AggregatorConfig(alpha=0, beta=np.float64(0.5), epsilon=2)


def test_proxy_map_scalar_signs():
    cfg = AggregatorConfig()
    layout = (LayerSpec(index=0, group=SHARED, w_shape=(1, 1), b_size=0),)
    plus = proxy_map(FlatVector(values=np.array([1.0]), layout=layout), cfg)
    minus = proxy_map(FlatVector(values=np.array([-1.0]), layout=layout), cfg)
    assert plus.values[0] == pytest.approx(1.0, abs=1e-11)
    assert minus.values[0] == pytest.approx(-1.0, abs=1e-11)
    assert plus.layer_norms == (1.0,)


def test_proxy_map_two_layer_mass_split():
    # layer norms 3 and 1: relative masses 0.75 / 0.25 along each
    # layer's unit direction
    cfg = AggregatorConfig()
    delta = FlatVector(values=np.array([3.0, 0.0, 0.0, 0.0, 1.0]),
                       layout=_layout_two())
    z = proxy_map(delta, cfg)
    np.testing.assert_allclose(z.values, [0.75, 0.0, 0.0, 0.0, 0.25], atol=1e-11)
    assert z.layer_norms == (3.0, 1.0)
    assert z.blocks == ((0, 3), (3, 5))


def test_proxy_map_zero_delta_is_zero_proxy():
    cfg = AggregatorConfig()
    z = proxy_map(FlatVector(values=np.zeros(5), layout=_layout_two()), cfg)
    assert np.all(z.values == 0.0)
    assert np.linalg.norm(z.values) == 0.0


def test_proxy_map_norm_bounded_by_one():
    cfg = AggregatorConfig()
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta = FlatVector(values=rng.normal(size=5), layout=_layout_two())
        assert np.linalg.norm(proxy_map(delta, cfg).values) <= 1.0 + 1e-12


def test_proxy_map_rejects_non_finite():
    cfg = AggregatorConfig()
    bad = FlatVector(values=np.array([1.0, np.nan, 0.0, 0.0, 0.0]),
                     layout=_layout_two())
    with pytest.raises(InputError):
        proxy_map(bad, cfg)


def test_proxy_map_reduction_applies_fixed_projection():
    cfg = AggregatorConfig(proxy_dim=3)
    rng = np.random.default_rng(1)
    delta = FlatVector(values=rng.normal(size=5), layout=_layout_two())
    z1 = proxy_map(delta, cfg)
    z2 = proxy_map(delta, cfg)
    assert z1.values.shape == (3,)
    np.testing.assert_array_equal(z1.values, z2.values)  # run-constant matrix
    assert z1.blocks == ((0, 3),)
    # the projection is linear: doubling the input doubles the output
    z3 = proxy_map(
        FlatVector(values=2.0 * delta.values, layout=delta.layout), cfg
    )
    np.testing.assert_allclose(z3.values, z1.values, atol=1e-12)  # scale-free map


def test_proxy_map_auto_reduction_threshold():
    cfg = AggregatorConfig()  # proxy_dim auto
    small = FlatVector(values=np.ones(5), layout=_layout_two())
    assert proxy_map(small, cfg).values.shape == (5,)  # under 4096: untouched


def test_sign_projection_draw_is_pinned():
    # the run-constant matrix of a 4680-long proxy under the default
    # seed: a rewrite that changes its draw, dtype or order moves every
    # projected proxy
    p = _sign_projection(4680, 1024)
    assert p.dtype == np.float64 and p.shape == (4680, 1024)
    assert hashlib.sha256(p.tobytes()).hexdigest() == (
        "ee3545c7a074e73131a642f2e2b0d570479b7b1ac731478dd5fd8dd703fdd44a"
    )
    # every caller shares the cached matrix, so no caller may write it
    with pytest.raises(ValueError):
        p[0, 0] = 0.0
    assert _sign_projection(4680, 1024) is p and p[0, 0] in (-1.0, 1.0)


def test_sign_projection_row_blocks_match_the_one_shot_draw(monkeypatch):
    # 10 rows in blocks of 3: three whole blocks and a short last one, of
    # 21 and 7 draws, so a block that dropped a buffered half of a 64-bit
    # output would shift the stream
    monkeypatch.setattr(server, "_SIGN_ROWS", 3)
    _sign_projection.cache_clear()
    try:
        p = _sign_projection(10, 7)
    finally:
        _sign_projection.cache_clear()
    want = 2.0 * np.random.default_rng(_PROXY_SEED).integers(0, 2, size=(10, 7)) - 1.0
    assert p.dtype == want.dtype and p.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        p[0, 0] = 0.0


@pytest.mark.parametrize("shape", [(4680, 1024), (300, 7), (259, 1023), (1, 1)])
def test_sign_projection_is_numpys_integers_draw(shape):
    # the matrix reads bits straight from the bit generator on the strength
    # of how NumPy draws integers(0, 2) (see _sign_projection); a NumPy
    # whose draw differs fails here. An odd width, rows that are not a
    # multiple of _SIGN_ROWS and a single entry included
    _sign_projection.cache_clear()
    try:
        p = _sign_projection(*shape)
    finally:
        _sign_projection.cache_clear()
    want = 2.0 * np.random.default_rng(_PROXY_SEED).integers(0, 2, shape) - 1.0
    assert _PROXY_SEED == 97
    assert p.dtype == want.dtype and p.shape == shape and p.tobytes() == want.tobytes()
    assert not p.flags.writeable


def test_sign_projection_draw_holds_one_matrix():
    # NumPy reports its buffers to tracemalloc: the one-shot draw held an
    # int64 copy and a 2.0 * x copy beside the 36.6 MiB matrix (2x it)
    _sign_projection.cache_clear()
    tracemalloc.start()
    try:
        p = _sign_projection(4680, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _sign_projection.cache_clear()
    assert peak < 1.25 * p.nbytes, (peak, p.nbytes)


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4), st.booleans()),
                    min_size=1, max_size=3),
    k=st.integers(1, 6),
    proxy_dim=st.sampled_from([None, 0, 3]),
    zero_ref=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_proxies_match_proxy_map(shapes, k, proxy_dim, zero_ref, seed):
    # a round projects its proxies in one stacked product; each client's
    # proxy_norm and cos_ref match a proxy_map of its delta alone,
    # bitwise when nothing is projected
    rng = np.random.default_rng(seed)
    layout = tuple(
        LayerSpec(index=i, group=SHARED, w_shape=(a, b), b_size=b if bias else 0)
        for i, (a, b, bias) in enumerate(shapes)
    )
    size = sum(s.size for s in layout)
    projected = bool(proxy_dim) and size > proxy_dim
    d = proxy_dim if projected else size
    cfg = AggregatorConfig(mode="ggrs", proxy_dim=proxy_dim)
    r = np.zeros(d) if zero_ref else rng.standard_normal(d)
    ref = _one_run(r, np.zeros((d, 0)))
    updates = [
        Update(client_id=int(c), n_train=1,
                    delta=FlatVector(values=rng.standard_normal(size)
                                     * rng.choice([0.0, 1e-3, 1.0, 100.0]),
                                     layout=layout))
        for c in rng.choice(20, size=k, replace=False)
    ]
    _, _, report = regulate_and_aggregate(_round(updates), ref, cfg)

    alone = {u.client_id: proxy_map(u.delta, cfg) for u in updates}
    # uniform weights: a zero reference falls back to the lowest id's proxy
    r_eff = alone[min(alone)].values if zero_ref else r
    r_norm = float(np.linalg.norm(r_eff))
    assert len(report.clients) == k
    for row in report.clients:
        z = alone[row.client_id]
        z_norm = float(np.linalg.norm(z.values))
        cos_ref = 0.0
        if z_norm > 0.0 and r_norm > 0.0:
            cos_ref = float(np.clip(z.values @ r_eff / (z_norm * r_norm), -1.0, 1.0))
        if projected:
            assert abs(row.proxy_norm - z_norm) <= 1e-12
            assert abs(row.cos_ref - cos_ref) <= 1e-12
        else:
            assert row.proxy_norm == z_norm
            assert row.cos_ref == cos_ref


def test_update_reference_ema_arithmetic():
    ref = initial_reference(3)
    z = ProxyVector(values=np.array([0.6, 0.0, 0.8]), layer_norms=(1.0,),
                    blocks=((0, 3),))
    cfg = AggregatorConfig(mode="ggrs", alpha=0.9)
    new = update_reference(ref, z.values[None], [np.array([1.0])], cfg)
    np.testing.assert_allclose(new.r[0], 0.1 * z.values, atol=1e-15)
    assert new.fill[0] == 1


def test_update_reference_cancellation_keeps_reference():
    ref = initial_reference(1)
    zp = ProxyVector(values=np.array([1.0]), layer_norms=(1.0,), blocks=((0, 1),))
    zm = ProxyVector(values=np.array([-1.0]), layer_norms=(1.0,), blocks=((0, 1),))
    cfg = AggregatorConfig(alpha=0.9)
    new = update_reference(ref, np.stack([zp.values, zm.values]), [np.array([0.5, 0.5])], cfg)
    assert new.r[0, 0] == 0.0


def test_update_reference_window_eviction():
    cfg = AggregatorConfig(mode="ggrs", window=4, subspace_dim=2)
    ref = initial_reference(2)
    for i in range(6):
        z = ProxyVector(values=np.array([float(i), 1.0]), layer_norms=(1.0,),
                        blocks=((0, 2),))
        ref = update_reference(ref, z.values[None], [np.array([1.0])], cfg)
    window = _run(ref, 0)[1]
    assert len(window) == 4
    assert window[0][0] == 2.0  # oldest two evicted
    assert window[-1][0] == 5.0


def test_update_reference_weights_must_sum_to_one():
    ref = initial_reference(1)
    z = ProxyVector(values=np.array([1.0]), layer_norms=(1.0,), blocks=((0, 1),))
    with pytest.raises(InputError):
        update_reference(ref, z.values[None], [np.array([0.7])], AggregatorConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_update_reference_rejects_non_finite_proxies(bad):
    ref = initial_reference(2)
    proxies = np.array([[0.6, 0.8], [bad, 0.0]])
    with pytest.raises(InputError, match="finite"):
        update_reference(ref, proxies, [np.array([0.5, 0.5])], AggregatorConfig())


def test_basis_empty_while_window_underfull():
    cfg = AggregatorConfig(mode="ggrs", window=8, subspace_dim=4)
    ref = initial_reference(3)
    rng = np.random.default_rng(0)
    for i in range(3):  # 3 < m = 4
        z = ProxyVector(values=rng.normal(size=3), layer_norms=(1.0,),
                        blocks=((0, 3),))
        ref = update_reference(ref, z.values[None], [np.array([1.0])], cfg)
        assert _run(ref, 0)[2].shape == (3, 0)


def test_basis_of_identical_vectors_is_rank_one():
    cfg = AggregatorConfig(mode="ggrs", window=8, subspace_dim=4)
    ref = initial_reference(3)
    v = np.array([1.0, 2.0, 2.0])
    for _ in range(4):
        z = ProxyVector(values=v.copy(), layer_norms=(1.0,), blocks=((0, 3),))
        ref = update_reference(ref, z.values[None], [np.array([1.0])], cfg)
    basis = _run(ref, 0)[2]
    assert basis.shape == (3, 1)
    unit = v / np.linalg.norm(v)
    assert abs(abs(basis[:, 0] @ unit) - 1.0) < 1e-9


def test_subspace_disabled_when_m_zero():
    cfg = AggregatorConfig(mode="ggrs", window=4, subspace_dim=0)
    ref = initial_reference(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = ProxyVector(values=rng.normal(size=3), layer_norms=(1.0,),
                        blocks=((0, 3),))
        ref = update_reference(ref, z.values[None], [np.array([1.0])], cfg)
    assert _run(ref, 0)[2].shape == (3, 0)


def test_a_plain_server_keeps_its_reference_but_no_window_or_basis():
    # only the subspace gate reads the window and its basis, so a plain
    # server keeps neither; its reference is the bits a regulating one keeps
    rng = np.random.default_rng(3)
    plain = AggregatorConfig(mode="plain", window=6, subspace_dim=2)
    ggrs = dataclasses.replace(plain, mode="ggrs")
    kept = refreshed = initial_reference(4, runs=2)
    weights = [np.full(2, 0.5), np.full(3, 1.0 / 3.0)]
    for _ in range(4):
        proxies = rng.normal(size=(5, 4))
        kept = update_reference(kept, proxies, weights, plain)
        refreshed = update_reference(refreshed, proxies, weights, ggrs)
    assert refreshed.rank.tolist() == [2, 2]  # past m proxies in every run
    assert kept.rank.tolist() == [0, 0] and kept.basis.shape == (2, 4, 0)
    assert kept.fill.tolist() == [0, 0] and kept.window.shape == (2, 0, 4)
    assert kept.r.shape == refreshed.r.shape and kept.r.tobytes() == refreshed.r.tobytes()


def test_a_plain_round_computes_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a plain round computed a basis")
    monkeypatch.setattr(server, "_top_directions", refuse)
    rng = np.random.default_rng(4)
    cfg = AggregatorConfig(mode="plain", window=8, subspace_dim=2)
    ref = initial_reference(5)
    for _ in range(4):
        updates = [_update_two(i, rng.normal(size=5)) for i in range(3)]
        _, ref, _ = regulate_and_aggregate(_round(updates), ref, cfg)
    assert ref.fill.tolist() == [0] and ref.rank.tolist() == [0]


def test_top_directions_match_svd_oracle():
    # dual implementation: the Gram-matrix eigendecomposition against
    # numpy's SVD, compared as projectors (individual vectors may differ
    # by sign)
    rng = np.random.default_rng(7)
    for trial in range(10):
        d, n, m = 12, 8, 3
        w = rng.normal(size=(d, n))
        basis = _directions(w, m)
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        oracle = u[:, :m]
        p_ours = basis @ basis.T
        p_svd = oracle @ oracle.T
        assert np.linalg.norm(p_ours - p_svd) < 1e-5
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 12),
    s=st.lists(st.sampled_from([0.0, 1e-6, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=8),
    repeats=st.lists(st.integers(0, 7), max_size=4),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_directions_properties(d, s, repeats, m, seed):
    # window = U diag(s) V^T with random orthonormal factors, then some of
    # its columns repeated; s mixes zeros, ties and a 1e-6 tail that the
    # 1e-10 * trace rank cut must drop next to order-one values
    rng = np.random.default_rng(seed)
    r = min(d, len(s))
    u = np.linalg.qr(rng.standard_normal((d, r)))[0]
    v = np.linalg.qr(rng.standard_normal((len(s), r)))[0]
    w = u @ np.diag(s[:r]) @ v.T
    w = np.concatenate([w, w[:, [i % len(s) for i in repeats]]], axis=1)

    basis = _directions(w, m)
    k = basis.shape[1]
    assert np.max(np.abs(basis.T @ basis - np.eye(k)), initial=0.0) < 1e-10
    lead = np.argmax(np.abs(basis), axis=0)
    assert np.all(basis[lead, np.arange(k)] > 0.0)
    u_svd, sv, _ = np.linalg.svd(w, full_matrices=False)
    assert k == min(m, int(np.sum(sv**2 > 1e-10 * np.sum(sv**2))))
    if 0 < k < sv.size and sv[k - 1] ** 2 - sv[k] ** 2 <= 1e-3 * sv[0] ** 2:
        return  # no spectral gap after k: the top-k subspace is not unique
    oracle = u_svd[:, :k]
    assert np.max(np.abs(basis @ basis.T - oracle @ oracle.T)) < 1e-6


def test_align_regulate_examples():
    r = np.array([1.0])
    (kept,), (f1,) = align_regulate(np.array([[-1.0]]), r, beta=0.5)
    assert f1 == 0.5
    assert kept[0] == -0.5
    (same,), (f2,) = align_regulate(np.array([[2.0]]), r, beta=0.5)
    assert f2 == 1.0
    assert same[0] == 2.0
    # orthogonal sits on the pass side of the boundary
    z = np.array([0.0, 1.0])
    (ortho,), (f3,) = align_regulate(z[None], np.array([1.0, 0.0]), beta=0.5)
    assert f3 == 1.0
    np.testing.assert_array_equal(ortho, z)


def test_align_regulate_scale_invariant_decision():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(size=4)
        r = rng.normal(size=4)
        _, f = align_regulate(z[None], r, beta=0.3)
        _, f_scaled = align_regulate(5.0 * z[None], 0.01 * r, beta=0.3)
        assert f == f_scaled


def test_subspace_project_hand_example():
    basis = np.array([[1.0], [0.0]])
    z = np.array([3.0, 4.0])
    (proj,), (retention,) = subspace_project(z[None], basis, blocks=((0, 2),))
    np.testing.assert_allclose(proj, [3.0, 0.0], atol=1e-15)
    assert retention[0] == pytest.approx(0.6, abs=1e-9)


def test_subspace_project_fixed_point_in_span():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    z = q @ np.array([1.3, -0.4])
    (proj,), (retention,) = subspace_project(z[None], q, blocks=((0, 5),))
    np.testing.assert_allclose(proj, z, atol=1e-12)
    assert retention[0] > 1.0 - 1e-9


def test_subspace_project_empty_basis_is_identity():
    z = np.array([1.0, 2.0])
    (proj,), (retention,) = subspace_project(z[None], np.zeros((2, 0)), blocks=((0, 2),))
    np.testing.assert_array_equal(proj, z)
    assert retention.tolist() == [1.0]


def test_sensitivity_normalize_examples():
    z = np.array([2.0, 0.0])
    (capped,), (f,) = sensitivity_normalize(z[None], 1.0)
    assert f == 0.5
    assert np.linalg.norm(capped) == pytest.approx(1.0, abs=1e-15)

    small = np.array([0.3])
    (same,), (f2,) = sensitivity_normalize(small[None], 1.0)
    assert f2 == 1.0
    np.testing.assert_array_equal(same, small)

    (zero,), (f3,) = sensitivity_normalize(np.zeros((1, 2)), 1.0)
    assert f3 == 1.0
    assert np.all(zero == 0.0)


def test_plain_mode_is_exact_weighted_mean():
    rng = np.random.default_rng(5)
    updates = [_update_two(i, rng.normal(size=5), n_train=i + 1) for i in range(3)]
    for weighting in ("uniform", "by_train_count"):
        cfg = AggregatorConfig(mode="plain", weights=weighting)
        ref = initial_reference(5)
        out, _, report = regulate_and_aggregate(_round(updates), ref, cfg)
        if weighting == "uniform":
            w = np.full(3, 1.0 / 3.0)
        else:
            counts = np.array([1.0, 2.0, 3.0])
            w = counts / counts.sum()
        expected = np.zeros(5)
        for wi, u in zip(w, updates):
            expected += wi * u.delta.values
        np.testing.assert_array_equal(out[0], expected)  # bit-for-bit
        assert all(c.coefficients == (1.0, 1.0) for c in report.clients)


def test_toy_plain_and_regulated_weights():
    updates = [_scalar_update(0, 1.0), _scalar_update(1, -1.0)]
    plain, _, _ = regulate_and_aggregate(
        _round(updates), initial_reference(1), AggregatorConfig(mode="plain")
    )
    assert plain[0, 0] == 0.0

    reg, _, report = regulate_and_aggregate(
        _round(updates), initial_reference(1), AggregatorConfig(mode="ggrs", beta=0.5)
    )
    assert reg[0, 0] == 0.25
    assert report.fallback_used
    assert not report.clients[0].attenuated
    assert report.clients[1].attenuated
    assert report.clients[1].align_factor == 0.5


def test_identical_updates_make_regulation_a_no_op():
    rng = np.random.default_rng(11)
    values = rng.normal(size=5)
    updates = [_update_two(i, values.copy()) for i in range(3)]
    ref = initial_reference(5)
    out_plain, _, _ = regulate_and_aggregate(
        _round(updates), ref, AggregatorConfig(mode="plain")
    )
    out_reg, _, report = regulate_and_aggregate(
        _round(updates), initial_reference(5), AggregatorConfig(mode="ggrs")
    )
    assert np.max(np.abs(out_plain - out_reg)) < 1e-12
    for c in report.clients:
        assert c.align_factor == 1.0
        assert c.clip_factor == 1.0


def test_regulated_norm_never_exceeds_raw_norm():
    rng = np.random.default_rng(13)
    cfg = AggregatorConfig(mode="ggrs", beta=0.4, window=4, subspace_dim=2)
    ref = initial_reference(5)
    for round_index in range(8):
        updates = [_update_two(i, rng.normal(size=5)) for i in range(4)]
        out, ref, report = regulate_and_aggregate(_round(updates), ref, cfg)
        for u, row in zip(updates, report.clients):
            regulated = u.delta.values.copy()
            slices = ((0, 3), (3, 5))
            for (a, b), c in zip(slices, row.coefficients):
                regulated[a:b] *= c
            assert np.linalg.norm(regulated) <= np.linalg.norm(u.delta.values) + 1e-15
            assert all(0.0 <= c <= 1.0 for c in row.coefficients)


def test_adaptive_epsilon_clips_outlier_norm():
    # clients share a direction but one arrives 10x larger: the median
    # cap must clip it and leave the others alone
    base = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    updates = [
        _update_two(0, base),
        _update_two(1, base),
        _update_two(2, 10.0 * base),
    ]
    cfg = AggregatorConfig(mode="ggrs")
    _, _, report = regulate_and_aggregate(_round(updates), initial_reference(5), cfg)
    # the proxy map is scale-free up to its 1e-12 normalizer guard, so the
    # large client is clipped only at the noise floor
    assert all(c.clip_factor == pytest.approx(1.0, abs=1e-9)
               for c in report.clients)

    # fixed epsilon below the proxy norm clips everyone equally
    cfg2 = AggregatorConfig(mode="ggrs", epsilon=0.25)
    _, _, report2 = regulate_and_aggregate(_round(updates), initial_reference(5), cfg2)
    for c in report2.clients:
        assert c.clip_factor == pytest.approx(0.25, rel=1e-9)


def test_fallback_none_passes_everything_first_round():
    updates = [_scalar_update(0, 1.0), _scalar_update(1, -1.0)]
    cfg = AggregatorConfig(mode="ggrs", beta=0.5, fallback="none")
    out, _, report = regulate_and_aggregate(_round(updates), initial_reference(1), cfg)
    # zero reference: inner products are 0, the >= 0 boundary passes both
    assert out[0, 0] == 0.0
    assert not report.fallback_used
    assert not any(c.attenuated for c in report.clients)


def test_reference_source_ablation_changes_ema():
    updates = [_scalar_update(0, 1.0), _scalar_update(1, -1.0)]
    raw_cfg = AggregatorConfig(mode="ggrs", beta=0.5, reference="raw")
    reg_cfg = AggregatorConfig(mode="ggrs", beta=0.5, reference="regulated")
    _, ref_raw, _ = regulate_and_aggregate(_round(updates), initial_reference(1), raw_cfg)
    _, ref_reg, _ = regulate_and_aggregate(_round(updates), initial_reference(1), reg_cfg)
    # raw proxies cancel; regulated proxies leave 0.1 * (1 - 0.5)/2
    assert ref_raw.r[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert ref_reg.r[0, 0] == pytest.approx(0.1 * 0.25, rel=1e-9)


def test_duplicate_client_ids_rejected():
    updates = [_scalar_update(0, 1.0), _scalar_update(0, -1.0)]
    with pytest.raises(InputError):
        regulate_and_aggregate(_round(updates), initial_reference(1), AggregatorConfig())


def test_layout_mismatch_rejected():
    # five-long rows under a one-entry layout
    with pytest.raises(InputError):
        regulate_and_aggregate(
            RoundUpdates(np.ones((2, 5)), RunLayout(((0, 2),), (0, 1), (1, 1),
                                                    _scalar_update(0, 1.0).delta.layout)),
            initial_reference(1), AggregatorConfig())


def test_empty_round_rejected():
    with pytest.raises(InputError):
        regulate_and_aggregate(
            RoundUpdates(np.zeros((0, 1)), RunLayout(((0, 0),), (), (),
                                                     _scalar_update(0, 1.0).delta.layout)),
            initial_reference(1), AggregatorConfig())


def test_reference_norm_bounded_by_history():
    # EMA convexity: ||r_t|| can never exceed the largest round-mean norm
    rng = np.random.default_rng(17)
    cfg = AggregatorConfig(mode="ggrs")
    ref = initial_reference(5)
    peak = 0.0
    for _ in range(12):
        updates = [_update_two(i, rng.normal(size=5)) for i in range(3)]
        proxies = [proxy_map(u.delta, cfg) for u in updates]
        mean = np.mean([z.values for z in proxies], axis=0)
        peak = max(peak, np.linalg.norm(mean))
        _, ref, _ = regulate_and_aggregate(_round(updates), ref, cfg)
        assert np.linalg.norm(ref.r) <= peak + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4), st.booleans()),
                    min_size=1, max_size=3),
    k=st.integers(1, 6),
    rounds=st.integers(1, 4),
    mode=st.sampled_from(["plain", "ggrs"]),
    weights=st.sampled_from(["uniform", "by_train_count"]),
    epsilon=st.sampled_from(["adaptive", 0.05, 1.0, 10.0]),
    window=st.integers(1, 6),
    subspace_dim=st.integers(0, 6),
    proxy_dim=st.sampled_from([None, 0, 3]),
    reference=st.sampled_from(["raw", "regulated"]),
    fallback=st.sampled_from(["largest", "none"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gate_pipeline_properties(shapes, k, rounds, mode, weights, epsilon, window,
                                  subspace_dim, proxy_dim, reference, fallback, seed):
    # random layouts and updates over several rounds that thread ref
    # through: coefficients in [0, 1], order independence, plain = the
    # weighted mean, and an orthonormal basis of rank <= subspace_dim
    rng = np.random.default_rng(seed)
    layout = tuple(
        LayerSpec(index=i, group=SHARED, w_shape=(a, b), b_size=b if bias else 0)
        for i, (a, b, bias) in enumerate(shapes)
    )
    size = sum(s.size for s in layout)
    cfg = AggregatorConfig(
        mode=mode, weights=weights, epsilon=epsilon, window=window,
        subspace_dim=min(subspace_dim, window), proxy_dim=proxy_dim,
        reference=reference, fallback=fallback,
    )
    ref = initial_reference(size if not proxy_dim or size <= proxy_dim else proxy_dim)
    for r in range(rounds):
        ids = rng.choice(20, size=k, replace=False)
        updates = [
            Update(client_id=int(c), n_train=int(rng.integers(1, 50)),
                        delta=FlatVector(values=rng.standard_normal(size)
                                         * rng.choice([0.0, 1e-3, 1.0, 100.0]),
                                         layout=layout))
            for c in ids
        ]
        got, new_ref, report = regulate_and_aggregate(_round(updates), ref, cfg)
        perm = [updates[i] for i in rng.permutation(k)]
        got_p, new_ref_p, report_p = regulate_and_aggregate(_round(perm), ref, cfg)
        assert got.tobytes() == got_p.tobytes()
        assert new_ref.r.tobytes() == new_ref_p.r.tobytes()
        assert new_ref.basis.tobytes() == new_ref_p.basis.tobytes()
        assert repr(report) == repr(report_p)

        for row in report.clients:
            for f in (row.align_factor, row.clip_factor, *row.retention, *row.coefficients):
                assert 0.0 <= f <= 1.0
        ordered = sorted(updates, key=lambda u: u.client_id)
        if weights == "uniform":
            w = np.full(k, 1.0 / k)
        else:
            counts = np.array([u.n_train for u in ordered], dtype=np.float64)
            w = counts / counts.sum()
        # c_{k,l} = align_k * retention_{k,b(l)} * clip_k, where b(l) = l
        # or the single block of a projected proxy
        projected = bool(proxy_dim) and size > proxy_dim
        block_of = [0] * len(layout) if projected else range(len(layout))
        # the report's coefficients are exactly what was applied:
        # sum_k w_k (delta_k * c_{k,l}) in ascending client order
        applied_sum = np.zeros(size)
        for wk, u, row in zip(w, ordered, report.clients):
            assert len(row.retention) == (1 if projected else len(layout))
            assert row.coefficients == tuple(
                row.align_factor * row.retention[b] * row.clip_factor for b in block_of)
            applied = np.concatenate([u.delta.values[a:b] * c for (a, b), c
                                      in zip(layer_slices(layout), row.coefficients)])
            assert np.linalg.norm(applied) <= np.linalg.norm(u.delta.values) * (1 + 1e-12)
            applied_sum += wk * applied
        assert got[0].tobytes() == applied_sum.tobytes()
        expected_c = sum(wk * np.array(row.coefficients) for wk, row in zip(w, report.clients))
        assert np.max(np.abs(np.array(report.layer_coefficients) - expected_c)) <= 1e-15
        if mode == "plain":
            mean = np.zeros(size)
            for wk, u in zip(w, ordered):
                mean += wk * u.delta.values
            assert got[0].tobytes() == mean.tobytes()
            assert all(c == 1.0 for row in report.clients for c in row.coefficients)

        assert new_ref.rank[0] <= cfg.subspace_dim
        _check_state(new_ref)
        ref = new_ref



_SHAPES = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4), st.booleans()),
                   min_size=1, max_size=3)
# every ggrs setting but epsilon, which stays adaptive
_GGRS = st.builds(
    lambda weights, window, m, proxy_dim, reference, fallback: AggregatorConfig(
        mode="ggrs", weights=weights, window=window, subspace_dim=min(m, window),
        proxy_dim=proxy_dim, reference=reference, fallback=fallback),
    st.sampled_from(WEIGHTINGS), st.integers(1, 6), st.integers(0, 6),
    st.sampled_from([None, 0, 3]), st.sampled_from(REFERENCES), st.sampled_from(FALLBACKS),
)


def _layout_of(shapes, proxy_dim):
    """A layout from (rows, cols, bias) triples, its length and its proxy length."""
    layout = tuple(
        LayerSpec(index=i, group=SHARED, w_shape=(a, b), b_size=b if bias else 0)
        for i, (a, b, bias) in enumerate(shapes)
    )
    size = sum(s.size for s in layout)
    return layout, size, size if not proxy_dim or size <= proxy_dim else proxy_dim


@settings(max_examples=100, deadline=None)
@given(shapes=_SHAPES, k=st.integers(1, 6), rounds=st.integers(1, 4), cfg=_GGRS,
       scale=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
def test_adaptive_epsilon_decisions_are_scale_free(shapes, k, rounds, cfg, scale, seed):
    # proxies keep direction and mass only and the adaptive cap is their
    # median, so scaling every update by one c > 0 moves no decision; the
    # coefficients differ only by the proxy map's 1e-12 norm guard
    rng = np.random.default_rng(seed)
    layout, size, dim = _layout_of(shapes, cfg.proxy_dim)
    ref = ref_c = initial_reference(dim)
    for r in range(rounds):
        ids = rng.choice(20, size=k, replace=False)
        n_train = rng.integers(1, 50, size=k)
        values = [rng.standard_normal(size) * rng.choice([0.0, 1e-3, 1.0, 100.0]) for _ in ids]

        def round_of(c):
            return [Update(client_id=int(i), n_train=int(n),
                                delta=FlatVector(values=c * v, layout=layout))
                    for i, n, v in zip(ids, n_train, values)]

        _, ref, report = regulate_and_aggregate(_round(round_of(1.0)), ref, cfg)
        _, ref_c, report_c = regulate_and_aggregate(_round(round_of(scale)), ref_c, cfg)
        for row, row_c in zip(report.clients, report_c.clients):
            assert row.attenuated == row_c.attenuated
            np.testing.assert_allclose(row_c.coefficients, row.coefficients, rtol=0, atol=1e-5)


@settings(max_examples=100, deadline=None)
@given(shapes=_SHAPES, k=st.integers(1, 6), rounds=st.integers(1, 6), cfg=_GGRS,
       seed=st.integers(0, 2**32 - 1))
def test_identical_updates_make_ggrs_equal_plain(shapes, k, rounds, cfg, seed):
    # K copies of one direction, round after round, under adaptive epsilon:
    # each proxy agrees with the reference, lies in the window's span and
    # sits at the median norm, so every gate passes it whole
    rng = np.random.default_rng(seed)
    layout, size, dim = _layout_of(shapes, cfg.proxy_dim)
    plain_cfg = dataclasses.replace(cfg, mode="plain")
    direction = rng.standard_normal(size)
    ref = ref_plain = initial_reference(dim)
    for r in range(rounds):
        delta = direction * rng.choice([1e-3, 1.0, 100.0])
        updates = [Update(client_id=i, n_train=int(rng.integers(1, 50)),
                               delta=FlatVector(values=delta.copy(), layout=layout))
                   for i in range(k)]
        got, ref, _ = regulate_and_aggregate(_round(updates), ref, cfg)
        plain, ref_plain, _ = regulate_and_aggregate(_round(updates), ref_plain, plain_cfg)
        assert np.linalg.norm(got - plain) <= 1e-8 * np.linalg.norm(delta)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 12),
    cuts=st.lists(st.integers(1, 30), min_size=1, max_size=3),
    window=st.integers(1, 10),
    m=st.integers(0, 6),
    beta=st.sampled_from([0.0, 0.3, 0.5]),
    epsilon=st.sampled_from([0.0, 0.05, 1.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gates_on_a_stack_give_each_row_its_one_row_bits(k, cuts, window, m, beta, epsilon,
                                                        seed):
    # the three gates act on a (K, d) stack at once; each row's output and
    # factors are bit for bit those of a one-row stack, and those are the
    # per-vector formulas: the sign of z @ r, B @ (B.T @ z), and ratios of
    # np.linalg.norm
    rng = np.random.default_rng(seed)
    blocks = tuple(zip(np.cumsum([0] + cuts[:-1]).tolist(), np.cumsum(cuts).tolist()))
    d = blocks[-1][1]
    z = rng.standard_normal((k, d)) * rng.choice([0.0, 1e-3, 1.0, 100.0], size=(k, 1))
    r = rng.standard_normal(d) * rng.choice([0.0, 1.0])
    basis = _directions(rng.standard_normal((d, window)), m)

    za, fa = align_regulate(z, r, beta)
    zp, ret = subspace_project(za, basis, blocks)
    zc, fc = sensitivity_normalize(zp, epsilon)
    assert fa.shape == fc.shape == (k,) and ret.shape == (k, len(blocks))
    for i in range(k):
        za1, fa1 = align_regulate(z[i:i + 1], r, beta)
        zp1, ret1 = subspace_project(za1, basis, blocks)
        zc1, fc1 = sensitivity_normalize(zp1, epsilon)
        for batch, one in ((za, za1), (fa, fa1), (zp, zp1), (ret, ret1), (zc, zc1), (fc, fc1)):
            assert batch[i].tobytes() == one[0].tobytes()

        assert fa1[0] == (1.0 if float(z[i] @ r) >= 0.0 else beta)
        if basis.shape[1]:
            proj = basis @ (basis.T @ za1[0])
            assert zp1[0].tobytes() == proj.tobytes()
            assert ret1[0].tolist() == [
                min(1.0, np.linalg.norm(proj[a:b]) / (np.linalg.norm(za1[0][a:b]) + 1e-12))
                for a, b in blocks]
        n = float(np.linalg.norm(zp1[0]))
        assert fc1[0] == (min(1.0, epsilon / n) if epsilon > 0.0 and n > 0.0 else 1.0)


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4), st.booleans()),
                    min_size=1, max_size=3),
    k=st.integers(1, 16),
    mode=st.sampled_from(MODES),
    weights=st.sampled_from(WEIGHTINGS),
    seed=st.integers(0, 2**32 - 1),
)
@example(shapes=[(1, 1, False)], k=16, mode="plain", weights="by_train_count", seed=0)
def test_round_delta_is_the_sequential_weighted_sum(shapes, k, mode, weights, seed):
    # the applied delta is sum_k w_k (c_k * d_k), added client by client in
    # ascending id order onto +0.0, bit for bit, with c_k the per-layer
    # coefficients the report gives; one-entry layouts and K > 8 included,
    # where a pairwise reduce would reorder the additions, and rows of
    # signed zeros
    rng = np.random.default_rng(seed)
    layout = tuple(
        LayerSpec(index=i, group=SHARED, w_shape=(a, b), b_size=b if bias else 0)
        for i, (a, b, bias) in enumerate(shapes)
    )
    size = sum(s.size for s in layout)
    ids = rng.choice(40, size=k, replace=False)
    deltas = rng.standard_normal((k, size)) * rng.choice([-0.0, 0.0, 1e-3, 1.0, 100.0],
                                                          size=(k, 1))
    n_train = rng.integers(1, 50, size=k)
    cfg = AggregatorConfig(mode=mode, weights=weights)
    # a reference with a direction and a basis, so that every gate acts
    ref = _one_run(rng.standard_normal(size), _directions(rng.standard_normal((size, 4)), 2))
    updates = RoundUpdates(deltas, RunLayout(((0, k),), tuple(ids.tolist()),
                                             tuple(n_train.tolist()), layout))
    got, _, report = regulate_and_aggregate(updates, ref, cfg)

    order = np.argsort(ids)
    assert [row.client_id for row in report.clients] == ids[order].tolist()
    counts = n_train[order].astype(np.float64)
    w = np.full(k, 1.0 / k) if weights == "uniform" else counts / counts.sum()
    sizes = [b - a for a, b in layer_slices(layout)]
    expected = np.zeros(size)
    for wk, d, row in zip(w, deltas[order], report.clients):
        expected += wk * (d * np.repeat(row.coefficients, sizes))
    assert got[0].tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    shapes=_SHAPES,
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    rounds=st.integers(1, 4),
    mode=st.sampled_from(MODES),
    weights=st.sampled_from(WEIGHTINGS),
    epsilon=st.sampled_from(["adaptive", 0.05, 1.0]),
    window=st.integers(1, 6),
    m=st.integers(0, 6),
    proxy_dim=st.sampled_from([None, 0, 3]),
    reference=st.sampled_from(REFERENCES),
    fallback=st.sampled_from(FALLBACKS),
    seed=st.integers(0, 2**32 - 1),
)
@example(shapes=[(2, 3, True)], sizes=[3, 1, 3, 2], rounds=4, mode="ggrs",
         weights="by_train_count", epsilon="adaptive", window=4, m=2, proxy_dim=3,
         reference="regulated", fallback="largest", seed=1)
def test_a_round_of_runs_gives_each_run_its_one_run_bits(shapes, sizes, rounds, mode, weights,
                                                         epsilon, window, m, proxy_dim,
                                                         reference, fallback, seed):
    # R runs of ragged sizes (one-client runs included) regulated in one
    # call per round, their state one ReferenceStack: each run's global
    # delta, reference (r, window, basis) and report rows are bit for bit
    # those of its own one-run call, round after round. Zero updates leave
    # windows rank-deficient, so the runs' bases differ in width
    rng = np.random.default_rng(seed)
    layout, size, dim = _layout_of(shapes, proxy_dim)
    cfg = AggregatorConfig(mode=mode, weights=weights, epsilon=epsilon, window=window,
                           subspace_dim=min(m, window), proxy_dim=proxy_dim,
                           reference=reference, fallback=fallback)
    stack = initial_reference(dim, len(sizes))
    alone = [initial_reference(dim)] * len(sizes)
    bounds = tuple(zip(np.cumsum([0] + sizes[:-1]).tolist(), np.cumsum(sizes).tolist()))
    for _ in range(rounds):
        # ids restart in every run and come unsorted; a run may send only zeros
        ids = np.concatenate([rng.permutation(20)[:k] for k in sizes])
        scale = rng.choice([0.0, 1e-3, 1.0, 100.0], size=(len(ids), 1))
        scale[np.repeat(rng.random(len(sizes)) < 0.2, sizes)] = 0.0
        n_train = tuple(rng.integers(1, 50, size=len(ids)).tolist())
        batch = RoundUpdates(rng.standard_normal((len(ids), size)) * scale,
                             RunLayout(bounds, tuple(ids.tolist()), n_train, layout))
        deltas, stack, report = regulate_and_aggregate(batch, stack, cfg)
        assert deltas.shape == (len(sizes), size) and report.runs == bounds
        _check_state(stack)
        for r, (a, b) in enumerate(bounds):
            one = RoundUpdates(batch.deltas[a:b], RunLayout(((0, b - a),), tuple(ids[a:b].tolist()),
                                                            n_train[a:b], layout))
            got, alone[r], own = regulate_and_aggregate(one, alone[r], cfg)
            _check_state(alone[r])
            assert deltas[r].tobytes() == got[0].tobytes()
            for mine, theirs in zip(_run(stack, r), _run(alone[r], 0)):
                assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
            for name in ("client_ids", "proxy_norm", "cos_ref", "align_factor", "retention",
                         "clip_factor", "coefficients"):
                assert getattr(report, name)[a:b].tobytes() == getattr(own, name).tobytes()
            for name in ("layer_coefficients", "epsilon", "fallback_used"):
                assert getattr(report, name)[r].tobytes() == getattr(own, name)[0].tobytes()


def test_a_stack_slices_and_unstacks_its_runs():
    # a stack pads its runs' windows and bases to one shape; stack[a:b]
    # and each run's rows of it give each run's own values back
    rng = np.random.default_rng(3)
    refs = [(rng.standard_normal(4), rng.standard_normal((n, 4)),
             _directions(rng.standard_normal((4, 3)), b)) for n, b in ((0, 0), (3, 2), (1, 1))]
    window, basis = np.zeros((3, 3, 4)), np.zeros((3, 4, 2))
    for i, (_, w, q) in enumerate(refs):
        window[i, 3 - len(w):] = w
        basis[i, :, :q.shape[1]] = q
    stack = ReferenceStack(r=np.stack([r for r, _, _ in refs]), window=window,
                           fill=np.array([0, 3, 1]), basis=basis, rank=np.array([0, 2, 1]))
    _check_state(stack)
    for part, first in ((stack, 0), (stack[1:], 1)):
        for i, ref in enumerate(refs[first:]):
            for got, want in zip(_run(part, i), ref):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a fresh stack is the runs' zero state, one row each
    fresh = initial_reference(4, 3)
    assert fresh.r.shape == (3, 4) and not fresh.r.any() and fresh.window.shape == (3, 0, 4)
    assert fresh.basis.shape == (3, 4, 0) and fresh.fill.tolist() == fresh.rank.tolist() == [0] * 3
    with pytest.raises(InputError, match="2 references for 1 runs"):
        regulate_and_aggregate(_round([_scalar_update(0, 1.0)]), initial_reference(1, 2),
                               AggregatorConfig())
    with pytest.raises(InputError, match="1 weight vectors for 2 runs"):
        update_reference(initial_reference(1, 2), np.ones((2, 1)), [np.array([0.5, 0.5])],
                         AggregatorConfig())


def test_round_updates_runs_tile_the_rows():
    layout = _scalar_update(0, 1.0).delta.layout

    def updates(ids, runs):
        return RoundUpdates(np.ones((len(ids), 1)), RunLayout(runs, ids, (1,) * len(ids), layout))

    # ids restart in every run
    lay = updates((0, 1, 0), ((0, 2), (2, 3))).run_layout
    assert [lay.client_ids[a:b] for a, b in lay.runs] == [(0, 1), (0,)]
    assert lay.run_of.tolist() == [0, 0, 1]
    for ids, runs in (((0, 0, 1), ((0, 2), (2, 3))), ((0, 1, 2), ((0, 2),)),
                      ((0, 1, 2), ((0, 1), (2, 3))), ((0, 1, 2), ((0, 0), (0, 3)))):
        with pytest.raises(InputError, match="every run"):
            updates(ids, runs)


def test_sign_matrix_at_the_limit_is_drawn_and_one_entry_over_is_refused(monkeypatch):
    # the limit counts d_in x d_z x 8 bytes; with it made small no test
    # allocates a large matrix
    monkeypatch.setattr(server, "_MAX_SIGN_BYTES", 10 * 3 * 8)
    _sign_projection.cache_clear()
    try:
        assert _sign_projection(10, 3).shape == (10, 3)
        with pytest.raises(InputError, match=r"11 x 3 x 8 = 264-byte matrix, above the limit "
                                             r"of 240 bytes"):
            _sign_projection(11, 3)
        cfg = AggregatorConfig(proxy_dim=3)
        check_projection(cfg, 10)
        with pytest.raises(InputError, match="above the limit"):
            check_projection(cfg, 11)
        with pytest.raises(InputError, match="above the limit"):
            proxy_map(FlatVector(values=np.ones(11), layout=(
                LayerSpec(index=0, group=SHARED, w_shape=(1, 11), b_size=0),)), cfg)
    finally:
        _sign_projection.cache_clear()
    # unprojected proxies need no matrix, however long
    check_projection(AggregatorConfig(proxy_dim=0), 10**9)


@settings(max_examples=100, deadline=None)
@given(
    shapes=_SHAPES,
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    rounds=st.integers(1, 4),
    mode=st.sampled_from(MODES),
    window=st.integers(1, 6),
    m=st.integers(0, 6),
    proxy_dim=st.sampled_from([None, 0, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(shapes=[(2, 3, True)], sizes=[4, 1, 3], rounds=4, mode="ggrs", window=5, m=2,
         proxy_dim=3, seed=5)
def test_a_held_run_layout_gives_the_bits_of_one_built_from_the_tuples(
        shapes, sizes, rounds, mode, window, m, proxy_dim, seed):
    # one RunLayout, held as a Federation holds it and carried by every
    # round under both weightings, gives each round's deltas, stack,
    # report and CSV geometry bit for bit as a RunLayout built fresh from
    # the tuples every round: its cached reads give the bits of a fresh
    # derivation. Runs differ in size and ids come shuffled within each
    # run, so the layout's order is not the identity
    from fedgeo import harness

    rng = np.random.default_rng(seed)
    layout, size, dim = _layout_of(shapes, proxy_dim)
    ids = tuple(np.concatenate([rng.permutation(20)[:k] for k in sizes]).tolist())
    n_train = tuple(rng.integers(1, 50, size=len(ids)).tolist())
    bounds = tuple(zip(np.cumsum([0] + sizes[:-1]).tolist(), np.cumsum(sizes).tolist()))
    held = RunLayout(bounds, ids, n_train, layout)
    stacks = {(w, lay): initial_reference(dim, len(sizes))
              for w in WEIGHTINGS for lay in ("held", "own")}
    for _ in range(rounds):
        deltas = rng.standard_normal((len(ids), size)) * rng.choice(
            [0.0, 1e-3, 1.0, 100.0], size=(len(ids), 1))
        for w in WEIGHTINGS:
            cfg = AggregatorConfig(mode=mode, weights=w, window=window,
                                   subspace_dim=min(m, window), proxy_dim=proxy_dim)
            out = {}
            for lay in ("held", "own"):
                updates = RoundUpdates(deltas, held if lay == "held" else
                                       RunLayout(bounds, ids, n_train, layout))
                assert (updates.run_layout is held) == (lay == "held")
                got, stacks[w, lay], report = regulate_and_aggregate(updates, stacks[w, lay],
                                                                     cfg)
                out[lay] = (got, *dataclasses.astuple(stacks[w, lay]),
                            *(getattr(report, f.name) for f in dataclasses.fields(report)
                              if f.name != "runs"),
                            harness._round_metrics(updates, report, got))
            for a, b in zip(out["held"], out["own"]):
                assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_run_layout_must_match_its_round():
    layout = _scalar_update(0, 1.0).delta.layout
    lay = RunLayout(((0, 2), (2, 3)), (1, 0, 0), (2, 3, 4), layout)
    assert lay.order.tolist() == [1, 0, 2] and lay.ids.tolist() == [0, 1, 0]
    assert lay.weights("by_train_count").flat.tolist() == [3 / 5, 2 / 5, 1.0]
    assert lay.weights("uniform") is lay.weights("uniform")  # built once
    assert not lay.weights("uniform").flat.flags.writeable
    assert RoundUpdates(np.ones((3, 1)), lay).run_layout is lay
    with pytest.raises(InputError, match="do not match 3 clients"):
        RoundUpdates(np.ones((2, 1)), lay)
    # a run bound that is not an integer is refused, not truncated
    for bounds in (((0, 1.5), (1.5, 3)), ((0, True), (True, 3)), ((0, np.float64(2.0)), (2, 3))):
        with pytest.raises(InputError, match="a run bound must be an integer"):
            RunLayout(bounds, (1, 0, 0), (2, 3, 4), layout)
    assert RunLayout(((0, np.int64(2)), (2, 3)), (1, 0, 0), (2, 3, 4), layout).runs == lay.runs
    with pytest.raises(InputError, match="every run"):
        RunLayout(((0, 2),), (0, 0), (1, 1), layout)
    with pytest.raises(InputError, match="n_train"):
        RunLayout(((0, 2),), (0, 1), (1, 0), layout)


def _appended_per_run(ref, proxies, sizes, cap):
    """Each run's window grown by the per-run loop: the reference for the
    one-slice append."""
    n_old = ref.window.shape[1]
    fill = np.minimum(cap, ref.fill + sizes)
    n = int(fill.max())
    window = np.zeros((len(sizes), n, proxies.shape[1]))
    stops = np.cumsum(sizes)
    for i, (b, s, f_old, f) in enumerate(zip(stops, sizes, ref.fill, fill)):
        rows = np.concatenate([ref.window[i, n_old - f_old:], proxies[b - s:b]])
        window[i, n - f:] = rows[len(rows) - f:]
    return window, fill


@settings(max_examples=150, deadline=None)
@given(runs=st.integers(1, 4), size=st.integers(1, 6), fill=st.integers(0, 8),
       pad=st.integers(0, 3), cap=st.integers(0, 10), ragged=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_the_one_slice_append_equals_the_per_run_loop(runs, size, fill, pad, cap, ragged,
                                                      seed):
    # runs of one size and fill append in one slice assignment, others
    # run by run; a window may be wider than the fill (``stack[a:b]``
    # keeps the widest run's width), the cap may be below, at or above
    # the rows appended, and 0 (a plain server)
    rng = np.random.default_rng(seed)
    fills = np.full(runs, min(fill, cap))
    sizes = np.full(runs, size)
    if ragged:
        fills = np.minimum(cap, rng.integers(0, fill + 1, size=runs))
        sizes = rng.integers(1, size + 1, size=runs)
    d = 3
    width = int(fills.max(initial=0)) + pad
    window = np.zeros((runs, width, d))
    for i, f in enumerate(fills):
        window[i, width - f:] = rng.standard_normal((f, d))
    ref = ReferenceStack(r=np.zeros((runs, d)), window=window, fill=fills,
                         basis=np.zeros((runs, d, 0)), rank=np.zeros(runs, dtype=np.intp))
    proxies = rng.standard_normal((int(sizes.sum()), d))
    got, got_fill = _appended(ref, proxies, sizes, cap)
    want, want_fill = _appended_per_run(ref, proxies, sizes, cap)
    assert got_fill.tolist() == want_fill.tolist()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
