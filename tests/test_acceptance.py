"""End-to-end acceptance gates for the package.

Seven tests, one per contract: the scalar collapse illustration, analytic
gradients against central differences, three aggregation identities, the
alignment margin of regulated vs plain aggregation on a fixed two-regime
federation, the dense symmetric eigensolver, byte-identical reruns, and
partition coverage/balance. Each test prints a [PASS]/[FAIL] line with
the realized numbers (visible with ``pytest -s``) and asserts the same
condition, so the suite reports and enforces in one place.
"""

import contextlib
import csv
import io
import time
from pathlib import Path

import numpy as np

from fedgeo import (
    AggregatorConfig,
    Federation,
    FlatVector,
    ModelConfig,
    PartitionSpec,
    RoundUpdates,
    build_clients,
    dirichlet_assignments,
    flatten,
    gradient,
    init_params,
    initial_reference,
    load_config,
    local_train,
    normalized_adjacency,
    operator_spectrum,
    parse_config,
    path_graph,
    planted_partition_graph,
    proxy_map,
    regulate_and_aggregate,
    run,
    toy_appendix,
    unflatten,
)
from fedgeo.metrics import _jacobi_eigh
from fedgeo.model import graph_batch, layer_views
from fedgeo.model import SHARED, LayerSpec, layer_slices
from fedgeo.server import RunLayout

from conftest import stack

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _gate(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- 1: toy


def _scalar_updates(ws):
    layout = (LayerSpec(index=0, group=SHARED, w_shape=(1, 1), b_size=0),)
    return RoundUpdates(np.array(ws)[:, None],
                        RunLayout(((0, len(ws)),), tuple(range(len(ws))), (1,) * len(ws), layout))


def test_1_toy_illustration_reproduces_pinned_values():
    t0 = time.perf_counter()
    _, ok_internal = toy_appendix()
    wall = time.perf_counter() - t0

    # independent recomputation of every printed quantity
    from fedgeo import complete_graph

    a1 = normalized_adjacency(path_graph(3)).dense()
    a1_target = np.array([[0.50, 0.41, 0.00], [0.41, 0.33, 0.41], [0.00, 0.41, 0.50]])
    ok_a1 = np.max(np.abs(a1 - a1_target)) < 0.005
    ok_e1 = np.max(np.abs(operator_spectrum(a1) - [1.00, 0.50, -0.17])) < 0.005
    a2 = normalized_adjacency(complete_graph(3)).dense()
    ok_e2 = np.max(np.abs(operator_spectrum(a2) - [1.0, 0.0, 0.0])) < 1e-9

    ups = _scalar_updates([1.0, -1.0])
    w_plain = float(
        regulate_and_aggregate(ups, initial_reference(1), AggregatorConfig(mode="plain"))[0][0, 0]
    )
    w_reg = float(
        regulate_and_aggregate(
            ups, initial_reference(1), AggregatorConfig(mode="ggrs", beta=0.5)
        )[0][0, 0]
    )
    ok_w = w_plain == 0.0 and np.all(operator_spectrum(w_plain * a1) == 0.0)
    ok_r = w_reg == 0.25
    ok_er = np.max(np.abs(operator_spectrum(w_reg * a1) - [0.25, 0.125, -0.0417])) < 0.01

    ok = ok_internal and ok_a1 and ok_e1 and ok_e2 and ok_w and ok_r and ok_er and wall < 1.0
    _gate(
        "criterion 1 (collapse illustration)",
        ok,
        f"plain W={w_plain}, regulated W={w_reg}, all spectra on target, {wall:.2f}s < 1s",
    )


# ---------------------------------------------------- 2: gradient checks


def _random_case(seed):
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
        n_layers=2,
        hidden_dim=int(rng.integers(4, 9)),
        activation="relu",
        bias=True,
    )
    return g, normalized_adjacency(g), init_params(
        cfg, g.feature_dim, g.n_classes, seed=seed + 1)


def test_2_analytic_gradients_match_central_differences():
    t0 = time.perf_counter()
    step = 1e-4
    worst = 0.0
    for seed in range(20):
        g, adj, params = _random_case(seed)
        assert g.n_nodes <= 20
        batch = graph_batch([adj], [g.features], [g.labels])
        rows = batch.rows([np.flatnonzero(g.train_mask)])
        _, grads = gradient(stack([params]), batch, rows, activation="relu")
        flat = flatten(params)
        ga = grads[0]

        def loss_at(values):
            p = unflatten(FlatVector(values=values, layout=flat.layout), params)
            return gradient(stack([p]), batch, rows, activation="relu")[0][0]

        fd = np.zeros_like(flat.values)
        for i in range(flat.values.size):
            up, dn = flat.values.copy(), flat.values.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * step)
        rel = np.linalg.norm(ga - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    wall = time.perf_counter() - t0
    _gate(
        "criterion 2 (gradient correctness)",
        worst < 1e-4 and wall < 30.0,
        f"20 seeded pairs, worst relative error {worst:.2e} < 1e-4, {wall:.1f}s < 30s",
    )


# ----------------------------------------------- 3: aggregation identities


def test_3a_single_client_federation_is_centralized_descent():
    cfg = parse_config(
        "run.rounds = 20\n"
        "data.kind = planted\n"
        "data.blocks = 2\n"
        "data.block_size = 10\n"
        "data.p_in = 0.6\n"
        "data.p_out = 0.1\n"
        "data.classes = 2\n"
        "data.features = 5\n"
        "data.class_sep = 1.0\n"
        "data.clients = 1\n"
        "model.hidden = 4\n"
        "client.lr = 0.1\n"
        "client.epochs = 1\n"
        "server.regulation = plain\n",
        path="k1.conf",
    )
    clients, params = build_clients(cfg, run_seed=1)
    assert len(clients) == 1
    c = clients[0]

    shared = flatten(params, group=SHARED)
    oracle = shared.values.copy()
    agg = AggregatorConfig(mode="plain")
    ref = initial_reference(proxy_map(shared, agg).values.shape[0])
    fed = Federation(clients, cfg.model, cfg.client)
    batch = graph_batch([c.adj], [c.graph.features], [c.graph.labels])
    rows = batch.rows([np.flatnonzero(c.graph.train_mask)])
    worst = 0.0
    for t in range(1, 21):
        u = local_train(fed, shared.values[None], round_index=t)
        delta, ref, _ = regulate_and_aggregate(u, ref, agg)
        shared = FlatVector(values=shared.values + delta[0], layout=shared.layout)

        p = unflatten(FlatVector(values=oracle, layout=shared.layout), params)
        _, grads = gradient(stack([p]), batch, rows, activation=fed.model.activation)
        oracle = oracle - fed.training.lr * flatten(layer_views(grads[0], fed.layout), group=SHARED).values
        worst = max(worst, float(np.max(np.abs(shared.values - oracle))))
    _gate(
        "criterion 3a (K=1 equals centralized descent)",
        worst <= 1e-10,
        f"20 rounds, max parameter deviation {worst:.2e} <= 1e-10",
    )


def test_3b_identical_aligned_updates_reduce_to_plain_mean():
    rng = np.random.default_rng(7)
    layout = (
        LayerSpec(index=0, group=SHARED, w_shape=(4, 3), b_size=3),
        LayerSpec(index=1, group=SHARED, w_shape=(3, 2), b_size=2),
    )
    vals = rng.normal(size=4 * 3 + 3 + 3 * 2 + 2)
    ups = RoundUpdates(np.stack([vals] * 3), RunLayout(((0, 3),), (0, 1, 2), (5, 5, 5), layout))
    agg = AggregatorConfig(mode="ggrs", beta=0.5)
    plain = AggregatorConfig(mode="plain")

    # round 1: zero reference, fallback supplies the common direction;
    # round 2: reference is exactly that direction (cosine 1)
    ref_g = initial_reference(proxy_map(FlatVector(values=vals, layout=layout),
                                        agg).values.shape[0])
    ref_p = initial_reference(ref_g.r.shape[1])
    worst = 0.0
    for rnd in (1, 2):
        d_g, ref_g, _ = regulate_and_aggregate(ups, ref_g, agg)
        d_p, ref_p, _ = regulate_and_aggregate(ups, ref_p, plain)
        worst = max(worst, float(np.max(np.abs(d_g - d_p))))
    _gate(
        "criterion 3b (identical updates: regulated == plain)",
        worst <= 1e-12,
        f"two rounds, max output deviation {worst:.2e} <= 1e-12",
    )


def test_3c_regulated_client_updates_never_exceed_raw_norm():
    cfg = load_config(str(CONFIG_DIR / "alignment_margin_ggrs.conf"))
    clients, params = build_clients(cfg, run_seed=1)
    agg = cfg.server
    shared = flatten(params, group=SHARED)
    ref = initial_reference(proxy_map(shared, agg).values.shape[0])
    checked = 0
    worst_excess = -np.inf
    fed = Federation(clients, cfg.model, cfg.client)
    for t in range(1, 9):
        ups = local_train(fed, shared.values[None], round_index=t)
        delta, ref, report = regulate_and_aggregate(ups, ref, agg)
        by_id = dict(zip(ups.run_layout.client_ids, ups.deltas))
        for creg in report.clients:
            raw = by_id[creg.client_id]
            applied = raw.copy()
            for (lo, hi), c_l in zip(layer_slices(ups.run_layout.layout), creg.coefficients):
                applied[lo:hi] *= c_l
            excess = float(np.linalg.norm(applied) - np.linalg.norm(raw))
            worst_excess = max(worst_excess, excess)
            checked += 1
        shared = FlatVector(values=shared.values + delta[0], layout=shared.layout)
    _gate(
        "criterion 3c (regulated norm <= raw norm)",
        checked == 8 * len(clients) and worst_excess <= 1e-12,
        f"{checked} client rounds, worst norm excess {worst_excess:.2e} <= 1e-12",
    )


# ------------------------------------------------- 4: alignment margin


def _last10_alignment_and_final_acc(out_dir):
    with open(Path(out_dir) / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    accs, aligns = [], []
    for s in sorted({r["seed"] for r in rows}, key=int):
        sr = sorted((r for r in rows if r["seed"] == s), key=lambda r: int(r["round"]))
        accs.append(float(sr[-1]["test_acc"]))
        aligns.append(float(np.mean([float(r["alignment"]) for r in sr[-10:]])))
    return float(np.mean(accs)), float(np.mean(aligns))


def test_4_regulation_wins_alignment_without_losing_accuracy(tmp_path):
    t0 = time.perf_counter()
    acc, ali = {}, {}
    for name in ("plain", "ggrs"):
        cfg = load_config(str(CONFIG_DIR / f"alignment_margin_{name}.conf"))
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            run(cfg, out=str(out))
        acc[name], ali[name] = _last10_alignment_and_final_acc(out)
    wall = time.perf_counter() - t0
    d_align = ali["ggrs"] - ali["plain"]
    d_acc = acc["ggrs"] - acc["plain"]
    ok = d_align >= 0.1 and abs(d_acc) <= 0.02 and wall < 300.0
    _gate(
        "criterion 4 (alignment margin at accuracy parity)",
        ok,
        f"alignment {ali['plain']:+.3f} -> {ali['ggrs']:+.3f} (margin {d_align:+.3f} >= 0.1), "
        f"accuracy {acc['plain']:.3f} -> {acc['ggrs']:.3f} (|{d_acc:+.3f}| <= 0.02), "
        f"{wall:.0f}s < 300s",
    )


# ------------------------------------------------------- 5: eigensolver


def test_5_eigensolver_trace_and_reconstruction():
    rng = np.random.default_rng(11)
    worst_tr, worst_fro = 0.0, 0.0
    for _ in range(50):
        m = rng.normal(size=(8, 8))
        sym = 0.5 * (m + m.T)
        w, v = _jacobi_eigh(sym)
        worst_tr = max(worst_tr, abs(float(np.sum(w) - np.trace(sym))))
        worst_fro = max(worst_fro, float(np.linalg.norm(v @ np.diag(w) @ v.T - sym)))
    _gate(
        "criterion 5 (eigensolver)",
        worst_tr <= 1e-9 and worst_fro < 1e-8,
        f"50 symmetric 8x8: worst |sum-trace| {worst_tr:.2e} <= 1e-9, "
        f"worst reconstruction {worst_fro:.2e} < 1e-8",
    )


# -------------------------------------------------------- 6: determinism


def test_6_same_seed_reruns_are_byte_identical(tmp_path):
    cfg = load_config(str(CONFIG_DIR / "alignment_margin_ggrs.conf"))
    outs = []
    for i in (1, 2):
        out = tmp_path / f"r{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            run(cfg, seed=1, out=str(out))
        outs.append(out)
    same_csv = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_jsonl = (
        (outs[0] / "regulation_seed1.jsonl").read_bytes()
        == (outs[1] / "regulation_seed1.jsonl").read_bytes()
    )
    _gate(
        "criterion 6 (determinism)",
        same_csv and same_jsonl,
        f"CSV identical: {same_csv}, JSONL identical: {same_jsonl}",
    )


# ------------------------------------------------ 7: partition correctness


def test_7_partition_covers_once_and_balances_at_high_alpha():
    covered = True
    for seed in range(10):
        g = planted_partition_graph(
            n_blocks=4, block_size=30, p_in=0.5, p_out=0.1,
            n_classes=4, feature_dim=6, class_sep=1.0, seed=seed,
        )
        parts = dirichlet_assignments(
            g.labels, PartitionSpec(n_clients=4, dirichlet_alpha=0.3, seed=seed)
        )
        all_ids = np.sort(np.concatenate(parts))
        covered = covered and bool(np.array_equal(all_ids, np.arange(g.n_nodes)))

    g = planted_partition_graph(
        n_blocks=4, block_size=30, p_in=0.5, p_out=0.1,
        n_classes=4, feature_dim=6, class_sep=1.0, seed=123,
    )
    parts = dirichlet_assignments(
        g.labels, PartitionSpec(n_clients=4, dirichlet_alpha=1e6, seed=123)
    )
    worst_dev = 0.0
    for cls in range(4):
        total = int(np.sum(g.labels == cls))
        for ids in parts:
            share = float(np.sum(g.labels[ids] == cls)) / total
            worst_dev = max(worst_dev, abs(share - 0.25))
    _gate(
        "criterion 7 (partition coverage and balance)",
        covered and worst_dev <= 0.05,
        f"10 seeds cover every node exactly once; alpha=1e6 share deviation "
        f"{worst_dev:.3f} <= 0.05",
    )
