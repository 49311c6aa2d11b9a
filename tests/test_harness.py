import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgeo import (
    AggregatorConfig,
    ClientState,
    ConfigError,
    DivergenceError,
    Federation,
    InputError,
    ModelConfig,
    TrainingConfig,
    build_clients,
    complete_graph,
    dirichlet_label_partition,
    flatten,
    gradient,
    induced_subgraph,
    init_params,
    initial_reference,
    local_train,
    make_graph,
    normalized_adjacency,
    partition_report,
    path_graph,
    proxy_map,
    regulate_and_aggregate,
    run,
    save_graph_csv,
    unflatten,
)
import fedgeo.harness as harness
from fedgeo.cli import main
from fedgeo.client import TRAINERS, RoundUpdates
from fedgeo.config import KEYS, KINDS, REGIMES, parse_config
from fedgeo.harness import CSV_HEADER, _client_graphs
from fedgeo.graphs import block_diagonal
from fedgeo.metrics import pairwise_coherence
from fedgeo.model import (
    ACTIVATIONS,
    LOCAL,
    SHARED,
    FlatVector,
    LayerSpec,
    graph_batch,
    layer_views,
)

from conftest import stack
from fedgeo.server import (
    FALLBACKS,
    MODES,
    REFERENCES,
    WEIGHTINGS,
    RegulationReport,
    RunLayout,
    _sign_projection,
)


SMALL = """
run.rounds = 3
run.seeds = 1, 2
data.kind = planted
data.blocks = 2
data.block_size = 8
data.p_in = 0.6
data.p_out = 0.1
data.classes = 2
data.features = 4
data.clients = 2
model.hidden = 4
client.lr = 0.1
server.regulation = ggrs
"""


def _write(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_csv_header_is_the_contract():
    assert CSV_HEADER == (
        "round,seed,test_acc,gamma_mean,alignment,sensitivity,clip_rate,atten_rate"
    )


@pytest.mark.parametrize("n_layers, read, unread", [
    (1, {"message"}, {"gather", "scatter"}),
    (2, {"gather", "scatter"}, {"message"}),
], ids=["one layer", "two layers"])
def test_a_run_builds_only_the_row_operators_its_model_reads(tmp_path, monkeypatch,
                                                             n_layers, read, unread):
    # Rows builds message, gather and scatter on first read: a one-layer
    # model reads only message, a two-layer one only gather and scatter
    built = []

    class Recorded(Federation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "Federation", Recorded)
    run(parse_config(SMALL + f"model.layers = {n_layers}\n", path="inline.conf"),
        out=str(tmp_path))
    (fed,) = built  # one federation holds both seeds' clients
    assert len(fed.run_layout.runs) == 2
    assert fed.test.index.size  # evaluation ran a forward pass
    for rows in (fed.train, fed.test):
        assert not unread & vars(rows).keys()
    assert read <= vars(fed.train).keys()


def test_single_client_matches_centralized_descent():
    # K = 1 under plain averaging is gradient descent on the one client's
    # data; the independent oracle runs descent directly on the model
    cfg = parse_config("""
data.kind = planted
data.blocks = 2
data.block_size = 10
data.classes = 2
data.features = 4
data.clients = 1
model.hidden = 4
client.lr = 0.1
""", path="inline.conf")
    clients, params0 = build_clients(cfg, run_seed=1)
    assert len(clients) == 1
    c = clients[0]

    oracle = params0
    shared = flatten(params0, group=SHARED)
    fed = Federation(clients, cfg.model, cfg.client)
    batch = graph_batch([c.adj], [c.graph.features], [c.graph.labels])
    rows = batch.rows([np.flatnonzero(c.graph.train_mask)])
    ref = initial_reference(proxy_map(shared, AggregatorConfig()).values.shape[0])
    agg = AggregatorConfig(mode="plain")

    for t in range(1, 21):
        u = local_train(fed, shared.values[None], round_index=t)
        delta, ref, _ = regulate_and_aggregate(u, ref, agg)
        shared = FlatVector(values=shared.values + delta[0],
                            layout=shared.layout)

        _, g = gradient(stack([oracle]), batch, rows, activation="relu")
        flat = flatten(oracle)
        step = g[0]
        oracle = unflatten(
            FlatVector(values=flat.values - 0.1 * step, layout=flat.layout),
            oracle,
        )
        gap = np.max(np.abs(shared.values - flatten(oracle).values))
        assert gap < 1e-10, f"round {t}: trajectory gap {gap}"


def test_run_emits_contracted_files(tmp_path):
    cfg = parse_config(SMALL, path="inline.conf")
    out = tmp_path / "out"
    result = run(cfg, out=str(out))

    csv_lines = result.csv_path.read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 1 + 3 * 2  # rounds x seeds
    for line in csv_lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        float_cells = [float(x) for x in cells]
        assert float_cells[0] in (1.0, 2.0, 3.0)
        assert float_cells[1] in (1.0, 2.0)
        assert 0.0 <= float_cells[2] <= 1.0

    assert sorted(p.name for p in result.jsonl_paths) == [
        "regulation_seed1.jsonl", "regulation_seed2.jsonl",
    ]
    rows = [json.loads(l) for l in
            result.jsonl_paths[0].read_text().splitlines()]
    assert len(rows) == 3 * 2  # rounds x clients
    assert set(rows[0]) == {"round", "client", "cos_ref", "atten", "retention", "clip"}

    summary = json.loads(result.summary_path.read_text())
    assert summary["rounds"] == 3
    assert summary["seeds"] == [1, 2]
    assert summary["clients"] == 2
    assert len(summary["trajectory"]["test_acc"]) == 3
    assert (out / "config.txt").read_text() == cfg.raw_text


def test_summary_tail_matches_csv(tmp_path):
    cfg = parse_config(SMALL, path="inline.conf")
    result = run(cfg, out=str(tmp_path / "o"))
    lines = result.csv_path.read_text().splitlines()[1:]
    per_seed = {}
    for line in lines:
        cells = line.split(",")
        per_seed.setdefault(int(cells[1]), []).append(float(cells[2]))
    tails = [np.mean(v) for _, v in sorted(per_seed.items())]  # 3 rounds < 10
    want_mean = float(np.mean(tails))
    want_std = float(np.std(tails))
    got = result.summary["last10"]["test_acc"]
    assert got["mean"] == pytest.approx(want_mean, abs=1e-12)
    assert got["std"] == pytest.approx(want_std, abs=1e-12)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(SMALL, path="inline.conf")
    r1 = run(cfg, out=str(tmp_path / "a"))
    r2 = run(cfg, out=str(tmp_path / "b"))
    assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
    for p1, p2 in zip(r1.jsonl_paths, r2.jsonl_paths):
        assert p1.read_bytes() == p2.read_bytes()
    assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()


def test_rerun_is_byte_identical_with_projected_proxies(tmp_path):
    # 30 shared values projected to 8: each round's proxies come from
    # one stacked product with the sign matrix
    cfg = parse_config(SMALL + "server.proxy_dim = 8\n", path="inline.conf")
    r1 = run(cfg, out=str(tmp_path / "a"))
    _sign_projection.cache_clear()  # a rerun in a fresh process draws it anew
    r2 = run(cfg, out=str(tmp_path / "b"))
    row = json.loads(r1.jsonl_paths[0].read_text().splitlines()[0])
    assert len(row["retention"]) == 1  # one block: the proxy was projected
    assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
    assert len(r1.jsonl_paths) == 2
    for p1, p2 in zip(r1.jsonl_paths, r2.jsonl_paths):
        assert p1.read_bytes() == p2.read_bytes()


def _cross_domain_fedprox(tmp_path):
    # fedprox with local heads, so each client's pull reads its own seed's
    # broadcast; the csv source starves some clients of train nodes, and
    # the seeds keep 3, 4 and 5 clients
    d = _skewed_csv_source(tmp_path)
    return f"""
run.rounds = 3
run.seeds = 1, 2, 8
run.regime = cross_domain
data1.kind = planted
data1.blocks = 2
data1.block_size = 8
data1.classes = 2
data1.features = 2
data1.clients = 2
data2.kind = csv
data2.edges = {d}/edges.csv
data2.features = {d}/features.csv
data2.labels = {d}/labels.csv
data2.splits = {d}/splits.csv
data2.clients = 3
partition.alpha = 0.05
model.hidden = 4
client.trainer = fedprox
client.mu = 0.5
client.lr = 0.1
server.regulation = ggrs
"""


def test_two_seed_run_matches_one_seed_runs(tmp_path):
    # the seeds train in one federation, but nothing of one seed leaks
    # into another, and the order of the seeds changes nothing
    # the projected runs stack the seeds' sign projections along a leading
    # axis; one product over their concatenated rows would change the bits
    # (on OpenBLAS at 1 thread it does for 3 columns, not for 8)
    for name, text in (("small", SMALL), ("cross", _cross_domain_fedprox(tmp_path)),
                       ("projected", SMALL + "server.proxy_dim = 8\n"),
                       ("projected3", SMALL + "server.proxy_dim = 3\n")):
        cfg = parse_config(text, path="inline.conf")
        if name == "cross":
            assert [len(build_clients(cfg, s)[0]) for s in cfg.seeds] == [3, 4, 5]
        both = run(cfg, out=str(tmp_path / name / "all"))
        rows = both.csv_path.read_text().splitlines()[1:]
        assert len(rows) == cfg.rounds * len(cfg.seeds)
        for s in reversed(cfg.seeds):
            one = run(cfg, seed=s, out=str(tmp_path / name / f"seed{s}"))
            assert one.csv_path.read_text().splitlines()[1:] == [
                l for l in rows if l.split(",")[1] == str(s)]
            jsonl = f"regulation_seed{s}.jsonl"
            assert ((tmp_path / name / f"seed{s}" / jsonl).read_bytes()
                    == (tmp_path / name / "all" / jsonl).read_bytes())


def _diverge(monkeypatch, at):
    """``harness.local_train`` raising for run index r at round t, client
    c, for each r: (t, c) of ``at``, while run r is in the federation;
    the lowest such run first, as ``local_train`` names it."""
    train = harness.local_train

    def diverging(fed, broadcasts, round_index=0):
        for r, (t, c) in sorted(at.items()):
            if round_index == t and r < len(fed.run_layout.runs):
                raise DivergenceError(t, c, r)
        return train(fed, broadcasts, round_index=round_index)

    monkeypatch.setattr(harness, "local_train", diverging)


def test_divergence_keeps_rows_of_finished_seeds(tmp_path, monkeypatch, capsys):
    cfg = parse_config(SMALL, path="inline.conf")  # seeds 1, 2
    full = run(cfg, out=str(tmp_path / "full")).csv_path.read_text().splitlines()

    with monkeypatch.context() as m:
        _diverge(m, {1: (2, 0)})  # the second seed diverges at round 2
        with pytest.raises(DivergenceError) as err:
            run(cfg, out=str(tmp_path / "o"))
        # client ids restart in every seed: the error and stderr name the seed
        assert (err.value.seed, err.value.round_index, err.value.client_id) == (2, 2, 0)
        assert main(["run", "--config", str(_write(tmp_path, SMALL, "small.conf")),
                     "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err == "divergence: non-finite loss at seed 2, round 2, client 0\n"
    kept = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
    assert kept == [l for l in full if l == CSV_HEADER or l.split(",")[1] == "1"]
    assert len(kept) == 1 + 3
    assert (tmp_path / "o" / "config.txt").read_text() == cfg.raw_text
    assert ((tmp_path / "o" / "regulation_seed1.jsonl").read_bytes()
            == (tmp_path / "full" / "regulation_seed1.jsonl").read_bytes())
    assert not (tmp_path / "o" / "regulation_seed2.jsonl").exists()
    # the summary covers the finished seed and names the failure
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["seeds"] == [1]
    assert summary["failed"] == {"seed": 2, "round": 2, "client": 0}
    seed1 = [float(l.split(",")[2]) for l in kept[1:]]
    assert summary["trajectory"]["test_acc"] == seed1
    assert summary["last10"]["test_acc"] == {"mean": float(np.mean(seed1)), "std": 0.0}

    with monkeypatch.context() as m:
        _diverge(m, {0: (1, 3)})  # the first seed diverges at round 1
        with pytest.raises(DivergenceError) as err:
            run(cfg, out=str(tmp_path / "none"))
    assert err.value.seed == 1
    summary = json.loads((tmp_path / "none" / "summary.json").read_text())
    assert summary["seeds"] == []
    assert summary["failed"] == {"seed": 1, "round": 1, "client": 3}
    assert "last10" not in summary and "trajectory" not in summary

    # the second seed diverges first, at round 1, and the first at round 3:
    # run one after another, the first seed would fail at round 3 and the
    # second never start
    with monkeypatch.context() as m:
        _diverge(m, {1: (1, 0), 0: (3, 1)})
        with pytest.raises(DivergenceError) as err:
            run(cfg, out=str(tmp_path / "crossed"))
    assert (cfg.seeds[err.value.run], err.value.round_index, err.value.client_id) == (1, 3, 1)
    assert err.value.seed == 1
    summary = json.loads((tmp_path / "crossed" / "summary.json").read_text())
    assert summary["seeds"] == []
    assert summary["failed"] == {"seed": 1, "round": 3, "client": 1}
    assert (tmp_path / "crossed" / "metrics.csv").read_text() == CSV_HEADER + "\n"


def test_one_server_call_per_lockstep_round_keeps_the_first_runs_on_divergence(
        tmp_path, monkeypatch):
    # every seed is regulated in one regulate_and_aggregate call per round;
    # when the second seed diverges at round 2, the first retries the round
    # with the first slice of the stacked server state round 1 left
    cfg = parse_config(SMALL, path="inline.conf")  # seeds 1, 2
    regulate, calls = harness.regulate_and_aggregate, []

    def recorded(updates, ref, agg):
        result = regulate(updates, ref, agg)
        calls.append((updates.run_layout.runs, ref, result[1]))
        return result

    monkeypatch.setattr(harness, "regulate_and_aggregate", recorded)
    run(cfg, out=str(tmp_path / "full"))
    assert [len(runs) for runs, _, _ in calls] == [2] * cfg.rounds
    for (_, _, out), (_, ref, _) in zip(calls, calls[1:]):
        assert ref is out  # each round's state is the last round's result

    calls.clear()
    _diverge(monkeypatch, {1: (2, 0)})
    with pytest.raises(DivergenceError):
        run(cfg, out=str(tmp_path / "o"))
    assert [len(runs) for runs, _, _ in calls] == [2, 1, 1]
    first, retried = calls[0][2], calls[1][1]
    for name in ("r", "window", "fill", "basis", "rank"):
        assert getattr(retried, name).tobytes() == getattr(first, name)[:1].tobytes()


CROSS = """
run.rounds = 4
run.seeds = 1, 2
run.regime = cross_domain
data1.kind = planted
data1.blocks = 2
data1.block_size = 8
data1.classes = 2
data1.features = 4
data1.clients = 2
data2.kind = planted
data2.blocks = 2
data2.block_size = 8
data2.p_in = 0.5
data2.classes = 2
data2.features = 4
data2.clients = 2
model.hidden = 4
client.lr = 0.1
server.regulation = ggrs
"""


def test_a_cross_domain_retry_keeps_the_survivors_trained_heads(tmp_path, monkeypatch):
    # when seed 2 diverges at round 3, seed 1 retries the round with the
    # local heads its clients trained in rounds 1 and 2, not their
    # initial ones: its rows are the full run's, byte for byte
    cfg = parse_config(CROSS, path="inline.conf")
    run(cfg, out=str(tmp_path / "full"))
    _diverge(monkeypatch, {1: (3, 0)})
    with pytest.raises(DivergenceError) as err:
        run(cfg, out=str(tmp_path / "o"))
    assert (err.value.seed, err.value.round_index) == (2, 3)
    full = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
    kept = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
    assert kept == [l for l in full if l == CSV_HEADER or l.split(",")[1] == "1"]
    assert len(kept) == 1 + 4
    assert ((tmp_path / "o" / "regulation_seed1.jsonl").read_bytes()
            == (tmp_path / "full" / "regulation_seed1.jsonl").read_bytes())


def test_a_seed_that_cannot_be_built_fails_before_any_round(tmp_path, monkeypatch):
    # every seed is built before round 1, so the first seed trains no
    # round when the second has no client with train nodes
    cfg = parse_config(SMALL, path="inline.conf")  # seeds 1, 2
    build, rounds = harness.build_clients, []

    def build_or_fail(cfg, run_seed):
        if run_seed == 2:
            raise InputError("no client has any train nodes")
        return build(cfg, run_seed)

    monkeypatch.setattr(harness, "build_clients", build_or_fail)
    monkeypatch.setattr(harness, "local_train", lambda *args, **kw: rounds.append(args))
    with pytest.raises(InputError, match="no client has any train nodes"):
        run(cfg, out=str(tmp_path / "o"))
    assert rounds == []
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["config.txt"]


def test_a_negative_seed_override_is_refused_before_any_output(tmp_path, capsys):
    cfg = parse_config(SMALL, path="inline.conf")
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        run(cfg, seed=-1, out=str(tmp_path / "o"))
    for value in (1.5, True):  # so is a seed that is not an integer
        with pytest.raises(InputError, match=f"seed must be an integer, not {value!r}"):
            run(cfg, seed=value, out=str(tmp_path / "o"))
    # so is one whose partition seed would be negative: -1600 + 1000 + 500
    shifted = parse_config(SMALL.replace("run.seeds = 1, 2", "run.seeds = 2")
                           + "partition.seed = -1600\n", path="inline.conf")
    with pytest.raises(InputError, match="partition seed must be >= 0, got -100"):
        run(shifted, seed=1, out=str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()

    p = _write(tmp_path, SMALL)
    assert main(["run", "--config", str(p), "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_seed_override_runs_single_seed(tmp_path):
    cfg = parse_config(SMALL, path="inline.conf")
    result = run(cfg, seed=7, out=str(tmp_path / "o"))
    lines = result.csv_path.read_text().splitlines()
    assert len(lines) == 1 + 3
    assert all(l.split(",")[1] == "7" for l in lines[1:])
    assert [p.name for p in result.jsonl_paths] == ["regulation_seed7.jsonl"]


def test_different_run_seeds_resample_everything():
    cfg = parse_config(SMALL, path="inline.conf")
    a, pa = build_clients(cfg, run_seed=1)
    b, pb = build_clients(cfg, run_seed=2)
    assert not np.array_equal(a[0].graph.features, b[0].graph.features)
    assert not np.array_equal(flatten(pa).values, flatten(pb).values)


def test_cross_domain_heads_stay_local():
    cfg = parse_config("""
run.regime = cross_domain
data1.kind = planted
data1.blocks = 2
data1.block_size = 8
data1.classes = 2
data1.features = 4
data2.kind = planted
data2.blocks = 2
data2.block_size = 8
data2.classes = 2
data2.features = 4
model.hidden = 4
client.lr = 0.1
""", path="inline.conf")
    clients, params0 = build_clients(cfg, run_seed=1)
    assert len(clients) == 2
    shared = flatten(params0, group=SHARED)
    full = flatten(params0, group="all")
    assert 0 < shared.values.shape[0] < full.values.shape[0]

    ref = initial_reference(proxy_map(shared, AggregatorConfig()).values.shape[0])
    agg = AggregatorConfig(mode="plain")
    fed = Federation(clients, cfg.model, cfg.client)
    for t in range(1, 4):
        updates = local_train(fed, shared.values[None], round_index=t)
        # only the shared group ever leaves a client
        assert updates.deltas.shape == (len(clients), shared.values.shape[0])
        delta, ref, _ = regulate_and_aggregate(updates, ref, agg)
        shared = FlatVector(values=shared.values + delta[0],
                            layout=shared.layout)

    heads = [flatten(layer_views(row, fed.layout), group=LOCAL).values for row in fed.held]
    init_head = flatten(params0, group=LOCAL).values
    assert not np.array_equal(heads[0], heads[1])  # trained on different data
    for h in heads:
        assert not np.array_equal(h, init_head)  # heads did train


def _skewed_csv_source(tmp_path):
    # class 0 nodes are all train, class 1 nodes are all test, so a
    # sufficiently skewed partition starves one client of train nodes
    d = tmp_path / "csvsrc"
    d.mkdir()
    n = 8
    (d / "edges.csv").write_text(
        "\n".join(f"{i},{(i + 1) % n}" for i in range(n)) + "\n")
    (d / "features.csv").write_text(
        "\n".join(f"{i / 8},{1 - i / 8}" for i in range(n)) + "\n")
    (d / "labels.csv").write_text(
        "\n".join(f"{0 if i < 4 else 1}" for i in range(n)) + "\n")
    (d / "splits.csv").write_text(
        "\n".join("train" if i < 4 else "test" for i in range(n)) + "\n")
    return d


def test_clients_without_train_nodes_are_dropped(tmp_path):
    d = _skewed_csv_source(tmp_path)
    base = f"""
data.kind = csv
data.edges = {d}/edges.csv
data.features = {d}/features.csv
data.labels = {d}/labels.csv
data.splits = {d}/splits.csv
data.clients = 2
partition.alpha = 0.05
model.hidden = 4
"""
    found = None
    for pseed in range(200):
        cfg = parse_config(base + f"partition.seed = {pseed}\n", path="inline.conf")
        pairs_train = [int(g.train_mask.sum())
                       for _, g in _client_graphs(cfg, run_seed=1)]
        if pairs_train.count(0) == 1:
            found = cfg
            break
    assert found is not None, "no partition seed starves exactly one client"
    clients, _ = build_clients(found, run_seed=1)
    assert len(clients) == 1  # the starved client is dropped, not trained
    assert clients[0].graph.train_mask.sum() >= 1


def _planted_config(clients: list[int], blocks: int, block_size: int, probs: list[float],
                    classes: int, alpha: float) -> str:
    """A config of one planted source per entry of ``clients``, each split
    among that many clients."""
    p_out, p_in = probs
    return "".join(f"""
data{j}.kind = planted
data{j}.blocks = {blocks}
data{j}.block_size = {block_size}
data{j}.p_in = {p_in!r}
data{j}.p_out = {p_out!r}
data{j}.classes = {classes}
data{j}.features = 3
data{j}.clients = {k}
""" for j, k in enumerate(clients, 1)) + f"partition.alpha = {alpha!r}\nmodel.hidden = 3\n"


def _arrays(adj):
    m = adj.storage
    return [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)]


@settings(max_examples=40, deadline=None)
@given(
    clients=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    blocks=st.integers(1, 4),
    block_size=st.integers(1, 10),
    probs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    classes=st.integers(1, 3),
    alpha=st.sampled_from([0.05, 0.5, 50.0]),
    run_seed=st.integers(0, 100),
)
# each draws a client no node, which then takes one from the largest, and
# a client with no train node, which is dropped while the others keep their ids
@example(clients=[5], blocks=1, block_size=6, probs=[0.2, 0.8], classes=1, alpha=0.05,
         run_seed=0)
@example(clients=[4, 2], blocks=2, block_size=5, probs=[0.1, 0.7], classes=2, alpha=0.05,
         run_seed=3)
def test_a_sources_clients_share_their_own_graphs_side_by_side(clients, blocks, block_size,
                                                              probs, classes, alpha,
                                                              run_seed):
    # each source's kept clients hold one graph and one operator, which
    # are their own graphs' and operators' side by side, array for array;
    # their federation trains on the same message and rows as one of
    # per-client states
    cfg = parse_config(_planted_config(clients, blocks, block_size, probs, classes, alpha),
                       path="inline.conf")
    own, cid = [], 0  # (client id, source, the client's own graph) of each kept client
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # classes thinner than the clients
        try:
            for j, k in enumerate(clients):
                g = harness._source_graph(cfg.sources[j], 1000 * run_seed + j)
                groups = ([np.arange(g.n_nodes)] if k == 1
                          else dirichlet_label_partition(g, cfg.partition_spec(j, run_seed)))
                for ids in groups:
                    sub = induced_subgraph(g, [ids])
                    if sub.train_mask.any():
                        own.append((cid, j, sub))
                    cid += 1
        except InputError:  # fewer nodes than clients
            with pytest.raises(InputError, match="not enough nodes"):
                build_clients(cfg, run_seed)
            return
        if not own:
            with pytest.raises(InputError, match="no client has any train nodes"):
                build_clients(cfg, run_seed)
            return
        built, params = build_clients(cfg, run_seed)

    assert [c.client_id for c in built] == [i for i, _, _ in own]
    for j in range(len(clients)):
        mine = [c for c, (_, src, _) in zip(built, own) if src == j]
        graphs = [sub for _, src, sub in own if src == j]
        if not mine:
            continue
        assert all(c.graph is mine[0].graph and c.adj is mine[0].adj for c in mine)
        stops = np.cumsum([sub.n_nodes for sub in graphs]).tolist()
        assert [c.nodes for c in mine] == list(zip([0] + stops[:-1], stops))
        assert _arrays(mine[0].adj) == _arrays(
            block_diagonal([normalized_adjacency(sub) for sub in graphs]))
        for c, sub in zip(mine, graphs):
            a, b = c.nodes
            for name in ("features", "labels", "train_mask", "val_mask", "test_mask"):
                assert getattr(c.graph, name)[a:b].tobytes() == getattr(sub, name).tobytes()

    fed = Federation(built, cfg.model, cfg.client)
    alone = Federation([ClientState(client_id=i, graph=sub, adj=normalized_adjacency(sub),
                                    params=params) for i, _, sub in own],
                       cfg.model, cfg.client)
    assert fed.batch.message.tobytes() == alone.batch.message.tobytes()
    assert _arrays(fed.batch.adj) == _arrays(alone.batch.adj)
    assert fed.batch.nodes.tolist() == alone.batch.nodes.tolist()
    for rows, want in ((fed.train, alone.train), (fed.test, alone.test)):
        for name in ("index", "bounds", "counts"):
            assert getattr(rows, name).tolist() == getattr(want, name).tolist()
        assert [p.tolist() for p in rows.pick] == [p.tolist() for p in want.pick]


def test_a_client_holds_a_non_empty_span_of_its_graph_in_order():
    # two clients' graphs side by side, on nodes 0-2 and 3-7
    g = make_graph(8, [[0, 1], [1, 2], [3, 4], [5, 7]], features=np.ones((8, 3)),
                   labels=[0, 1] * 4)
    adj = normalized_adjacency(g)
    params = init_params(ModelConfig(n_layers=1), 3, 2, seed=0)
    assert ClientState(client_id=0, graph=g, adj=adj, params=params).nodes == (0, 8)
    for nodes in ((0, 9), (-1, 3), (3, 3), (5, 2), (0, 1, 2)):
        with pytest.raises(InputError, match=r"not a non-empty span of its 8-node graph"):
            ClientState(client_id=0, graph=g, adj=adj, params=params, nodes=nodes)
    with pytest.raises(InputError, match="must be an integer, not 2.5"):
        ClientState(client_id=0, graph=g, adj=adj, params=params, nodes=(0, 2.5))

    # a graph's clients follow one another and cover its rows in order
    def state(cid, nodes, a=adj):
        return ClientState(client_id=cid, graph=g, adj=a, params=params, nodes=nodes)
    fed = Federation([state(0, (0, 3)), state(1, (3, 8)), state(2, None)], ModelConfig(n_layers=1),
                     TrainingConfig())
    assert fed.batch.nodes.tolist() == [0, 3, 8, 16]
    other = normalized_adjacency(g)
    for clients, bad in (
        ([state(0, (3, 8)), state(1, (0, 3))], "client 0's nodes \\(3, 8\\)"),
        ([state(0, (0, 3)), state(1, (4, 8))], "client 1's nodes \\(4, 8\\)"),
        ([state(0, (0, 3)), state(1, (3, 8), other)], "client 1's nodes \\(3, 8\\)"),
        ([state(0, (0, 3))], "client 0's nodes \\(0, 3\\)"),
        ([state(0, None), state(1, (3, 8))], "client 1's nodes \\(3, 8\\)"),
    ):
        with pytest.raises(InputError, match=bad + " are out of place: a graph's clients "
                                                   "follow one another and cover its rows "
                                                   "in order"):
            Federation(clients, ModelConfig(n_layers=1), TrainingConfig())
    for nodes in ([0, 5, 5, 8], [0, 3], [1, 8]):
        with pytest.raises(InputError, match="do not rise from 0 to the operators' 8 rows"):
            graph_batch([adj], [g.features], [g.labels], nodes)
    # an edge between two clients' rows would mix their values
    joined = make_graph(4, [[1, 2]], features=np.ones((4, 3)), labels=[0, 1, 0, 1])
    joined_adj = normalized_adjacency(joined)
    with pytest.raises(InputError, match="joins two graphs"):
        Federation([ClientState(client_id=k, graph=joined, adj=joined_adj, params=params,
                                nodes=span) for k, span in enumerate(((0, 2), (2, 4)))],
                   ModelConfig(n_layers=1), TrainingConfig())


def test_all_clients_without_train_nodes_rejected(tmp_path):
    d = tmp_path / "notrain"
    d.mkdir()
    (d / "edges.csv").write_text("0,1\n")
    (d / "features.csv").write_text("1.0\n2.0\n")
    (d / "labels.csv").write_text("0\n1\n")
    (d / "splits.csv").write_text("test\ntest\n")
    cfg = parse_config(f"""
data.kind = csv
data.edges = {d}/edges.csv
data.features = {d}/features.csv
data.labels = {d}/labels.csv
data.splits = {d}/splits.csv
""", path="inline.conf")
    with pytest.raises(InputError):
        build_clients(cfg, run_seed=1)


def _csv_source(tmp_path, section, graph):
    """Config lines of a csv source ``section`` reading ``graph``, which
    save_graph_csv writes into ``tmp_path``."""
    keys = ("edges", "features", "labels", "splits")
    save_graph_csv(graph, *(tmp_path / f"{section}_{key}.csv" for key in keys))
    return f"{section}.kind = csv\n" + "".join(f"{section}.{key} = {section}_{key}.csv\n"
                                               for key in keys)


def test_sources_must_agree_on_feature_width(tmp_path):
    # the parser refuses planted sources that disagree; a csv source's
    # width is known only once it is loaded, so build_clients refuses it
    cfg = parse_config("""
data1.kind = planted
data1.features = 4
""" + _csv_source(tmp_path, "data2", path_graph(6)), path="inline.conf", base_dir=tmp_path)
    with pytest.raises(InputError, match=r"^sources disagree on feature width: \[4, 6\]$"):
        build_clients(cfg, run_seed=1)


def test_partition_report_lists_every_client():
    cfg = parse_config(SMALL, path="inline.conf")
    text = partition_report(cfg)
    lines = text.splitlines()
    assert "client" in lines[1] and "train" in lines[1]
    data_rows = [l for l in lines[2:] if l.lstrip()[:1].isdigit()]
    assert len(data_rows) >= cfg.n_clients


def test_cli_run_roundtrip(tmp_path, capsys):
    p = _write(tmp_path, SMALL.replace("run.seeds = 1, 2", "run.seeds = 1"))
    out = tmp_path / "results"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "metrics.csv" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.conf")]) == 1
    assert "error" in capsys.readouterr().err

    bad = _write(tmp_path, "run.rounds = zero\ndata.kind = planted\n", "bad.conf")
    assert main(["run", "--config", str(bad)]) == 1
    assert "bad.conf:1" in capsys.readouterr().err

    assert main(["toy-appendix"]) == 0
    assert "[ok ]" in capsys.readouterr().out

    rep = _write(tmp_path, SMALL, "rep.conf")
    assert main(["partition-report", "--config", str(rep)]) == 0
    assert "client" in capsys.readouterr().out


def test_cli_divergence_exit_code(tmp_path, capsys):
    p = _write(tmp_path, """
run.rounds = 30
run.seeds = 1
data.kind = planted
data.blocks = 2
data.block_size = 8
data.classes = 2
data.features = 4
model.hidden = 4
model.activation = identity
client.lr = 1e6
""", "boom.conf")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "divergence" in capsys.readouterr().err


def test_gamma_mean_single_client_convention(tmp_path):
    cfg = parse_config("""
run.rounds = 2
run.seeds = 1
data.kind = planted
data.blocks = 2
data.block_size = 8
data.classes = 2
data.features = 4
model.hidden = 4
client.lr = 0.1
""", path="inline.conf")
    result = run(cfg, out=str(tmp_path / "o"))
    lines = result.csv_path.read_text().splitlines()[1:]
    for line in lines:
        assert line.split(",")[3] == "1.0"  # one live client: coherent by fiat


def test_a_run_with_no_test_rows_reads_nan_accuracy(tmp_path):
    # path and complete graphs put every node in the train split, so no
    # client has a test row: each round's accuracy is NaN in both files;
    # with one class the loss is flat, so every delta and proxy is zero
    sources = (_csv_source(tmp_path, "data1", path_graph(8))
               + _csv_source(tmp_path, "data2", complete_graph(8)))
    cfg = parse_config("""
run.rounds = 2
run.seeds = 1, 2
model.hidden = 4
client.lr = 0.1
server.regulation = ggrs
""" + sources, path="inline.conf", base_dir=tmp_path)
    result = run(cfg, out=str(tmp_path / "o"))
    assert result.csv_path.read_text() == "\n".join(
        [CSV_HEADER] + [f"{t},{s},nan,0.0,0.0,0.0,0.0,0.0" for s in (1, 2) for t in (1, 2)]
    ) + "\n"
    text = result.summary_path.read_text()
    assert '"test_acc": {\n      "mean": NaN,\n      "std": NaN\n    }' in text
    assert '"test_acc": [\n      NaN,\n      NaN\n    ]' in text


_GUARD = """
run.rounds = 3
run.seeds = 1
data1.kind = planted
data1.clients = 3
data1.blocks = 2
data1.block_size = 8
data1.classes = 2
data1.features = 4
model.hidden = 4
client.lr = 0.5
client.epochs = 2
client.mu = 0.5
server.subspace_dim = 2
server.window = 4
data2.kind = planted
data2.blocks = 2
data2.block_size = 8
data2.classes = 2
data2.features = 4
"""

# every key whose value is one of a tuple of options, with the options
# and what else its runs set so that the choice is read: under plain
# regulation the regulated proxies are the raw ones
_CHOICES = {
    ("run", "regime"): (REGIMES, ""),
    ("model", "activation"): (ACTIVATIONS, ""),
    ("client", "trainer"): (TRAINERS, ""),
    ("server", "regulation"): (MODES, ""),
    ("server", "weights"): (WEIGHTINGS, ""),
    ("server", "fallback"): (FALLBACKS, ""),
    ("server", "reference"): (REFERENCES, "server.regulation = ggrs\n"),
}


def _guard_outputs(tmp_path, text) -> list[bytes]:
    """metrics.csv and the JSONL of one run of ``text``."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    result = run(parse_config(text, path="guard.conf", base_dir=tmp_path), out=str(out))
    return [p.read_bytes() for p in (result.csv_path, *result.jsonl_paths)]


def test_every_choice_of_every_key_changes_a_run(tmp_path):
    # a choice that writes what its key's default writes is surface that
    # no run can tell apart; data.kind is checked by the next test
    choice_keys = set()
    for section, key in KEYS:
        base = "" if (section, key) == ("data", "kind") else "data.kind = planted\n"
        try:
            parse_config(f"{base}{section}.{key} = ?\n")
        except ConfigError as exc:
            if "expected one of" in str(exc):
                choice_keys.add((section, key))
    assert choice_keys == set(_CHOICES) | {("data", "kind")}
    cfg = parse_config(_GUARD)
    owners = {"run": cfg, "model": cfg.model, "client": cfg.client, "server": cfg.server}
    wants = {extra: _guard_outputs(tmp_path, _GUARD + extra) for _, extra in _CHOICES.values()}
    for (section, key), (options, extra) in _CHOICES.items():
        default = getattr(owners[section], KEYS[section, key][0])
        assert default in options
        for option in options:
            if option != default:
                got = _guard_outputs(tmp_path, _GUARD + extra + f"{section}.{key} = {option}\n")
                assert got != wants[extra], f"{section}.{key} = {option} changed nothing"


def test_every_data_kind_trains(tmp_path):
    # each kind gives test rows and a loss that moves: every round reads
    # a finite accuracy and nonzero geometry. The csv source is data2's
    # planted draw under run seed 1, written out, so it trains to the
    # same bytes
    graph = harness._source_graph(parse_config(_GUARD).sources[1], seed=1000 * 1 + 1)
    csv = _GUARD[:_GUARD.index("data2.")] + _csv_source(tmp_path, "data2", graph)
    outputs = []
    for kind, text in zip(KINDS, (_GUARD, csv)):
        assert f"data2.kind = {kind}" in text
        outputs.append(_guard_outputs(tmp_path, text))
        for row in outputs[-1][0].decode().split()[1:]:
            values = [float(v) for v in row.split(",")]
            assert 0.0 <= values[2] <= 1.0 and 0.0 not in values[3:6], (kind, row)
    assert outputs[0] == outputs[1]


def _round_metrics_oracle(updates, report, deltas):
    """The five geometry columns of each run, computed from that run's
    rows alone."""
    out = []
    for r, (a, b) in enumerate(updates.run_layout.runs):
        if b - a >= 2:
            gamma, _ = pairwise_coherence(updates.deltas[a:b])
            gamma_mean = np.mean(gamma[np.triu_indices(b - a, k=1)])
        else:
            gamma_mean = float(np.any(updates.deltas[a]))
        live = report.proxy_norm[a:b] > 0.0
        alignment = np.mean(report.cos_ref[a:b][live]) if live.any() else 0.0
        out.append([gamma_mean, alignment, np.linalg.norm(deltas[r]),
                    np.mean(report.clip_factor[a:b] < 1.0), np.mean(report.attenuated[a:b])])
    return np.array(out)


def test_round_metrics_match_a_per_run_loop():
    # runs of unequal size, one-client runs (one with a zero delta), a run
    # whose proxies are all zero and runs with some zero rows, regulated
    # over rounds long enough for attenuation, projection and clipping
    sizes = [3, 1, 4, 2, 1, 5, 3]
    bounds = np.cumsum([0] + sizes).tolist()
    runs = tuple(zip(bounds[:-1], bounds[1:]))
    layout = (LayerSpec(index=0, group=SHARED, w_shape=(2, 3), b_size=3),
              LayerSpec(index=1, group=SHARED, w_shape=(3, 2), b_size=0))
    cfg = AggregatorConfig(mode="ggrs", window=6, subspace_dim=2)
    rng = np.random.default_rng(11)
    ref = initial_reference(15, runs=len(sizes))
    rates = []
    for _ in range(6):
        d = rng.normal(size=(bounds[-1], 15))
        d[[1, 3, 5, 8, 9, 13]] = 0.0  # rows of runs 0, 2 and 5, all of runs 1 and 3
        updates = RoundUpdates(d, RunLayout(
            runs, tuple(i for n in sizes for i in range(n)),
            tuple(rng.integers(1, 9, size=bounds[-1]).tolist()), layout))
        deltas, ref, report = regulate_and_aggregate(updates, ref, cfg)
        got = harness._round_metrics(updates, report, deltas)
        want = _round_metrics_oracle(updates, report, deltas)
        assert got.shape == (len(sizes), 5) and got.tobytes() == want.tobytes()
        assert got[[1, 3], :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        rates.append(got[:, 3:])
    # the rates took values other than 0 and 1, so a wrong divisor shows
    assert ((np.array(rates) > 0.0) & (np.array(rates) < 1.0)).any(axis=(0, 1)).all()


def test_round_metrics_read_a_shuffled_round_as_the_sorted_one():
    # the server reads each run's rows in ascending client id order, and
    # so do the diagnostics: the same rows sent shuffled within their runs
    # give the sorted round's (R, 5) values bit for bit
    sizes = [4, 1, 5, 3, 6]
    bounds = np.cumsum([0] + sizes).tolist()
    runs = tuple(zip(bounds[:-1], bounds[1:]))
    layout = (LayerSpec(index=0, group=SHARED, w_shape=(2, 3), b_size=3),
              LayerSpec(index=1, group=SHARED, w_shape=(3, 2), b_size=0))
    cfg = AggregatorConfig(mode="ggrs", window=6, subspace_dim=2)
    rng = np.random.default_rng(23)
    ids = np.concatenate([np.arange(n) for n in sizes])
    refs = {side: initial_reference(15, runs=len(sizes)) for side in ("sorted", "shuffled")}
    for _ in range(5):
        d = rng.normal(size=(bounds[-1], 15)) * rng.choice([1e-3, 1.0, 100.0],
                                                            size=(bounds[-1], 1))
        n_train = rng.integers(1, 9, size=bounds[-1])
        shuffled = np.concatenate([a + rng.permutation(b - a) for a, b in runs])
        got = {}
        for side, rows in (("sorted", np.arange(bounds[-1])), ("shuffled", shuffled)):
            updates = RoundUpdates(d[rows], RunLayout(runs, tuple(ids[rows].tolist()),
                                                      tuple(n_train[rows].tolist()), layout))
            assert (updates.run_layout.order is None) == (side == "sorted")
            deltas, refs[side], report = regulate_and_aggregate(updates, refs[side], cfg)
            got[side] = harness._round_metrics(updates, report, deltas)
        assert got["shuffled"].shape == (len(sizes), 5)
        assert got["shuffled"].tobytes() == got["sorted"].tobytes()


# edge values a float strategy may not draw: -0.0, the smallest subnormal, 1.0
_EDGES = st.sampled_from([-0.0, 5e-324, 1.0])


@settings(max_examples=150)
@given(
    round_index=st.integers(1, 10**6),
    blocks=st.integers(0, 3),
    clients=st.lists(st.tuples(
        st.integers(0, 10**6),
        st.one_of(_EDGES, st.floats(-1.0, 1.0)),
        st.booleans(),
        st.lists(st.one_of(_EDGES, st.floats(0.0, 1.0)), min_size=3, max_size=3),
        st.one_of(_EDGES, st.floats(0.0, 1.0)),
    ), min_size=1, max_size=4),
)
def test_round_rows_are_the_json_dumps_text(round_index, blocks, clients):
    # _round_rows formats each JSONL row itself; its text must stay the
    # one json.dumps gives the row object
    ids, cos, atten, ret, clip = (list(c) for c in zip(*clients))
    ret = [r[:blocks] for r in ret]
    k = len(clients)
    report = RegulationReport(
        client_ids=np.array(ids), runs=((0, k),), proxy_norm=np.ones(k), cos_ref=np.array(cos),
        align_factor=np.where(atten, 0.5, 1.0), retention=np.array(ret).reshape(k, blocks),
        clip_factor=np.array(clip), coefficients=np.ones((k, 1)), epsilon=np.zeros(1),
        fallback_used=np.zeros(1, bool))
    want = [json.dumps({"round": round_index, "client": i, "cos_ref": c, "atten": a,
                        "retention": r, "clip": cl})
            for i, c, a, r, cl in zip(ids, cos, atten, ret, clip)]
    assert harness._round_rows(report, round_index) == want


@pytest.mark.parametrize("config", ["smoke.conf", "alignment_margin_ggrs.conf",
                                    "alignment_margin_plain.conf"])
def test_outputs_are_byte_identical_at_one_and_two_blas_threads(config, tmp_path):
    # byte identity holds at a fixed BLAS thread count; a run without a
    # sign projection also keeps it across 1 and 2 threads. A
    # sign-projected one (proxies longer than 4096) differs in the last
    # bits between them, so none is run here
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "fedgeo.cli", "run", "--config",
                               str(root / "configs" / config), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name == "metrics.csv" or p.name.startswith("regulation_seed")})
    assert "metrics.csv" in outputs[0] and len(outputs[0]) >= 2
    assert outputs[0] == outputs[1]
