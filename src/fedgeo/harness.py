"""End-to-end federated training runs: build, loop, measure, emit.

Per seed the harness builds the configured graph sources, Dirichlet-
partitions each among its clients and initializes one global model,
all before the first round. It batches every seed's clients into one
``Federation``, one run per seed, and runs T synchronous rounds of all
seeds in lockstep: broadcast each seed's shared parameters, train every
client locally (one ``local_train`` call for all seeds), aggregate every
seed, each with its own server state (one ``regulate_and_aggregate``
call for all seeds: plain weighted mean or the regulated pipeline),
apply each seed's global delta, evaluate (one forward over every
client's test rows), compute every seed's geometry columns (one
``_round_metrics`` call) and cut each seed's JSONL rows from the
report. Accuracy and geometry fill one (seeds, T, 6) array of CSV
values, which ``metrics.csv`` and ``summary.json`` are both formatted
from. No seed's values enter another's arithmetic, and
clients sit in the batch and are reduced in ascending id order, so
given (config, seed) every emitted byte is reproducible and the same
as a run of that seed alone.

Outputs in the run directory:
  metrics.csv               one row per (seed, round), fixed header
                            round,seed,test_acc,gamma_mean,alignment,
                            sensitivity,clip_rate,atten_rate
  regulation_seed<N>.jsonl  one object per (round, client): round,
                            client, cos_ref, atten, retention, clip
  summary.json              mean +- std over seeds of the last-10-round
                            accuracy / alignment / sensitivity, plus
                            per-round trajectories averaged over seeds
  config.txt                the parsed config text, echoed verbatim

Seed mixing (documented contract): under run seed s, source j draws its
graph with seed 1000*s + j, its partition with seed partition.seed +
1000*s + 500 + j, and the model initializes with seed s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .client import ClientState, Federation, RoundUpdates, local_train
from .config import DataSource, RunConfig
from .errors import ConfigError, DivergenceError, InputError, check_integer
from .graph_io import load_graph_csv
from .graphs import (
    Graph,
    complete_graph,
    graph_density,
    mean_degree,
    normalized_adjacency,
    path_graph,
    planted_partition_graph,
)
from .metrics import accuracy, pairwise_coherence, sensitivity_norm
from .model import SHARED, ParameterSet, flatten, forward, init_params, layer_views
# no caller here; perfbench's tracer patches it by name (ROADMAP item 1)
from .model import unflatten  # noqa: F401
from .partition import dirichlet_label_partition, induced_subgraph
from .server import RegulationReport, initial_reference, proxy_map, regulate_and_aggregate

__all__ = ["RunResult", "run", "partition_report", "build_clients"]

CSV_HEADER = "round,seed,test_acc,gamma_mean,alignment,sensitivity,clip_rate,atten_rate"
_SUMMARY_TAIL = 10  # Table-style summaries average the final 10 rounds


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    csv_path: Path
    jsonl_paths: tuple[Path, ...]
    summary_path: Path
    summary: dict


def _source_graph(src: DataSource, seed: int) -> Graph:
    if src.kind == "path":
        return path_graph(src.n)
    if src.kind == "complete":
        return complete_graph(src.n)
    if src.kind == "planted":
        return planted_partition_graph(
            n_blocks=src.blocks,
            block_size=src.block_size,
            p_in=src.p_in,
            p_out=src.p_out,
            n_classes=src.classes,
            feature_dim=src.feature_dim,
            class_sep=src.class_sep,
            seed=seed,
        )
    if src.kind == "csv":
        return load_graph_csv(src.edges, src.features_path, src.labels, src.splits)
    raise ConfigError(f"unknown data kind {src.kind!r}")


def _source_partitions(cfg: RunConfig, run_seed: int) -> list[tuple[Graph, list[np.ndarray]]]:
    """Each source's graph for one run seed, with each of its clients'
    original node ids (one client holds every node)."""
    out = []
    for j, src in enumerate(cfg.sources):
        g = _source_graph(src, seed=1000 * run_seed + j)
        out.append((g, [np.arange(g.n_nodes)] if src.clients == 1
                    else dirichlet_label_partition(g, cfg.partition_spec(j, run_seed))))
    return out


def _client_graphs(cfg: RunConfig, run_seed: int) -> list[tuple[int, Graph]]:
    """Every client's own graph for one run seed, as (source_index, graph)."""
    return [(j, g if len(groups) == 1 else induced_subgraph(g, [ids]))
            for j, (g, groups) in enumerate(_source_partitions(cfg, run_seed))
            for ids in groups]


def build_clients(cfg: RunConfig, run_seed: int) -> tuple[list[ClientState], ParameterSet]:
    """Client states plus the initial global model for one run seed.

    Clients without train nodes are left out of the federation (they
    could neither train nor report a displacement); at least one must
    remain, and the others keep their ids. A source's kept clients share
    one graph, their ``induced_subgraph`` side by side, and its one
    normalized adjacency, each client holding its rows of them. Feature
    width and class count must agree across sources because the encoder
    (and the initial head) are shared.
    """
    sources = _source_partitions(cfg, run_seed)
    dims = {g.feature_dim for g, _ in sources}
    if len(dims) != 1:
        raise InputError(f"sources disagree on feature width: {sorted(dims)}")
    n_classes = max(g.n_classes for g, _ in sources)

    global_params = init_params(
        cfg.model, dims.pop(), n_classes, seed=run_seed,
        cross_domain=cfg.regime == "cross_domain",
    )

    clients: list[ClientState] = []
    first_id = 0
    for g, groups in sources:
        kept = [(first_id + k, ids) for k, ids in enumerate(groups) if g.train_mask[ids].any()]
        first_id += len(groups)
        if not kept:
            continue
        if len(groups) > 1:
            g = induced_subgraph(g, [ids for _, ids in kept])
        adj = normalized_adjacency(g)
        stop = 0
        for cid, ids in kept:
            stop += ids.size
            clients.append(ClientState(client_id=cid, graph=g, adj=adj, params=global_params,
                                       nodes=(stop - ids.size, stop)))
    if not clients:
        raise InputError("no client has any train nodes")
    return clients, global_params


def _evaluate(fed: Federation, shared: np.ndarray) -> list[float]:
    """Micro-averaged test accuracy of each run's current global model:
    one forward over every client's test rows, each client with its
    run's row of the (R, L_shared) ``shared`` parameters and its own
    persistent layers (the local head in cross-domain mode), and one
    ``accuracy`` per run over its clients' rows. NaN for a run whose
    clients have no test nodes.
    """
    if fed.test.index.size == 0:
        return [float("nan")] * len(shared)
    params = layer_views(fed.params(shared), fed.layout)
    logits = forward(params, fed.batch, fed.test, fed.model.activation)[1][-1]
    bounds = fed.test.bounds.tolist()
    return [accuracy(logits[bounds[a]:bounds[b]], fed.test.pick[1][bounds[a]:bounds[b]])
            if bounds[b] > bounds[a] else float("nan")
            for a, b in fed.runs]


def _round_rows(report: RegulationReport, round_index: int) -> list[str]:
    """One JSONL row per client row of the report, the text ``json.dumps``
    gives the object {round, client, cos_ref, atten, retention, clip}.
    The report range-checks every value, so each float is finite and its
    JSON is its ``repr``."""
    return [
        f'{{"round": {round_index}, "client": {i}, "cos_ref": {c!r}, '
        f'"atten": {"true" if a else "false"}, '
        f'"retention": [{", ".join(map(repr, ret))}], "clip": {cl!r}}}'
        for i, c, a, ret, cl in zip(report.client_ids.tolist(), report.cos_ref.tolist(),
                                    report.attenuated.tolist(), report.retention.tolist(),
                                    report.clip_factor.tolist())
    ]


# here, not in metrics.py: perfbench's tracer patches the harness's
# pairwise_coherence by name (ROADMAP item 1)
def _round_metrics(updates: RoundUpdates, report: RegulationReport,
                   deltas: np.ndarray) -> np.ndarray:
    """The CSV's five geometry columns of each run, an (R, 5) array:
    gamma_mean, the mean pairwise cosine of its clients' deltas (a
    one-client run's is 1 when its delta is nonzero, else 0); alignment,
    the mean ``cos_ref`` over its rows with a nonzero proxy (0 if none);
    sensitivity, the norm of its row of the applied ``deltas`` (R, L);
    and the shares of its rows clipped and attenuated. The run groups
    and pair indices come from ``updates.run_layout``."""
    lay = updates.run_layout
    out = np.empty((len(lay.runs), 5))
    for (ids, rows), iu in zip(lay.stacks, lay.pairs):
        stack = updates.deltas[rows]
        if rows.shape[1] >= 2:
            gamma, _ = pairwise_coherence(stack)
            # one mean per matrix: a mean along an axis sums in another order
            out[ids, 0] = [np.mean(g[iu]) for g in gamma]
        else:
            out[ids, 0] = np.any(stack, axis=(1, 2))
    live = report.proxy_norm > 0.0
    out[:, 1] = [np.mean(report.cos_ref[a:b][live[a:b]]) if live[a:b].any() else 0.0
                 for a, b in lay.runs]
    out[:, 2] = sensitivity_norm(deltas)
    # a mean of 0/1 values is its count over its length, and a count is exact
    flags = np.stack([report.clip_factor < 1.0, report.attenuated], axis=1)
    out[:, 3:] = np.add.reduceat(flags, lay.starts, dtype=np.float64) / lay.sizes[:, None]
    return out


def _train(cfg: RunConfig, seeds: tuple[int, ...]
           ) -> tuple[np.ndarray, list[list[str]], DivergenceError | None]:
    """Build every seed, then run T rounds of all of them in lockstep.

    Each round is one ``local_train`` call and one
    ``regulate_and_aggregate`` call for every seed: the seeds' global
    shared parameters are one (R, L) matrix and their server state one
    ``ReferenceStack``. Returns the CSV values of the seeds that
    finished, a prefix of ``seeds`` (R, T, 6: each round's test_acc and
    ``_round_metrics``), their JSONL rows, one list per seed, and the
    DivergenceError of the first seed that diverged, naming that seed
    (None when none did). A seed that diverges is dropped with every
    later seed, as a run of the seeds one after another stops at the
    first that diverges; the others keep the first rows of the
    parameters and the server state and retry the round in the
    federation's ``first_runs``, which holds their clients' trained
    parameters as the failed round left them.
    """
    built = [build_clients(cfg, s) for s in seeds]
    shared = [flatten(params, group=SHARED) for _, params in built]
    # fixes the proxy length for this layout, which every seed shares
    probe = proxy_map(shared[0], cfg.server)
    params = np.stack([v.values for v in shared])
    ref = initial_reference(probe.values.shape[0], len(seeds))
    values = np.empty((len(seeds), cfg.rounds, 6))
    jsonl: list[list[str]] = [[] for _ in seeds]
    failed = None
    # one run per seed
    fed = Federation([c for clients, _ in built for c in clients], cfg.model, cfg.client,
                     tuple(len(clients) for clients, _ in built))
    t = 1
    while len(params) and t <= cfg.rounds:
        try:
            updates = local_train(fed, params, round_index=t)
        except DivergenceError as e:
            failed = DivergenceError(e.round_index, e.client_id, e.run, seed=seeds[e.run])
            params, ref = params[:e.run], ref[:e.run]
            if e.run:
                fed = fed.first_runs(e.run)
            continue
        deltas, ref, report = regulate_and_aggregate(updates, ref, cfg.server)
        params = params + deltas
        values[:len(params), t - 1, 0] = _evaluate(fed, params)
        values[:len(params), t - 1, 1:] = _round_metrics(updates, report, deltas)
        rows = _round_rows(report, t)
        for seed_rows, (a, b) in zip(jsonl, report.runs):
            seed_rows.extend(rows[a:b])
        t += 1
    return values[:len(params)], jsonl[:len(params)], failed


def _mean_std(per_seed: list[float]) -> dict:
    arr = np.asarray(per_seed)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _summary(cfg: RunConfig, seeds: tuple[int, ...], values: np.ndarray) -> dict:
    """summary.json over the seeds that finished, the first len(values);
    it reads the test_acc, alignment and sensitivity columns of
    ``_train``'s (R, T, 6) CSV values."""
    summary = {
        "name": cfg.name,
        "regulation": cfg.server.mode,
        "trainer": cfg.client.trainer,
        "rounds": cfg.rounds,
        "seeds": list(seeds[:len(values)]),
        "clients": cfg.n_clients,
    }
    if len(values):
        tail = slice(-min(_SUMMARY_TAIL, cfg.rounds), None)
        by_metric = dict(zip(("test_acc", "alignment", "sensitivity"),
                             values[:, :, [0, 2, 3]].transpose(2, 0, 1)))
        summary["last10"] = {
            k: _mean_std([float(c[tail].mean()) for c in v]) for k, v in by_metric.items()
        }
        summary["trajectory"] = {
            k: [float(x) for x in np.mean(v, axis=0)] for k, v in by_metric.items()
        }
    return summary


def run(cfg: RunConfig, seed: int | None = None, out: str | None = None) -> RunResult:
    """Run the configured federation for every seed and emit the files.

    ``seed``/``out`` override the config's seed list / output directory;
    a negative ``seed``, or one whose partition seeds would be, is an
    InputError raised before anything is written. Every seed is built
    before the first round, so a seed that cannot be built fails the run
    before any round trains. When a seed diverges, the rows of the seeds
    before it and a summary of them naming the failed seed, round and
    client are written before the ``DivergenceError``, which names them
    too, propagates.
    """
    if seed is not None:
        check_integer("seed", seed)
        if seed < 0:
            raise InputError(f"seed must be >= 0, got {seed}")
        for j in range(len(cfg.sources)):
            cfg.partition_spec(j, seed)
    seeds = (seed,) if seed is not None else cfg.seeds
    out_dir = Path(out if out is not None else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.raw_text)

    values, jsonl, failed = _train(cfg, seeds)
    finished = seeds[:len(values)]
    csv_path = out_dir / "metrics.csv"
    csv_path.write_text("\n".join([CSV_HEADER, *(
        f"{t},{s}," + ",".join(map(repr, row))
        for s, rounds in zip(finished, values.tolist()) for t, row in enumerate(rounds, 1)
    )]) + "\n")
    jsonl_paths = []
    for s, rows in zip(finished, jsonl):
        p = out_dir / f"regulation_seed{s}.jsonl"
        p.write_text("\n".join(rows) + "\n")
        jsonl_paths.append(p)
    summary = _summary(cfg, seeds, values)
    if failed is not None:
        summary["failed"] = {"seed": failed.seed, "round": failed.round_index,
                             "client": failed.client_id}
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if failed is not None:
        raise failed

    return RunResult(
        out_dir=out_dir,
        csv_path=csv_path,
        jsonl_paths=tuple(jsonl_paths),
        summary_path=summary_path,
        summary=summary,
    )


def partition_report(cfg: RunConfig) -> str:
    """Human-readable table of the partition under the first run seed:
    per client, node/train counts, class shares, density, mean degree."""
    run_seed = cfg.seeds[0]
    pairs = _client_graphs(cfg, run_seed)
    n_classes = max(g.n_classes for _, g in pairs)
    lines = [
        f"partition report: {cfg.name} (seed {run_seed}, alpha {cfg.alpha})",
        "client source nodes train  density mean_deg  " +
        " ".join(f"class{c}" for c in range(n_classes)),
    ]
    for cid, (j, g) in enumerate(pairs):
        dens = graph_density(g) if g.n_nodes >= 2 else float("nan")
        shares = np.bincount(g.labels, minlength=n_classes) / g.n_nodes
        lines.append(
            f"{cid:6d} {j:6d} {g.n_nodes:5d} {int(g.train_mask.sum()):5d} "
            f"{dens:8.4f} {mean_degree(g):8.4f}  "
            + " ".join(f"{s:6.3f}" for s in shares)
        )
    total = sum(g.n_nodes for _, g in pairs)
    lines.append(f"total nodes: {total}")
    return "\n".join(lines)
