"""End-to-end federated training runs: build, loop, measure, emit.

Per seed the harness builds the configured graph sources, Dirichlet-
partitions each among its clients, initializes one global model, batches
the clients into one ``Federation``, and runs T synchronous rounds:
broadcast the shared parameters, train every client locally (one
``local_train`` call for the whole federation), aggregate on the server
(plain weighted mean or the regulated pipeline), apply the global
delta, evaluate (one forward over every client's test rows). Clients
sit in the batch and are reduced in ascending id order, so given
(config, seed) every emitted byte is reproducible.

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

from .client import ClientState, Federation, local_train
from .config import DataSource, RunConfig
from .errors import ConfigError, DivergenceError, InputError
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
from .model import SHARED, ParameterSet, flatten, forward, init_params
# no caller here; perfbench's tracer patches it by name (ROADMAP item 1)
from .model import unflatten  # noqa: F401
from .partition import dirichlet_label_partition
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


def _client_graphs(cfg: RunConfig, run_seed: int) -> list[tuple[int, Graph]]:
    """All client graphs for one run seed, as (source_index, graph)."""
    out: list[tuple[int, Graph]] = []
    for j, src in enumerate(cfg.sources):
        g = _source_graph(src, seed=1000 * run_seed + j)
        if src.clients == 1:
            parts = [g]
        else:
            parts = dirichlet_label_partition(g, cfg.partition_spec(j, run_seed))
        out.extend((j, p) for p in parts)
    return out


def build_clients(cfg: RunConfig, run_seed: int) -> tuple[list[ClientState], ParameterSet]:
    """Client states plus the initial global model for one run seed.

    Clients without train nodes are left out of the federation (they
    could neither train nor report a displacement); at least one must
    remain. Feature width and class count must agree across sources
    because the encoder (and the initial head) are shared.
    """
    pairs = _client_graphs(cfg, run_seed)
    dims = {g.feature_dim for _, g in pairs}
    if len(dims) != 1:
        raise InputError(f"sources disagree on feature width: {sorted(dims)}")
    n_classes = max(g.n_classes for _, g in pairs)

    global_params = init_params(
        cfg.model, dims.pop(), n_classes, seed=run_seed,
        cross_domain=cfg.regime == "cross_domain",
    )

    clients = []
    cid = 0
    for _, g in pairs:
        if int(g.train_mask.sum()) < 1:
            cid += 1
            continue
        clients.append(ClientState(client_id=cid, graph=g, adj=normalized_adjacency(g),
                                   params=global_params))
        cid += 1
    if not clients:
        raise InputError("no client has any train nodes")
    return clients, global_params


def _evaluate(fed: Federation, shared) -> float:
    """Micro-averaged test accuracy of the current global model: one
    forward over every client's test rows, each client with the broadcast
    shared parameters and its own persistent layers (the local head in
    cross-domain mode), and one ``accuracy`` over all of them. NaN when
    no client has test nodes.
    """
    if fed.test.index.size == 0:
        return float("nan")
    logits = forward(fed.params(shared), fed.batch, fed.test, fed.model.activation)[1][-1]
    return accuracy(logits, fed.test.pick[1])


def _fmt(x: float) -> str:
    return repr(float(x))


def _round_rows(report: RegulationReport, round_index: int) -> list[str]:
    """One JSONL row per client, the text ``json.dumps`` gives the object
    {round, client, cos_ref, atten, retention, clip}. ``ClientRegulation``
    range-checks every value, so each float is finite and its JSON is its
    ``repr``."""
    return [
        f'{{"round": {round_index}, "client": {c.client_id}, "cos_ref": {float(c.cos_ref)!r}, '
        f'"atten": {"true" if c.attenuated else "false"}, '
        f'"retention": [{", ".join([repr(float(r)) for r in c.retention])}], '
        f'"clip": {float(c.clip_factor)!r}}}'
        for c in report.clients
    ]


def _run_one_seed(cfg: RunConfig, run_seed: int):
    """Execute T rounds for one seed; returns (csv rows, jsonl rows,
    per-round accuracy/alignment/sensitivity arrays)."""
    clients, global_params = build_clients(cfg, run_seed)
    shared = flatten(global_params, group=SHARED)
    probe = proxy_map(shared, cfg.server)  # fixes the proxy length for this layout
    ref = initial_reference(probe.values.shape[0])
    fed = Federation(clients, cfg.model, cfg.client)

    csv_rows: list[str] = []
    jsonl_rows: list[str] = []
    acc_tr = np.zeros(cfg.rounds)
    ali_tr = np.zeros(cfg.rounds)
    sen_tr = np.zeros(cfg.rounds)

    for t in range(1, cfg.rounds + 1):
        updates = local_train(fed, shared, round_index=t)

        global_delta, ref, report = regulate_and_aggregate(updates, ref, cfg.server)
        new_values = shared.values + global_delta.values
        shared = type(shared)(values=new_values, layout=shared.layout)

        test_acc = _evaluate(fed, shared)

        if len(updates.deltas) >= 2:
            gamma, _ = pairwise_coherence(updates.deltas)
            iu = np.triu_indices(len(updates.deltas), k=1)
            gamma_mean = float(np.mean(gamma[iu]))
        else:
            gamma_mean = 1.0 if np.any(updates.deltas) else 0.0

        live = [c for c in report.clients if c.proxy_norm > 0.0]
        alignment = float(np.mean([c.cos_ref for c in live])) if live else 0.0
        sensitivity = sensitivity_norm(global_delta.values)
        clip_rate = float(np.mean([c.clip_factor < 1.0 for c in report.clients]))
        atten_rate = float(np.mean([c.attenuated for c in report.clients]))

        csv_rows.append(
            f"{t},{run_seed},{_fmt(test_acc)},{_fmt(gamma_mean)},{_fmt(alignment)},"
            f"{_fmt(sensitivity)},{_fmt(clip_rate)},{_fmt(atten_rate)}"
        )
        jsonl_rows.extend(_round_rows(report, t))
        acc_tr[t - 1] = test_acc
        ali_tr[t - 1] = alignment
        sen_tr[t - 1] = sensitivity

    return csv_rows, jsonl_rows, acc_tr, ali_tr, sen_tr


def _mean_std(per_seed: list[float]) -> dict:
    arr = np.asarray(per_seed)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _summary(cfg: RunConfig, seeds: tuple[int, ...], curves: list[list[np.ndarray]]) -> dict:
    """summary.json over the seeds that finished, the first len(curves);
    ``curves`` holds each one's per-round accuracy, alignment and
    sensitivity."""
    summary = {
        "name": cfg.name,
        "regulation": cfg.server.mode,
        "trainer": cfg.client.trainer,
        "rounds": cfg.rounds,
        "seeds": list(seeds[:len(curves)]),
        "clients": cfg.n_clients,
    }
    if curves:
        tail = slice(-min(_SUMMARY_TAIL, cfg.rounds), None)
        by_metric = dict(zip(("test_acc", "alignment", "sensitivity"), zip(*curves)))
        summary["last10"] = {
            k: _mean_std([float(c[tail].mean()) for c in v]) for k, v in by_metric.items()
        }
        summary["trajectory"] = {
            k: [float(x) for x in np.mean(v, axis=0)] for k, v in by_metric.items()
        }
    return summary


def run(cfg: RunConfig, seed: int | None = None, out: str | None = None) -> RunResult:
    """Run the configured federation for every seed and emit the files.

    ``seed``/``out`` override the config's seed list / output directory.
    When a seed diverges, the finished seeds' rows and a summary of them
    naming the failed seed, round and client are written before the
    ``DivergenceError`` propagates.
    """
    seeds = (seed,) if seed is not None else cfg.seeds
    out_dir = Path(out if out is not None else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.raw_text)

    all_csv: list[str] = [CSV_HEADER]
    jsonl_paths: list[Path] = []
    curves: list[list[np.ndarray]] = []

    csv_path = out_dir / "metrics.csv"
    summary_path = out_dir / "summary.json"
    try:
        for s in seeds:
            csv_rows, jsonl_rows, *trajectories = _run_one_seed(cfg, s)
            all_csv.extend(csv_rows)
            p = out_dir / f"regulation_seed{s}.jsonl"
            p.write_text("\n".join(jsonl_rows) + "\n")
            jsonl_paths.append(p)
            curves.append(trajectories)
    except DivergenceError as e:
        summary = _summary(cfg, seeds, curves)
        summary["failed"] = {"seed": s, "round": e.round_index, "client": e.client_id}
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        raise
    finally:
        # a seed that diverges does not lose the rows of the seeds before it
        csv_path.write_text("\n".join(all_csv) + "\n")

    summary = _summary(cfg, seeds, curves)
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

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
