"""End-to-end federated training runs: build, loop, measure, emit.

Per seed the harness builds the configured graph sources, Dirichlet-
partitions each among its clients and initializes one global model,
all before the first round. It batches every seed's clients into one
``Federation``, one run per seed, and runs T synchronous rounds of all
seeds in lockstep: broadcast each seed's shared parameters, train every
client locally (one ``local_train`` call for all seeds), aggregate each
seed on its own server (plain weighted mean or the regulated pipeline),
apply each seed's global delta, evaluate (one forward over every
client's test rows). No seed's values enter another's arithmetic, and
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .client import ClientState, Federation, RoundUpdates, local_train
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
from .model import SHARED, FlatVector, ParameterSet, flatten, forward, init_params
# no caller here; perfbench's tracer patches it by name (ROADMAP item 1)
from .model import unflatten  # noqa: F401
from .partition import dirichlet_label_partition
from .server import (
    GeometricReference,
    RegulationReport,
    initial_reference,
    proxy_map,
    regulate_and_aggregate,
)

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


def _evaluate(fed: Federation, broadcasts: list[FlatVector]) -> list[float]:
    """Micro-averaged test accuracy of each run's current global model:
    one forward over every client's test rows, each client with its
    run's broadcast shared parameters and its own persistent layers (the
    local head in cross-domain mode), and one ``accuracy`` per run over
    its clients' rows. NaN for a run whose clients have no test nodes.
    """
    if fed.test.index.size == 0:
        return [float("nan")] * len(broadcasts)
    logits = forward(fed.params(broadcasts), fed.batch, fed.test, fed.model.activation)[1][-1]
    bounds = fed.test.bounds.tolist()
    return [accuracy(logits[bounds[a]:bounds[b]], fed.test.pick[1][bounds[a]:bounds[b]])
            if bounds[b] > bounds[a] else float("nan")
            for a, b in fed.runs]


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


@dataclass
class _Seed:
    """One run seed of a run: its clients, the global shared parameters
    and server reference it carries from round to round, and its rows
    and per-round accuracy, alignment and sensitivity (``curves``) so far."""

    seed: int
    clients: list[ClientState]
    shared: FlatVector
    ref: GeometricReference
    curves: np.ndarray  # (3, T)
    csv_rows: list[str] = field(default_factory=list)
    jsonl_rows: list[str] = field(default_factory=list)

    def record(self, t: int, test_acc: float, updates: RoundUpdates,
               global_delta: FlatVector, report: RegulationReport) -> None:
        """Round t's CSV row, JSONL rows and curve values."""
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

        self.csv_rows.append(
            f"{t},{self.seed},{_fmt(test_acc)},{_fmt(gamma_mean)},{_fmt(alignment)},"
            f"{_fmt(sensitivity)},{_fmt(clip_rate)},{_fmt(atten_rate)}"
        )
        self.jsonl_rows.extend(_round_rows(report, t))
        self.curves[:, t - 1] = test_acc, alignment, sensitivity


def _federation(cfg: RunConfig, seeds: list[_Seed]) -> Federation:
    """One Federation of the seeds' clients, one run per seed."""
    return Federation([c for s in seeds for c in s.clients], cfg.model, cfg.client,
                      tuple(len(s.clients) for s in seeds))


def _train(cfg: RunConfig, seeds: tuple[int, ...]) -> tuple[list[_Seed], DivergenceError | None]:
    """Build every seed, then run T rounds of all of them in lockstep.

    Returns the seeds that finished, a prefix of ``seeds``, and the
    DivergenceError of the first seed that diverged (None when none
    did). A seed that diverges is dropped with every later seed, as a run
    of the seeds one after another stops at the first that diverges; the
    others retry the round in a federation rebuilt from their clients,
    whose parameters the failed round left as they were.
    """
    built = [build_clients(cfg, s) for s in seeds]
    shared = [flatten(params, group=SHARED) for _, params in built]
    # fixes the proxy length for this layout, which every seed shares
    probe = proxy_map(shared[0], cfg.server)
    live = [_Seed(s, clients, v, initial_reference(probe.values.shape[0]),
                  np.zeros((3, cfg.rounds)))
            for s, (clients, _), v in zip(seeds, built, shared)]
    failed = None
    fed = _federation(cfg, live)
    t = 1
    while live and t <= cfg.rounds:
        try:
            updates = local_train(fed, [s.shared for s in live], round_index=t)
        except DivergenceError as e:
            failed, live = e, live[:e.run]
            if live:
                fed = _federation(cfg, live)
            continue
        applied = []
        for s, u in zip(live, updates):
            global_delta, s.ref, report = regulate_and_aggregate(u, s.ref, cfg.server)
            s.shared = FlatVector(values=s.shared.values + global_delta.values,
                                  layout=s.shared.layout)
            applied.append((global_delta, report))
        accuracies = _evaluate(fed, [s.shared for s in live])
        for s, u, acc, (global_delta, report) in zip(live, updates, accuracies, applied):
            s.record(t, acc, u, global_delta, report)
        t += 1
    return live, failed


def _mean_std(per_seed: list[float]) -> dict:
    arr = np.asarray(per_seed)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _summary(cfg: RunConfig, seeds: tuple[int, ...], curves: list[np.ndarray]) -> dict:
    """summary.json over the seeds that finished, the first len(curves);
    ``curves`` holds each one's per-round accuracy, alignment and
    sensitivity, one row each."""
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

    ``seed``/``out`` override the config's seed list / output directory;
    a negative ``seed``, or one whose partition seeds would be, is an
    InputError raised before anything is written. Every seed is built
    before the first round, so a seed that cannot be built fails the run
    before any round trains. When a seed diverges, the rows of the seeds
    before it and a summary of them naming the failed seed, round and
    client are written before the ``DivergenceError`` propagates.
    """
    if seed is not None:
        if seed < 0:
            raise InputError(f"seed must be >= 0, got {seed}")
        for j in range(len(cfg.sources)):
            cfg.partition_spec(j, seed)
    seeds = (seed,) if seed is not None else cfg.seeds
    out_dir = Path(out if out is not None else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.raw_text)

    finished, failed = _train(cfg, seeds)
    csv_path = out_dir / "metrics.csv"
    csv_path.write_text("\n".join([CSV_HEADER, *(r for s in finished for r in s.csv_rows)]) + "\n")
    jsonl_paths = []
    for s in finished:
        p = out_dir / f"regulation_seed{s.seed}.jsonl"
        p.write_text("\n".join(s.jsonl_rows) + "\n")
        jsonl_paths.append(p)
    summary = _summary(cfg, seeds, [s.curves for s in finished])
    if failed is not None:
        summary["failed"] = {"seed": seeds[len(finished)], "round": failed.round_index,
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
