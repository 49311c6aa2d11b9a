"""Spans around fedgeo's public functions, patched in from outside.

``install(rounds)`` replaces each traced function under the name it is
looked up by: the harness binds names at import (``from .model import
forward``), so e.g. training reaches ``forward`` through
``fedgeo.model.forward`` while evaluation reaches it through
``fedgeo.harness.forward``. Patching the wrong name reads zero calls,
which the self-checks catch.

A span is ``(name, start, end, parent)``; spans stay in memory and
``Tracer.metrics`` reduces them to the per-layer metrics. A layer's self
time is its spans' total minus the time their direct child spans cover.
"""

from __future__ import annotations

import time

import numpy as np

import fedgeo.client
import fedgeo.config
import fedgeo.graphs
import fedgeo.harness
import fedgeo.model
import fedgeo.server

# The harness's own span: time under it is not attributed to a layer.
_ROOT = "harness.run"


class Tracer:
    def __init__(self, rounds: int):
        self.rounds = rounds
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []
        self.counts = {
            "graphs.nodes": 0, "graphs.edges": 0, "partition.clients": 0,
            "basis_refreshes": 0, "window_width_sum": 0, "basis_unused": 0,
            "update_reference_calls": 0, "proxy_projected": 0,
            "projection_bytes": 0, "regulated_clients": 0, "attenuated": 0,
            "clipped": 0, "adj_matmul_repeat": 0,
        }
        # id(adjacency) -> (adjacency, features): the operand that
        # recomputes a constant message A_hat @ X
        self._features: dict[int, tuple[object, np.ndarray]] = {}

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, *args)`` counts."""
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    # counters taken where the work happens

    def _graph(self, g, *args, **kwargs):
        self.counts["graphs.nodes"] += g.n_nodes
        self.counts["graphs.edges"] += g.n_edges

    def _adjacency(self, adj, g):
        self._features[id(adj)] = (adj, g.features)

    def _matmul_before(self, adj, other):
        entry = self._features.get(id(adj))
        if entry is not None and other is entry[1]:
            self.counts["adj_matmul_repeat"] += 1

    def _split(self, parts, *args, **kwargs):
        self.counts["partition.clients"] += len(parts)

    def _proxy(self, proxy, delta, cfg):
        d_in = delta.values.shape[0]
        d_out = proxy.values.shape[0]
        if d_out != d_in:
            self.counts["proxy_projected"] += 1
            self.counts["projection_bytes"] += d_in * d_out * 8

    def _reference(self, new_ref, ref, proxies, weights, cfg):
        calls = self.counts["update_reference_calls"]
        self.counts["update_reference_calls"] = calls + 1
        width = min(len(ref.window) + len(proxies), cfg.window)
        if cfg.subspace_dim == 0 or width < cfg.subspace_dim:
            return
        self.counts["basis_refreshes"] += 1
        self.counts["window_width_sum"] += width
        # a plain server never reads the basis; nothing reads the last round's
        if cfg.mode == "plain" or calls % self.rounds == self.rounds - 1:
            self.counts["basis_unused"] += 1

    def _regulated(self, result, *args, **kwargs):
        report = result[2]
        self.counts["regulated_clients"] += len(report.clients)
        self.counts["attenuated"] += sum(c.attenuated for c in report.clients)
        self.counts["clipped"] += sum(c.clip_factor < 1.0 for c in report.clients)

    def install(self):
        h, m, c, s = fedgeo.harness, fedgeo.model, fedgeo.client, fedgeo.server
        w = self.wrap
        fedgeo.config.parse_config = w("config.parse", fedgeo.config.parse_config)
        h.run = w("harness.run", h.run)
        h.planted_partition_graph = w("graphs.generate", h.planted_partition_graph, self._graph)
        h.normalized_adjacency = w("graphs.normalize", h.normalized_adjacency, self._adjacency)
        h.dirichlet_label_partition = w(
            "partition.split", h.dirichlet_label_partition, self._split)
        h.local_train = w("client.local_train", h.local_train)
        c.gradient = w("model.gradient", c.gradient)
        m.forward = w("model.forward_train", m.forward)
        h.forward = w("model.forward_eval", h.forward)
        for mod in (m, c, h):
            mod.flatten = w("model.layout", mod.flatten)
            mod.unflatten = w("model.layout", mod.unflatten)
        matmul = w("model.adj_matmul", fedgeo.graphs.NormalizedAdjacency.__matmul__)

        def adj_matmul(adj, other):
            self._matmul_before(adj, other)
            return matmul(adj, other)
        fedgeo.graphs.NormalizedAdjacency.__matmul__ = adj_matmul
        h.regulate_and_aggregate = w("server.regulate", h.regulate_and_aggregate, self._regulated)
        h.proxy_map = w("server.proxy_map", h.proxy_map, self._proxy)
        s.proxy_map = w("server.proxy_map", s.proxy_map, self._proxy)
        s.update_reference = w("server.update_reference", s.update_reference, self._reference)
        s.align_regulate = w("server.align", s.align_regulate)
        s.subspace_project = w("server.project", s.subspace_project)
        s.sensitivity_normalize = w("server.clip", s.sensitivity_normalize)
        h.pairwise_coherence = w("metrics.coherence", h.pairwise_coherence)
        h.accuracy = w("metrics.accuracy", h.accuracy)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every span, for a traced wall time."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        attributed = 0.0
        ancestry: list[bool] = []  # span is inside a non-harness span
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + dur
            inside = parent >= 0 and (ancestry[parent] or self.spans[parent][0] != _ROOT)
            ancestry.append(inside)
            if not inside and name != _ROOT:
                attributed += dur
        self_s: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(i, 0.0)
        train_ms = [1e3 * (e - b) for n, b, e, _ in self.spans if n == "client.local_train"]
        calls = self.calls()
        k = self.counts
        refreshes = k["basis_refreshes"]
        return {
            "server.update_reference_s": total.get("server.update_reference", 0.0),
            "server.basis_refreshes": refreshes,
            "server.window_width_mean": k["window_width_sum"] / refreshes if refreshes else 0.0,
            "server.basis_unused_share": k["basis_unused"] / refreshes if refreshes else 0.0,
            "server.proxy_map_s": total.get("server.proxy_map", 0.0),
            "server.proxy_map_calls": calls.get("server.proxy_map", 0),
            "server.proxy_projected_share":
                k["proxy_projected"] / calls["server.proxy_map"] if calls.get("server.proxy_map") else 0.0,
            "server.projection_bytes": k["projection_bytes"],
            "server.regulate_s": total.get("server.regulate", 0.0),
            "server.regulate_self_s": self_s.get("server.regulate", 0.0),
            "server.align_s": total.get("server.align", 0.0),
            "server.project_s": total.get("server.project", 0.0),
            "server.clip_s": total.get("server.clip", 0.0),
            "server.attenuated_share":
                k["attenuated"] / k["regulated_clients"] if k["regulated_clients"] else 0.0,
            "server.clipped_share":
                k["clipped"] / k["regulated_clients"] if k["regulated_clients"] else 0.0,
            "model.gradient_calls": calls.get("model.gradient", 0),
            "model.gradient_self_s": self_s.get("model.gradient", 0.0),
            "model.forward_train_s": total.get("model.forward_train", 0.0),
            "model.forward_eval_s": total.get("model.forward_eval", 0.0),
            "model.adj_matmul_calls": calls.get("model.adj_matmul", 0),
            "model.adj_matmul_s": total.get("model.adj_matmul", 0.0),
            "model.adj_matmul_repeat_share":
                k["adj_matmul_repeat"] / calls["model.adj_matmul"] if calls.get("model.adj_matmul") else 0.0,
            "model.layout_calls": calls.get("model.layout", 0),
            "model.layout_s": total.get("model.layout", 0.0),
            "client.updates": len(train_ms),
            "client.local_train_s": total.get("client.local_train", 0.0),
            "client.local_train_self_s": self_s.get("client.local_train", 0.0),
            "client.local_train_ms_p50": float(np.percentile(train_ms, 50)) if train_ms else 0.0,
            "client.local_train_ms_p90": float(np.percentile(train_ms, 90)) if train_ms else 0.0,
            "graphs.generate_s": total.get("graphs.generate", 0.0),
            "graphs.nodes": k["graphs.nodes"],
            "graphs.edges": k["graphs.edges"],
            "graphs.normalize_s": total.get("graphs.normalize", 0.0),
            "partition.split_s": total.get("partition.split", 0.0),
            "partition.clients": k["partition.clients"],
            "config.parse_s": total.get("config.parse", 0.0),
            "metrics.coherence_s": total.get("metrics.coherence", 0.0),
            "metrics.accuracy_s": total.get("metrics.accuracy", 0.0),
            "harness.run_self_s": self_s.get("harness.run", 0.0),
            "trace.unattributed_share": (wall_s - attributed) / wall_s,
        }
