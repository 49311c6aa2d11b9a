"""Server-side aggregation: plain weighted averaging and geometric regulation.

The regulated path maps each client's shared-parameter displacement to a
fixed-length proxy direction (layer-normalized, mass-weighted,
optionally sign-projected down to a fixed dimension), then pushes the
proxy through three gates against the server's running geometric state:

  1. directional gate  — proxies pointing away from the reference r are
     attenuated by beta;
  2. subspace gate     — proxies are projected onto the span of the
     dominant directions of the recent proxy window;
  3. magnitude gate    — proxy norms are capped at epsilon (fixed, or
     the median of the round's raw proxy norms).

Each gate contributes a scalar gain, and client k's update is rescaled
layer by layer with c_{k,l} = align_k · retention_{k,b(l)} · clip_k
before the weighted sum, where b(l) is the proxy block holding layer l:
l itself, or the single block of a sign-projected proxy. The reference
follows the raw proxies by exponential smoothing, and both modes (plain
and regulated) maintain it, so the alignment diagnostics are comparable
across modes. Only the subspace gate reads the proxy window and its
basis, so a plain server keeps neither.

A round arrives as one (K x L) delta matrix (``client.RoundUpdates``)
whose rows belong to R runs, independent servers such as the harness's
seeds. Their state is one ``ReferenceStack`` (a one-run server is the
R = 1 stack ``initial_reference(d)`` starts), and a round returns the
(R x L) matrix of their global deltas. Each gate acts on every row at
once, against the row's own run's reference, basis and cap; each run's
weighted sums add its rows in ascending client order from +0.0; and a
regulating server refreshes the bases of the runs whose windows hold
the same number of proxies by one stacked Gram/eigh/QR pass. What a
round reads that changes only with the federation (the runs' rows, the
order that sorts each run's rows by client id, the weights, the groups
of runs of one size) is a ``RunLayout``, the one record of a round's
runs, built once per federation (``client.Federation.run_layout``) and
carried by every round's ``RoundUpdates``. Products that mix rows (the
sign projection, the Gram matrices) stack the runs along a leading
axis instead of concatenating them, so each run gets
the bits of its own one-run round. An unprojected row also gets the
bits a one-client round gives it; a projected one does not, as a
one-row projection is a matrix-vector product. Given the same inputs
the round is bitwise deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, check_integer, check_real
from .metrics import sensitivity_norm
from .model import FlatVector, LayerSpec, layer_slices

if TYPE_CHECKING:  # client.py reads RunLayout from here
    from .client import RoundUpdates

__all__ = [
    "MODES",
    "WEIGHTINGS",
    "FALLBACKS",
    "REFERENCES",
    "AggregatorConfig",
    "ProxyVector",
    "ReferenceStack",
    "RunLayout",
    "ClientRegulation",
    "RegulationReport",
    "initial_reference",
    "run_stacks",
    "check_projection",
    "check_window",
    "proxy_map",
    "update_reference",
    "align_regulate",
    "subspace_project",
    "sensitivity_normalize",
    "regulate_and_aggregate",
]

# full-length proxies above this size are sign-projected down
_REDUCE_ABOVE = 4096
_REDUCED_DIM = 1024
_PROXY_SEED = 97  # seeds the sign projection
_SIGN_ROWS = 256  # sign-matrix rows drawn at once: 1 MB of raw bits at 1024 columns
# the largest sign matrix drawn: 512 MiB holds the 389 MiB of a 767-feature,
# 64-hidden model's 49,802-long proxies at 1024 columns
_MAX_SIGN_BYTES = 512 * 2**20
# the most proxies a ggrs window may come to hold: its basis refresh, an
# eigh of the fill x fill Gram, took about 40 ms per run and round at 512
# and 240 ms at 1024 (1 BLAS thread on a 2-vCPU Xeon host, 200- and
# 1024-long proxies alike)
_MAX_WINDOW_FILL = 512

MODES = ("plain", "ggrs")
WEIGHTINGS = ("uniform", "by_train_count")
FALLBACKS = ("largest", "none")
REFERENCES = ("raw", "regulated")


@dataclass(frozen=True)
class AggregatorConfig:
    mode: str = "plain"                 # one of MODES
    alpha: float = 0.9                  # reference smoothing
    beta: float = 0.5                   # misaligned-update attenuation
    epsilon: float | str = "adaptive"   # norm cap, or per-round median
    subspace_dim: int = 8               # m; 0 disables the subspace gate
    window: int = 32                    # proxy history length W
    proxy_dim: int | None = None        # None = auto, 0 = never reduce
    weights: str = "uniform"            # one of WEIGHTINGS
    fallback: str = "largest"           # zero-reference rule, one of FALLBACKS
    reference: str = "raw"              # EMA source, one of REFERENCES

    def __post_init__(self):
        check_integer("subspace_dim", self.subspace_dim)
        check_integer("window", self.window)
        if self.proxy_dim is not None:
            check_integer("proxy_dim", self.proxy_dim)
        for name in ("alpha", "beta"):
            check_real(name, getattr(self, name))
        if not isinstance(self.epsilon, str):
            check_real("epsilon", self.epsilon)
        if self.mode not in MODES:
            raise InputError(f"unknown aggregation mode {self.mode!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise InputError("alpha must be in [0, 1)")
        if not (0.0 <= self.beta < 1.0):
            raise InputError("beta must be in [0, 1)")
        if (self.epsilon != "adaptive" if isinstance(self.epsilon, str)
                else not (math.isfinite(self.epsilon) and self.epsilon > 0.0)):
            raise InputError(f"epsilon must be a finite positive number or 'adaptive', "
                             f"not {self.epsilon!r}")
        if self.subspace_dim < 0 or self.window < 1:
            raise InputError("subspace_dim must be >= 0 and window >= 1")
        if self.subspace_dim > self.window:
            raise InputError("subspace_dim must not exceed window")
        if self.proxy_dim is not None and self.proxy_dim < 0:
            raise InputError("proxy_dim must be None, 0, or positive")
        if self.weights not in WEIGHTINGS:
            raise InputError(f"unknown weighting {self.weights!r}")
        if self.fallback not in FALLBACKS:
            raise InputError(f"unknown fallback {self.fallback!r}")
        if self.reference not in REFERENCES:
            raise InputError(f"unknown reference source {self.reference!r}")


@dataclass(frozen=True)
class ProxyVector:
    """Fixed-length direction summary of one client's update.

    ``blocks`` are the (start, stop) spans of the per-layer segments
    inside ``values`` — one span per layer, or a single span covering
    everything once dimension reduction has mixed the layers.
    """

    values: np.ndarray
    layer_norms: tuple[float, ...]
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReferenceStack:
    """The server state of each of R runs, as stacked arrays: the
    smoothed reference directions ``r`` (R, d), the ring buffers of the
    last W proxies and orthonormal bases of their dominant directions.

    Run i's window, oldest first, is the last ``fill[i]`` rows of
    ``window[i]`` (R, n, d), and its basis the first ``rank[i]`` columns
    of ``basis[i]`` (R, d, m); the rest is zero. ``stack[a:b]`` holds
    runs a to b - 1.
    """

    r: np.ndarray
    window: np.ndarray
    fill: np.ndarray
    basis: np.ndarray
    rank: np.ndarray

    def __getitem__(self, runs: slice) -> ReferenceStack:
        return ReferenceStack(r=self.r[runs], window=self.window[runs], fill=self.fill[runs],
                              basis=self.basis[runs], rank=self.rank[runs])


def initial_reference(dim: int, runs: int = 1) -> ReferenceStack:
    """The state of ``runs`` servers of ``dim``-long proxies before their
    first round: zero references, empty windows and bases."""
    return ReferenceStack(r=np.zeros((runs, dim)), window=np.zeros((runs, 0, dim)),
                          fill=np.zeros(runs, dtype=np.intp), basis=np.zeros((runs, dim, 0)),
                          rank=np.zeros(runs, dtype=np.intp))


@dataclass(frozen=True)
class ClientRegulation:
    """Realized regulation of one client in one round."""

    client_id: int
    proxy_norm: float
    cos_ref: float                      # cosine(raw proxy, effective reference)
    align_factor: float                 # 1 or beta
    attenuated: bool
    retention: tuple[float, ...]        # per proxy block, in [0, 1]
    clip_factor: float                  # in (0, 1]
    coefficients: tuple[float, ...]     # per layer: align * retention * clip


@dataclass(frozen=True)
class RegulationReport:
    """Realized regulation of one round of R runs, one row per client:
    rows in ascending client id order within each run, run r's rows
    ``runs[r]`` = (start, stop). Each cosine lies in [-1, 1] and each
    factor in [0, 1], up to 1e-12 (InputError otherwise), so every value
    is finite. ``clients`` gives the rows as ``ClientRegulation``s.
    """

    client_ids: np.ndarray          # (K,)
    runs: tuple[tuple[int, int], ...]
    proxy_norm: np.ndarray          # (K,)
    cos_ref: np.ndarray             # (K,) cosine(raw proxy, effective reference)
    align_factor: np.ndarray        # (K,) 1 or beta
    retention: np.ndarray           # (K, proxy blocks)
    clip_factor: np.ndarray         # (K,)
    coefficients: np.ndarray        # (K, layers) align * retention * clip
    layer_coefficients: np.ndarray  # (R, layers) each run's weighted sum of its rows'
    epsilon: np.ndarray             # (R,) resolved norm cap (0 = inactive)
    fallback_used: np.ndarray       # (R,) bool

    def __post_init__(self):
        # a NaN fails every comparison
        if not (self.cos_ref.min(initial=0.0) >= -1.0 - 1e-12
                and self.cos_ref.max(initial=0.0) <= 1.0 + 1e-12):
            raise InputError("cosine out of range")
        for f in (self.align_factor, self.retention, self.clip_factor, self.coefficients):
            if not (f.min(initial=0.0) >= 0.0 and f.max(initial=0.0) <= 1.0 + 1e-12):
                raise InputError("regulation factors must lie in [0, 1]")

    @property
    def attenuated(self) -> np.ndarray:
        return self.align_factor < 1.0

    @cached_property
    def clients(self) -> tuple[ClientRegulation, ...]:
        return tuple(
            ClientRegulation(client_id=i, proxy_norm=n, cos_ref=c, align_factor=a,
                             attenuated=a < 1.0, retention=tuple(ret), clip_factor=cl,
                             coefficients=tuple(co))
            for i, n, c, a, ret, cl, co in zip(
                self.client_ids.tolist(), self.proxy_norm.tolist(), self.cos_ref.tolist(),
                self.align_factor.tolist(), self.retention.tolist(),
                self.clip_factor.tolist(), self.coefficients.tolist()))


def _equal(keys: np.ndarray) -> list[np.ndarray]:
    """The indices of each distinct value of ``keys``, ascending by value."""
    if (keys == keys[0]).all():
        return [np.arange(len(keys))]
    return [np.flatnonzero(keys == v) for v in np.unique(keys)]


def run_stacks(runs: Sequence[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The runs, given as (start, stop) row spans, grouped by size: per
    size, the runs' indices (G,) and their rows' indices (G, size). A
    product over each run's rows stacks a group along a leading axis, so
    each run gets the bits of its own product."""
    bounds = np.asarray(runs)
    sizes = bounds[:, 1] - bounds[:, 0]
    return [(ids, bounds[ids, :1] + np.arange(sizes[ids[0]])) for ids in _equal(sizes)]


def _held(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _RunWeights(tuple):
    """Each run's weight vector under one weighting, as views of ``flat``
    (every row's weight, in row order), for the runs of ``layout``, with
    each run's heaviest row ``heaviest`` (the first among equals). It is
    the ``weights`` a round hands ``update_reference``, which reads the
    run structure from it instead of deriving it again."""

    def __new__(cls, flat: np.ndarray, layout: RunLayout):
        self = super().__new__(cls, (flat[a:b] for a, b in layout.runs))
        self.flat, self.layout = _held(flat), layout
        self.heaviest = np.empty(len(layout.runs), dtype=np.intp)
        for ids, idx in layout.stacks:
            self.heaviest[ids] = idx[np.arange(len(ids)), np.argmax(flat[idx], axis=1)]
        _held(self.heaviest)
        return self


@dataclass(frozen=True, eq=False)
class RunLayout:
    """The run structure of a round: what the server round and the
    round's diagnostics read that changes only when the federation does.

    Rows belong to R runs, run r's rows ``runs[r]`` = (start, stop) in
    run order; row k is client ``client_ids[k]``'s, with ``n_train[k]``
    train nodes, and each row is a displacement of the shared layers of
    ``layout``. Every run needs a row, ids must be distinct within a run
    and counts >= 1 (InputError otherwise).

    Everything else is derived on first read and kept, read-only: the
    order that sorts each run's rows by client id (None when they
    already ascend, as the harness's do), the ids in that order, each
    row's run, the runs grouped by size (``run_stacks``) with each
    group's upper-triangle pair indices, each weighting's weights and
    the layer slices. A ``client.Federation`` builds its layout once and
    every ``RoundUpdates`` of its rounds carries it. A run bound that is
    not an integer (a bool is not) is an InputError.
    """

    runs: tuple[tuple[int, int], ...]
    client_ids: tuple[int, ...]
    n_train: tuple[int, ...]
    layout: tuple[LayerSpec, ...]

    def __post_init__(self):
        k = len(self.client_ids)
        for bound in (end for run in self.runs for end in run):
            check_integer("a run bound", bound)
        runs = tuple((int(a), int(b)) for a, b in self.runs)
        object.__setattr__(self, "runs", runs)
        stops = [b for _, b in runs]
        if (k == 0 or not runs or [a for a, _ in runs] != [0] + stops[:-1] or stops[-1] != k
                or any(len(set(self.client_ids[a:b])) != b - a or a == b for a, b in runs)):
            raise InputError("a round needs at least one client update in every run and "
                             "distinct ids within a run")
        if len(self.n_train) != k or min(self.n_train) < 1:
            raise InputError("one n_train >= 1 per client required")

    @cached_property
    def sizes(self) -> np.ndarray:
        """(R,) each run's row count."""
        return _held(np.array([b - a for a, b in self.runs]))

    @cached_property
    def starts(self) -> np.ndarray:
        """(R,) each run's first row."""
        return _held(np.array([a for a, _ in self.runs]))

    @cached_property
    def run_of(self) -> np.ndarray:
        """(K,) each row's run."""
        return _held(np.repeat(np.arange(len(self.runs)), self.sizes))

    @cached_property
    def order(self) -> np.ndarray | None:
        """The rows in ascending client id order within each run, or None
        when they already are."""
        order = np.lexsort((self.client_ids, self.run_of))
        return None if (order == np.arange(len(order))).all() else _held(order)

    @cached_property
    def ids(self) -> np.ndarray:
        """(K,) the client ids in ``order``."""
        ids = np.asarray(self.client_ids)
        return _held(ids if self.order is None else ids[self.order])

    @cached_property
    def stacks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``run_stacks(runs)``."""
        return [(_held(ids), _held(idx)) for ids, idx in run_stacks(self.runs)]

    @cached_property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per group of ``stacks``, the upper-triangle indices (i < j) of
        its runs' row pairs."""
        return [tuple(map(_held, np.triu_indices(idx.shape[1], k=1))) for _, idx in self.stacks]

    @cached_property
    def slices(self) -> list[tuple[int, int]]:
        """``layer_slices(layout)``."""
        return layer_slices(self.layout)

    @cached_property
    def widths(self) -> np.ndarray:
        """Each layer's entry count, the repeat counts of a per-layer value."""
        return _held(np.array([b - a for a, b in self.slices]))

    @cached_property
    def _weights(self) -> dict[str, _RunWeights]:
        return {}

    def weights(self, weighting: str) -> _RunWeights:
        """Each row's weight under ``weighting`` (one of WEIGHTINGS), rows
        in ``order``: 1 / size for uniform, else the row's train-node
        count over its run's total."""
        got = self._weights.get(weighting)
        if got is None:
            if weighting == "uniform":
                flat = np.repeat(1.0 / self.sizes, self.sizes)
            else:
                counts = np.asarray(self.n_train, dtype=np.float64)
                if self.order is not None:
                    counts = counts[self.order]
                flat = counts / np.repeat(np.add.reduceat(counts, self.starts), self.sizes)
            got = self._weights[weighting] = _RunWeights(flat, self)
        return got


def _resolve_proxy_dim(cfg: AggregatorConfig, full_len: int) -> int | None:
    """Target dimension of the sign projection, or None to keep layers."""
    if cfg.proxy_dim == 0:
        return None
    if cfg.proxy_dim is None:
        return _REDUCED_DIM if full_len > _REDUCE_ABOVE else None
    return cfg.proxy_dim if full_len > cfg.proxy_dim else None


def _check_sign_bytes(d_in: int, d_out: int) -> None:
    if d_in * d_out * 8 > _MAX_SIGN_BYTES:
        raise InputError(f"sign projection of {d_in}-long proxies to {d_out} needs a "
                         f"{d_in} x {d_out} x 8 = {d_in * d_out * 8:,}-byte matrix, above "
                         f"the limit of {_MAX_SIGN_BYTES:,} bytes")


def check_projection(cfg: AggregatorConfig, length: int) -> None:
    """InputError when the proxies of ``length``-long updates under
    ``cfg`` would need a sign matrix above the limit (512 MiB)."""
    d_z = _resolve_proxy_dim(cfg, length)
    if d_z is not None:
        _check_sign_bytes(length, d_z)


def check_window(cfg: AggregatorConfig, reach: int) -> None:
    """InputError when the window of a regulating server with a subspace
    gate could come to hold more than _MAX_WINDOW_FILL (512) proxies: it holds
    at most ``cfg.window`` of them, and at most ``reach`` (rounds x
    clients of a run)."""
    fill = min(cfg.window, reach)
    if cfg.mode == "ggrs" and cfg.subspace_dim > 0 and fill > _MAX_WINDOW_FILL:
        raise InputError(
            f"server.window = {cfg.window} lets a run's window fill to {fill} proxies, "
            f"above the limit of {_MAX_WINDOW_FILL}: a basis refresh of a "
            f"{_MAX_WINDOW_FILL}-proxy window takes about 40 ms per run and round, and the "
            "time grows as the cube of the fill")


@lru_cache(maxsize=1)
def _sign_projection(d_in: int, d_out: int) -> np.ndarray:
    """Run-constant random +-1 matrix (d_in x d_out): 2 b - 1 for the
    (d_in, d_out) row-major ``integers(0, 2)`` draw b of a
    ``default_rng(_PROXY_SEED)``, filled in place about _SIGN_ROWS rows
    at a time. A run uses one (d_in, d_out), so only the latest matrix
    is kept. Every caller gets the same array, so it is read-only. A
    matrix above the limit is an InputError, raised before anything is
    allocated.

    The bits are read from the bit generator's raw 64-bit outputs,
    without ``integers``' int64 array. This relies on how NumPy draws
    ``integers(0, 2)``: by Lemire's method on ``next_uint32``, one
    32-bit half of a raw output per entry, low half first, and with a
    range of 2 that method never rejects and returns bit 31 of the half.
    Each chunk but the last holds an even number of entries, so it
    starts on a fresh raw output, as in the one whole draw."""
    _check_sign_bytes(d_in, d_out)
    bits = np.random.default_rng(_PROXY_SEED).bit_generator
    p = np.empty((d_in, d_out))
    entries = p.reshape(-1)
    step = _SIGN_ROWS * d_out + (_SIGN_ROWS * d_out) % 2
    for start in range(0, entries.size, step):
        chunk = entries[start:start + step]
        # little-endian words, so each output's low half comes first
        raw = bits.random_raw((chunk.size + 1) // 2).astype("<u8", copy=False)
        halves = raw.view("<u4")[:chunk.size]
        np.right_shift(halves, 31, out=halves)
        np.multiply(halves, 2.0, out=chunk)
        chunk -= 1.0
    p.flags.writeable = False
    return p


def _weighted_sums(weights: np.ndarray, rows: np.ndarray,
                   stacks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Each run's sum_k weights[k] * rows[k] over its rows, the runs given
    as ``run_stacks``: bit for bit a loop's running total from +0.0 in
    row order (a reduce would sum a one-column stack pairwise); (R, cols)."""
    out = np.empty((sum(len(ids) for ids, _ in stacks), rows.shape[1]))
    for ids, idx in stacks:
        terms = weights[idx][:, :, None] * rows[idx]
        terms[:, 0] += 0.0  # from +0.0: a -0.0 first term adds up to +0.0
        out[ids] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def _proxies(deltas: np.ndarray, cfg: AggregatorConfig, lay: RunLayout
             ) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """``proxy_map`` of each row of the (K, L) ``deltas``, in the runs
    and layer layout of ``lay``: the (K, d) proxies, the (K, layers)
    layer norms and the proxy blocks.

    A projected batch is one (K_r x L) @ (L x d_z) product per run, the
    runs of one size stacked along a leading axis, so the run-constant
    matrix is read once per round, not once per client.
    """
    if not np.isfinite(deltas).all():
        raise InputError("update contains non-finite entries")
    norms = np.stack([sensitivity_norm(deltas[:, a:b]) for a, b in lay.slices], axis=1)
    total = norms.sum(axis=1, keepdims=True)
    scale = np.zeros_like(norms)
    np.divide(norms, total, out=scale, where=total != 0.0)
    scale /= norms + 1e-12
    z = deltas * np.repeat(scale, lay.widths, axis=1)
    if not total.all():
        z[total[:, 0] == 0.0] = 0.0  # a zero row's entries may be -0.0

    d_z = _resolve_proxy_dim(cfg, deltas.shape[1])
    if d_z is None:
        return z, norms, tuple(lay.slices)
    sign = _sign_projection(deltas.shape[1], d_z)
    out = np.empty((len(z), d_z))
    for _, idx in lay.stacks:
        out[idx] = z[idx] @ sign
    return out / np.sqrt(d_z), norms, ((0, d_z),)


def proxy_map(delta: FlatVector, cfg: AggregatorConfig) -> ProxyVector:
    """Direction-and-mass summary of one shared-parameter displacement.

    Per layer l: unit direction u_l = vec(delta_l) / (||delta_l|| + 1e-12)
    scaled by the relative mass rho_l = ||delta_l|| / sum of layer norms,
    concatenated in layer order. When the result is longer than the
    configured proxy dimension it is pushed through a fixed seeded
    sign-projection and rescaled by 1/sqrt(d_z). A zero displacement
    maps to the zero proxy. This is the batch of one of the stacked
    proxies ``regulate_and_aggregate`` computes for a round.
    """
    z, norms, blocks = _proxies(delta.values[None], cfg,
                                RunLayout(((0, 1),), (0,), (1,), delta.layout))
    return ProxyVector(values=z[0], layer_norms=tuple(norms[0].tolist()), blocks=blocks)


def _top_directions(window: np.ndarray, m: int):
    """Top-m left singular directions of each (d x n) window matrix of
    the stack ``window`` (G, d, n): a (G, d, min(m, d, n)) array whose
    matrix g holds window g's directions in its first rank[g] columns,
    zero after, and the ranks.

    One symmetric eigendecomposition of the small n x n Gram matrix: the
    left directions live in the window column span, so each right
    eigenvector v maps back as window @ v. Directions come in descending
    eigenvalue order, and none whose eigenvalue is at most 1e-10 of the
    trace (the total squared singular mass) is kept, so the basis never
    pads with noise directions; a zero window has rank 0. One QR pass
    orthonormalizes the columns, and each column's largest-magnitude
    entry is made positive. The windows share one stacked Gram product
    and eigendecomposition, and those of one rank one stacked QR, so
    each gets the bits of its own.
    """
    g, d, n = window.shape
    gram = window.transpose(0, 2, 1) @ window
    lam, v = np.linalg.eigh(gram)
    lam, v = lam[:, ::-1], v[:, :, ::-1]
    trace = np.trace(gram, axis1=1, axis2=2)
    rank = np.minimum(min(m, d, n), np.count_nonzero(lam > 1e-10 * trace[:, None], axis=1))
    q = np.zeros((g, d, min(m, d, n)))
    for ids in _equal(rank):
        k = rank[ids[0]]
        if k:
            qk, _ = np.linalg.qr(window[ids] @ v[ids, :, :k])
            lead = qk[np.arange(len(ids))[:, None], np.argmax(np.abs(qk), axis=1), np.arange(k)]
            q[ids, :, :k] = qk * np.sign(lead)[:, None]
    return q, rank


def _appended(ref: ReferenceStack, proxies: np.ndarray, sizes: np.ndarray,
              cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's window with its ``sizes`` rows of ``proxies`` (run
    after run) appended and the oldest evicted beyond ``cap``: the new
    (R, n, d) windows and fills. When every run appends as many rows to
    as full a window, all runs append in one slice assignment."""
    n_runs, d = len(sizes), proxies.shape[1]
    fill = np.minimum(cap, ref.fill + sizes)
    if cap == 0:
        return np.zeros((n_runs, 0, d)), fill
    n_old, n = ref.window.shape[1], int(fill.max())
    if (sizes == sizes[0]).all() and (ref.fill == ref.fill[0]).all():
        window = np.empty((n_runs, n, d))
        kept = max(0, n - int(sizes[0]))  # each run's newest old rows that stay
        window[:, :kept] = ref.window[:, n_old - kept:]
        window[:, kept:] = proxies.reshape(n_runs, -1, d)[:, int(sizes[0]) - (n - kept):]
        return window, fill
    window = np.zeros((n_runs, n, d))
    stops = np.cumsum(sizes).tolist()
    for i, (b, s, f_old, f) in enumerate(zip(stops, sizes.tolist(), ref.fill.tolist(),
                                             fill.tolist())):
        rows = np.concatenate([ref.window[i, n_old - f_old:], proxies[b - s:b]])
        window[i, n - f:] = rows[len(rows) - f:]
    return window, fill


def _refreshed(window: np.ndarray, fill: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's basis, the top-m directions of its window, or none while
    the window holds fewer than m proxies or m = 0; the runs whose
    windows hold one number of proxies in one stacked refresh. The
    (R, d, m) bases and their ranks."""
    n_runs, n, d = window.shape
    basis, rank = np.zeros((n_runs, d, m)), np.zeros(n_runs, dtype=np.intp)
    if m == 0:
        return basis, rank
    for ids in _equal(fill):
        f = fill[ids[0]]
        if f >= m:
            q, rank[ids] = _top_directions(
                np.ascontiguousarray(window[ids, n - f:].transpose(0, 2, 1)), m)
            basis[ids, :, :q.shape[2]] = q
    return basis, rank


def update_reference(
    ref: ReferenceStack,
    proxies: np.ndarray,
    weights: Sequence[np.ndarray],
    cfg: AggregatorConfig,
) -> ReferenceStack:
    """Exponentially smooth the reference and refresh the subspace.

    r <- alpha * r + (1 - alpha) * sum_k w_k z_k over the rows z_k of the
    (K, d) ``proxies``, added in row order from +0.0; they join the ring
    buffer (oldest evicted beyond W); the basis becomes the top-m
    directions of the buffer, or stays empty while the buffer holds
    fewer than m proxies or m = 0. A plain server (``cfg.mode``) reads
    neither buffer nor basis, so it keeps neither: fill 0, rank 0, an
    empty window and a zero-width basis, with the same reference as a
    regulating one.

    ``ref`` holds R runs, ``proxies`` every run's rows, run after run,
    and ``weights`` one weight vector per run, which must sum to 1; the
    next stack. A round passes the weights its ``RunLayout`` holds, and
    the run structure is read from that layout; every check still runs.
    """
    if len(weights) != len(ref.r):
        raise InputError(f"{len(weights)} weight vectors for {len(ref.r)} runs")
    lay = weights.layout if isinstance(weights, _RunWeights) else None
    if lay is None:
        sizes = np.array([len(w) for w in weights])
        starts = np.cumsum(sizes) - sizes
        flat = np.concatenate(weights)
    else:
        flat, sizes, starts = weights.flat, lay.sizes, lay.starts
    if len(proxies) != sizes.sum() or not sizes.all():
        raise InputError("one weight per proxy required")
    if (np.abs(np.add.reduceat(flat, starts) - 1.0) > 1e-9).any():
        raise InputError("weights must sum to 1")
    if proxies.ndim != 2 or proxies.shape[1] != ref.r.shape[1]:
        raise InputError("proxies must be rows as long as the reference")
    if not np.isfinite(proxies).all():
        raise InputError("proxy entries must be finite")
    stacks = run_stacks(np.stack([starts, starts + sizes], axis=1)) if lay is None else lay.stacks
    mean = _weighted_sums(flat, proxies, stacks)
    ggrs = cfg.mode == "ggrs"
    window, fill = _appended(ref, proxies, sizes, cfg.window if ggrs else 0)
    basis, rank = _refreshed(window, fill, cfg.subspace_dim if ggrs else 0)
    return ReferenceStack(r=cfg.alpha * ref.r + (1.0 - cfg.alpha) * mean,
                          window=window, fill=fill, basis=basis, rank=rank)


def align_regulate(z: np.ndarray, ref: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Attenuate by beta each row of the (K, d) stack ``z`` that opposes
    the reference, one (d,) or one per row (K, d); the rows and their
    factors (1 or beta).

    The decision is the sign of the inner product, so it is invariant to
    positive rescaling of either vector; the zero boundary passes.
    """
    factor = np.where(np.vecdot(z, ref) >= 0.0, 1.0, beta)
    return z * factor[:, None], factor


def subspace_project(
    z: np.ndarray, basis: np.ndarray, blocks: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Project each row of the (K, d) stack ``z`` onto the
    dominant-direction subspace, one (d, b) basis or one per row
    (K, d, b); the rows and their (K, blocks) retention.

    Empty basis = identity. retention_b = ||projected block|| /
    (||block|| + 1e-12), clamped to [0, 1]."""
    if basis.shape[-1] == 0:
        return z, np.ones((z.shape[0], len(blocks)))
    # one matrix-vector product per row, as for a single proxy
    proj = np.matmul(basis, np.matmul(basis.swapaxes(-1, -2), z[:, :, None]))[:, :, 0]
    retention = np.stack([
        np.minimum(1.0, sensitivity_norm(proj[:, a:b]) / (sensitivity_norm(z[:, a:b]) + 1e-12))
        for a, b in blocks], axis=1)
    return proj, retention


def sensitivity_normalize(z: np.ndarray, epsilon: float | np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Cap the norm of each row of the (K, d) stack ``z`` at epsilon, one
    cap or one per row (K,): z / max(1, ||z||/epsilon); the rows and
    their factors.

    epsilon <= 0 means the cap is inactive (factor 1); a zero row keeps
    factor 1.
    """
    n = sensitivity_norm(z)
    factor = np.ones_like(n)
    np.divide(epsilon, n, out=factor, where=(n > 0.0) & (np.asarray(epsilon) > 0.0))
    np.minimum(1.0, factor, out=factor)
    return z * factor[:, None], factor


def _project(z: np.ndarray, ref: ReferenceStack, run_of: np.ndarray,
             blocks: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """``subspace_project`` of each row onto its run's basis: one call
    for the rows of each basis width."""
    width = ref.rank[run_of]
    out, retention = np.empty_like(z), np.empty((len(z), len(blocks)))
    for rows in _equal(width):
        out[rows], retention[rows] = subspace_project(
            z[rows], ref.basis[run_of[rows], :, :width[rows[0]]], blocks)
    return out, retention


def regulate_and_aggregate(
    updates: RoundUpdates,
    ref: ReferenceStack,
    cfg: AggregatorConfig,
) -> tuple[np.ndarray, ReferenceStack, RegulationReport]:
    """One server aggregation step of each run of a round's (K, L) delta
    matrix, each run's rows taken in ascending client id order.

    Client k's update is rescaled layer by layer with
    c_{k,l} = align_k · retention_{k,b(l)} · clip_k before its run's
    weighted sum, where b(l) = l, or the single block of a projected
    proxy. Plain mode sets every factor to 1, so it is the exact
    weighted mean of the raw updates. Either way each run's reference
    advances on its proxies (raw by default, regulated under the
    ablation flag) and the report records the realized geometry.

    ``ref`` holds one reference per run; returns the (R, L) matrix of
    the runs' global deltas, the next stack and the report. The run
    structure, order and weights come from ``updates.run_layout``, which
    a federation builds once and every round of it carries.
    """
    lay = updates.run_layout
    runs = lay.runs
    if len(ref.r) != len(runs):
        raise InputError(f"{len(ref.r)} references for {len(runs)} runs")
    run_of, stacks = lay.run_of, lay.stacks
    deltas = (np.ascontiguousarray(updates.deltas) if lay.order is None
              else updates.deltas[lay.order])
    run_weights = lay.weights(cfg.weights)
    weights = run_weights.flat

    z, _, blocks = _proxies(deltas, cfg, lay)
    if z.shape[1] != ref.r.shape[1]:
        raise InputError(f"reference length {ref.r.shape[1]} does not match proxies "
                         f"({z.shape[1]})")

    # effective reference: a run whose smoothed reference has no direction
    # yet falls back to its heaviest client's (the lowest id among equals)
    fallback = (sensitivity_norm(ref.r) == 0.0) & (cfg.fallback == "largest")
    r_eff = np.where(fallback[:, None], z[run_weights.heaviest], ref.r)

    norms = sensitivity_norm(z)
    r_rows = r_eff[run_of]
    r_norm = sensitivity_norm(r_eff)[run_of]
    cos_ref = np.zeros(len(z))
    np.divide(np.vecdot(z, r_rows), norms * r_norm, out=cos_ref,
              where=(norms > 0.0) & (r_norm > 0.0))
    cos_ref = np.clip(cos_ref, -1.0, 1.0)

    k = len(z)
    eps = np.zeros(len(runs))  # a plain server has no cap, and every factor is 1
    z_out, align, retention, clip = z, np.ones(k), np.ones((k, len(blocks))), np.ones(k)
    if cfg.mode == "ggrs":
        if cfg.epsilon == "adaptive":
            for ids, idx in stacks:
                eps[ids] = np.median(norms[idx], axis=1)
        else:
            eps[:] = cfg.epsilon
        z_out, align = align_regulate(z, r_rows, cfg.beta)
        z_out, retention = _project(z_out, ref, run_of, blocks)
        z_out, clip = sensitivity_normalize(z_out, eps[run_of])

    block_of = slice(None) if len(blocks) == len(lay.slices) else [0] * len(lay.slices)
    coefficients = align[:, None] * retention[:, block_of] * clip[:, None]
    global_deltas = _weighted_sums(
        weights, deltas * np.repeat(coefficients, lay.widths, axis=1), stacks)

    new_ref = update_reference(ref, z if cfg.reference == "raw" else z_out, run_weights, cfg)
    report = RegulationReport(
        client_ids=lay.ids, runs=runs, proxy_norm=norms,
        cos_ref=cos_ref, align_factor=align, retention=retention, clip_factor=clip,
        coefficients=coefficients,
        layer_coefficients=_weighted_sums(weights, coefficients, stacks), epsilon=eps,
        fallback_used=fallback)
    return global_deltas, new_ref, report
