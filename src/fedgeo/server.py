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
across modes.

A round arrives as one (K x L) delta matrix (``client.RoundUpdates``)
and stays one: its proxies are one (K x d) stack (one (K x L) @ (L x
d_z) product with the run-constant sign matrix when projected), each
gate acts on every row at once, and the weighted sum adds the rows in
ascending client order. Each row gets the bits a one-client round gives
it, and given the same inputs the round is bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .client import RoundUpdates
from .errors import InputError
from .model import FlatVector, LayerSpec, layer_slices

__all__ = [
    "MODES",
    "WEIGHTINGS",
    "FALLBACKS",
    "REFERENCES",
    "AggregatorConfig",
    "ProxyVector",
    "GeometricReference",
    "ClientRegulation",
    "RegulationReport",
    "initial_reference",
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
_SIGN_ROWS = 256  # sign-matrix rows drawn at once: 2 MB of int64 at 1024 columns

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
        if self.mode not in MODES:
            raise InputError(f"unknown aggregation mode {self.mode!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise InputError("alpha must be in [0, 1)")
        if not (0.0 <= self.beta < 1.0):
            raise InputError("beta must be in [0, 1)")
        if isinstance(self.epsilon, str):
            if self.epsilon != "adaptive":
                raise InputError("epsilon must be a positive number or 'adaptive'")
        elif not self.epsilon > 0.0:
            raise InputError("epsilon must be a positive number or 'adaptive'")
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
class GeometricReference:
    """Server-side geometric state: smoothed reference direction ``r``,
    the ring buffer of the last W accepted proxies (oldest first), and
    an orthonormal basis of their dominant directions (possibly empty,
    shape (d, b))."""

    r: np.ndarray
    window: tuple[np.ndarray, ...]
    basis: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.r)):
            raise InputError("reference must be finite")
        if self.basis.ndim != 2 or self.basis.shape[0] != self.r.shape[0]:
            raise InputError("basis rows must match the reference length")
        if self.basis.shape[1]:
            gram = self.basis.T @ self.basis
            if np.max(np.abs(gram - np.eye(self.basis.shape[1]))) > 1e-10:
                raise InputError("basis columns must be orthonormal")


def initial_reference(dim: int) -> GeometricReference:
    return GeometricReference(
        r=np.zeros(dim), window=(), basis=np.zeros((dim, 0))
    )


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

    def __post_init__(self):
        if not (-1.0 - 1e-12 <= self.cos_ref <= 1.0 + 1e-12):
            raise InputError("cosine out of range")
        for f in (self.align_factor, self.clip_factor, *self.retention, *self.coefficients):
            if not (0.0 <= f <= 1.0 + 1e-12):
                raise InputError("regulation factors must lie in [0, 1]")


@dataclass(frozen=True)
class RegulationReport:
    clients: tuple[ClientRegulation, ...]
    layer_coefficients: tuple[float, ...]   # weight-averaged c_l across clients
    epsilon: float                          # resolved norm cap (0 = inactive)
    fallback_used: bool


def _resolve_proxy_dim(cfg: AggregatorConfig, full_len: int) -> int | None:
    """Target dimension of the sign projection, or None to keep layers."""
    if cfg.proxy_dim == 0:
        return None
    if cfg.proxy_dim is None:
        return _REDUCED_DIM if full_len > _REDUCE_ABOVE else None
    return cfg.proxy_dim if full_len > cfg.proxy_dim else None


@lru_cache(maxsize=1)
def _sign_projection(d_in: int, d_out: int) -> np.ndarray:
    """Run-constant random +-1 matrix (d_in x d_out): 2 b - 1 for the
    (d_in, d_out) row-major ``integers(0, 2)`` draw b of a
    ``default_rng(_PROXY_SEED)``, filled in place _SIGN_ROWS rows at a
    time (the draw consumes the stream as one whole draw does). A run
    uses one (d_in, d_out), so only the latest matrix is kept. Every
    caller gets the same array, so it is read-only."""
    rng = np.random.default_rng(_PROXY_SEED)
    p = np.empty((d_in, d_out))
    for r0 in range(0, d_in, _SIGN_ROWS):
        rows = p[r0:r0 + _SIGN_ROWS]
        np.multiply(rng.integers(0, 2, size=rows.shape), 2.0, out=rows)
        rows -= 1.0
    p.flags.writeable = False
    return p


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Each row's norm, bit for bit its ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(x, x))


def _weighted_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * rows[k], bit for bit a loop's running total from
    +0.0 (a reduce would sum a one-column stack pairwise)."""
    terms = weights[:, None] * rows
    terms[0] += 0.0  # from +0.0: a -0.0 first term adds up to +0.0
    return np.add.accumulate(terms, axis=0)[-1]


def _proxies(deltas: np.ndarray, layout: tuple[LayerSpec, ...], cfg: AggregatorConfig
             ) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """``proxy_map`` of each row of the (K, L) ``deltas``: the (K, d)
    proxies, the (K, layers) layer norms and the proxy blocks.

    A projected batch is one (K x L) @ (L x d_z) product, so the
    run-constant matrix is read once per round, not once per client.
    """
    if not np.isfinite(deltas).all():
        raise InputError("update contains non-finite entries")
    slices = layer_slices(layout)
    sizes = [b - a for a, b in slices]
    norms = np.stack([_row_norms(deltas[:, a:b]) for a, b in slices], axis=1)
    total = norms.sum(axis=1, keepdims=True)
    live = total[:, 0] != 0.0
    z = np.zeros_like(deltas)
    z[live] = deltas[live] * np.repeat(norms[live] / total[live] / (norms[live] + 1e-12),
                                       sizes, axis=1)

    d_z = _resolve_proxy_dim(cfg, deltas.shape[1])
    if d_z is None:
        return z, norms, tuple(slices)
    return (z @ _sign_projection(deltas.shape[1], d_z)) / np.sqrt(d_z), norms, ((0, d_z),)


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
    z, norms, blocks = _proxies(delta.values[None], delta.layout, cfg)
    return ProxyVector(values=z[0], layer_norms=tuple(norms[0].tolist()), blocks=blocks)


def _top_directions(window: np.ndarray, m: int) -> np.ndarray:
    """Top-m left singular directions of the (d x n) window matrix.

    One symmetric eigendecomposition of the small n x n Gram matrix: the
    left directions live in the window column span, so each right
    eigenvector v maps back as window @ v. Directions come in descending
    eigenvalue order, and none whose eigenvalue is at most 1e-10 of the
    trace (the total squared singular mass) is kept, so the basis never
    pads with noise directions; a zero window gives a (d, 0) basis. One
    QR pass orthonormalizes the columns, and each column's
    largest-magnitude entry is made positive.
    """
    d, n = window.shape
    gram = window.T @ window
    lam, v = np.linalg.eigh(gram)
    lam, v = lam[::-1], v[:, ::-1]
    k = min(m, d, n, np.count_nonzero(lam > 1e-10 * np.trace(gram)))
    if k == 0:
        return np.zeros((d, 0))
    q, _ = np.linalg.qr(window @ v[:, :k])
    j = np.argmax(np.abs(q), axis=0)
    return q * np.sign(q[j, np.arange(k)])


def update_reference(
    ref: GeometricReference,
    proxies: np.ndarray,
    weights: np.ndarray,
    cfg: AggregatorConfig,
) -> GeometricReference:
    """Exponentially smooth the reference and refresh the subspace.

    r <- alpha * r + (1 - alpha) * sum_k w_k z_k over the rows z_k of the
    (K, d) ``proxies``; they join the ring buffer (oldest evicted beyond
    W); the basis becomes the top-m directions of the buffer, or stays
    empty while the buffer holds fewer than m proxies or m = 0.
    """
    if abs(float(np.sum(weights)) - 1.0) > 1e-9:
        raise InputError("weights must sum to 1")
    if len(proxies) != len(weights):
        raise InputError("one weight per proxy required")
    if proxies.ndim != 2 or proxies.shape[1] != ref.r.shape[0]:
        raise InputError("proxies must be rows as long as the reference")
    if not np.isfinite(proxies).all():
        raise InputError("proxy entries must be finite")
    r_new = cfg.alpha * ref.r + (1.0 - cfg.alpha) * _weighted_sum(weights, proxies)

    window = (list(ref.window) + list(proxies.copy()))[-cfg.window:]

    m = cfg.subspace_dim
    if m == 0 or len(window) < m:
        basis = np.zeros((ref.r.shape[0], 0))
    else:
        basis = _top_directions(np.stack(window, axis=1), m)
    return GeometricReference(r=r_new, window=tuple(window), basis=basis)


def align_regulate(z: np.ndarray, ref: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Attenuate by beta each row of the (K, d) stack ``z`` that opposes
    the reference; the rows and their factors (1 or beta).

    The decision is the sign of the inner product, so it is invariant to
    positive rescaling of either vector; the zero boundary passes.
    """
    factor = np.where(np.vecdot(z, ref) >= 0.0, 1.0, beta)
    return z * factor[:, None], factor


def subspace_project(
    z: np.ndarray, basis: np.ndarray, blocks: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Project each row of the (K, d) stack ``z`` onto the
    dominant-direction subspace; the rows and their (K, blocks) retention.

    Empty basis = identity. retention_b = ||projected block|| /
    (||block|| + 1e-12), clamped to [0, 1]."""
    if basis.shape[1] == 0:
        return z, np.ones((z.shape[0], len(blocks)))
    # one matrix-vector product per row, as for a single proxy
    proj = np.matmul(basis[None], np.matmul(basis.T[None], z[:, :, None]))[:, :, 0]
    retention = np.stack([
        np.minimum(1.0, _row_norms(proj[:, a:b]) / (_row_norms(z[:, a:b]) + 1e-12))
        for a, b in blocks], axis=1)
    return proj, retention


def sensitivity_normalize(z: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Cap the norm of each row of the (K, d) stack ``z`` at epsilon:
    z / max(1, ||z||/epsilon); the rows and their factors.

    epsilon <= 0 means the cap is inactive (factor 1); a zero row keeps
    factor 1.
    """
    n = _row_norms(z)
    factor = np.ones_like(n)
    if epsilon > 0.0:
        np.minimum(1.0, np.divide(epsilon, n, out=factor, where=n > 0.0), out=factor)
    return z * factor[:, None], factor


def regulate_and_aggregate(
    updates: RoundUpdates,
    ref: GeometricReference,
    cfg: AggregatorConfig,
) -> tuple[FlatVector, GeometricReference, RegulationReport]:
    """One server aggregation step over a round's (K, L) delta matrix,
    its rows taken in ascending client id order.

    Client k's update is rescaled layer by layer with
    c_{k,l} = align_k · retention_{k,b(l)} · clip_k before the weighted
    sum, where b(l) = l, or the single block of a projected proxy. Plain
    mode sets every factor to 1, so it is the exact weighted mean of the
    raw updates. Either way the reference state advances on the round's
    proxies (raw by default, regulated under the ablation flag) and the
    report records the realized geometry.
    """
    order = np.argsort(updates.client_ids)
    ids = np.asarray(updates.client_ids)[order]
    deltas = updates.deltas[order]
    counts = np.asarray(updates.n_train, dtype=np.float64)[order]
    k = len(ids)
    weights = np.full(k, 1.0 / k) if cfg.weights == "uniform" else counts / counts.sum()

    z, _, blocks = _proxies(deltas, updates.layout, cfg)
    if z.shape[1] != ref.r.shape[0]:
        raise InputError(f"reference length {ref.r.shape[0]} does not match proxies "
                         f"({z.shape[1]})")

    # effective reference: fall back to the heaviest client's direction
    # (the lowest id among equals) when the smoothed reference has no
    # direction yet
    fallback_used = bool(np.linalg.norm(ref.r) == 0.0 and cfg.fallback == "largest")
    r_eff = z[int(np.argmax(weights))] if fallback_used else ref.r

    norms = _row_norms(z)
    r_norm = float(np.linalg.norm(r_eff))
    cos_ref = np.zeros(k)
    np.divide(np.vecdot(z, r_eff), norms * r_norm, out=cos_ref,
              where=(norms > 0.0) & (r_norm > 0.0))
    cos_ref = np.clip(cos_ref, -1.0, 1.0)

    eps = 0.0  # a plain server has no cap, and every factor is 1
    z_out, align, retention, clip = z, np.ones(k), np.ones((k, len(blocks))), np.ones(k)
    if cfg.mode == "ggrs":
        eps = float(np.median(norms)) if cfg.epsilon == "adaptive" else float(cfg.epsilon)
        z_out, align = align_regulate(z, r_eff, cfg.beta)
        z_out, retention = subspace_project(z_out, ref.basis, blocks)
        z_out, clip = sensitivity_normalize(z_out, eps)

    slices = layer_slices(updates.layout)
    block_of = range(len(slices)) if len(blocks) == len(slices) else [0] * len(slices)
    coefficients = align[:, None] * retention[:, block_of] * clip[:, None]
    global_delta = _weighted_sum(
        weights, deltas * np.repeat(coefficients, [b - a for a, b in slices], axis=1))

    new_ref = update_reference(ref, z if cfg.reference == "raw" else z_out, weights, cfg)
    rows = tuple(
        ClientRegulation(client_id=i, proxy_norm=n, cos_ref=c, align_factor=a,
                         attenuated=a < 1.0, retention=tuple(ret), clip_factor=cl,
                         coefficients=tuple(co))
        for i, n, c, a, ret, cl, co in zip(ids.tolist(), norms.tolist(), cos_ref.tolist(),
                                           align.tolist(), retention.tolist(), clip.tolist(),
                                           coefficients.tolist())
    )
    report = RegulationReport(clients=rows,
                              layer_coefficients=tuple((weights @ coefficients).tolist()),
                              epsilon=eps, fallback_used=fallback_used)
    return FlatVector(values=global_delta, layout=updates.layout), new_ref, report
