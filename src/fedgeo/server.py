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

A round's projected proxies come from one stacked (K x L) @ (L x d_z)
product with the run-constant sign matrix, rows in ascending client
order. All reductions run in that order; given the same inputs the
round is bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .client import LocalUpdate
from .errors import InputError
from .model import FlatVector, layer_slices

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

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise InputError("proxy entries must be finite")
        if self.blocks and self.blocks[-1][1] != self.values.shape[0]:
            raise InputError("proxy blocks do not tile the vector")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


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
    """Run-constant random +-1 matrix (d_in x d_out) drawn from
    _PROXY_SEED; a run uses one (d_in, d_out), so only the latest matrix
    is kept."""
    rng = np.random.default_rng(_PROXY_SEED)
    return 2.0 * rng.integers(0, 2, size=(d_in, d_out)) - 1.0


def _proxies(deltas: list[FlatVector], cfg: AggregatorConfig) -> list[ProxyVector]:
    """``proxy_map`` of each delta, in order; the deltas share one layout.

    A projected batch is one (K x L) @ (L x d_z) product, so the
    run-constant matrix is read once per round, not once per client.
    """
    slices = layer_slices(deltas[0].layout)
    sizes = [b - a for a, b in slices]
    rows, layer_norms = [], []
    for delta in deltas:
        if not np.all(np.isfinite(delta.values)):
            raise InputError("update contains non-finite entries")
        norms = np.array([np.linalg.norm(delta.values[a:b]) for a, b in slices])
        total = float(norms.sum())
        if total == 0.0:
            rows.append(np.zeros(delta.values.shape[0]))
        else:
            rows.append(delta.values * np.repeat(norms / total / (norms + 1e-12), sizes))
        layer_norms.append(tuple(float(n) for n in norms))

    d_z = _resolve_proxy_dim(cfg, rows[0].shape[0])
    if d_z is None:
        blocks = tuple(slices)
    else:
        p = _sign_projection(rows[0].shape[0], d_z)
        rows = list((np.stack(rows) @ p) / np.sqrt(d_z))
        blocks = ((0, d_z),)
    return [ProxyVector(values=v, layer_norms=n, blocks=blocks)
            for v, n in zip(rows, layer_norms)]


def proxy_map(delta: FlatVector, cfg: AggregatorConfig) -> ProxyVector:
    """Direction-and-mass summary of one shared-parameter displacement.

    Per layer l: unit direction u_l = vec(delta_l) / (||delta_l|| + 1e-12)
    scaled by the relative mass rho_l = ||delta_l|| / sum of layer norms,
    concatenated in layer order. When the result is longer than the
    configured proxy dimension it is pushed through a fixed seeded
    sign-projection and rescaled by 1/sqrt(d_z). A zero displacement
    maps to the zero proxy. This is the batch of one of the stacked
    product ``regulate_and_aggregate`` uses for a round's proxies.
    """
    return _proxies([delta], cfg)[0]


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
    proxies: list[ProxyVector],
    weights: np.ndarray,
    cfg: AggregatorConfig,
) -> GeometricReference:
    """Exponentially smooth the reference and refresh the subspace.

    r <- alpha * r + (1 - alpha) * sum_k w_k z_k; the round's proxies
    join the ring buffer (oldest evicted beyond W); the basis becomes
    the top-m directions of the buffer, or stays empty while the buffer
    holds fewer than m proxies or m = 0.
    """
    if abs(float(np.sum(weights)) - 1.0) > 1e-9:
        raise InputError("weights must sum to 1")
    if len(proxies) != len(weights):
        raise InputError("one weight per proxy required")
    mean = np.zeros_like(ref.r)
    for w, z in zip(weights, proxies):
        if z.values.shape != ref.r.shape:
            raise InputError("proxy length does not match the reference")
        mean += w * z.values
    r_new = cfg.alpha * ref.r + (1.0 - cfg.alpha) * mean

    window = list(ref.window) + [z.values.copy() for z in proxies]
    window = window[-cfg.window:]

    m = cfg.subspace_dim
    if m == 0 or len(window) < m:
        basis = np.zeros((ref.r.shape[0], 0))
    else:
        basis = _top_directions(np.stack(window, axis=1), m)
    return GeometricReference(r=r_new, window=tuple(window), basis=basis)


def align_regulate(z: np.ndarray, ref: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Attenuate by beta when the proxy opposes the reference.

    The decision is the sign of the inner product, so it is invariant to
    positive rescaling of either vector; the zero boundary passes.
    """
    factor = 1.0 if float(z @ ref) >= 0.0 else beta
    return z * factor, factor


def subspace_project(
    z: np.ndarray, basis: np.ndarray, blocks: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Project onto the dominant-direction subspace; per-block retention.

    Empty basis = identity. retention_b = ||projected block|| /
    (||block|| + 1e-12), clamped to [0, 1]."""
    if basis.shape[1] == 0:
        return z, tuple(1.0 for _ in blocks)
    proj = basis @ (basis.T @ z)
    retention = []
    for a, b in blocks:
        before = np.linalg.norm(z[a:b])
        after = np.linalg.norm(proj[a:b])
        retention.append(min(1.0, after / (before + 1e-12)))
    return proj, tuple(retention)


def sensitivity_normalize(z: np.ndarray, epsilon: float) -> tuple[np.ndarray, float]:
    """Cap the proxy norm at epsilon: z / max(1, ||z||/epsilon).

    epsilon <= 0 means the cap is inactive (factor 1); a zero vector is
    returned unchanged with factor 1.
    """
    n = float(np.linalg.norm(z))
    if epsilon <= 0.0 or n == 0.0:
        return z, 1.0
    factor = min(1.0, epsilon / n)
    return z * factor, factor


def _normalized_weights(updates: list[LocalUpdate], cfg: AggregatorConfig) -> np.ndarray:
    if cfg.weights == "uniform":
        return np.full(len(updates), 1.0 / len(updates))
    counts = np.array([u.n_train for u in updates], dtype=np.float64)
    total = counts.sum()
    if total <= 0.0:
        raise InputError("train-count weighting needs a positive total count")
    return counts / total


def regulate_and_aggregate(
    updates: list[LocalUpdate],
    ref: GeometricReference,
    cfg: AggregatorConfig,
) -> tuple[FlatVector, GeometricReference, RegulationReport]:
    """One server aggregation step.

    Client k's update is rescaled layer by layer with
    c_{k,l} = align_k · retention_{k,b(l)} · clip_k before the weighted
    sum, where b(l) = l, or the single block of a projected proxy. Plain
    mode sets every factor to 1, so it is the exact weighted mean of the
    raw updates. Either way the reference state advances on the round's
    proxies (raw by default, regulated under the ablation flag) and the
    report records the realized geometry.
    """
    if not updates:
        raise InputError("need at least one client update")
    updates = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate client ids in one round")
    layout = updates[0].delta.layout
    for u in updates[1:]:
        if u.delta.layout != layout:
            raise InputError("inconsistent update layouts")
    weights = _normalized_weights(updates, cfg)

    proxies = _proxies([u.delta for u in updates], cfg)
    if proxies[0].values.shape != ref.r.shape:
        raise InputError(
            f"reference length {ref.r.shape[0]} does not match proxies "
            f"({proxies[0].values.shape[0]})"
        )

    # effective reference: fall back to the heaviest client's direction
    # when the smoothed reference has no direction yet
    r_eff = ref.r
    fallback_used = False
    if np.linalg.norm(ref.r) == 0.0 and cfg.fallback == "largest":
        lead = max(range(len(updates)), key=lambda i: (weights[i], -ids[i]))
        r_eff = proxies[lead].values
        fallback_used = True

    norms = [z.norm for z in proxies]
    eps = 0.0  # a plain server has no cap
    if cfg.mode == "ggrs":
        eps = float(np.median(norms)) if cfg.epsilon == "adaptive" else float(cfg.epsilon)

    slices = layer_slices(layout)
    sizes = [b - a for a, b in slices]
    n_layers = len(slices)
    blocks = proxies[0].blocks
    block_of = range(n_layers) if len(blocks) == n_layers else [0] * n_layers
    global_delta = np.zeros_like(updates[0].delta.values)
    rows, source = [], []
    r_norm = float(np.linalg.norm(r_eff))

    for u, z, zn, w in zip(updates, proxies, norms, weights):
        cos_ref = 0.0
        if zn > 0.0 and r_norm > 0.0:
            cos_ref = float(np.clip(z.values @ r_eff / (zn * r_norm), -1.0, 1.0))

        z_out, align, retention, clip = z.values, 1.0, (1.0,) * len(blocks), 1.0
        if cfg.mode == "ggrs":
            z_out, align = align_regulate(z.values, r_eff, cfg.beta)
            z_out, retention = subspace_project(z_out, ref.basis, blocks)
            z_out, clip = sensitivity_normalize(z_out, eps)
        source.append(z if cfg.reference == "raw" else
                      ProxyVector(values=z_out, layer_norms=z.layer_norms, blocks=blocks))

        coefficients = tuple(align * retention[b] * clip for b in block_of)
        global_delta += w * (u.delta.values * np.repeat(coefficients, sizes))

        rows.append(
            ClientRegulation(
                client_id=u.client_id,
                proxy_norm=zn,
                cos_ref=cos_ref,
                align_factor=align,
                attenuated=align < 1.0,
                retention=retention,
                clip_factor=clip,
                coefficients=coefficients,
            )
        )

    new_ref = update_reference(ref, source, weights, cfg)
    layer_coefficients = weights @ np.array([row.coefficients for row in rows])

    report = RegulationReport(
        clients=tuple(rows),
        layer_coefficients=tuple(float(c) for c in layer_coefficients),
        epsilon=eps,
        fallback_used=fallback_used,
    )
    return FlatVector(values=global_delta, layout=layout), new_ref, report
