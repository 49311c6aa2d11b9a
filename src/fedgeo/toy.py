"""Two-client scalar illustration of aggregation-induced spectral collapse.

Client 1 owns a 3-node path, client 2 a 3-node triangle; both fit a
one-layer linear model with a single scalar weight, so the node-space
propagation operator is just W times the normalized adjacency. The
clients' local optimizations are taken as given — W1 = +1, W2 = -1 —
and the two aggregation modes are compared on those fixed updates:

  plain mean:       W = (1 - 1) / 2 = 0        -> all-zero operator
  regulated (beta = 0.5, opposed update attenuated):
                    W = (1 - 0.5) / 2 = 0.25   -> spectrum scaled, not
                                                  collapsed

The report prints the path's normalized adjacency, both graph spectra,
both aggregated weights, and the regulated operator's spectrum, and
checks every value against its closed-form target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .client import RoundUpdates
from .graphs import normalized_adjacency, path_graph, complete_graph
from .metrics import operator_spectrum
from .model import SHARED, LayerSpec
from .server import AggregatorConfig, RunLayout, initial_reference, regulate_and_aggregate

__all__ = ["ToyCheck", "toy_appendix"]

# printed targets and their tolerances (exact where the arithmetic is
# exact in binary floating point)
_A1_TARGET = np.array([
    [0.50, 0.41, 0.00],
    [0.41, 0.33, 0.41],
    [0.00, 0.41, 0.50],
])
_EIG_A1_TARGET = np.array([1.00, 0.50, -0.17])
_EIG_A2_TARGET = np.array([1.0, 0.0, 0.0])
_EIG_REG_TARGET = np.array([0.25, 0.125, -0.0417])


@dataclass(frozen=True)
class ToyCheck:
    label: str
    value: str
    ok: bool


def toy_appendix() -> tuple[str, bool]:
    """Run the illustration; returns (report text, all checks passed)."""
    a1 = normalized_adjacency(path_graph(3)).dense()
    a2 = normalized_adjacency(complete_graph(3)).dense()
    eig_a1 = operator_spectrum(a1)
    eig_a2 = operator_spectrum(a2)

    layout = (LayerSpec(index=0, group=SHARED, w_shape=(1, 1), b_size=0),)
    updates = RoundUpdates(np.array([[1.0], [-1.0]]), RunLayout(((0, 2),), (0, 1), (1, 1), layout))

    plain_cfg = AggregatorConfig(mode="plain")
    w_plain = float(regulate_and_aggregate(updates, initial_reference(1), plain_cfg)[0][0, 0])
    eig_plain = operator_spectrum(w_plain * a1)

    reg_cfg = AggregatorConfig(mode="ggrs", beta=0.5)
    w_reg = float(regulate_and_aggregate(updates, initial_reference(1), reg_cfg)[0][0, 0])
    eig_reg = operator_spectrum(w_reg * a1)

    checks = [
        ToyCheck(
            "path normalized adjacency (tol 0.005)",
            np.array2string(a1, precision=4),
            bool(np.max(np.abs(a1 - _A1_TARGET)) < 0.005),
        ),
        ToyCheck(
            "path spectrum vs {1.00, 0.50, -0.17} (tol 0.005)",
            np.array2string(eig_a1, precision=4),
            bool(np.max(np.abs(eig_a1 - _EIG_A1_TARGET)) < 0.005),
        ),
        ToyCheck(
            "triangle spectrum vs {1, 0, 0} (tol 1e-9)",
            np.array2string(eig_a2, precision=4),
            bool(np.max(np.abs(eig_a2 - _EIG_A2_TARGET)) < 1e-9),
        ),
        ToyCheck("plain mean weight = 0 (exact)", repr(w_plain), w_plain == 0.0),
        ToyCheck(
            "plain spectrum all zero (exact)",
            np.array2string(eig_plain, precision=4),
            bool(np.all(eig_plain == 0.0)),
        ),
        ToyCheck("regulated weight = 0.25 (exact)", repr(w_reg), w_reg == 0.25),
        ToyCheck(
            "regulated spectrum vs {0.25, 0.125, -0.0417} (tol 0.01)",
            np.array2string(eig_reg, precision=4),
            bool(np.max(np.abs(eig_reg - _EIG_REG_TARGET)) < 0.01),
        ),
    ]

    lines = ["spectral-collapse illustration (path vs triangle, scalar weights)", ""]
    for c in checks:
        mark = "ok " if c.ok else "FAIL"
        lines.append(f"[{mark}] {c.label}")
        for vl in c.value.splitlines():
            lines.append(f"       {vl}")
    ok = all(c.ok for c in checks)
    lines.append("")
    lines.append("all checks passed" if ok else "DEVIATION DETECTED")
    return "\n".join(lines), ok
