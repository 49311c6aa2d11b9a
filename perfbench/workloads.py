"""Benchmark federations, generated as config text from a workload seed.

Workload seed ``s`` (0 to ``WORKLOAD_SEEDS - 1``) fixes every draw of a
run: a workload with ``k`` run seeds runs seeds ``k*s+1 .. k*s+k``
(``k`` = 3, except 1 for ``wide_ggrs``) and the partition seed offset is
``s``. The line ``partition.seed`` is written only when the offset is not
the parser's default 0, so seed 0 of ``margin_ggrs`` is byte for byte the shipped
``configs/alignment_margin_ggrs.conf``.

Why each workload is here:

- ``margin_ggrs``: the paper's headline run. The server's subspace
  refresh dominates it, and with a 1-layer model every ``A_hat @ X``
  product recomputes a constant.
- ``wide_ggrs``: proxy length 64*64+64 + 64*8+8 = 4680 > 4096, so it is
  the only workload on the sign-projection path of ``proxy_map``; client
  matmuls and the dense n x n graph draw carry real weight.
- ``crowd_plain``: 32 tiny clients with fedprox and local heads, so the
  client layer sees many short calls, and the plain server refreshes a
  basis it never reads.
"""

from __future__ import annotations

DEFAULT_SEED = 0
# Workload seeds with recorded reference values (``reference.json``).
# The benchmark's ``--seed n`` runs workload seed ``n % WORKLOAD_SEEDS``.
WORKLOAD_SEEDS = 128

_MARGIN_GGRS = """\
# Regulated twin of alignment_margin_plain.conf — identical federation,
# identical optimizer, only the server aggregation differs. The fixed
# sensitivity cap keeps the applied global step below the stability
# edge of the stiffest client, so the run descends coherently instead
# of hovering: last-round accuracy matches the plain twin while the
# mean alignment over the final rounds comes out higher by a wide
# margin. Exercised end to end by tests/test_acceptance.py.

run.name = alignment_margin_ggrs
run.rounds = {rounds}
run.seeds = {seeds}

data1.kind = planted
data1.blocks = 4
data1.block_size = 60
data1.p_in = 0.7
data1.p_out = 0.01
data1.classes = 4
data1.features = 12
data1.class_sep = 1.0
data1.clients = 3

data2.kind = planted
data2.blocks = 4
data2.block_size = 60
data2.p_in = 0.02
data2.p_out = 0.001
data2.classes = 4
data2.features = 12
data2.class_sep = 1.0
data2.clients = 1

partition.alpha = 0.3
{partition}
model.layers = 1
model.activation = identity

client.trainer = fedavg
client.lr = 14.0
client.epochs = 5

server.regulation = ggrs
server.beta = 0.5
server.epsilon = 0.05
server.subspace_dim = 8
server.window = 16
"""

_WIDE_GGRS = """\
# Eight clients split one sparse 2000-node planted source (8 x 250).
# Proxy length 4680 exceeds 4096, so proxies are sign-projected.

run.name = wide_ggrs
run.rounds = {rounds}
run.seeds = {seeds}

data.kind = planted
data.blocks = 8
data.block_size = 250
data.p_in = 0.02
data.p_out = 0.001
data.classes = 8
data.features = 64
data.class_sep = 1.0
data.clients = 8

partition.alpha = 0.5
{partition}
model.layers = 2
model.hidden = 64
model.activation = relu

client.trainer = fedavg
client.lr = 0.5
client.epochs = 5

server.regulation = ggrs
server.epsilon = adaptive
"""

_CROWD_PLAIN = """\
# 32 clients from two 240-node regimes, 16 each: a dense assortative
# graph and a near-edgeless one. Local heads, fedprox, plain averaging
# with the default window of 32.

run.name = crowd_plain
run.rounds = {rounds}
run.seeds = {seeds}
run.regime = cross_domain

data1.kind = planted
data1.blocks = 4
data1.block_size = 60
data1.p_in = 0.7
data1.p_out = 0.01
data1.classes = 4
data1.features = 12
data1.class_sep = 1.0
data1.clients = 16

data2.kind = planted
data2.blocks = 4
data2.block_size = 60
data2.p_in = 0.02
data2.p_out = 0.001
data2.classes = 4
data2.features = 12
data2.class_sep = 1.0
data2.clients = 16

partition.alpha = 0.3
{partition}
model.layers = 2
model.hidden = 16

client.trainer = fedprox
client.mu = 0.01
client.lr = 0.5
client.epochs = 3

server.regulation = plain
"""

# name -> (template, rounds, run seeds per workload seed)
WORKLOADS = {
    "margin_ggrs": (_MARGIN_GGRS, 50, 3),
    "wide_ggrs": (_WIDE_GGRS, 20, 1),
    "crowd_plain": (_CROWD_PLAIN, 10, 3),
}


def config_text(name: str, seed: int = DEFAULT_SEED, rounds: int | None = None) -> str:
    """Config text of workload ``name`` at workload seed ``seed``.

    ``rounds`` shortens the run for the benchmark's self-checks.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("workload seed must be >= 0")
    template, default_rounds, n_seeds = WORKLOADS[name]
    seeds = ", ".join(str(n_seeds * seed + k) for k in range(1, n_seeds + 1))
    partition = f"partition.seed = {seed}\n" if seed != 0 else ""
    return template.format(
        rounds=default_rounds if rounds is None else rounds,
        seeds=seeds,
        partition=partition,
    )
