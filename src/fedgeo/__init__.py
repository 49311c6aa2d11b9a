"""fedgeo: deterministic federated GNN training simulator.

Federated node-classification rounds over small dense GCNs with either
plain weighted averaging or server-side geometric regulation (proxy
directions, smoothed reference, directional attenuation, dominant-
subspace projection, norm capping), plus the coherence diagnostics that
make the difference measurable.
"""

from .client import ClientState, Federation, RoundUpdates, TrainingConfig, local_train
from .config import DataSource, RunConfig, load_config, parse_config
from .errors import ConfigError, CsvFormatError, DivergenceError, InputError
from .graph_io import load_graph_csv, save_graph_csv
from .graphs import (
    Graph,
    NormalizedAdjacency,
    PartitionSpec,
    complete_graph,
    graph_density,
    make_graph,
    mean_degree,
    normalized_adjacency,
    path_graph,
    planted_partition_graph,
)
from .harness import RunResult, build_clients, partition_report, run
from .metrics import (
    accuracy,
    operator_spectrum,
    pairwise_coherence,
    sensitivity_norm,
)
from .model import (
    FlatVector,
    ModelConfig,
    ParameterSet,
    flatten,
    forward,
    gradient,
    init_params,
    unflatten,
)
from .partition import dirichlet_assignments, dirichlet_label_partition, induced_subgraph
from .server import (
    AggregatorConfig,
    ProxyVector,
    ReferenceStack,
    RegulationReport,
    align_regulate,
    initial_reference,
    proxy_map,
    regulate_and_aggregate,
    sensitivity_normalize,
    subspace_project,
    update_reference,
)
from .toy import toy_appendix

__version__ = "0.1.0"

__all__ = [
    "AggregatorConfig",
    "ClientState",
    "ConfigError",
    "CsvFormatError",
    "DataSource",
    "DivergenceError",
    "Federation",
    "FlatVector",
    "Graph",
    "InputError",
    "ModelConfig",
    "NormalizedAdjacency",
    "ParameterSet",
    "PartitionSpec",
    "ProxyVector",
    "ReferenceStack",
    "RegulationReport",
    "RunConfig",
    "RoundUpdates",
    "RunResult",
    "TrainingConfig",
    "accuracy",
    "align_regulate",
    "build_clients",
    "complete_graph",
    "dirichlet_assignments",
    "dirichlet_label_partition",
    "flatten",
    "forward",
    "gradient",
    "graph_density",
    "induced_subgraph",
    "init_params",
    "initial_reference",
    "load_config",
    "load_graph_csv",
    "local_train",
    "make_graph",
    "mean_degree",
    "normalized_adjacency",
    "operator_spectrum",
    "pairwise_coherence",
    "parse_config",
    "partition_report",
    "path_graph",
    "planted_partition_graph",
    "proxy_map",
    "regulate_and_aggregate",
    "run",
    "save_graph_csv",
    "sensitivity_norm",
    "sensitivity_normalize",
    "subspace_project",
    "toy_appendix",
    "unflatten",
    "update_reference",
]
