"""Deterministic simulator for clustered federated learning with dataset
distillation, plus closed-form communication, convergence, and complexity
calculators."""

__version__ = "0.1.0"

from .datagen import (
    LabeledDataset,
    PartitionSpec,
    make_probe_dataset,
    partition_label_skew,
    split_train_test,
)
from .distill import DistilledSet, KipConfig, distill, kip_gradient, kip_loss
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    EmptyInputError,
    FormatError,
    HflddError,
    ManifestError,
    ShapeError,
    SingularMatrixError,
    StageError,
)
from .fltrain import (
    ClientState,
    RoundMetrics,
    RunConfig,
    RunResult,
    aggregate,
    run_fedavg,
    run_fedprox,
    run_fedseq_lite,
    run_hfldd,
)
from .metrics import (
    ConvergenceParams,
    CostModel,
    TransmissionLedger,
    complexity_estimates,
    convergence_bound,
    cost_fedavg,
    cost_fedseq,
    cost_hfldd,
    ledger_audit,
)
from .model import MlpModel, SgdConfig, backward, forward, init_mlp, local_train, sgd_step, soft_labels
from .numkernel import SeededRng, rbf_gamma, rbf_kernel, ridge_solve
from .topology import (
    ClusterTopology,
    SimilarityMatrix,
    build_similarity,
    cluster_sampling,
    elect_heads,
    kl_divergence,
    kmeans_rows,
)
