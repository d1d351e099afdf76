"""Deterministic simulator for clustered federated learning with dataset
distillation, plus closed-form communication, convergence, and complexity
calculators."""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread unless the environment sets a count. The products here are
# small (16-row batches, row-span steps a few hundred wide); on two threads
# OpenBLAS wakes its idle thread for each larger GEMM between them, which
# costs more than the thread gains. The variables are read when numpy
# loads, so they are set only where hfldd is imported first, as by the
# `hfldd` command and `python -m hfldd.cli`.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

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
    build_similarity,
    cluster_sampling,
    elect_heads,
    kl_divergence,
    kmeans_rows,
)
