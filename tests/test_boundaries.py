"""Every scalar boundary of the package, one row each, against the two rules.

A count (`numkernel.check_count`) is an integer that is not a bool; a real
(`numkernel.check_real`) is a finite number that is not a bool. Each row
names the class or function and its field, the field's kind, a value it
accepts, and the call that puts a value there with every other argument
valid. A float count, `True`, NaN and ±inf must raise a DomainError naming
the field; the accepted value as a numpy scalar must pass.

Among the rows are calls that used to run on a truncated value:
`RunConfig(rounds=True)` trained one round, `hidden_sizes=(2.5,)` a 2-wide
layer, `KipConfig(support_size=2.5)` distilled 3 rows, `init_mlp((3, 2.5,
2))` built sizes (3, 2, 2), and `RunConfig(rounds=2.5)` made `run_fedavg`
end in a raw TypeError. So did these: `MlpModel((3, 2.5, 2), params)` built
sizes (3, 2, 2); `ClusterTopology`, `cluster_sampling` and `elect_heads`
took client 1.5 for client 1; `balanced_support_labels([0, 1], 2.5, 3)` made
3 rows; `pool_labels(2.5, 3)` returned float labels;
`TransmissionLedger.record` logged a round 2.5; and `SeededRng(True)` drew
seed 1's stream.
"""

import math
import re

import numpy as np
import pytest

from hfldd import cli
from hfldd.datagen import (
    PartitionSpec,
    class_means,
    make_probe_dataset,
    one_hot,
    pool_labels,
    sample_classes,
    split_sizes,
    split_train_test,
)
from hfldd.distill import KipConfig, balanced_support_labels, kip_gradient, kip_loss
from hfldd.errors import DomainError
from hfldd.fltrain import ClientState, RunConfig, aggregate, pass_steps, run_fedseq_lite
from hfldd.metrics import (
    PAYLOAD_MODEL,
    ConvergenceParams,
    CostModel,
    TransmissionLedger,
    complexity_estimates,
    convergence_bound,
)
from hfldd.model import MlpModel, SgdConfig, init_mlp, iter_batches, local_train
from hfldd.numkernel import SeededRng, check_count, check_real, rbf_kernel, ridge_solve
from hfldd.topology import ClusterTopology, cluster_sampling, elect_heads, kmeans_rows

from helpers import tiny_problem

RNG = SeededRng(3)
RUN = dict(rounds=1, local_steps=1, pretrain_steps=0, learning_rate=0.1, batch_size=4, prox_mu=0.0, seed=1)
SGD = dict(learning_rate=0.1, batch_size=4, steps=1)
KIP = dict(support_size=2, ridge_lambda=1e-6, learning_rate=0.01, iterations=1, target_batch=2)
SPEC = dict(n_clients=2, classes_per_client=1, total_classes=2, samples_per_client=4)
BOUND = dict(
    smoothness=2.0, strong_convexity=1.0, noise_bounds=(0.5, 0.5), gradient_bound=1.0,
    cluster_divergence=0.1, distill_divergence=0.1, local_steps=2, weights=(0.5, 0.5), init_gap=1.0,
)
COMPLEXITY = dict(kmeans_iters=1, pretrain_steps=1, pretrain_batch=1, local_steps=1, batch_size=1, kip_iters=1)
X = np.random.default_rng(0).standard_normal((4, 3))
Y = np.eye(2)[[0, 1, 0, 1]]


def problem():
    if not hasattr(problem, "cached"):
        problem.cached = tiny_problem()
    return problem.cached


def client_data():
    return problem()[0][0].data


def fedseq(**shape):
    clients, _, test = problem()
    shape = {"cluster_count": 2, "cluster_size": 3, **shape}
    return run_fedseq_lite(clients, test, RunConfig(**RUN), **shape)


def complexity(name, v):
    return complexity_estimates(CostModel(), **{**COMPLEXITY, name: v})


def models():
    return [init_mlp((3, 2), RNG), init_mlp((3, 2), SeededRng(4))]


def config(cls, base, fields):
    """Rows for the fields of a config class, each built from `base`."""
    return [
        (f"{cls.__name__}.{name}", kind, good, lambda v, name=name: cls(**{**base, name: v}))
        for name, kind, good in fields
    ]


# (where.field, kind, accepted value, call with the value in that field)
ROWS = [
    *config(RunConfig, RUN, [
        ("rounds", "count", 2), ("local_steps", "count", 1), ("pretrain_steps", "count", 0),
        ("learning_rate", "real", 0.1), ("batch_size", "count", 4), ("pretrain_batch", "count", 4),
        ("prox_mu", "real", 0.0), ("seed", "count", 7),
    ]),
    ("RunConfig.hidden_sizes", "count", 8, lambda v: RunConfig(**RUN, hidden_sizes=(v,))),
    *config(SgdConfig, SGD, [
        ("learning_rate", "real", 0.1), ("batch_size", "count", 4), ("steps", "count", 0),
    ]),
    *config(KipConfig, KIP, [
        ("support_size", "count", 2), ("ridge_lambda", "real", 1e-6), ("learning_rate", "real", 0.01),
        ("iterations", "count", 0), ("target_batch", "count", 2),
    ]),
    *config(PartitionSpec, SPEC, [
        ("n_clients", "count", 2), ("classes_per_client", "count", 1), ("total_classes", "count", 2),
        ("samples_per_client", "count", 4),
    ]),
    ("ClientState.client_id", "count", 3, lambda v: ClientState(v, client_data())),
    *config(ConvergenceParams, BOUND, [
        ("smoothness", "real", 2.0), ("strong_convexity", "real", 1.0), ("gradient_bound", "real", 1.0),
        ("cluster_divergence", "real", 0.1), ("distill_divergence", "real", 0.1),
        ("local_steps", "count", 2), ("init_gap", "real", 0.0),
    ]),
    ("ConvergenceParams.noise_bounds", "real", 0.5,
     lambda v: ConvergenceParams(**{**BOUND, "noise_bounds": (v, 0.5)})),
    ("ConvergenceParams.weights", "real", 0.5,
     lambda v: ConvergenceParams(**{**BOUND, "weights": (v, 0.5)})),
    ("init_mlp.layer_sizes", "count", 2, lambda v: init_mlp((3, v, 2), RNG)),
    ("class_means.n_classes", "count", 2, lambda v: class_means(v, 3, 1.0, RNG)),
    ("class_means.dim", "count", 3, lambda v: class_means(2, v, 1.0, RNG)),
    ("class_means.separation", "real", 1.0, lambda v: class_means(2, 3, v, RNG)),
    ("sample_classes.per_class", "count", 2, lambda v: sample_classes(X, v, RNG)),
    ("make_probe_dataset.size", "count", 2, lambda v: make_probe_dataset(10, v, RNG)),
    ("split_sizes.test_fraction", "real", 0.25, lambda v: split_sizes(10, v)),
    ("pass_steps.n_rows", "count", 10, lambda v: pass_steps(v, 3, 2)),
    ("pass_steps.batch_size", "count", 3, lambda v: pass_steps(10, v, 2)),
    ("pass_steps.passes", "count", 2, lambda v: pass_steps(10, 3, v)),
    ("kmeans_rows.k", "count", 2, lambda v: kmeans_rows(X @ X.T, v, RNG)),
    ("run_fedseq_lite.cluster_count", "count", 2, lambda v: fedseq(cluster_count=v)),
    ("run_fedseq_lite.cluster_size", "count", 3, lambda v: fedseq(cluster_size=v)),
    *[
        (f"complexity_estimates.{name}", "count", 1, lambda v, name=name: complexity(name, v))
        for name in COMPLEXITY
    ],
    ("convergence_bound.t", "count", 3, lambda v: convergence_bound(ConvergenceParams(**BOUND), v)),
    ("local_train.mu", "real", 0.1,
     lambda v: local_train(init_mlp((8, 4), RNG), client_data(), SgdConfig(**SGD), RNG, v)),
    ("ridge_solve.lam", "real", 0.5, lambda v: ridge_solve(np.eye(3), np.ones((3, 1)), v)),
    ("rbf_kernel.gamma", "real", 0.5, lambda v: rbf_kernel(X, X, v)),
    ("kip_gradient.gamma", "real", 0.5, lambda v: kip_gradient(X[:2], Y[:2], X, Y, 1e-6, v)),
    ("kip_loss.gamma", "real", 0.5, lambda v: kip_loss(X[:2], Y[:2], X, Y, 1e-6, v)),
    ("aggregate.weights", "real", 1.0, lambda v: aggregate(models(), [v, 1.0])),
    ("SeededRng.seed", "count", 7, lambda v: SeededRng(v)),
    ("SeededRng.stream", "count", 7, lambda v: SeededRng(1, v)),
    ("MlpModel.sizes", "count", 2, lambda v: MlpModel((3, v, 2), np.zeros(14))),
    ("ClusterTopology.homogeneous", "count", 1,
     lambda v: ClusterTopology(((0, v),), ((0,), (v,)), (0, v))),
    ("ClusterTopology.heterogeneous", "count", 1,
     lambda v: ClusterTopology(((0, 1),), ((0,), (v,)), (0, 1))),
    ("ClusterTopology.heads", "count", 1, lambda v: ClusterTopology(((0, 1),), ((0,), (1,)), (0, v))),
    ("ClusterTopology.to_json.seed", "count", 7,
     lambda v: ClusterTopology(((0, 1),), ((0,), (1,)), (0, 1)).to_json(seed=v)),
    ("cluster_sampling.homogeneous", "count", 1, lambda v: cluster_sampling(((0, v),), RNG)),
    ("elect_heads.heterogeneous", "count", 1, lambda v: elect_heads(((0, v),), RNG)),
    ("iter_batches.n_rows", "count", 4, lambda v: next(iter_batches(v, 2, RNG.generator()))),
    ("iter_batches.batch_size", "count", 2, lambda v: next(iter_batches(4, v, RNG.generator()))),
    ("pool_labels.n_classes", "count", 3, lambda v: pool_labels(v, 2)),
    ("pool_labels.per_class", "count", 2, lambda v: pool_labels(3, v)),
    ("split_sizes.n_rows", "count", 10, lambda v: split_sizes(v, 0.25)),
    ("split_train_test.n_rows", "count", 10, lambda v: split_train_test(v, 0.25, RNG)),
    ("make_probe_dataset.n_rows", "count", 10, lambda v: make_probe_dataset(v, 2, RNG)),
    ("balanced_support_labels.support_size", "count", 2,
     lambda v: balanced_support_labels([0, 1], v, 3)),
    ("one_hot.class_count", "count", 2, lambda v: one_hot([0, 1], v)),
    ("TransmissionLedger.record.round_index", "count", 1,
     lambda v: TransmissionLedger().record(v, "server", "client-0", PAYLOAD_MODEL, 8)),
]

BAD = {"count": [2.5, True], "real": [True, math.nan, math.inf, -math.inf]}
ACCEPT = {"count": np.int64, "real": np.float64}
IDS = [where for where, *_ in ROWS]


@pytest.mark.parametrize("where, kind, good, call", ROWS, ids=IDS)
def test_the_boundary_rejects_what_its_rule_rejects(where, kind, good, call):
    field = where.rsplit(".", 1)[1]
    for bad in BAD[kind]:
        with pytest.raises(DomainError, match=rf"^{field} must be") as err:
            call(bad)
        assert repr(bad) in str(err.value)


@pytest.mark.parametrize("where, kind, good, call", ROWS, ids=IDS)
def test_the_boundary_accepts_a_numpy_scalar(where, kind, good, call):
    call(ACCEPT[kind](good))


def test_the_rules_hold_their_bounds():
    assert check_count("n", np.uint8(0)) == 0 and type(check_count("n", np.int64(5))) is int
    assert check_count("n", 2**63 - 1) == 2**63 - 1
    for bad, text in ((2**63, "n must be < 2^63, got"), (-1, "n must be >= 0, got -1")):
        with pytest.raises(DomainError, match="^" + re.escape(text)):
            check_count("n", bad)
    assert check_real("x", 0, least=0) == 0.0 and type(check_real("x", np.float32(0.5))) is float
    for bad, kw in ((0.0, dict(above=0)), (1.0, dict(below=1)), (-0.1, dict(least=0)), (10**400, {})):
        with pytest.raises(DomainError, match="^x must be finite"):
            check_real("x", bad, **kw)


@pytest.mark.parametrize(
    "parse, text",
    [
        (cli._parse_count(1), "0"),
        (cli._parse_count(0), str(2**63)),
        (cli._parse_open(0, 1), "1"),
        (cli._parse_open(0, math.inf), "inf"),
        (cli._parse_finite, "nan"),
    ],
)
def test_the_config_parsers_apply_the_rules(parse, text):
    with pytest.raises(DomainError, match="^value must be"):
        parse(text)
