"""Shared problem builders for the test suite.

Problems are built by the command-line tool's own builder from an `hfldd run`
configuration, so numbers produced by these tests can be reproduced from an
equivalent INI file.
"""

import numpy as np

from hfldd import cli, streams
from hfldd.datagen import concat_datasets
from hfldd.distill import KipConfig, distill
from hfldd.fltrain import RunConfig
from hfldd.numkernel import SeededRng, rbf_gamma


def build_problem(
    seed,
    classes_per_client,
    n_classes=10,
    dim=1024,
    separation=5.5,
    per_class=448,
    n_clients=20,
    samples_per_client=160,
    test_fraction=0.2,
    probe_size=100,
    probe_shift=1.0,
):
    """Materialize (clients, probe, test) for one label-skew experiment.

    The algorithm is fedavg only so that the configuration check on the
    hfldd cluster count does not apply; the problem is the same for all.
    """
    raw = {
        "experiment": {"seed": seed, "algorithm": "fedavg", "output_dir": "unused"},
        "data": {
            "classes": n_classes,
            "per_class": per_class,
            "dim": dim,
            "separation": separation,
            "test_fraction": test_fraction,
            "probe_size": probe_size,
            "probe_shift": probe_shift,
        },
        "partition": {
            "clients": n_clients,
            "classes_per_client": classes_per_client,
            "samples_per_client": samples_per_client,
        },
    }
    echo = cli._normalize(
        {section: {k: str(v) for k, v in keys.items()} for section, keys in raw.items()}
    )
    return cli._build_problem(cli._experiment_from_echo(echo))


def benchmark_config(seed, **overrides):
    """The frozen training schedule used by the paired-run experiments."""
    kw = dict(
        rounds=50,
        local_steps=2,
        pretrain_steps=10,
        learning_rate=0.01,
        batch_size=16,
        prox_mu=0.0,
        seed=seed,
    )
    kw.update(overrides)
    return RunConfig(**kw)


def benchmark_kip():
    return KipConfig(
        support_size=80,
        ridge_lambda=1e-6,
        learning_rate=0.004,
        iterations=300,
        target_batch=10,
    )


def tiny_problem(seed=7, n_clients=6, classes_per_client=2, n_classes=4, dim=8,
                 per_class=120, samples_per_client=40, separation=4.0):
    """Small, fast problem for unit tests of the orchestration layer."""
    return build_problem(
        seed,
        classes_per_client,
        n_classes=n_classes,
        dim=dim,
        separation=separation,
        per_class=per_class,
        n_clients=n_clients,
        samples_per_client=samples_per_client,
        test_fraction=0.25,
        probe_size=20,
    )


def head_datasets(clients, topology, kip, seed):
    """{head id: the dataset it trains on in stage 4}, rebuilt from a run's
    topology without reading the run's arrays.

    Each head's own rows come first. Then, in cluster order, every other
    member of its heterogeneous cluster adds its rows distilled on its own
    stream.
    """
    by_id = {c.client_id: c.data for c in clients}
    out = {}
    for cluster, head in zip(topology.heterogeneous, topology.heads):
        parts = [by_id[head]]
        for member in cluster:
            if member != head:
                d = by_id[member]
                rng = SeededRng(seed, streams.DISTILL + member)
                parts.append(distill(d, kip, rbf_gamma(d.features), rng).data)
        out[head] = concat_datasets(parts)
    return out


def conditioned(n, dim, cond, gen):
    """An n x dim matrix whose singular values fall evenly in log scale from
    1 to 1 / cond."""
    k = min(n, dim)
    u, _ = np.linalg.qr(gen.standard_normal((n, k)))
    v, _ = np.linalg.qr(gen.standard_normal((dim, k)))
    return (u * np.logspace(0, -np.log10(cond), k)) @ v.T


def models_equal(a, b) -> bool:
    """Bit-exact parameter equality."""
    return a.sizes == b.sizes and np.array_equal(a.params, b.params)


def models_close(a, b, atol=1e-10) -> bool:
    return a.sizes == b.sizes and np.allclose(a.params, b.params, rtol=0.0, atol=atol)
