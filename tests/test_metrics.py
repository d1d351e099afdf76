"""Cost formulas, convergence bound, complexity counts, ledger auditing."""

import numpy as np
import pytest

from hfldd.errors import DomainError
from hfldd.metrics import (
    PAYLOAD_MODEL,
    ConvergenceParams,
    CostModel,
    TransmissionLedger,
    bits_to_megabytes,
    complexity_estimates,
    convergence_bound,
    cost_fedavg,
    cost_fedseq,
    cost_hfldd,
    ledger_audit,
)


class TestLedger:
    def test_totals_and_grouping(self):
        led = TransmissionLedger()
        led.record(0, "client-0", "server", "soft-labels", 100)
        led.record(1, "server", "client-0", "model", 40)
        led.record(1, "client-0", "server", "model", 40)
        assert led.total_bits() == 180
        assert led.bits_by_kind()["model"] == 80
        assert led.bits_by_kind()["soft-labels"] == 100
        assert led.bits_by_round() == {0: 100, 1: 80}

    def test_validation(self):
        led = TransmissionLedger()
        with pytest.raises(DomainError):
            led.record(0, "a", "b", "carrier-pigeon", 1)
        with pytest.raises(DomainError):
            led.record(0, "a", "b", PAYLOAD_MODEL, 0)

    def test_bits_must_be_a_count(self):
        # a float used to be truncated and a bool logged as 1 bit
        led = TransmissionLedger()
        for bits in (2.5, np.float64(32), True, 2**63):
            with pytest.raises(DomainError, match="transmission bits"):
                led.record(0, "a", "b", PAYLOAD_MODEL, bits)
        led.record(0, "a", "b", PAYLOAD_MODEL, np.int64(5))
        assert led.events[0].bits == 5 and type(led.events[0].bits) is int


class TestCostModel:
    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            CostModel(n_clients=-1)
        with pytest.raises(DomainError):
            CostModel(distilled_sizes=(4, -1))

    def test_counts_below_2_63_keep_megabytes_finite(self):
        big = CostModel(n_clients=2**63 - 1, rounds=2**63 - 1, model_params=2**63 - 1,
                        bits_per_param=2**63 - 1)
        assert bits_to_megabytes(cost_fedavg(big)) > 0
        for kw in (dict(n_clients=2**63), dict(distilled_sizes=(1, 10**400))):
            with pytest.raises(DomainError, match="2\\^63"):
                CostModel(**kw)

    @pytest.mark.parametrize(
        "kw, rule",
        [
            (dict(n_clients=2, n_heads=5, distilled_sizes=(4,)), "n_heads must be <= n_clients"),
            (dict(n_clients=2, n_heads=3), "n_heads must be <= n_clients"),
            (dict(n_clients=20, n_heads=4, distilled_sizes=(10,) * 3), "must hold 16 sizes"),
            (dict(n_clients=4, n_heads=1, distilled_sizes=(1,) * 4), "must hold 3 sizes"),
            (dict(n_clients=3, distilled_sizes=(5,)), "must hold 0 sizes"),
            (dict(n_clients=3, n_heads=3, distilled_sizes=(5,)), "must hold 0 sizes"),
            (dict(n_clients=3, n_homogeneous=9), "n_homogeneous must be <= n_clients"),
            (dict(n_clients=3, seq_clusters=2, seq_cluster_size=5), "seq_clusters \\* seq_cluster_size"),
            (dict(n_clients=3, seq_clusters=3), "seq_clusters \\* seq_cluster_size"),
            (dict(n_clients=3, seq_cluster_size=3), "seq_clusters \\* seq_cluster_size"),
            (dict(seq_clusters=2, seq_cluster_size=0), "seq_clusters \\* seq_cluster_size"),
        ],
        ids=["more-heads-than-clients", "heads-over-clients-no-sizes", "too-few-sizes",
             "too-many-sizes", "sizes-without-heads", "sizes-with-every-client-a-head",
             "more-homogeneous-clusters-than-clients", "chains-over-10-of-3-clients",
             "chains-without-a-size", "chains-without-a-count", "chains-over-no-clients"],
    )
    def test_topology_no_run_produces_rejected(self, kw, rule):
        # a cost for traffic no run sends: five heads training on two
        # clients, or 3 supports charged where 16 members ship one each
        with pytest.raises(DomainError, match=rule):
            CostModel(**kw)

    def test_topologies_runs_produce_accepted(self):
        assert CostModel(n_clients=3).distilled_sizes == ()
        assert CostModel(n_clients=3, n_heads=3).n_heads == 3
        assert len(CostModel(n_clients=20, n_heads=4, distilled_sizes=(10,) * 16).distilled_sizes) == 16
        assert CostModel(n_clients=6, n_homogeneous=6, seq_clusters=2, seq_cluster_size=3).n_clients == 6
        assert CostModel(n_clients=6, seq_clusters=6, seq_cluster_size=1).seq_clusters == 6

    def test_bits_per_param_below_one_rejected(self):
        # A zero price makes every cost 0 and the hfldd/fedavg ratio NaN.
        for bits in (0, -8):
            with pytest.raises(DomainError, match="bits_per_param"):
                CostModel(bits_per_param=bits)

    def test_counts_must_be_integers(self):
        c = CostModel(n_clients=np.int64(3), n_heads=np.int64(2), distilled_sizes=(np.int32(2),))
        assert c.n_clients == 3
        for kw in (
            dict(n_clients=2.5),
            dict(n_heads=True),
            dict(rounds=float("nan")),
            dict(bits_per_param=np.float64(32)),
            dict(distilled_sizes=(4, 1.5)),
            dict(distilled_sizes=(np.bool_(True),)),
        ):
            with pytest.raises(DomainError, match="must be an integer"):
                CostModel(**kw)


class TestCostFormulas:
    def test_fedavg_hand_value(self):
        # 3 clients * (2*2 - 1) round-trips * 10 params * 8 bits
        c = CostModel(n_clients=3, rounds=2, model_params=10, bits_per_param=8)
        assert cost_fedavg(c) == 720

    def test_fedavg_first_broadcast_free(self):
        c = CostModel(n_clients=3, rounds=1, model_params=10, bits_per_param=8)
        assert cost_fedavg(c) == 240
        assert cost_fedavg(CostModel(n_clients=3, model_params=10, bits_per_param=8)) == 0

    def test_hfldd_hand_value(self):
        # soft labels 4*5*2*8 = 320; distilled (3+2)*16 = 80;
        # head training 2*10*3*8 = 480
        c = CostModel(
            n_clients=4,
            n_heads=2,
            rounds=2,
            model_params=10,
            probe_size=5,
            class_count=2,
            bits_per_param=8,
            bits_per_sample=16,
            distilled_sizes=(3, 2),
        )
        assert cost_hfldd(c) == 880

    def test_fedseq_hand_value(self):
        # 2 clusters * 10 params * 8 bits * ((2*2 - 1) + 2 rounds * 3 members)
        c = CostModel(
            n_clients=6, rounds=2, seq_clusters=2, seq_cluster_size=3, model_params=10,
            bits_per_param=8,
        )
        assert cost_fedseq(c) == 1440

    def test_hfldd_beats_fedavg_when_heads_are_few(self):
        c = CostModel(
            n_clients=100,
            n_heads=10,
            rounds=50,
            model_params=1000,
            probe_size=100,
            class_count=10,
            bits_per_param=32,
            bits_per_sample=64,
            distilled_sizes=(20,) * 90,
        )
        assert cost_hfldd(c) < cost_fedavg(c)


class TestConvergenceBound:
    def hand_params(self):
        return ConvergenceParams(
            smoothness=1.0,
            strong_convexity=1.0,
            noise_bounds=(0.0,),
            gradient_bound=1.0,
            cluster_divergence=0.1,
            distill_divergence=0.0,
            local_steps=2,
            weights=(1.0,),
            init_gap=1.0,
        )

    def test_hand_value(self):
        # tau = max(8, 2) - 1 = 7; Q = 0 + 6*0.1 + 8*1*1 = 8.6;
        # bound = (1/10) * (2*8.6 + 4) = 2.12
        assert convergence_bound(self.hand_params(), 3) == pytest.approx(2.12, abs=1e-12)

    def test_monotone_decreasing(self):
        p = self.hand_params()
        values = [convergence_bound(p, t) for t in range(0, 2000, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_inverse_t_tail(self):
        p = self.hand_params()
        t = 10**6
        ratio = convergence_bound(p, 2 * t) / convergence_bound(p, t)
        assert abs(ratio - 0.5) <= 1e-3

    def test_noise_and_weights_enter_quadratically(self):
        p = ConvergenceParams(
            smoothness=2.0,
            strong_convexity=1.0,
            noise_bounds=(3.0, 1.0),
            gradient_bound=0.0,
            cluster_divergence=0.0,
            distill_divergence=0.0,
            local_steps=1,
            weights=(0.5, 0.5),
            init_gap=0.0,
        )
        # Q = 0.25*9 + 0.25*1 = 2.5; tau = 15; bound(1) = 2/16 * 2*2.5
        assert convergence_bound(p, 1) == pytest.approx(0.625, abs=1e-12)

    def test_validation(self):
        good = dict(
            smoothness=1.0,
            strong_convexity=1.0,
            noise_bounds=(0.0,),
            gradient_bound=0.0,
            cluster_divergence=0.0,
            distill_divergence=0.0,
            local_steps=1,
            weights=(1.0,),
            init_gap=0.0,
        )
        with pytest.raises(DomainError):
            ConvergenceParams(**{**good, "strong_convexity": 0.0})
        with pytest.raises(DomainError):
            ConvergenceParams(**{**good, "smoothness": 0.5})
        with pytest.raises(DomainError):
            ConvergenceParams(**{**good, "weights": (0.5,)})
        with pytest.raises(DomainError):
            ConvergenceParams(**{**good, "noise_bounds": (0.0, 0.0)})
        with pytest.raises(DomainError):
            ConvergenceParams(**{**good, "local_steps": 0})
        with pytest.raises(DomainError):
            convergence_bound(ConvergenceParams(**good), -1)


class TestComplexity:
    def test_unit_counts(self):
        # two clients: one head, one member shipping one row
        c = CostModel(
            n_clients=2,
            n_heads=1,
            n_homogeneous=1,
            rounds=1,
            model_params=1,
            probe_size=1,
            class_count=1,
            distilled_sizes=(1,),
        )
        out = complexity_estimates(c, 1, 1, 1, 1, 1, 1)
        assert out == {
            "server_similarity": 4,
            "server_kmeans": 4,
            "server_aggregation": 1,
            "member_pretrain": 2,
            "member_distill": 1,
            "head_training": 1,
        }

    def test_distill_term_is_cubic_in_largest_set(self):
        c = CostModel(n_clients=4, n_heads=1, distilled_sizes=(2, 5, 3))
        out = complexity_estimates(c, 0, 0, 1, 0, 1, 7)
        assert out["member_distill"] == 7 * 125

    def test_negative_knob_rejected(self):
        with pytest.raises(DomainError):
            complexity_estimates(CostModel(), -1, 0, 1, 0, 1, 0)


class TestMegabytes:
    def test_decimal_definition(self):
        assert bits_to_megabytes(8_000_000) == 1.0


class TestLedgerAudit:
    def test_zero_discrepancy(self):
        c = CostModel(n_clients=2, rounds=1, model_params=5, bits_per_param=8)
        led = TransmissionLedger()
        led.record(1, "client-0", "server", PAYLOAD_MODEL, 40)
        led.record(1, "client-1", "server", PAYLOAD_MODEL, 40)
        report = ledger_audit(led, c, "fedavg")
        assert report.closed_form_bits == report.ledger_bits == 80
        assert report.discrepancy_bits == 0
        assert report.relative_discrepancy == 0.0

    def test_fedprox_uses_fedavg_formula(self):
        c = CostModel(n_clients=3, rounds=2, model_params=10, bits_per_param=8)
        led = TransmissionLedger()
        led.record(1, "a", "b", PAYLOAD_MODEL, 720)
        assert ledger_audit(led, c, "fedprox").closed_form_bits == cost_fedavg(c)

    def test_discrepancy_reported(self):
        c = CostModel(n_clients=2, rounds=1, model_params=5, bits_per_param=8)
        led = TransmissionLedger()
        led.record(1, "a", "b", PAYLOAD_MODEL, 100)
        report = ledger_audit(led, c, "fedavg")
        assert report.discrepancy_bits == 20
        assert report.relative_discrepancy == pytest.approx(0.25)

    def test_unknown_algorithm(self):
        with pytest.raises(DomainError):
            ledger_audit(TransmissionLedger(), CostModel(), "gossip")
