"""The resource-generic measured-bound pipeline (MeasuredBoundPipeline).

The pipeline is PR 4's engine refactor applied one layer up: which measured
``ubdm`` terms exist is read from ``ArchConfig.ubd_terms``, which stressing
kernel drives each resource is read from the rsk registry, and each term's
measurement comes from that resource's own PMC section and trace
decomposition.  These tests pin the contract:

* **the sandwich** — per resource, on every chained topology and fair
  arbiter: observed worst case <= measured ``ubdm`` <= analytical term;
* **the differential oracle** — on ``bus_only`` the pipeline reproduces the
  legacy bus-only ``UbdEstimator`` result exactly;
* **engine parity** — every simulation engine (the stepped oracle, the
  event engine and the replay engine's generated loops) produces identical reports,
  and the sandwich holds when the pipeline's stress runs themselves execute
  on a fast engine;
* **composition** — the measured terms compose into an end-to-end bound via
  ``methodology/composition.py`` under the same MBTA rules as the
  analytical ones;
* **the gates** — the write-burst check and the memory-term split that make
  analytical-vs-measured gaps attributable.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.config import ArchConfig, BusConfig, TopologyConfig, small_config
from repro.errors import MethodologyError
from repro.kernels.rsk import build_rsk, build_stress_contender_set, rsk_for_resource
from repro.methodology.experiment import ExperimentRunner
from repro.methodology.ubd import (
    MeasuredBoundPipeline,
    MeasuredBoundReport,
    UbdEstimator,
)

TOPOLOGIES = ("bus_only", "bus_bank_queues", "split_bus")
FAIR_ARBITERS = ("round_robin", "fifo")
#: The fast engines the pipeline's stage checks are repeated on (the
#: stepped oracle is covered by TestEngineParity's differential).
FAST_ENGINES = ("event", "replay")

#: Shared saw-tooth parameters: k_max covers two periods of the small
#: platform's ubd (6), keeping the sweep deterministic and fast.
SAWTOOTH = dict(k_max=14, iterations=15)

_CACHE: Dict[Tuple[str, str, str], Tuple[ArchConfig, MeasuredBoundReport]] = {}


def report_for(
    topology: str, arbiter: str = "round_robin", engine: str = "event"
) -> Tuple[ArchConfig, MeasuredBoundReport]:
    """Run the pipeline once per (topology, arbiter, engine) and cache it."""
    key = (topology, arbiter, engine)
    if key not in _CACHE:
        config = small_config(
            bus=BusConfig(arbitration=arbiter, transfer_latency=1),
            topology=TopologyConfig(name=topology),
            engine=engine,
        )
        pipeline = MeasuredBoundPipeline(config, stress_iterations=30, **SAWTOOTH)
        _CACHE[key] = (config, pipeline.run())
    return _CACHE[key]


# --------------------------------------------------------------------------- #
# The sandwich: observed <= ubdm <= analytical, per resource.
# --------------------------------------------------------------------------- #


class TestPerResourceSandwich:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("arbiter", FAIR_ARBITERS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_term_measured_and_sandwiched(self, topology, arbiter, engine):
        config, report = report_for(topology, arbiter, engine)
        assert set(report.terms) == set(config.ubd_terms)
        for resource, term in report.terms.items():
            assert term.covers_observation, term.summary()
            assert term.within_envelope, term.summary()
            assert term.analytical == config.ubd_terms[resource]
        assert report.cross_check.passed, report.cross_check.summary()

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_end_to_end_composes_and_tightens(self, topology):
        config, report = report_for(topology)
        assert report.end_to_end_ubdm == sum(report.measured_terms.values())
        assert report.end_to_end_analytical == config.end_to_end_ubd
        assert report.end_to_end_ubdm <= config.end_to_end_ubd
        assert report.passed, report.summary()

    def test_memory_term_measured_from_its_pmc_section(self):
        _, report = report_for("bus_bank_queues")
        term = report.terms["memory"]
        assert term.method == "stress-run PMC"
        assert term.pmc["max_queue_wait"] == term.ubdm
        assert term.pmc["queue_grants"] > 0
        assert term.requests > 0

    def test_split_bus_response_term_has_its_own_channel_section(self):
        _, report = report_for("split_bus")
        term = report.terms["bus_response"]
        assert term.method == "stress-run PMC"
        assert "max_wait" in term.pmc
        assert term.pmc["requests"] > 0

    def test_round_robin_bus_term_is_the_sawtooth(self):
        """The paper's methodology anchors the bus term — but only where its
        assumption holds (round-robin arbitration)."""
        _, report = report_for("bus_only", "round_robin")
        assert report.terms["bus"].method == "rsk-nop saw-tooth"
        assert report.terms["bus"].ubdm == report.bus_methodology.ubdm

    def test_fifo_bus_term_read_from_channel_pmc(self):
        """A FIFO bus serves in ready order, so dbus(k) repeats with the bus
        occupancy, not the fair round — the saw-tooth under-measures and the
        pipeline must fall back to the channel's PMC worst case instead."""
        config, report = report_for("bus_only", "fifo")
        term = report.terms["bus"]
        assert term.method == "stress-run PMC"
        assert term.ubdm == term.pmc["max_wait"]
        # The saw-tooth genuinely under-measures here; the sandwich would
        # have caught a pipeline that still used it.
        assert report.bus_methodology.ubdm < term.observed_worst_case
        assert term.covers_observation
        assert term.ubdm == config.ubd

    def test_shared_bus_response_envelope_is_trace_measured(self):
        """On bus_bank_queues the responses share the request bus — there is
        no separate channel PMC section, so the term is trace-derived."""
        _, report = report_for("bus_bank_queues")
        assert report.terms["bus_response"].method == "stress-run trace"

    def test_response_contention_observable_with_wider_transfer(self):
        """With a 2-cycle response occupancy the jitter stressor makes the
        response channel's measured worst case strictly positive."""
        config = small_config(
            bus=BusConfig(transfer_latency=2),
            topology=TopologyConfig(name="split_bus"),
        )
        report = MeasuredBoundPipeline(
            config, stress_iterations=60, **SAWTOOTH
        ).run()
        term = report.terms["bus_response"]
        assert term.ubdm > 0
        assert term.within_envelope, term.summary()


# --------------------------------------------------------------------------- #
# Differential oracle: the pipeline reproduces the legacy estimator.
# --------------------------------------------------------------------------- #


class TestLegacyOracle:
    def test_bus_only_reproduces_ubd_estimator_exactly(self):
        config, report = report_for("bus_only")
        legacy = UbdEstimator(config, **SAWTOOTH).run()
        assert list(report.terms) == ["bus"]
        assert report.terms["bus"].ubdm == legacy.ubdm
        assert report.end_to_end_ubdm == legacy.ubdm
        assert report.bus_methodology.ubdm == legacy.ubdm
        assert report.bus_methodology.period.period_k == legacy.period.period_k
        assert report.bus_methodology.points == legacy.points
        assert report.bus_methodology.confidence.passed == legacy.confidence.passed

    def test_bus_only_recovers_the_analytical_ubd(self):
        config, report = report_for("bus_only")
        assert report.terms["bus"].ubdm == config.ubd


# --------------------------------------------------------------------------- #
# Engine parity: the pipeline is engine-agnostic.
# --------------------------------------------------------------------------- #


class TestEngineParity:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("topology", ["bus_bank_queues", "split_bus"])
    def test_engines_produce_identical_reports(self, topology, engine):
        _, fast = report_for(topology, engine=engine)
        _, stepped = report_for(topology, engine="stepped")
        assert fast.measured_terms == stepped.measured_terms
        for resource in fast.terms:
            assert fast.terms[resource].as_record() == stepped.terms[resource].as_record()
        assert fast.end_to_end_ubdm == stepped.end_to_end_ubdm


# --------------------------------------------------------------------------- #
# Composition: measured terms feed the MBTA composition rules.
# --------------------------------------------------------------------------- #


class TestMeasuredComposition:
    def test_compose_pads_like_the_analytical_path(self):
        _, report = report_for("split_bus")
        composed = report.compose(
            task_name="t", isolation_time=100, bus_requests=10, memory_requests=4
        )
        terms = report.measured_terms
        expected = (100 + 10 * terms["bus"] + 4 * (terms["memory"] + terms["bus_response"]))
        assert composed.etb == expected
        assert set(composed.pads) == set(terms)

    def test_composed_measured_bound_covers_a_real_contended_run(self):
        """The trustworthiness argument, measured edition: the ETB composed
        from measured terms covers the observed contended execution time of
        the workload class the terms were stressed with."""
        config, report = report_for("split_bus")
        scua = rsk_for_resource("memory").build(config, 0, iterations=20)
        contenders = build_stress_contender_set(config, "memory", 0)
        runner = ExperimentRunner(config, preload_l2=False, preload_il1=True)
        isolation, contended = runner.run_pair(scua, contenders)
        composed = report.compose(
            task_name="bank-stress",
            isolation_time=isolation.execution_time,
            bus_requests=isolation.bus_requests,
            memory_requests=isolation.memory_requests,
            observed_contended_time=contended.execution_time,
        )
        assert composed.covers_observation, composed.summary()
        assert set(composed.pads) == set(report.measured_terms)

    def test_memory_requests_exposed_on_isolation_measurement(self):
        config, _ = report_for("split_bus")
        runner = ExperimentRunner(config, preload_l2=False, preload_il1=True)
        isolation = runner.run_isolation(build_rsk(config, 0, iterations=10))
        assert isolation.memory_requests == isolation.result.pmc.dram_accesses
        assert isolation.as_record()["memory_requests"] == isolation.memory_requests


# --------------------------------------------------------------------------- #
# Gates and splits.
# --------------------------------------------------------------------------- #


class TestGatesAndSplits:
    def test_memory_split_reported_on_chained_topologies(self):
        _, report = report_for("bus_bank_queues")
        split = report.memory_split
        assert split is not None
        assert split.memory_requests > 0
        assert split.queue_wait_max == report.terms["memory"].observed_worst_case
        assert split.service_max > 0
        assert "queue wait" in split.summary()

    def test_memory_split_absent_on_bus_only(self):
        _, report = report_for("bus_only")
        assert report.memory_split is None

    def test_write_burst_gate_passes_for_load_traffic(self):
        _, report = report_for("split_bus")
        assert report.write_burst is not None
        assert report.write_burst.passed, report.write_burst.detail


# --------------------------------------------------------------------------- #
# Validation.
# --------------------------------------------------------------------------- #


class TestPipelineValidation:
    def test_store_traffic_rejected(self, tiny_config):
        with pytest.raises(MethodologyError):
            MeasuredBoundPipeline(tiny_config, instruction_type="store")

    def test_zero_stress_iterations_rejected(self, tiny_config):
        with pytest.raises(MethodologyError):
            MeasuredBoundPipeline(tiny_config, stress_iterations=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(bus=BusConfig(arbitration="fixed_priority", transfer_latency=1)),
            dict(topology=TopologyConfig(name="bus_bank_queues", mem_arbitration="tdma")),
        ],
    )
    def test_non_composable_platforms_refused(self, overrides):
        config = small_config(**overrides)
        pipeline = MeasuredBoundPipeline(config, **SAWTOOTH)
        with pytest.raises(MethodologyError):
            pipeline.run()
