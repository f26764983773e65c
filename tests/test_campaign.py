"""Tests for the parallel campaign engine (spec, runner, store, artifacts)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import (
    SCHEMA_VERSION,
    CampaignSpec,
    CampaignStreamWriter,
    ParallelRunner,
    ResultStore,
    RunDescriptor,
    campaign_digest,
    compact_shard,
    default_shard_size,
    execute_run,
    execute_shard,
    load_campaign,
    load_manifest,
    load_results,
    load_summary,
    workload_run_from_record,
)
from repro.config import config_from_dict, get_preset, small_config
from repro.errors import AnalysisError, ConfigurationError, MethodologyError
from repro.methodology.workloads import run_workload_campaign
from repro.report.campaign import render_campaign_summary
from repro.sim.trace import clear_trace_cache, global_trace_cache

#: A campaign small enough for unit tests yet covering both run kinds.
TINY_SPEC = CampaignSpec(
    presets=("small",),
    num_workloads=2,
    iterations=4,
    rsk_iterations=20,
)


def _stream_campaign(directory, descriptors, jobs=1, shard_size=None, cache=None):
    """Run ``descriptors`` streaming their artifacts into ``directory``, as
    ``campaign --out`` does; returns the finalised artifacts and the outcome."""
    stream = CampaignStreamWriter(directory, checkpoint_interval=0.0)
    runner = ParallelRunner(jobs=jobs, cache=cache, shard_size=shard_size)
    outcome = runner.run(descriptors, stream=stream)
    return stream.finalize(outcome.summary()), outcome


# --------------------------------------------------------------------------- #
# Configuration serialisation (the campaign engine's transport format).
# --------------------------------------------------------------------------- #


class TestConfigSerialisation:
    def test_round_trip_preserves_equality(self):
        for preset in ("ref", "var", "small"):
            config = get_preset(preset)
            assert config_from_dict(config.to_dict()) == config

    def test_round_trip_survives_json(self):
        config = small_config()
        rebuilt = config_from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.digest() == config.digest()

    def test_digest_changes_with_any_field(self):
        config = small_config()
        assert config.digest() != config.with_overrides(num_cores=2).digest()
        assert config.digest() != config.with_overrides(nop_latency=2).digest()

    def test_malformed_dict_rejected(self):
        data = small_config().to_dict()
        del data["bus"]
        with pytest.raises(ConfigurationError):
            config_from_dict(data)


# --------------------------------------------------------------------------- #
# Spec expansion and descriptor digests.
# --------------------------------------------------------------------------- #


class TestCampaignSpec:
    def test_expansion_is_deterministic(self):
        assert TINY_SPEC.expand() == TINY_SPEC.expand()

    def test_grid_size(self):
        spec = CampaignSpec(
            presets=("small", "ref"),
            arbiters=("round_robin", "tdma"),
            seeds=(1, 2, 3),
            num_workloads=2,
        )
        descriptors = spec.expand()
        # presets x arbiters x seeds x (workloads + rsk reference)
        assert len(descriptors) == 2 * 2 * 3 * (2 + 1)
        assert [d.run_id for d in descriptors] == [f"{i:05d}" for i in range(len(descriptors))]

    def test_arbiter_override_lands_in_config(self):
        spec = CampaignSpec(presets=("small",), arbiters=("tdma",), num_workloads=1)
        assert all(d.config.bus.arbitration == "tdma" for d in spec.expand())

    def test_topology_axis_expands_the_grid(self):
        spec = CampaignSpec(
            presets=("small",),
            topologies=("bus_only", "bus_bank_queues"),
            num_workloads=1,
        )
        descriptors = spec.expand()
        # topologies x (workloads + rsk reference)
        assert len(descriptors) == 2 * (1 + 1)
        names = {d.config.topology.name for d in descriptors}
        assert names == {"bus_only", "bus_bank_queues"}
        # Different resource chains must never share cache entries.
        digests = {d.config.topology.name: d.digest() for d in descriptors if d.kind == "rsk"}
        assert digests["bus_only"] != digests["bus_bank_queues"]

    def test_topology_override_keeps_preset_mem_arbitration(self):
        """The axis overrides the topology *name* only: a preset with
        non-default bank-queue arbitration must not be silently reset to
        FIFO banks when --topology selects the same (or another) chain."""
        from repro.config import PRESETS, TopologyConfig, small_config

        PRESETS["_rr_banks"] = lambda **overrides: small_config(
            topology=TopologyConfig(name="bus_bank_queues", mem_arbitration="round_robin"),
            **overrides,
        )
        try:
            spec = CampaignSpec(
                presets=("_rr_banks",),
                topologies=("bus_bank_queues",),
                num_workloads=1,
            )
            for descriptor in spec.expand():
                assert descriptor.config.topology.mem_arbitration == "round_robin"
        finally:
            PRESETS.pop("_rr_banks")

    def test_default_keeps_preset_topology(self):
        spec = CampaignSpec(presets=("multi_resource",), num_workloads=1, iterations=4)
        assert all(d.config.topology.name == "bus_bank_queues" for d in spec.expand())

    def test_unknown_topology_rejected(self):
        with pytest.raises(MethodologyError):
            CampaignSpec(presets=("small",), topologies=("mesh",))

    def test_contender_count_limits_occupied_cores(self):
        spec = CampaignSpec(presets=("small",), contender_counts=(1,), num_workloads=2)
        for descriptor in spec.expand():
            assert len(descriptor.tasks) == 2
            assert descriptor.contenders == 1

    def test_too_many_contenders_rejected(self):
        spec = CampaignSpec(presets=("small",), contender_counts=(3,))
        with pytest.raises(MethodologyError):
            spec.expand()

    def test_empty_campaign_rejected(self):
        spec = CampaignSpec(num_workloads=0, include_rsk_reference=False)
        with pytest.raises(MethodologyError):
            spec.expand()

    def test_digest_ignores_labels_but_not_inputs(self):
        descriptor = TINY_SPEC.expand()[0]
        relabelled = RunDescriptor(
            run_id="99999",
            preset="other-label",
            config=descriptor.config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed,
        )
        assert relabelled.digest() == descriptor.digest()
        reseeded = RunDescriptor(
            run_id=descriptor.run_id,
            preset=descriptor.preset,
            config=descriptor.config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed + 1,
        )
        assert reseeded.digest() != descriptor.digest()

    def test_digest_ignores_config_name_label(self):
        descriptor = TINY_SPEC.expand()[0]
        relabelled_config = descriptor.config.with_overrides(name="relabelled")
        twin = RunDescriptor(
            run_id=descriptor.run_id,
            preset=descriptor.preset,
            config=relabelled_config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed,
        )
        assert twin.digest() == descriptor.digest()

    def test_descriptor_validation(self):
        descriptor = TINY_SPEC.expand()[0]
        with pytest.raises(MethodologyError):
            RunDescriptor(
                run_id="0",
                preset="small",
                config=descriptor.config,
                kind="bogus",
                tasks=descriptor.tasks,
                observed_core=0,
                iterations=1,
                seed=0,
            )
        with pytest.raises(MethodologyError):
            RunDescriptor(
                run_id="0",
                preset="small",
                config=descriptor.config,
                kind="rsk",
                tasks=tuple("rsk" for _ in range(descriptor.config.num_cores + 1)),
                observed_core=0,
                iterations=1,
                seed=0,
            )


# --------------------------------------------------------------------------- #
# Execution: serial/parallel equivalence and caching.
# --------------------------------------------------------------------------- #


class TestParallelRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(MethodologyError):
            ParallelRunner(jobs=0)

    def test_records_follow_descriptor_order(self):
        outcome = ParallelRunner(jobs=1).run(TINY_SPEC.expand())
        assert [r["run_id"] for r in outcome.records] == [d.run_id for d in TINY_SPEC.expand()]
        assert outcome.stats["simulated"] == len(outcome.records)
        assert outcome.stats["cached"] == 0

    def test_parallel_and_serial_artifacts_identical(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        serial, _ = _stream_campaign(tmp_path / "serial", descriptors)
        parallel, _ = _stream_campaign(tmp_path / "parallel", descriptors, jobs=2)
        assert serial.results_path.read_bytes() == parallel.results_path.read_bytes()
        serial_summary = load_summary(serial.summary_path)
        parallel_summary = load_summary(parallel.summary_path)
        del serial_summary["timing"], parallel_summary["timing"]
        assert serial_summary == parallel_summary

    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        with ResultStore(tmp_path / "store") as store:
            cold = ParallelRunner(jobs=1, cache=store).run(descriptors)
            assert cold.stats["simulated"] == len(descriptors)
            warm = ParallelRunner(jobs=2, cache=store).run(descriptors)
        assert warm.stats["simulated"] == 0
        assert warm.stats["cached"] == len(descriptors)
        assert warm.records == cold.records

    @staticmethod
    def _flat_copy(descriptors, tmp_path):
        """Run ``descriptors`` into a store and copy its artifacts into an
        index-less directory (the flat layout a store adopts on open)."""
        with ResultStore(tmp_path / "store") as store:
            ParallelRunner(jobs=1, cache=store).run(descriptors)
        flat = tmp_path / "flat"
        flat.mkdir()
        for artifact in (tmp_path / "store").glob("*.json"):
            (flat / artifact.name).write_bytes(artifact.read_bytes())
        return flat

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        descriptors = TINY_SPEC.expand()[:1]
        flat = self._flat_copy(descriptors, tmp_path)
        for path in flat.glob("*.json"):
            path.write_text("{ not json", encoding="utf-8")
        with ResultStore(flat) as store:
            rerun = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert rerun.stats["simulated"] == 1

    def test_cache_entry_under_wrong_name_is_a_miss(self, tmp_path):
        descriptors = TINY_SPEC.expand()[:2]
        flat = self._flat_copy(descriptors, tmp_path)
        first, second = (d.digest() for d in descriptors)
        # Simulate a mis-synced copy: the second record under the first name.
        (flat / f"{first}.json").write_bytes((flat / f"{second}.json").read_bytes())
        with ResultStore(flat) as store:
            rerun = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert rerun.stats["simulated"] == 1
        assert rerun.records[0]["digest"] == first

    def test_duplicate_descriptors_simulated_once(self):
        descriptor = TINY_SPEC.expand()[0]
        twin = RunDescriptor(
            run_id="00001",
            preset=descriptor.preset,
            config=descriptor.config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed,
        )
        outcome = ParallelRunner(jobs=1).run([descriptor, twin])
        assert outcome.stats["simulated"] == 1
        first, second = outcome.records
        assert first["run_id"] == "00000" and second["run_id"] == "00001"
        assert {k: v for k, v in first.items() if k != "run_id"} == {
            k: v for k, v in second.items() if k != "run_id"
        }

    def test_rsk_records_report_slowdown_and_delays(self):
        descriptors = [d for d in TINY_SPEC.expand() if d.kind == "rsk"]
        record = execute_run(descriptors[0])
        metrics = record["metrics"]
        assert metrics["slowdown"] == (
            metrics["execution_time"] - metrics["isolation"]["execution_time"]
        )
        assert metrics["slowdown"] > 0
        config = config_from_dict(record["config"])
        assert 0 < metrics["max_contention_delay"] <= config.ubd


@pytest.fixture
def empty_trace_cache():
    """Start and end with an empty, store-less process-wide trace cache."""
    clear_trace_cache()
    yield global_trace_cache()
    clear_trace_cache()


class TestTraceStoreAttachment:
    REPLAY_SPEC = dataclasses.replace(TINY_SPEC, engine="replay")

    def test_attachment_ends_with_the_run(self, tmp_path, empty_trace_cache):
        with ResultStore(tmp_path / "store") as store:
            ParallelRunner(jobs=1, cache=store).run(self.REPLAY_SPEC.expand())
            persisted = sorted(store.traces_dir.glob("*.json"))
        assert persisted
        assert empty_trace_cache.store is None
        # A later store-less campaign capturing new kernels must not write
        # into the closed store's trace section.
        other = dataclasses.replace(self.REPLAY_SPEC, rsk_iterations=30)
        ParallelRunner(jobs=1).run(other.expand())
        assert empty_trace_cache.stats()["captures"] > len(persisted)
        assert sorted((tmp_path / "store" / "traces").glob("*.json")) == persisted

    def test_previous_attachment_is_restored_when_the_run_raises(
        self, tmp_path, empty_trace_cache, monkeypatch
    ):
        with ResultStore(tmp_path / "outer") as outer:
            empty_trace_cache.attach_store(outer)
            with ResultStore(tmp_path / "store") as store:

                def explode(items):
                    assert empty_trace_cache.store is store
                    raise RuntimeError("simulated crash")

                monkeypatch.setattr(store, "put_many", explode)
                with pytest.raises(RuntimeError, match="simulated crash"):
                    ParallelRunner(jobs=1, cache=store).run(self.REPLAY_SPEC.expand())
            assert empty_trace_cache.store is outer

    def test_summary_timing_carries_the_nop_family_counters(self, tmp_path, empty_trace_cache):
        artifacts, _ = _stream_campaign(tmp_path / "campaign", self.REPLAY_SPEC.expand())
        _, summary = load_campaign(artifacts.directory)
        counters = summary["timing"]["trace_cache"]
        assert counters["captures"] > 0
        # Derived traces are a subset of the hits, like store hits.
        assert 0 <= counters["derived"] <= counters["hits"]
        assert counters["family_fallbacks"] == 0


# --------------------------------------------------------------------------- #
# The Figure 6(a) workload campaign runs on the campaign engine.
# --------------------------------------------------------------------------- #


class TestWorkloadCampaignBridge:
    def test_default_runner_matches_parallel_runner(self):
        config = small_config()
        default = run_workload_campaign(config, num_workloads=3, observed_iterations=5, seed=7)
        parallel = run_workload_campaign(
            config,
            num_workloads=3,
            observed_iterations=5,
            seed=7,
            runner=ParallelRunner(jobs=2),
        )
        assert default == parallel

    def test_workload_run_from_record_rejects_rsk_records(self):
        descriptor = next(d for d in TINY_SPEC.expand() if d.kind == "rsk")
        with pytest.raises(MethodologyError):
            workload_run_from_record(execute_run(descriptor))


# --------------------------------------------------------------------------- #
# Artifacts and the report renderer.
# --------------------------------------------------------------------------- #


class TestArtifacts:
    def test_load_round_trip(self, tmp_path):
        artifacts, outcome = _stream_campaign(tmp_path / "campaign", TINY_SPEC.expand())
        records, summary = load_campaign(artifacts.directory)
        assert records == list(outcome.records)
        assert summary["total_runs"] == len(outcome.records)
        assert "timing" in summary

    def test_missing_files_raise_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_results(tmp_path / "nope.jsonl")
        with pytest.raises(AnalysisError):
            load_summary(tmp_path / "nope.json")

    def test_malformed_results_line_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(AnalysisError):
            load_results(path)

    def test_arbiter_sweep_buckets_stay_separate(self):
        spec = CampaignSpec(
            presets=("small",),
            arbiters=("round_robin", "tdma"),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        summary = ParallelRunner(jobs=1).run(spec.expand()).summary()
        platforms = summary["per_platform"]
        assert set(platforms) == {"small/round_robin", "small/tdma"}
        # Equation 1 bounds round-robin (and FIFO) arbitration only; delays
        # measured under TDMA must never be reported against that bound.
        round_robin = platforms["small/round_robin"]
        tdma = platforms["small/tdma"]
        assert round_robin["analytical_ubd"] == 6
        assert tdma["analytical_ubd"] is None
        assert round_robin["rsk"]["max_contention_delay"] <= 6
        assert tdma["rsk"]["max_contention_delay"] > 6

    def test_topology_sweep_buckets_stay_separate(self):
        spec = CampaignSpec(
            presets=("small",),
            topologies=("bus_only", "bus_bank_queues"),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        outcome = ParallelRunner(jobs=1).run(spec.expand())
        assert {record["topology"] for record in outcome.records} == {
            "bus_only",
            "bus_bank_queues",
        }
        summary = outcome.summary()
        platforms = summary["per_platform"]
        # The historical key survives for the paper's platform; topology
        # sweeps get their own bucket so delays never merge across chains.
        assert set(platforms) == {
            "small/round_robin",
            "small/round_robin/bus_bank_queues/fifo",
        }
        assert summary["topologies"] == ["bus_bank_queues", "bus_only"]
        chained = platforms["small/round_robin/bus_bank_queues/fifo"]
        assert chained["topology"] == "bus_bank_queues"
        assert chained["mem_arbitration"] == "fifo"
        assert platforms["small/round_robin"]["mem_arbitration"] is None
        assert chained["end_to_end_ubd"] is not None
        assert chained["end_to_end_ubd"] > chained["analytical_ubd"]
        assert platforms["small/round_robin"]["end_to_end_ubd"] is None

    def test_summary_renders_both_workload_classes(self):
        outcome = ParallelRunner(jobs=1).run(TINY_SPEC.expand())
        text = render_campaign_summary(outcome.summary())
        assert "EEMBC-like workloads" in text
        assert "rsk reference workloads" in text
        assert "contenders=" in text
        assert "simulated" in text


# --------------------------------------------------------------------------- #
# Schema 4: per-resource measured-bound fields.
# --------------------------------------------------------------------------- #


class TestPerResourceArtifacts:
    """SCHEMA_VERSION 4: rsk records and summaries carry the per-resource
    observed worst cases next to the analytical terms, and the fields
    round-trip through the JSON artifacts."""

    @pytest.fixture(scope="class")
    def split_bus_campaign(self, tmp_path_factory):
        spec = CampaignSpec(
            presets=("small",),
            topologies=("split_bus",),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        return _stream_campaign(tmp_path_factory.mktemp("split-bus"), spec.expand())

    @pytest.fixture(scope="class")
    def split_bus_outcome(self, split_bus_campaign):
        return split_bus_campaign[1]

    def test_schema_version_is_4(self, split_bus_outcome):
        from repro.campaign.spec import SCHEMA_VERSION

        assert SCHEMA_VERSION == 4
        assert all(r["schema"] == 4 for r in split_bus_outcome.records)

    def test_rsk_records_carry_stage_worst_cases(self, split_bus_outcome):
        record = next(r for r in split_bus_outcome.records if r["kind"] == "rsk")
        metrics = record["metrics"]
        config = config_from_dict(record["config"])
        assert "stage_worst_case" in metrics
        # The campaign's rsk reference runs are L2-preloaded, so only the
        # bus stage sees traffic — and its worst case obeys the bus term.
        assert metrics["stage_worst_case"]["bus"] <= config.ubd_terms["bus"]
        assert metrics["memory_requests"] == 0
        assert metrics["isolation"]["memory_requests"] == 0

    def test_summary_buckets_carry_analytical_terms(self, split_bus_outcome):
        summary = split_bus_outcome.summary()
        (bucket,) = summary["per_platform"].values()
        assert bucket["analytical_terms"] == {
            "bus": 6,
            "memory": 84,
            "bus_response": 2,
        }
        assert bucket["end_to_end_ubd"] == 92
        assert bucket["rsk"]["stage_worst_case"]["bus"] <= 6

    def test_per_resource_fields_round_trip(self, split_bus_campaign):
        artifacts, outcome = split_bus_campaign
        records, summary = load_campaign(artifacts.directory)
        assert records == list(outcome.records)
        record = next(r for r in records if r["kind"] == "rsk")
        assert record["metrics"]["stage_worst_case"] == {
            "bus": record["metrics"]["stage_worst_case"]["bus"]
        }
        (bucket,) = summary["per_platform"].values()
        assert bucket["analytical_terms"]["bus_response"] == 2

    def test_unfair_arbiter_buckets_report_no_terms(self):
        spec = CampaignSpec(
            presets=("small",),
            arbiters=("fixed_priority",),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        outcome = ParallelRunner(jobs=1).run(spec.expand())
        (bucket,) = outcome.summary()["per_platform"].values()
        assert bucket["analytical_terms"] is None
        assert bucket["analytical_ubd"] is None


# --------------------------------------------------------------------------- #
# Streaming artifacts and the campaign manifest.
# --------------------------------------------------------------------------- #


class TestStreaming:
    def test_streamed_bytes_do_not_depend_on_jobs_shards_or_store(self, tmp_path):
        """Streaming changes when artifacts appear, never what they
        contain: one-run shards on two workers absorb out of order, and a
        warm store emits the whole campaign before any shard runs, yet
        results.jsonl and campaign.json match the serial run byte for byte."""
        descriptors = TINY_SPEC.expand()
        serial, _ = _stream_campaign(tmp_path / "serial", descriptors)
        with ResultStore(tmp_path / "store") as store:
            cold, _ = _stream_campaign(
                tmp_path / "cold", descriptors, jobs=2, shard_size=1, cache=store
            )
            warm, outcome = _stream_campaign(
                tmp_path / "warm", descriptors, jobs=2, shard_size=1, cache=store
            )
        assert outcome.stats["simulated"] == 0
        for streamed in (cold, warm):
            assert streamed.results_path.read_bytes() == serial.results_path.read_bytes()
            assert streamed.manifest_path.read_bytes() == serial.manifest_path.read_bytes()

    def test_finalized_manifest_is_completed_and_identifies_the_campaign(self, tmp_path):
        streamed, outcome = _stream_campaign(tmp_path / "c", TINY_SPEC.expand(), jobs=2)
        manifest = load_manifest(streamed.directory)
        assert manifest == {
            "schema": SCHEMA_VERSION,
            "campaign_id": campaign_digest([d.digest() for d in TINY_SPEC.expand()]),
            "total_runs": len(outcome.records),
            "completed": True,
        }

    def test_mid_flight_checkpoint_is_partial_and_loadable(self, tmp_path):
        stream = CampaignStreamWriter(tmp_path / "c", checkpoint_interval=0.0)
        records = ParallelRunner(jobs=1).run(TINY_SPEC.expand()).records
        stream.begin("cid", len(records))
        stream.append(records[:1])
        partial_records, partial_summary = load_campaign(stream.directory)
        assert partial_records == list(records[:1])
        assert partial_summary["timing"] == {
            "partial": True,
            "emitted": 1,
            "total_runs": len(records),
        }
        assert load_manifest(stream.directory)["completed"] is False
        stream.abandon()

    def test_crash_mid_campaign_leaves_an_incomplete_manifest(self, tmp_path, monkeypatch):
        """A runner failure must abandon the stream: whatever was emitted
        stays on disk, and the manifest keeps completed: false — the crash
        signature the audit downgrades to WARN instead of failing."""
        descriptors = TINY_SPEC.expand()
        stream = CampaignStreamWriter(tmp_path / "crashed", checkpoint_interval=0.0)
        boom = RuntimeError("simulated crash")

        def explode(items):
            raise boom

        with ResultStore(tmp_path / "store") as store:
            monkeypatch.setattr(store, "put_many", explode)
            with pytest.raises(RuntimeError, match="simulated crash"):
                ParallelRunner(jobs=1, cache=store).run(descriptors, stream=stream)
        assert load_manifest(stream.directory)["completed"] is False
        assert stream._handle is None  # stream closed, not leaked

    def test_append_before_begin_raises(self, tmp_path):
        stream = CampaignStreamWriter(tmp_path / "c")
        with pytest.raises(AnalysisError, match="before begin"):
            stream.append([{"digest": "d"}])

    def test_unreadable_manifest_raises(self, tmp_path):
        (tmp_path / "campaign.json").write_text("{ torn", encoding="utf-8")
        with pytest.raises(AnalysisError, match="manifest"):
            load_manifest(tmp_path)
        (tmp_path / "campaign.json").write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(AnalysisError, match="JSON object"):
            load_manifest(tmp_path)

    def test_missing_manifest_is_a_legacy_layout(self, tmp_path):
        assert load_manifest(tmp_path) is None


# --------------------------------------------------------------------------- #
# Shard planning.
# --------------------------------------------------------------------------- #


class TestSharding:
    def test_compact_shard_dedups_shared_configs(self):
        """Grid points expanded from one spec share ArchConfig objects;
        a shard must serialise each distinct config once, not per run."""
        pending = [(d.digest(), d) for d in TINY_SPEC.expand()]
        shard = compact_shard(0, pending)
        assert len(shard.configs) == 1  # one platform in TINY_SPEC
        assert all(run.config_index == 0 for run in shard.runs)
        assert [run.digest for run in shard.runs] == [digest for digest, _ in pending]

    def test_shard_execution_matches_run_execution(self):
        descriptors = TINY_SPEC.expand()
        shard = compact_shard(3, [(d.digest(), d) for d in descriptors])
        index, results = execute_shard(shard)
        assert index == 3
        assert [digest for digest, _ in results] == [d.digest() for d in descriptors]
        for (_, record), descriptor in zip(results, descriptors):
            assert record == execute_run(descriptor)

    def test_default_shard_size_bounds(self):
        assert default_shard_size(0, 4) == 1
        assert default_shard_size(1, 1) == 1
        assert default_shard_size(100, 4) >= 1
        # Enough shards for load balance: at least ~4 per worker.
        assert default_shard_size(100, 4) <= 100 // (4 * 4) + 1

    def test_explicit_shard_size_is_respected(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        outcome = ParallelRunner(jobs=2, shard_size=1).run(descriptors)
        assert outcome.stats["shards"] == len(descriptors)
        assert outcome.stats["shard_size"] == 1
        assert outcome.records == ParallelRunner(jobs=1).run(descriptors).records

    def test_shard_size_must_be_positive(self):
        with pytest.raises(MethodologyError):
            ParallelRunner(jobs=1, shard_size=0)
