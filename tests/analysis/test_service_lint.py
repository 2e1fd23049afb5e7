"""Tests for the service-config lint pass."""

from repro.analysis import lint_service_config
from repro.service import ServiceConfig


def codes(diagnostics):
    return {d.code for d in diagnostics}


def _durable(**kwargs):
    kwargs.setdefault("store_dir", "store")
    return ServiceConfig(**kwargs)


class TestServiceLint:
    def test_durable_config_is_clean(self):
        assert lint_service_config(_durable()) == []

    def test_deadline_below_observed_latency_is_error(self):
        diagnostics = lint_service_config(
            _durable(default_deadline_s=0.2, expected_step_latency_s=0.5)
        )
        assert codes(diagnostics) == {"service-deadline-too-short"}
        (finding,) = diagnostics
        assert finding.severity == "error"
        assert "median step latency" in finding.message

    def test_deadline_above_observed_latency_is_clean(self):
        assert (
            lint_service_config(
                _durable(default_deadline_s=5.0, expected_step_latency_s=0.5)
            )
            == []
        )

    def test_zero_session_quota_warns(self):
        diagnostics = lint_service_config(_durable(max_sessions_per_tenant=0))
        assert codes(diagnostics) == {"service-zero-quota"}
        assert "create" in diagnostics[0].message

    def test_zero_inflight_quota_warns(self):
        diagnostics = lint_service_config(_durable(max_inflight_per_tenant=0))
        assert codes(diagnostics) == {"service-zero-quota"}
        assert "mutating" in diagnostics[0].message

    def test_both_zero_quotas_give_two_findings(self):
        diagnostics = lint_service_config(
            _durable(max_sessions_per_tenant=0, max_inflight_per_tenant=0)
        )
        assert len(diagnostics) == 2

    def test_unbounded_queue_warns(self):
        diagnostics = lint_service_config(_durable(queue_depth=0))
        assert codes(diagnostics) == {"service-unbounded-queue"}
        assert diagnostics[0].severity == "warning"

    def test_shed_noop_warns(self):
        diagnostics = lint_service_config(
            _durable(default_priority=2, shed_protect_priority=2)
        )
        assert codes(diagnostics) == {"service-shed-noop"}

    def test_unbounded_queue_suppresses_shed_rule(self):
        # With no bound there is no occupancy, so only the queue finding.
        diagnostics = lint_service_config(
            _durable(queue_depth=0, default_priority=2, shed_protect_priority=2)
        )
        assert codes(diagnostics) == {"service-unbounded-queue"}

    def test_in_memory_service_is_info(self):
        diagnostics = lint_service_config(ServiceConfig())
        assert codes(diagnostics) == {"service-no-durability"}
        assert diagnostics[0].severity == "info"

    def test_single_checkpoint_warns(self):
        diagnostics = lint_service_config(_durable(checkpoint_keep=1))
        assert codes(diagnostics) == {"service-checkpoint-keep"}

    def test_pass_name_tags_every_finding(self):
        diagnostics = lint_service_config(
            _durable(queue_depth=0, checkpoint_keep=1)
        )
        assert {d.pass_name for d in diagnostics} == {"service-config"}


class TestScaleOutLint:
    def test_shards_exceeding_cpus_warns(self, monkeypatch):
        import repro.analysis.config_lint as config_lint

        monkeypatch.setattr(config_lint.os, "cpu_count", lambda: 2)
        diagnostics = lint_service_config(_durable(shard_processes=3))
        assert codes(diagnostics) == {"service-shards-exceed-cpus"}
        (finding,) = diagnostics
        assert finding.severity == "warning"
        assert "time-slice" in finding.message

    def test_shards_within_cpus_is_clean(self, monkeypatch):
        import repro.analysis.config_lint as config_lint

        monkeypatch.setattr(config_lint.os, "cpu_count", lambda: 4)
        assert lint_service_config(_durable(shard_processes=4)) == []

    def test_unknown_cpu_count_assumes_one_core(self, monkeypatch):
        import repro.analysis.config_lint as config_lint

        monkeypatch.setattr(config_lint.os, "cpu_count", lambda: None)
        diagnostics = lint_service_config(_durable(shard_processes=2))
        assert codes(diagnostics) == {"service-shards-exceed-cpus"}

    def test_replication_without_store_is_error(self):
        diagnostics = lint_service_config(
            ServiceConfig(shard_processes=1, replicate=True)
        )
        by_code = {d.code: d for d in diagnostics}
        finding = by_code["service-replication-without-checkpoint-dir"]
        assert finding.severity == "error"
        assert "nothing to replicate" in finding.message
        # The in-memory info finding still fires alongside it.
        assert "service-no-durability" in by_code

    def test_replication_with_store_is_clean(self):
        assert (
            lint_service_config(_durable(shard_processes=1, replicate=True))
            == []
        )

    def test_misconfigured_fleet_reports_everything(self, monkeypatch):
        import repro.analysis.config_lint as config_lint

        monkeypatch.setattr(config_lint.os, "cpu_count", lambda: 1)
        diagnostics = lint_service_config(
            ServiceConfig(shard_processes=8, replicate=True)
        )
        assert codes(diagnostics) == {
            "service-no-durability",
            "service-shards-exceed-cpus",
            "service-replication-without-checkpoint-dir",
        }
        assert {d.pass_name for d in diagnostics} == {"service-config"}


class TestBundledTarget:
    def test_bundled_sweep_includes_service_config(self):
        from repro.analysis.targets import bundled_targets, lint_bundled

        assert "config:service-durable" in bundled_targets()
        results = lint_bundled()
        assert results["config:service-durable"] == []
