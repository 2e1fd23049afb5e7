"""ServiceConfig validation, deadline clamping, priorities."""

import pytest

from repro.errors import BadRequestError
from repro.service import ServiceConfig


class TestValidation:
    def test_defaults_construct(self):
        config = ServiceConfig()
        assert config.num_shards == 2
        assert config.queue_depth == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"queue_depth": -1},
            {"max_sessions_per_tenant": -1},
            {"max_inflight_per_tenant": -2},
            {"default_deadline_s": 0.0},
            {"max_deadline_s": -1.0},
            {"default_deadline_s": float("nan")},
            {"default_deadline_s": 60.0, "max_deadline_s": 30.0},
            {"shed_threshold": 0.0},
            {"shed_threshold": 1.5},
            {"expected_step_latency_s": -0.1},
            {"wedged_after_s": 0.0},
            {"checkpoint_keep": 0},
            {"session_capacity": 0},
            {"num_particles": 0},
            {"max_frame_bytes": 0},
        ],
    )
    def test_bad_values_fail_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_store_dir_must_be_string(self):
        with pytest.raises(TypeError, match="store_dir"):
            ServiceConfig(store_dir=123)

    def test_zero_quotas_are_legal_but_lintable(self):
        # Legal (the lint pass flags them) — see test_service_lint.py.
        config = ServiceConfig(
            max_sessions_per_tenant=0, max_inflight_per_tenant=0, queue_depth=0
        )
        assert config.queue_depth == 0

    def test_priority_map_is_copied(self):
        priorities = {"gold": 5}
        config = ServiceConfig(tenant_priorities=priorities)
        priorities["gold"] = 0
        assert config.priority_of("gold") == 5

    def test_replace_revalidates(self):
        config = ServiceConfig()
        assert config.replace(num_shards=4).num_shards == 4
        with pytest.raises(ValueError):
            config.replace(num_shards=0)

    def test_to_dict_is_jsonable(self):
        import json

        json.dumps(ServiceConfig(tenant_priorities={"a": 2}).to_dict())


class TestScaleOutFields:
    def test_defaults_stay_single_process(self):
        config = ServiceConfig()
        assert config.shard_processes == 0
        assert config.replicate is False

    def test_negative_shard_processes_rejected(self):
        with pytest.raises(ValueError, match="shard_processes"):
            ServiceConfig(shard_processes=-1)

    def test_process_mode_forces_lane_count(self):
        # Router lanes mirror the process fleet 1:1.
        config = ServiceConfig(num_shards=7, shard_processes=3)
        assert config.num_shards == 3

    def test_zero_processes_keeps_requested_shards(self):
        assert ServiceConfig(num_shards=7).num_shards == 7

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_start_timeout_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="shard_start_timeout_s"):
            ServiceConfig(shard_start_timeout_s=bad)

    def test_to_dict_round_trips_process_fields(self):
        # The pool serializes the config to JSON for the shard children;
        # a round trip must reproduce the same config.
        config = ServiceConfig(
            shard_processes=2, replicate=True, store_dir="store",
        )
        assert ServiceConfig(**config.to_dict()) == config


class TestClampDeadline:
    def test_absent_uses_default(self):
        assert ServiceConfig(default_deadline_s=7.0).clamp_deadline(None) == 7.0

    def test_ceiling_applied(self):
        config = ServiceConfig(default_deadline_s=5.0, max_deadline_s=10.0)
        assert config.clamp_deadline(3.0) == 3.0
        assert config.clamp_deadline(99.0) == 10.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_nonpositive_is_bad_request(self, bad):
        with pytest.raises(BadRequestError, match="deadline_s"):
            ServiceConfig().clamp_deadline(bad)


class TestPriorities:
    def test_priority_of_falls_back_to_default(self):
        config = ServiceConfig(
            tenant_priorities={"gold": 3}, default_priority=1
        )
        assert config.priority_of("gold") == 3
        assert config.priority_of("anonymous") == 1
