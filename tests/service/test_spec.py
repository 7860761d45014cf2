"""Submission validation and content addressing (repro.service.spec)."""

import pytest

from repro.service.spec import (
    CONFIG_FIELD_ALLOWLIST,
    SpecError,
    SubmissionSpec,
)


def spec_dict(**overrides):
    base = {"workload": "flood", "size": 3}
    base.update(overrides)
    return base


class TestValidation:
    def test_minimal_spec_fills_defaults(self):
        spec = SubmissionSpec.from_dict(spec_dict())
        assert spec.algorithm == "sds"
        assert spec.seed == 0
        assert spec.workload_args == {}
        assert spec.config == {}

    def test_non_object_body_rejected(self):
        for body in (None, 7, "x", ["flood"]):
            with pytest.raises(SpecError):
                SubmissionSpec.from_dict(body)

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown submission field"):
            SubmissionSpec.from_dict(spec_dict(checkpoint_path="/tmp/x"))

    def test_bad_scalar_types_rejected(self):
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(size=0))
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(size=True))
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(seed="7"))
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(workload=""))

    def test_config_allowlist_enforced(self):
        # checkpoint placement belongs to the service, not submissions
        with pytest.raises(SpecError, match="not submittable"):
            SubmissionSpec.from_dict(
                spec_dict(config={"checkpoint_path": "/tmp/evil"})
            )
        # retired engine knobs: a stale submission is a 400, not a 5xx
        retired_fields = ("solver_optimize", "fuse_ops", "loop_reuse", "latency_ms")
        for retired in retired_fields:
            with pytest.raises(SpecError, match="not submittable"):
                SubmissionSpec.from_dict(spec_dict(config={retired: False}))
        spec = SubmissionSpec.from_dict(
            spec_dict(config={"max_states": 100, "symmetry": True})
        )
        assert spec.engine_overrides() == {"max_states": 100, "symmetry": True}

    def test_allowlist_names_are_real_config_fields(self):
        from repro.core.config import ENGINE_CONFIG_FIELDS

        assert CONFIG_FIELD_ALLOWLIST <= ENGINE_CONFIG_FIELDS

    def test_deep_json_rejected(self):
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(
                spec_dict(workload_args={"a": {"b": {"c": 1}}})
            )

    def test_registry_validation(self):
        with pytest.raises(SpecError, match="unknown workload"):
            SubmissionSpec.from_dict(
                spec_dict(workload="nope")
            ).validated_against_registries()
        with pytest.raises(SpecError, match="unknown algorithm"):
            SubmissionSpec.from_dict(
                spec_dict(algorithm="nope")
            ).validated_against_registries()
        SubmissionSpec.from_dict(spec_dict()).validated_against_registries()


class TestDigest:
    def test_digest_is_deterministic_and_order_free(self):
        a = SubmissionSpec.from_dict(
            spec_dict(config={"symmetry": True, "max_states": 5})
        )
        b = SubmissionSpec.from_dict(
            spec_dict(config={"max_states": 5, "symmetry": True})
        )
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_every_field_feeds_the_digest(self):
        base = SubmissionSpec.from_dict(spec_dict()).digest()
        variants = [
            spec_dict(size=4),
            spec_dict(workload="line"),
            spec_dict(algorithm="cow"),
            spec_dict(seed=1),
            spec_dict(workload_args={"rounds": 3}),
            spec_dict(config={"max_states": 10}),
        ]
        digests = {SubmissionSpec.from_dict(v).digest() for v in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_round_trips_through_as_dict(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(workload_args={"rounds": 3}, config={"por": True})
        )
        again = SubmissionSpec.from_dict(spec.as_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_scenario_materializes(self):
        scenario = SubmissionSpec.from_dict(spec_dict()).build_scenario()
        assert scenario.name == "flood-3"


class TestMediumFields:
    def test_medium_and_params_accepted(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(
                config={
                    "medium": "realistic",
                    "medium_params": {"loss": 0.1, "seed": 3},
                }
            )
        )
        assert spec.validated_against_registries() is spec

    def test_unknown_medium_rejected_at_registry_check(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(config={"medium": "carrier-pigeon"})
        )
        with pytest.raises(SpecError, match="unknown medium"):
            spec.validated_against_registries()

    def test_non_string_medium_rejected(self):
        with pytest.raises(SpecError, match="must be a string"):
            SubmissionSpec.from_dict(spec_dict(config={"medium": 3}))

    def test_string_medium_params_rejected(self):
        # Strings are how a path would be smuggled to a constructor.
        with pytest.raises(SpecError, match="path- or string-typed"):
            SubmissionSpec.from_dict(
                spec_dict(
                    config={"medium_params": {"seed": "/etc/passwd"}}
                )
            )

    def test_bool_medium_params_rejected(self):
        with pytest.raises(SpecError, match="must be a number"):
            SubmissionSpec.from_dict(
                spec_dict(config={"medium_params": {"loss": True}})
            )

    def test_non_object_medium_params_rejected(self):
        with pytest.raises(SpecError, match="must be an object"):
            SubmissionSpec.from_dict(
                spec_dict(config={"medium_params": 5})
            )
