"""Round-trip coverage for ``RuntimeConfig.from_env``.

Every ``REPRO_*`` knob must survive the environment round trip, defaults
must hold when variables are unset or empty, malformed values must fail with
an error that names the offending variable, and the variables of removed
knobs must be ignored.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DEFAULT_RUNTIME, RuntimeConfig

ALL_ENV_KNOBS = (
    "REPRO_WORKERS",
    "REPRO_BACKEND",
    "REPRO_CACHE_DIR",
    "REPRO_PRECISION",
    "REPRO_VERDICT_CACHE",
    "REPRO_TELEMETRY",
)

#: variables of knobs that no longer exist; from_env must not read them
REMOVED_ENV_KNOBS = (
    "REPRO_CACHE",
    "REPRO_SHARD_DIRS",
    "REPRO_MAX_IN_FLIGHT",
    "REPRO_REGISTRY_LRU_BYTES",
    "REPRO_REGISTRY_LOCK_WAIT",
    "REPRO_REGISTRY_LOCK_STALE",
    "REPRO_DETECTOR_GC_BYTES",
    "REPRO_VERDICT_CACHE_BYTES",
    "REPRO_VERDICT_CACHE_TTL",
    "REPRO_TELEMETRY_DIR",
    "REPRO_SHADOW_TRAINING",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ALL_ENV_KNOBS + REMOVED_ENV_KNOBS:
        monkeypatch.delenv(name, raising=False)


def test_unset_environment_yields_defaults():
    assert RuntimeConfig.from_env() == DEFAULT_RUNTIME


def test_every_knob_round_trips(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PRECISION", "FLOAT32")  # case-folded
    monkeypatch.setenv("REPRO_VERDICT_CACHE", "1")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    runtime = RuntimeConfig.from_env()
    assert runtime == RuntimeConfig(
        workers=4,
        backend="process",
        cache_dir=str(tmp_path / "cache"),
        precision="float32",
        verdict_cache=True,
        telemetry=True,
    )
    # one variable per field, and nothing else
    names = {f"REPRO_{field.name.upper()}" for field in dataclasses.fields(RuntimeConfig)}
    assert names == set(ALL_ENV_KNOBS)


def test_empty_values_fall_back_to_defaults(monkeypatch):
    for name in ALL_ENV_KNOBS:
        if name in ("REPRO_BACKEND", "REPRO_VERDICT_CACHE", "REPRO_TELEMETRY"):
            continue  # string knobs: empty is handled below / means unset
        monkeypatch.setenv(name, "")
    runtime = RuntimeConfig.from_env()
    assert runtime.workers == 1
    assert runtime.cache_dir is None
    assert runtime.precision == "float64"
    assert runtime.verdict_cache is False
    assert runtime.telemetry is False


def test_removed_knob_variables_are_ignored(monkeypatch, tmp_path):
    for name in REMOVED_ENV_KNOBS:
        monkeypatch.setenv(name, "0")
    monkeypatch.setenv("REPRO_SHARD_DIRS", str(tmp_path / "shard"))
    monkeypatch.setenv("REPRO_MAX_IN_FLIGHT", "lots")  # would not even parse
    assert RuntimeConfig.from_env() == DEFAULT_RUNTIME


def test_verdict_cache_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_VERDICT_CACHE", "0")
    assert RuntimeConfig.from_env().verdict_cache is False
    monkeypatch.setenv("REPRO_VERDICT_CACHE", "1")
    assert RuntimeConfig.from_env().verdict_cache is True


def test_telemetry_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert RuntimeConfig.from_env().telemetry is False
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert RuntimeConfig.from_env().telemetry is True


@pytest.mark.parametrize("name", ["REPRO_WORKERS"])
def test_malformed_integer_names_the_variable(monkeypatch, name):
    monkeypatch.setenv(name, "lots")
    with pytest.raises(ValueError, match=name):
        RuntimeConfig.from_env()


def test_malformed_enumerations_fail_fast(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "quantum")
    with pytest.raises(ValueError, match="backend"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_BACKEND")
    monkeypatch.setenv("REPRO_PRECISION", "float16")
    with pytest.raises(ValueError, match="precision"):
        RuntimeConfig.from_env()


def test_out_of_range_values_fail_validation(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError, match="workers"):
        RuntimeConfig.from_env()


def test_registry_and_gateway_read_the_env_knobs(monkeypatch, tmp_path):
    """The env knobs actually reach the subsystems they configure."""
    from repro.runtime.gateway import AuditGateway
    from repro.runtime.registry import DetectorRegistry

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    runtime = RuntimeConfig.from_env()
    registry = DetectorRegistry(runtime=runtime)
    assert registry.store.enabled and registry.store.root == tmp_path
    gateway = AuditGateway(registry=registry)
    assert gateway.max_in_flight == 6  # 2x workers
    assert gateway.worker_pool.backend == "process"  # the store is enabled here
    assert gateway.worker_pool.workers == 3
    gateway.close()
