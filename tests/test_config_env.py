"""Round-trip coverage for ``RuntimeConfig.from_env``.

Every ``REPRO_*`` knob — the original runtime set plus the registry/gateway
additions — must survive the environment round trip, defaults must hold when
variables are unset or empty, and malformed values must fail with an error
that names the offending variable.
"""

from __future__ import annotations

import os

import pytest

from repro.config import DEFAULT_RUNTIME, RuntimeConfig

ALL_ENV_KNOBS = (
    "REPRO_WORKERS",
    "REPRO_BACKEND",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE",
    "REPRO_SHARD_DIRS",
    "REPRO_MAX_IN_FLIGHT",
    "REPRO_SHADOW_TRAINING",
    "REPRO_REGISTRY_LRU_BYTES",
    "REPRO_REGISTRY_LOCK_WAIT",
    "REPRO_REGISTRY_LOCK_STALE",
    "REPRO_DETECTOR_GC_BYTES",
    "REPRO_PRECISION",
    "REPRO_VERDICT_CACHE",
    "REPRO_VERDICT_CACHE_BYTES",
    "REPRO_VERDICT_CACHE_TTL",
    "REPRO_TELEMETRY",
    "REPRO_TELEMETRY_DIR",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ALL_ENV_KNOBS:
        monkeypatch.delenv(name, raising=False)


def test_unset_environment_yields_defaults():
    assert RuntimeConfig.from_env() == DEFAULT_RUNTIME


def test_every_knob_round_trips(monkeypatch, tmp_path):
    shard_a, shard_b = str(tmp_path / "a"), str(tmp_path / "b")
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_SHARD_DIRS", os.pathsep.join([shard_a, shard_b]))
    monkeypatch.setenv("REPRO_MAX_IN_FLIGHT", "6")
    monkeypatch.setenv("REPRO_SHADOW_TRAINING", "STACKED")  # case-folded
    monkeypatch.setenv("REPRO_REGISTRY_LRU_BYTES", "1048576")
    monkeypatch.setenv("REPRO_REGISTRY_LOCK_WAIT", "12.5")
    monkeypatch.setenv("REPRO_REGISTRY_LOCK_STALE", "90")
    monkeypatch.setenv("REPRO_DETECTOR_GC_BYTES", "4194304")
    monkeypatch.setenv("REPRO_PRECISION", "FLOAT32")  # case-folded
    monkeypatch.setenv("REPRO_VERDICT_CACHE", "1")
    monkeypatch.setenv("REPRO_VERDICT_CACHE_BYTES", "65536")
    monkeypatch.setenv("REPRO_VERDICT_CACHE_TTL", "3600")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
    runtime = RuntimeConfig.from_env()
    assert runtime == RuntimeConfig(
        workers=4,
        backend="process",
        cache_dir=str(tmp_path / "cache"),
        cache=True,
        shard_dirs=(shard_a, shard_b),
        max_in_flight=6,
        shadow_training="stacked",
        registry_lru_bytes=1 << 20,
        registry_lock_wait=12.5,
        registry_lock_stale=90.0,
        detector_gc_bytes=4 << 20,
        precision="float32",
        verdict_cache=True,
        verdict_cache_bytes=65536,
        verdict_cache_ttl=3600.0,
        telemetry=True,
        telemetry_dir=str(tmp_path / "telemetry"),
    )


def test_empty_values_fall_back_to_defaults(monkeypatch):
    for name in ALL_ENV_KNOBS:
        if name in (
            "REPRO_BACKEND",
            "REPRO_SHADOW_TRAINING",
            "REPRO_CACHE",
            "REPRO_VERDICT_CACHE",
            "REPRO_TELEMETRY",
        ):
            continue  # string knobs: empty is handled below / means unset
        monkeypatch.setenv(name, "")
    runtime = RuntimeConfig.from_env()
    assert runtime.workers == 1
    assert runtime.cache_dir is None
    assert runtime.shard_dirs is None
    assert runtime.max_in_flight is None
    assert runtime.registry_lru_bytes is None
    assert runtime.registry_lock_wait == 600.0
    assert runtime.registry_lock_stale == 3600.0
    assert runtime.detector_gc_bytes is None
    assert runtime.precision == "float64"
    assert runtime.verdict_cache is False
    assert runtime.verdict_cache_bytes is None
    assert runtime.verdict_cache_ttl is None
    assert runtime.telemetry is False
    assert runtime.telemetry_dir is None


def test_cache_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert RuntimeConfig.from_env().cache is False
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert RuntimeConfig.from_env().cache is True


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


def test_single_shard_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SHARD_DIRS", str(tmp_path / "only"))
    assert RuntimeConfig.from_env().shard_dirs == (str(tmp_path / "only"),)


@pytest.mark.parametrize(
    "name",
    [
        "REPRO_WORKERS",
        "REPRO_MAX_IN_FLIGHT",
        "REPRO_REGISTRY_LRU_BYTES",
        "REPRO_DETECTOR_GC_BYTES",
        "REPRO_VERDICT_CACHE_BYTES",
    ],
)
def test_malformed_integer_names_the_variable(monkeypatch, name):
    monkeypatch.setenv(name, "lots")
    with pytest.raises(ValueError, match=name):
        RuntimeConfig.from_env()


@pytest.mark.parametrize(
    "name",
    [
        "REPRO_REGISTRY_LOCK_WAIT",
        "REPRO_REGISTRY_LOCK_STALE",
        "REPRO_VERDICT_CACHE_TTL",
    ],
)
def test_malformed_float_names_the_variable(monkeypatch, name):
    monkeypatch.setenv(name, "soon")
    with pytest.raises(ValueError, match=name):
        RuntimeConfig.from_env()


def test_malformed_enumerations_fail_fast(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "quantum")
    with pytest.raises(ValueError, match="backend"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_BACKEND")
    monkeypatch.setenv("REPRO_SHADOW_TRAINING", "psychic")
    with pytest.raises(ValueError, match="shadow_training"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_SHADOW_TRAINING")
    monkeypatch.setenv("REPRO_PRECISION", "float16")
    with pytest.raises(ValueError, match="precision"):
        RuntimeConfig.from_env()


def test_out_of_range_values_fail_validation(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError, match="workers"):
        RuntimeConfig.from_env()
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setenv("REPRO_MAX_IN_FLIGHT", "0")
    with pytest.raises(ValueError, match="max_in_flight"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_MAX_IN_FLIGHT")
    monkeypatch.setenv("REPRO_DETECTOR_GC_BYTES", "-1")
    with pytest.raises(ValueError, match="detector_gc_bytes"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_DETECTOR_GC_BYTES")
    monkeypatch.setenv("REPRO_REGISTRY_LOCK_STALE", "0")
    with pytest.raises(ValueError, match="registry_lock_stale"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_REGISTRY_LOCK_STALE")
    monkeypatch.setenv("REPRO_VERDICT_CACHE_BYTES", "-1")
    with pytest.raises(ValueError, match="verdict_cache_bytes"):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_VERDICT_CACHE_BYTES")
    monkeypatch.setenv("REPRO_VERDICT_CACHE_TTL", "0")
    with pytest.raises(ValueError, match="verdict_cache_ttl"):
        RuntimeConfig.from_env()


def test_registry_and_gateway_read_the_env_knobs(monkeypatch, tmp_path):
    """The env knobs actually reach the subsystems they configure."""
    from repro.runtime.gateway import AuditGateway
    from repro.runtime.registry import DetectorRegistry

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_REGISTRY_LRU_BYTES", "2048")
    monkeypatch.setenv("REPRO_REGISTRY_LOCK_WAIT", "1.5")
    monkeypatch.setenv("REPRO_REGISTRY_LOCK_STALE", "99")
    monkeypatch.setenv("REPRO_MAX_IN_FLIGHT", "5")
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    runtime = RuntimeConfig.from_env()
    registry = DetectorRegistry(runtime=runtime)
    assert registry.lru_bytes == 2048
    assert registry.lock_wait_seconds == 1.5
    assert registry.lock_stale_seconds == 99.0
    gateway = AuditGateway(registry=registry)
    assert gateway.max_in_flight == 5
    assert gateway.worker_pool.backend == "process"  # the store is enabled here
    assert gateway.worker_pool.workers == 3
    gateway.close()
