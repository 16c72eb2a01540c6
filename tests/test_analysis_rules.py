"""Fixture self-tests for every repro-lint rule.

Each rule gets at least one triggering snippet and one conforming snippet.
Snippets are linted in-memory under synthetic paths, which is how the
path-scoped rules (P-series only in ``repro/nn``, L-series only in
``repro/runtime``) are exercised without touching the real tree.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import RULES, lint_source

NN_PATH = "src/repro/nn/fixture.py"
RUNTIME_PATH = "src/repro/runtime/fixture.py"
CORE_PATH = "src/repro/core/fixture.py"


def rule_ids(source, relpath=CORE_PATH, select=None):
    result = lint_source(textwrap.dedent(source), relpath, select=select)
    return [finding.rule for finding in result.findings]


def assert_fires(rule, source, relpath=CORE_PATH):
    ids = rule_ids(source, relpath, select=[rule])
    assert ids == [rule] * len(ids) and ids, f"expected {rule} to fire, got {ids}"


def assert_quiet(rule, source, relpath=CORE_PATH):
    ids = rule_ids(source, relpath, select=[rule])
    assert ids == [], f"expected no {rule} findings, got {ids}"


# -- D-series: determinism ----------------------------------------------------


class TestD101NumpyGlobalRng:
    def test_fires_on_global_draw(self):
        assert_fires("D101", """
            import numpy as np
            x = np.random.rand(3)
        """)

    def test_fires_on_global_seed(self):
        assert_fires("D101", """
            import numpy as np
            np.random.seed(0)
        """)

    def test_quiet_on_generator(self):
        assert_quiet("D101", """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.random(3)
        """)


class TestD102StdlibGlobalRng:
    def test_fires_on_module_shuffle(self):
        assert_fires("D102", """
            import random
            random.shuffle([1, 2, 3])
        """)

    def test_quiet_on_instance(self):
        assert_quiet("D102", """
            import random
            r = random.Random(7)
            r.shuffle([1, 2, 3])
        """)

    def test_quiet_when_random_is_numpy(self):
        # `from numpy import random` shadows the stdlib module
        assert_quiet("D102", """
            from numpy import random
            rng = random.default_rng(0)
        """)


class TestD103UnseededDefaultRng:
    def test_fires_argless(self):
        assert_fires("D103", """
            import numpy as np
            rng = np.random.default_rng()
        """)

    def test_fires_explicit_none(self):
        assert_fires("D103", """
            from numpy.random import default_rng
            rng = default_rng(None)
        """)

    def test_quiet_with_seed_expression(self):
        assert_quiet("D103", """
            import numpy as np
            def build(seed):
                return np.random.default_rng(seed)
        """)


class TestD104WallClock:
    def test_fires_outside_allowlist(self):
        assert_fires("D104", """
            import time
            stamp = time.time()
        """)

    def test_fires_on_datetime_now(self):
        assert_fires("D104", """
            from datetime import datetime
            when = datetime.now()
        """)

    def test_quiet_in_locks_module(self):
        assert_quiet(
            "D104",
            """
            import time
            age = time.time()
            """,
            relpath="src/repro/runtime/locks.py",
        )

    def test_quiet_for_perf_counter(self):
        assert_quiet("D104", """
            import time
            start = time.perf_counter()
        """)

    @pytest.mark.parametrize(
        "relpath",
        ["src/repro/runtime/store.py", "src/repro/runtime/verdict_cache.py"],
    )
    def test_fires_in_store_and_verdict_cache(self, relpath):
        # neither module ages anything by the wall clock: the store keeps no
        # GC grace period and cached verdicts carry no TTL
        assert_fires(
            "D104",
            """
            import time
            stamp = time.time()
            """,
            relpath=relpath,
        )


class TestD105UnsortedFsIteration:
    def test_fires_on_listdir(self):
        assert_fires("D105", """
            import os
            for name in os.listdir("."):
                print(name)
        """)

    def test_fires_on_iterdir_method(self):
        assert_fires("D105", """
            def walk(root):
                return [p for p in root.iterdir()]
        """)

    def test_quiet_when_sorted(self):
        assert_quiet("D105", """
            import os
            for name in sorted(os.listdir(".")):
                print(name)
        """)

    def test_quiet_when_sorted_around_genexp(self):
        assert_quiet("D105", """
            def walk(root):
                return sorted(p for p in root.iterdir() if p.is_dir())
        """)


class TestD106SetIteration:
    def test_fires_on_set_literal_loop(self):
        assert_fires("D106", """
            for x in {"b", "a"}:
                print(x)
        """)

    def test_fires_on_set_call_comprehension(self):
        assert_fires("D106", """
            rows = [x for x in set([3, 1])]
        """)

    def test_quiet_when_sorted(self):
        assert_quiet("D106", """
            for x in sorted({"b", "a"}):
                print(x)
        """)

    def test_quiet_on_membership(self):
        assert_quiet("D106", """
            wanted = {"a", "b"}
            hit = "a" in wanted
        """)


# -- P-series: precision tiers ------------------------------------------------


class TestP101NumpyScalarConstant:
    def test_fires_on_constant_sqrt(self):
        assert_fires(
            "P101",
            """
            import numpy as np
            C = np.sqrt(2.0 / np.pi)
            """,
            relpath=NN_PATH,
        )

    def test_quiet_when_wrapped_in_float(self):
        assert_quiet(
            "P101",
            """
            import numpy as np
            C = float(np.sqrt(2.0 / np.pi))
            """,
            relpath=NN_PATH,
        )

    def test_quiet_outside_nn(self):
        assert_quiet("P101", """
            import numpy as np
            C = np.sqrt(2.0)
        """)

    def test_quiet_in_exempt_init_module(self):
        assert_quiet(
            "P101",
            """
            import numpy as np
            C = np.sqrt(2.0)
            """,
            relpath="src/repro/nn/init.py",
        )


class TestP102Float64ScalarCall:
    def test_fires(self):
        assert_fires(
            "P102",
            """
            import numpy as np
            def forward(x):
                return np.float64(0.5) * x
            """,
            relpath=NN_PATH,
        )

    def test_quiet_on_python_float(self):
        assert_quiet(
            "P102",
            """
            def forward(x):
                return 0.5 * x
            """,
            relpath=NN_PATH,
        )


class TestP103Float64ScratchAlloc:
    def test_fires(self):
        assert_fires(
            "P103",
            """
            import numpy as np
            def forward(x):
                return np.zeros(x.shape, dtype=np.float64)
            """,
            relpath=NN_PATH,
        )

    def test_quiet_when_following_input_dtype(self):
        assert_quiet(
            "P103",
            """
            import numpy as np
            def forward(x):
                return np.zeros(x.shape, dtype=x.dtype)
            """,
            relpath=NN_PATH,
        )


class TestP104AstypeFloat64:
    def test_fires(self):
        assert_fires(
            "P104",
            """
            import numpy as np
            def forward(x):
                return x.astype(np.float64)
            """,
            relpath=NN_PATH,
        )

    def test_quiet_on_parameter_dtype(self):
        assert_quiet(
            "P104",
            """
            def forward(x, dtype):
                return x.astype(dtype)
            """,
            relpath=NN_PATH,
        )


# -- K-series: config / key sync ----------------------------------------------

GOOD_CONFIG = """
    import os
    from dataclasses import dataclass

    @dataclass
    class Config:
        workers: int = 1

        @classmethod
        def from_env(cls):
            '''Reads ``REPRO_WORKERS``.'''
            return cls(workers=int(os.environ.get("REPRO_WORKERS", "1")))
"""

DRIFTED_CONFIG = """
    import os
    from dataclasses import dataclass

    @dataclass
    class Config:
        workers: int = 1
        extra: float = 0.0

        @classmethod
        def from_env(cls):
            '''Reads ``REPRO_WORKERS`` and ``REPRO_EXTRA``.'''
            return cls(workers=int(os.environ.get("REPRO_WORKERS", "1")))
"""


class TestK101FieldUnwired:
    def test_fires_on_missing_constructor_keyword(self):
        assert_fires("K101", DRIFTED_CONFIG)

    def test_quiet_when_wired(self):
        assert_quiet("K101", GOOD_CONFIG)


class TestK102EnvNameDrift:
    def test_fires_when_env_not_read(self):
        assert_fires("K102", DRIFTED_CONFIG)

    def test_quiet_when_env_read(self):
        assert_quiet("K102", GOOD_CONFIG)


class TestK103EnvDocDrift:
    def test_fires_on_documented_but_unread(self):
        # REPRO_EXTRA appears in the docstring but is never read
        assert_fires("K103", DRIFTED_CONFIG)

    def test_fires_on_read_but_undocumented(self):
        assert_fires("K103", """
            import os
            from dataclasses import dataclass

            @dataclass
            class Config:
                workers: int = 1

                @classmethod
                def from_env(cls):
                    '''Build from the environment.'''
                    return cls(workers=int(os.environ.get("REPRO_WORKERS", "1")))
        """)

    def test_quiet_when_in_sync(self):
        assert_quiet("K103", GOOD_CONFIG)


class TestK104EnvReadOutsideFromEnv:
    def test_fires_on_get_getenv_and_subscript(self):
        assert_fires("K104", """
            import os
            from os import environ, getenv

            def precision():
                return os.environ.get("REPRO_PRECISION") or "float64"

            def mode():
                return getenv("REPRO_SHADOW_TRAINING", "auto")

            def root():
                return environ["REPRO_CACHE_DIR"]
        """)
        ids = rule_ids("""
            import os

            def precision():
                return os.environ.get("REPRO_PRECISION"), os.getenv("REPRO_WORKERS")
        """, select=["K104"])
        assert ids == ["K104", "K104"]

    def test_fires_in_a_from_env_outside_a_dataclass(self):
        assert_fires("K104", """
            import os

            class Config:
                @classmethod
                def from_env(cls):
                    return cls(os.environ.get("REPRO_WORKERS"))
        """)

    def test_quiet_inside_dataclass_from_env(self):
        assert_quiet("K104", GOOD_CONFIG)

    def test_quiet_on_other_variables_writes_and_computed_names(self):
        assert_quiet("K104", """
            import os

            def helper(name):
                os.environ["REPRO_WORKERS"] = "2"
                return os.environ.get(name), os.environ.get("HOME"), "REPRO_X" in os.environ
        """)

    def test_suppression_with_a_reason_silences_it(self):
        assert_quiet("K104", """
            import os

            def engine():
                return os.environ.get("REPRO_CONV_ENGINE")  # repro-lint: disable=K104 -- a test override
        """)


class TestK201PrecisionKeyGuard:
    def test_fires_on_unconditional_entry(self):
        assert_fires("K201", """
            def build_key(precision):
                key = {"kind": "detector"}
                key["precision"] = precision
                return key
        """)

    def test_quiet_when_guarded(self):
        assert_quiet("K201", """
            def build_key(precision):
                key = {"kind": "detector"}
                if precision != "float64":
                    key["precision"] = precision
                return key
        """)


class TestK202VerdictKeyCoordinates:
    def test_fires_when_digest_missing(self):
        assert_fires("K202", """
            def verdict_cache_key(fingerprint, precision):
                return {"fingerprint": fingerprint, "precision": precision}
        """)

    def test_fires_when_precision_missing(self):
        assert_fires("K202", """
            def build_verdict_key(fingerprint, detector_digest):
                key = {"fingerprint": fingerprint}
                key["detector_digest"] = detector_digest
                return key
        """)

    def test_quiet_with_all_coordinates(self):
        assert_quiet("K202", """
            def verdict_cache_key(fingerprint, detector_digest, precision):
                return {
                    "fingerprint": fingerprint,
                    "detector_digest": detector_digest,
                    "precision": precision,
                }
        """)

    def test_quiet_on_keyless_helpers(self):
        # a lookup helper that builds no payload is not a key builder
        assert_quiet("K202", """
            def verdict_key_hash(key):
                return hash_payload(key)
        """)


# -- L-series: lock / exception hygiene ---------------------------------------


class TestL101LockAcquire:
    def test_fires_without_finally(self):
        assert_fires(
            "L101",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(path):
                lock = AdvisoryLock(path)
                lock.acquire()
                work()
                lock.release()
            """,
            relpath=RUNTIME_PATH,
        )

    def test_fires_on_unbound_acquire(self):
        assert_fires(
            "L101",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(path):
                AdvisoryLock(path).acquire()
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_with_context_manager(self):
        assert_quiet(
            "L101",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(path):
                with AdvisoryLock(path):
                    work()
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_with_try_finally(self):
        assert_quiet(
            "L101",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(path):
                lock = AdvisoryLock(path)
                lock.acquire()
                try:
                    work()
                finally:
                    lock.release()
            """,
            relpath=RUNTIME_PATH,
        )


class TestL102LockPath:
    def test_fires_outside_locks_dir(self):
        assert_fires(
            "L102",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(root):
                return AdvisoryLock(root / "pending" / "fit.lock")
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_via_store_lock_path(self):
        assert_quiet(
            "L102",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(store, key):
                return AdvisoryLock(store.lock_path("detector", key))
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_with_locks_dirname_component(self):
        assert_quiet(
            "L102",
            """
            from repro.runtime.locks import AdvisoryLock
            from repro.runtime.store import LOCKS_DIRNAME

            def fit(root):
                return AdvisoryLock(root / LOCKS_DIRNAME / "fit.lock")
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_opaque_path(self):
        assert_quiet(
            "L102",
            """
            from repro.runtime.locks import AdvisoryLock

            def fit(path):
                return AdvisoryLock(path)
            """,
            relpath=RUNTIME_PATH,
        )


class TestL201PoolTaskUnpicklable:
    def test_fires_on_lambda(self):
        assert_fires(
            "L201",
            """
            def dispatch(session, model):
                return session.submit(lambda: model.predict())
            """,
            relpath=RUNTIME_PATH,
        )

    def test_fires_on_closure(self):
        assert_fires(
            "L201",
            """
            def dispatch(session, model):
                def task():
                    return model.predict()
                return session.submit(task)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_fires_on_lambda_assigned_name(self):
        assert_fires(
            "L201",
            """
            score = lambda model: model.predict()

            def dispatch(session, model):
                return session.submit(score, model)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_fires_on_bound_method(self):
        assert_fires(
            "L201",
            """
            def dispatch(session, service, model):
                return session.submit(service.inspect, model)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_module_level_task(self):
        assert_quiet(
            "L201",
            """
            def _audit_task(model):
                return model.predict()

            def dispatch(session, model):
                return session.submit(_audit_task, model)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_imported_function(self):
        assert_quiet(
            "L201",
            """
            from repro.runtime import workers

            def dispatch(session, ref, model):
                return session.submit(workers._audit_task, ref, model)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_parameter_and_star_args(self):
        assert_quiet(
            "L201",
            """
            def relay(session, fn, args):
                session.submit(fn, *args)
                return session.submit(*args)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_fires_on_unpicklable_initializer(self):
        # closure, lambda and bound method: one finding each
        ids = rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            def open_pool(workers, blas):
                def cap():
                    blas.set_threads(1)
                return [
                    ProcessPoolExecutor(workers, initializer=cap),
                    ProcessPoolExecutor(workers, initializer=lambda: blas.set_threads(1)),
                    ProcessPoolExecutor(workers, initializer=blas.set_threads, initargs=(1,)),
                ]
            """,
            RUNTIME_PATH,
            select=["L201"],
        )
        assert ids == ["L201"] * 3, ids

    def test_quiet_on_module_level_initializer(self):
        assert_quiet(
            "L201",
            """
            from concurrent.futures import ProcessPoolExecutor

            def _cap_blas_threads(threads):
                return threads

            def open_pool(workers):
                return ProcessPoolExecutor(
                    workers, initializer=_cap_blas_threads, initargs=(1,)
                )
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_outside_runtime(self):
        assert_quiet("L201", """
            def dispatch(session, model):
                return session.submit(lambda: model.predict())
        """)


class TestL301SilentBroadExcept:
    def test_fires_on_silent_pass(self):
        assert_fires(
            "L301",
            """
            def load():
                try:
                    risky()
                except Exception:
                    pass
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_narrow_pass(self):
        assert_quiet(
            "L301",
            """
            def load():
                try:
                    risky()
                except OSError:
                    pass
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_outside_runtime(self):
        assert_quiet("L301", """
            def load():
                try:
                    risky()
                except Exception:
                    pass
        """)


class TestL302BroadExceptSwallow:
    def test_fires_on_log_and_swallow(self):
        assert_fires(
            "L302",
            """
            import warnings

            def load():
                try:
                    return risky()
                except Exception as exc:
                    warnings.warn(f"ignored: {exc}")
                return None
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_reraise(self):
        assert_quiet(
            "L302",
            """
            def load(slots):
                slots.acquire()
                try:
                    return risky()
                except BaseException:
                    slots.release()
                    raise
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_set_exception(self):
        assert_quiet(
            "L302",
            """
            def submit(future, fn):
                try:
                    future.set_result(fn())
                except Exception as exc:
                    future.set_exception(exc)
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_deferred_raise(self):
        assert_quiet(
            "L302",
            """
            def drain():
                error = None
                try:
                    top_up()
                except BaseException as exc:
                    error = exc
                if error is not None:
                    raise error
            """,
            relpath=RUNTIME_PATH,
        )

    def test_quiet_on_narrow_catch(self):
        assert_quiet(
            "L302",
            """
            import warnings

            def load():
                try:
                    return risky()
                except (OSError, ValueError) as exc:
                    warnings.warn(f"corrupt: {exc}")
                return None
            """,
            relpath=RUNTIME_PATH,
        )


# -- registry sanity ----------------------------------------------------------


# -- O-series: telemetry hygiene ----------------------------------------------


class TestO101SpanLeaked:
    def test_fires_on_discarded_handle(self):
        assert_fires("O101", """
            def audit(tracer):
                tracer.start_span("gateway.audit")
                work()
        """)

    def test_fires_on_named_handle_without_finally(self):
        assert_fires("O101", """
            def audit(tracer):
                handle = tracer.start_span("gateway.audit")
                work()
                handle.end()
        """)

    def test_fires_on_measure_outside_with(self):
        assert_fires("O101", """
            def bench(timer):
                timer.measure("fit")
                work()
        """)

    def test_quiet_with_try_finally_end(self):
        assert_quiet("O101", """
            def audit(tracer):
                handle = tracer.start_span("gateway.audit")
                try:
                    work()
                finally:
                    handle.end()
        """)

    def test_quiet_with_context_manager(self):
        assert_quiet("O101", """
            def bench(timer, tracer):
                with timer.measure("fit"):
                    work()
                with tracer.start_span("x").set(stage="fit"):
                    work()
        """)

    def test_quiet_with_named_with(self):
        assert_quiet("O101", """
            def audit(tracer):
                handle = tracer.start_span("gateway.audit")
                with handle:
                    work()
        """)

    def test_quiet_inside_obs_package(self):
        assert_quiet(
            "O101",
            """
            def span(self, name):
                handle = self.start_span(name)
                return handle
            """,
            relpath="src/repro/obs/trace.py",
        )


def test_every_registered_rule_has_fixture_coverage():
    """Every rule id in the registry is exercised by a Test class above."""
    covered = set()
    for name, obj in globals().items():
        if name.startswith("Test") and hasattr(obj, "__mro__"):
            for rule_id in RULES:
                if name.startswith(f"Test{rule_id}"):
                    covered.add(rule_id)
    assert covered == set(RULES), f"rules without fixtures: {set(RULES) - covered}"


def test_rule_metadata_complete():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.name, f"{rule_id} has no name"
        assert rule.summary, f"{rule_id} has no summary"


@pytest.mark.parametrize(
    "family,expected", [("D", 6), ("P", 4), ("K", 6), ("L", 5), ("O", 1)]
)
def test_family_sizes(family, expected):
    assert sum(1 for rule_id in RULES if rule_id[0] == family) == expected
