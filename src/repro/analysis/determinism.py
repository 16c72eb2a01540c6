"""D-series rules: determinism of every computation that lands in an artifact.

The repository's cache keys, parity tests (parallel ≡ sequential, warm-cache)
and cross-process artifact reuse all assume that a computation's output is a
pure function of its seed and inputs.  These rules catch the classic ways that
assumption silently breaks: global RNG state, unseeded generators, wall-clock
values feeding computation, and filesystem / set iteration order.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding, LintModule, Rule, register

#: numpy.random attributes that are constructors / seeding machinery rather
#: than draws from the hidden global state
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: stdlib ``random`` attributes that build a private, seedable instance
_STDLIB_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: wall-clock sources; ``time.monotonic``/``time.perf_counter`` are exempt —
#: they only ever feed duration *reports*, never artifact contents
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: modules whose job *is* wall-clock arithmetic (lock staleness)
_WALL_CLOCK_ALLOWLIST = (
    "repro/runtime/locks.py",
    # the telemetry exporter stamps `exported_at` on trace files; everything
    # else in repro/obs is monotonic-only
    "repro/obs/export.py",
)

#: calls returning filesystem entries in arbitrary (kernel-dependent) order
_FS_LISTING_FUNCTIONS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_LISTING_METHODS = {"iterdir", "glob", "rglob"}


def _iter_calls(module: LintModule) -> Iterator[ast.Call]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield node


@register
class NumpyGlobalRng(Rule):
    id = "D101"
    name = "numpy-global-rng"
    summary = (
        "draws from numpy's hidden global RNG state; results depend on call "
        "order across the whole process — pass a seeded Generator instead"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for call in _iter_calls(module):
            dotted = module.canonical(call.func)
            if dotted is None or not dotted.startswith("numpy.random."):
                continue
            terminal = dotted.rsplit(".", 1)[-1]
            if terminal in _NP_RANDOM_ALLOWED:
                continue
            yield module.finding(
                self,
                call,
                f"`{terminal}` uses numpy's global RNG state; thread a "
                "`np.random.Generator` from `repro.utils.rng` instead",
            )


@register
class StdlibGlobalRng(Rule):
    id = "D102"
    name = "stdlib-global-rng"
    summary = (
        "draws from the stdlib `random` module's global state — use a local "
        "`random.Random(seed)` or a numpy Generator"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for call in _iter_calls(module):
            dotted = module.canonical(call.func)
            if dotted is None or not dotted.startswith("random."):
                continue
            terminal = dotted.rsplit(".", 1)[-1]
            if terminal in _STDLIB_RANDOM_ALLOWED:
                continue
            yield module.finding(
                self,
                call,
                f"`random.{terminal}` mutates interpreter-global RNG state; "
                "use an instance seeded from `derive_seed` instead",
            )


@register
class UnseededDefaultRng(Rule):
    id = "D103"
    name = "unseeded-default-rng"
    summary = "argless `default_rng()` is entropy-seeded: every run differs"

    def check(self, module: LintModule) -> Iterable[Finding]:
        for call in _iter_calls(module):
            if module.canonical(call.func) != "numpy.random.default_rng":
                continue
            unseeded = not call.args and not call.keywords
            explicit_none = (
                len(call.args) == 1
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value is None
            )
            if unseeded or explicit_none:
                yield module.finding(
                    self,
                    call,
                    "`default_rng()` without a seed is entropy-seeded; derive "
                    "a seed with `repro.utils.rng.derive_seed`",
                )


@register
class WallClockInComputation(Rule):
    id = "D104"
    name = "wall-clock-in-computation"
    summary = (
        "wall-clock reads outside the lock/trace-export allowlist leak the "
        "current time into computation or artifacts"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        if any(module.is_file(allowed) for allowed in _WALL_CLOCK_ALLOWLIST):
            return
        for call in _iter_calls(module):
            dotted = module.canonical(call.func)
            if dotted in _WALL_CLOCK:
                yield module.finding(
                    self,
                    call,
                    f"`{dotted}` feeds the current time into this module; only "
                    "runtime/locks.py and obs/export.py may do wall-clock "
                    "arithmetic (use `time.perf_counter` for durations)",
                )


@register
class UnsortedFsIteration(Rule):
    id = "D105"
    name = "unsorted-fs-iteration"
    summary = (
        "directory listings come back in kernel order; wrap in sorted(...) "
        "before the order can reach a reduction or cache key"
    )

    def _is_listing(self, module: LintModule, call: ast.Call) -> bool:
        dotted = module.canonical(call.func)
        if dotted in _FS_LISTING_FUNCTIONS:
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _FS_LISTING_METHODS
            and dotted is None  # a method on some path-like object
        )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for call in _iter_calls(module):
            if not self._is_listing(module, call):
                continue
            wrapped = False
            for ancestor in module.ancestors(call):
                if (
                    isinstance(ancestor, ast.Call)
                    and isinstance(ancestor.func, ast.Name)
                    and ancestor.func.id == "sorted"
                ):
                    wrapped = True
                    break
                if isinstance(ancestor, ast.stmt):
                    break
            if not wrapped:
                name = (
                    call.func.attr
                    if isinstance(call.func, ast.Attribute)
                    else getattr(call.func, "id", "listing")
                )
                yield module.finding(
                    self,
                    call,
                    f"`{name}` yields entries in filesystem order; wrap the "
                    "call in sorted(...) so iteration order is deterministic",
                )


@register
class SetIterationOrder(Rule):
    id = "D106"
    name = "set-iteration-order"
    summary = (
        "iterating a set leaks hash-randomised order into loop effects; "
        "iterate sorted(...) instead"
    )

    def _is_set_expr(self, module: LintModule, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if self._is_set_expr(module, candidate):
                    yield module.finding(
                        self,
                        candidate,
                        "iteration over a set depends on hash randomisation; "
                        "iterate over sorted(...) of it",
                    )
