"""L-series rules: advisory-lock and exception hygiene in ``repro/runtime``.

The cross-process single-flight protocol (PR 5) only works if every
:class:`~repro.runtime.locks.AdvisoryLock` is released on *every* exit path
and every lock file lives under the store's ``.locks/`` directory, where
every process sharing the store finds it and no reader mistakes it for an
artifact.  Separately, ``runtime/`` code that swallows broad exceptions can
turn a real fault (a loader bug, a corrupted artifact) into silent
cache-miss behaviour; broad handlers must propagate — re-raise, stash for a
deferred raise, or surface via a future.

The pool-dispatch layer (PR 9) adds a picklability invariant: process
backends serialise submitted tasks by qualified name, so a closure, lambda
or bound method handed to ``submit()``/``map()`` works on the thread backend
and explodes the moment ``REPRO_BACKEND=process`` is set.  L201
keeps every ``runtime/`` task module-level so the backends stay
interchangeable.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List

from repro.analysis.core import Finding, LintModule, Rule, register

_BROAD_NAMES = {"Exception", "BaseException"}


def _in_runtime(module: LintModule) -> bool:
    return module.within("repro/runtime")


def _lock_scope(module: LintModule) -> bool:
    # locks.py implements the lock itself (its own acquire/release internals
    # would trip the usage rules)
    return not module.is_file("repro/runtime/locks.py")


def _is_advisory_lock_call(module: LintModule, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = module.canonical(node.func)
    if dotted is not None:
        return dotted.rsplit(".", 1)[-1] == "AdvisoryLock"
    return getattr(node.func, "id", None) == "AdvisoryLock"


def _functions(module: LintModule) -> Iterator[ast.AST]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class LockAcquireUnguarded(Rule):
    id = "L101"
    name = "lock-acquire-unguarded"
    summary = (
        "AdvisoryLock.acquire() without a with-block or try/finally release "
        "leaks the lock file on any exception"
    )

    def _released_in_finally(self, fn: ast.AST, name: str) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for final_stmt in node.finalbody:
                for sub in ast.walk(final_stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "release"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == name
                    ):
                        return True
        return False

    def check(self, module: LintModule) -> Iterable[Finding]:
        if not _lock_scope(module):
            return
        for fn in _functions(module):
            lock_names = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and _is_advisory_lock_call(
                    module, node.value
                ):
                    lock_names.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
            for node in ast.walk(fn):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                ):
                    continue
                value = node.func.value
                direct = _is_advisory_lock_call(module, value)
                named = isinstance(value, ast.Name) and value.id in lock_names
                if not (direct or named):
                    continue
                if direct:
                    yield module.finding(
                        self,
                        node,
                        "AdvisoryLock(...).acquire() keeps no handle to release; "
                        "use `with AdvisoryLock(...):`",
                    )
                    continue
                if not self._released_in_finally(fn, value.id):
                    yield module.finding(
                        self,
                        node,
                        f"`{value.id}.acquire()` has no try/finally "
                        f"`{value.id}.release()`; an exception strands the lock "
                        "file until stale takeover — prefer `with "
                        f"{value.id}:`",
                    )


@register
class LockPathOutsideLocksDir(Rule):
    id = "L102"
    name = "lock-path-outside-locks"
    summary = (
        "lock files must live under the store's .locks/ directory (or come "
        "from store.lock_path), where no reader mistakes them for artifacts"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        if not _lock_scope(module):
            return
        for node in ast.walk(module.tree):
            if not _is_advisory_lock_call(module, node):
                continue
            if not node.args:
                continue
            path_arg = node.args[0]
            sanctioned = False
            saw_literal_fragment = False
            for sub in ast.walk(path_arg):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr == "lock_path":
                        sanctioned = True
                terminal = (
                    sub.attr
                    if isinstance(sub, ast.Attribute)
                    else getattr(sub, "id", None)
                )
                if terminal == "LOCKS_DIRNAME":
                    sanctioned = True
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    if ".locks" in sub.value:
                        sanctioned = True
                    elif "/" in sub.value or sub.value.endswith(".lock"):
                        saw_literal_fragment = True
            if saw_literal_fragment and not sanctioned:
                yield module.finding(
                    self,
                    node,
                    "lock path is built outside `.locks/`; use "
                    "`store.lock_path(...)` or a `LOCKS_DIRNAME` component so "
                    "no reader mistakes it for an artifact",
                )


@register
class PoolTaskUnpicklable(Rule):
    id = "L201"
    name = "pool-task-unpicklable"
    summary = (
        "tasks handed to pool submit()/map() and worker initializer= "
        "callables must be module-level; closures, lambdas and bound methods "
        "break the process backend"
    )

    @staticmethod
    def _enclosing_functions(module: LintModule, node: ast.AST) -> Iterator[ast.AST]:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield ancestor

    @staticmethod
    def _lambda_names(scope: ast.AST) -> Iterator[str]:
        """Names bound to a lambda inside ``scope`` (one level of Assign)."""
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield target.id

    def _nested_callable_names(self, module: LintModule, call: ast.Call) -> set:
        """Names at the call site that pickle cannot resolve by qualified name:
        functions *defined inside* an enclosing function (closures) and any
        lambda-assigned name (a lambda's qualname is ``<lambda>`` even at
        module level)."""
        names = set(self._lambda_names(module.tree))
        for fn in self._enclosing_functions(module, call):
            for node in ast.walk(fn):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not fn:
                        names.add(node.name)
        return names

    @staticmethod
    def _pool_callables(call: ast.Call) -> Iterator[ast.expr]:
        """The callables a pool pickles by qualified name: the task handed
        to ``submit``/``map`` and a worker ``initializer=``."""
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("submit", "map"):
            if call.args:
                yield call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                yield keyword.value

    def check(self, module: LintModule) -> Iterable[Finding]:
        if not _in_runtime(module):
            return
        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call):
                continue
            for task in self._pool_callables(call):
                yield from self._check_task(module, call, task)

    def _check_task(
        self, module: LintModule, call: ast.Call, task: ast.expr
    ) -> Iterable[Finding]:
        if isinstance(task, ast.Starred):
            # `submit(*self._task(...))` — the tuple builder is the
            # audited seam; nothing to resolve statically here
            return
        if isinstance(task, ast.Lambda):
            yield module.finding(
                self,
                task,
                "lambda handed to a pool cannot be pickled by the "
                "process backend; hoist it to a module-level function",
            )
            return
        if isinstance(task, ast.Name):
            if task.id in self._nested_callable_names(module, call):
                yield module.finding(
                    self,
                    task,
                    f"`{task.id}` is a closure/lambda local to this "
                    "function; process pools pickle tasks by qualified "
                    "name — hoist it to module level",
                )
            return
        if isinstance(task, ast.Attribute) and module.canonical(task) is None:
            yield module.finding(
                self,
                task,
                f"`{ast.unparse(task)}` looks like a bound method; "
                "the process backend pickles the whole receiver (or "
                "fails outright) — pass a module-level function "
                "taking the object as an argument",
            )


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types: List[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        types = list(handler.type.elts)
    else:
        types = [handler.type]
    for node in types:
        terminal = (
            node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        )
        if terminal in _BROAD_NAMES:
            return True
    return False


def _is_silent(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, (ast.Continue, ast.Break)):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


def _propagates(handler: ast.ExceptHandler) -> bool:
    """Whether a handler re-raises, defers the exception, or hands it to a future."""
    caught = handler.name
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "set_exception"
            ):
                return True
            if caught is not None and isinstance(node, ast.Assign):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == caught:
                        return True
    return False


def _iter_broad_handlers(module: LintModule) -> Iterator[ast.ExceptHandler]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node):
            yield node


@register
class SilentBroadExcept(Rule):
    id = "L301"
    name = "silent-broad-except"
    summary = "`except Exception: pass` in runtime/ hides faults as cache behaviour"

    def check(self, module: LintModule) -> Iterable[Finding]:
        if not _in_runtime(module):
            return
        for handler in _iter_broad_handlers(module):
            if _is_silent(handler):
                yield module.finding(
                    self,
                    handler,
                    "broad exception handler swallows everything silently; "
                    "catch the concrete error types or propagate",
                )


@register
class BroadExceptSwallow(Rule):
    id = "L302"
    name = "broad-except-swallow"
    summary = (
        "broad handlers in runtime/ must propagate (raise, deferred raise, or "
        "future.set_exception); otherwise catch concrete error types"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        if not _in_runtime(module):
            return
        for handler in _iter_broad_handlers(module):
            if _is_silent(handler):
                continue  # L301's finding; don't double-report
            if not _propagates(handler):
                yield module.finding(
                    self,
                    handler,
                    "broad exception handler neither re-raises nor surfaces the "
                    "exception; narrow it to the concrete (OS/pickle/value) "
                    "errors this path can legitimately absorb",
                )
