"""K-series rules: config/env wiring and cache-key construction stay in sync.

Two contracts:

* every field of a config dataclass that ships a ``from_env`` classmethod must
  be wired to a ``REPRO_<FIELD>`` environment variable and documented in the
  ``from_env`` docstring — a new knob cannot silently miss its env plumbing
  (K101/K102/K103) — and ``from_env`` is the only place a ``REPRO_*``
  variable is read, so no setting has a second precedence path (K104);
* artifact/registry key builders only add a ``"precision"`` entry *off* the
  float64 reference tier, so every hash minted before the precision split
  stays warm while the tiers can never share an artifact (K201);
* verdict-cache key builders always carry the detector digest and the
  precision tier, so a detector refit (or a precision switch) can never serve
  another detector's memoised verdict (K202).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, LintModule, Rule, register

_ENV_RE = re.compile(r"REPRO_[A-Z0-9_]+")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_names(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if stmt.target.id.startswith("_"):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append((stmt.target.id, stmt))
    return fields


def _from_env(node: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "from_env":
            return stmt
    return None


def _constructor_keywords(cls: ast.ClassDef, fn: ast.FunctionDef) -> Set[str]:
    keywords: Set[str] = set()
    for call in ast.walk(fn):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", None)
        if name in ("cls", cls.name):
            keywords.update(k.arg for k in call.keywords if k.arg is not None)
    return keywords


def _env_references(fn: ast.FunctionDef) -> Set[str]:
    refs: Set[str] = set()
    docstring = ast.get_docstring(fn) or ""
    for node in ast.walk(fn):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value != docstring:
                refs.update(_ENV_RE.findall(node.value))
    return refs


def _iter_env_dataclasses(
    module: LintModule,
) -> Iterator[Tuple[ast.ClassDef, ast.FunctionDef]]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fn = _from_env(node)
            if fn is not None:
                yield node, fn


@register
class ConfigFieldUnwired(Rule):
    id = "K101"
    name = "config-field-unwired"
    summary = "dataclass field missing from the from_env constructor call"

    def check(self, module: LintModule) -> Iterable[Finding]:
        for cls, fn in _iter_env_dataclasses(module):
            wired = _constructor_keywords(cls, fn)
            for name, stmt in _field_names(cls):
                if name not in wired:
                    yield module.finding(
                        self,
                        stmt,
                        f"{cls.name}.{name} is not passed in from_env's "
                        f"constructor call — a process configured via REPRO_* "
                        "env vars silently loses this knob",
                    )


@register
class ConfigEnvNameDrift(Rule):
    id = "K102"
    name = "config-env-name-drift"
    summary = "dataclass field has no matching REPRO_<FIELD> read in from_env"

    def check(self, module: LintModule) -> Iterable[Finding]:
        for cls, fn in _iter_env_dataclasses(module):
            refs = _env_references(fn)
            for name, stmt in _field_names(cls):
                expected = f"REPRO_{name.upper()}"
                if expected not in refs:
                    yield module.finding(
                        self,
                        stmt,
                        f"{cls.name}.{name} expects the environment variable "
                        f"{expected}, which from_env never reads",
                    )


@register
class ConfigEnvDocDrift(Rule):
    id = "K103"
    name = "config-env-doc-drift"
    summary = "REPRO_* vars read by from_env and its docstring list disagree"

    def check(self, module: LintModule) -> Iterable[Finding]:
        for _cls, fn in _iter_env_dataclasses(module):
            refs = _env_references(fn)
            documented = set(_ENV_RE.findall(ast.get_docstring(fn) or ""))
            for env in sorted(refs - documented):
                yield module.finding(
                    self,
                    fn,
                    f"{env} is read by from_env but missing from its docstring's "
                    "documented env-var list",
                )
            for env in sorted(documented - refs):
                yield module.finding(
                    self,
                    fn,
                    f"{env} is documented in the from_env docstring but never "
                    "read — stale documentation",
                )


#: the calls that read one environment variable by name
_ENV_READ_CALLS = ("os.environ.get", "os.getenv")


def _env_read(module: LintModule, node: ast.AST) -> Optional[str]:
    """The literal ``REPRO_*`` name ``node`` reads from the environment, if
    it is an ``os.environ.get``/``os.getenv`` call or an ``os.environ[...]``
    load."""
    if isinstance(node, ast.Call) and node.args:
        if module.canonical(node.func) not in _ENV_READ_CALLS:
            return None
        name = node.args[0]
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        if module.canonical(node.value) != "os.environ":
            return None
        name = node.slice
    else:
        return None
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        if _ENV_RE.fullmatch(name.value):
            return name.value
    return None


@register
class EnvReadOutsideFromEnv(Rule):
    id = "K104"
    name = "env-read-outside-from-env"
    summary = (
        "REPRO_* variables are read only in a config dataclass's from_env, so "
        "each setting has one precedence path"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        readers = {id(fn) for _cls, fn in _iter_env_dataclasses(module)}
        for node in ast.walk(module.tree):
            name = _env_read(module, node)
            if name is None:
                continue
            if any(id(ancestor) in readers for ancestor in module.ancestors(node)):
                continue
            yield module.finding(
                self,
                node,
                f"{name} is read outside a config dataclass's from_env: a "
                "second read gives the setting a second precedence path; "
                "take it from the config object instead",
            )


@register
class PrecisionKeyUnguarded(Rule):
    id = "K201"
    name = "precision-key-unguarded"
    summary = (
        'key builders must add a "precision" entry only off the float64 tier, '
        "or every pre-split float64 hash goes cold"
    )

    def _guarded(self, module: LintModule, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.If):
                for sub in ast.walk(ancestor.test):
                    if isinstance(sub, ast.Constant) and sub.value == "float64":
                        return True
        return False

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "precision"
                ):
                    if not self._guarded(module, node):
                        yield module.finding(
                            self,
                            node,
                            'unconditional key["precision"] assignment: guard '
                            'with `if precision != "float64"` so float64-tier '
                            "hashes match the pre-precision-split artifacts",
                        )


_VERDICT_KEY_FN_RE = re.compile(r"(verdict.*key|key.*verdict)", re.IGNORECASE)

#: coordinates every verdict-cache key must carry: the fitted detector's
#: digest (a refit must invalidate its verdicts) and the precision tier
#: (float32 and float64 deployments must never share an entry)
_VERDICT_KEY_REQUIRED = ("detector_digest", "precision")


@register
class VerdictKeyMissingCoordinate(Rule):
    id = "K202"
    name = "verdict-key-missing-coordinate"
    summary = (
        "verdict-cache key builders must include the detector digest and the "
        "precision tier, or refits/precision switches serve stale verdicts"
    )

    @staticmethod
    def _string_keys(fn: ast.AST) -> Set[str]:
        """String keys a function puts into key payloads: dict-literal keys
        plus constant-subscript assignment targets."""
        keys: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
        return keys

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _VERDICT_KEY_FN_RE.search(node.name):
                continue
            keys = self._string_keys(node)
            if not keys:
                continue  # no key payload built here (e.g. a lookup helper)
            for required in _VERDICT_KEY_REQUIRED:
                if required not in keys:
                    yield module.finding(
                        self,
                        node,
                        f"verdict-cache key builder {node.name!r} never sets "
                        f"{required!r}: a cached verdict could outlive its "
                        "detector fit or leak across precision tiers",
                    )
