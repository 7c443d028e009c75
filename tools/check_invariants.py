#!/usr/bin/env python
"""Static invariant checks over ``src/`` (stdlib :mod:`ast` only; no deps).

Run from the repository root (CI does)::

    python tools/check_invariants.py

Two repository-wide invariants that no unit test can pin down, because each
is a property of *all* source files at once:

``frozen-mutation``
    ``object.__setattr__`` is the only way to mutate a frozen dataclass, so
    its use is confined to the modules that own the node lifecycles (interning
    and ``__post_init__`` canonicalisation).  Anywhere else it is someone
    mutating a shared, hash-consed node — a cross-thread data race.

``unregistered-mutable``
    Worker threads share every module-level container.  Mutable module state
    is only safe when it is a guarded cache registered through
    :func:`repro.caches.register_cache` (mutations go through
    ``caches.CACHE_LOCK``; ``REPRO_SANITIZE=1`` enforces it at runtime).
    This check flags module-level bindings of *empty* mutable containers —
    a container born empty exists to be filled at runtime, i.e. it is a
    cache — that bypass the registry.  Literal tables built in full at
    import time (operator maps, lexicons, ``__all__``) are read-only by
    convention and are not flagged.  A module-level function decorated with
    ``functools.lru_cache`` or ``functools.cache`` is flagged too: its memo is
    a process-global container outside the registry.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Modules whose node lifecycles legitimately need ``object.__setattr__``
#: (frozen-dataclass ``__post_init__`` setup and the on-node memo stamps —
#: pure-value attributes such as ``_approx`` and ``_size`` whose single
#: atomic write makes a racing overwrite benign).
SETATTR_ALLOWED = {
    "repro/dsl/ast.py",
    "repro/api/problem.py",
    "repro/sketch/ast.py",
    "repro/solver/terms.py",
    "repro/synthesis/partial.py",
    "repro/synthesis/approximate.py",
    "repro/analysis/analyzer.py",
}

#: Module-level empty containers and memoised functions exempt from the
#: registry requirement.  Key is the path relative to ``src/``, values are the
#: binding names.
MUTABLE_ALLOWED = {
    "repro/caches.py": {"_REGISTRY"},  # the registry itself, locked on write
    # One entry per character class or literal character: a bounded domain.
    "repro/dsl/charclass.py": {"chars_of"},
}

#: Decorators that give a function a process-global memo.
MEMO_DECORATORS = {"lru_cache", "cache"}

MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "WeakKeyDictionary",
    "WeakValueDictionary",
}

Finding = Tuple[str, int, str, str]  # path, line, code, message


def _is_register_cache_call(node: ast.expr) -> bool:
    """True for ``caches.register_cache(...)`` / ``register_cache(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "register_cache"
    return isinstance(func, ast.Name) and func.id == "register_cache"


def _is_empty_mutable_value(node: ast.expr) -> bool:
    """True for ``{}``, ``[]``, ``dict()``, ``WeakKeyDictionary()``, ...

    Only *empty* containers count: a container born empty at module level
    exists to be filled at runtime, which makes it a cache.  Tables built in
    full at import time are read-only by repository convention.
    """
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in MUTABLE_CONSTRUCTORS
    return False


def _is_memo_decorator(node: ast.expr) -> bool:
    """True for ``@lru_cache``, ``@functools.cache``, ``@lru_cache(maxsize=8)``, ..."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return (
            node.attr in MEMO_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )
    return isinstance(node, ast.Name) and node.id in MEMO_DECORATORS


def _module_level_bindings(tree: ast.Module) -> Iterator[Tuple[str, ast.expr, int]]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                yield target.id, stmt.value, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                yield stmt.target.id, stmt.value, stmt.lineno


def check_file(path: Path, relative: "str | None" = None) -> List[Finding]:
    if relative is None:
        relative = path.relative_to(SRC_ROOT).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    findings: List[Finding] = []

    for node in ast.walk(tree):
        # object.__setattr__(...) outside the allowed lifecycle modules.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and relative not in SETATTR_ALLOWED
        ):
            findings.append(
                (
                    relative,
                    node.lineno,
                    "frozen-mutation",
                    "object.__setattr__ mutates a frozen (possibly shared, "
                    "hash-consed) node; only the node-lifecycle modules may",
                )
            )

    # Module-level mutable bindings that bypass the cache registry.
    allowed_names = MUTABLE_ALLOWED.get(relative, set())
    for name, value, lineno in _module_level_bindings(tree):
        if name in allowed_names or name == "__all__":
            continue
        if _is_register_cache_call(value):
            continue
        if _is_empty_mutable_value(value):
            findings.append(
                (
                    relative,
                    lineno,
                    "unregistered-mutable",
                    f"module-level mutable binding {name!r} is shared across "
                    "worker threads; register it via caches.register_cache "
                    "or add it to the allowlist with a written justification",
                )
            )
    for stmt in tree.body:
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name not in allowed_names
            and any(_is_memo_decorator(decorator) for decorator in stmt.decorator_list)
        ):
            findings.append(
                (
                    relative,
                    stmt.lineno,
                    "unregistered-mutable",
                    f"module-level memoised function {stmt.name!r} keeps a "
                    "process-global cache shared across worker threads; keep "
                    "the memo on a per-run object or add it to the allowlist "
                    "with a written justification",
                )
            )
    return findings


def check_tree(root: Path = SRC_ROOT) -> List[Finding]:
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(check_file(path))
    return findings


def main() -> int:
    if not SRC_ROOT.is_dir():
        print(f"check_invariants: no src/ directory under {REPO_ROOT}", file=sys.stderr)
        return 2
    findings = check_tree()
    for path, lineno, code, message in findings:
        print(f"src/{path}:{lineno}: [{code}] {message}")
    if findings:
        print(f"check_invariants: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
