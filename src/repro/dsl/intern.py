"""Hash-consing (structural interning) for immutable AST node classes.

The PBE engine memoises membership queries per AST node, and the
over-/under-approximations that
:func:`repro.synthesis.approximate.approximate_partial` builds on every
pruning check would otherwise be fresh objects that share no memo entry.
:class:`InternedMeta` interns at the construction site: every call to an
interned dataclass constructor returns *the* canonical instance for its field
values, so structural equality coincides with object identity.  Equality and
hashing are therefore ``object.__eq__``/``object.__hash__`` (C slots, no
Python frame), and any ``dict``/``set`` keyed by nodes is shared across all
producers of equal structure.

Each class has one flat intern table, a
:class:`repro.caches.GuardedWeakValueDictionary` from the field tuple to a
:class:`repro.caches.WeakEntry` carrying that tuple as its key.  Nodes are
held weakly and die with their last external reference; caches keyed by
nodes should likewise use weak keys (or live on objects with a bounded
lifetime, like a per-subject matcher).

The service's worker pool constructs nodes from many threads.  A probe with
already-normalised constructor arguments is lock-free (safe under the GIL; a
published entry never changes).  Everything else looks up and inserts in one
step under :data:`repro.caches.CACHE_LOCK`, so of two threads building the
same structure only the first candidate is published and both return it — a
second "canonical" object would break identity equality for the process.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Tuple

from repro import caches
from repro.caches import CACHE_LOCK, WeakEntry


# Bound once for the miss path, which runs for every new node: a zero-argument
# super() and the guarded __setitem__ frame cost about a fifth of it.
_construct = type.__call__
_dict_setitem = dict.__setitem__


class InternedMeta(type):
    """Metaclass interning every instance of its (frozen-dataclass) classes.

    Construction runs the class's normal ``__init__``/``__post_init__``
    (validation and argument normalisation included), then the canonical
    instance for the resulting field values is looked up; the freshly built
    object is discarded in favour of the canonical one when it already
    exists.  Field values must be hashable — which the AST invariantly
    guarantees (children are themselves interned, integer arguments and
    labels are immutable).
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        cls._intern_table = caches.register_cache(
            f"{namespace.get('__module__', 'repro')}.{name}._intern_table",
            caches.GuardedWeakValueDictionary(),
        )
        cls._intern_key = None  # set by freeze_interned; abstract bases stay None
        return cls

    def __call__(cls, *args: Any, **kwargs: Any):
        # Fast path: positional args in already-normalised form *are* the
        # field tuple, so probe the table before paying for a candidate
        # construction that a hit would discard.  A stored key always has
        # full field arity, so defaulted/unnormalised/unhashable args simply
        # miss and fall through to the slow path.  Bool/float args must also
        # miss: ``True == 1`` and ``1.0 == 1``, so they would hit the entry
        # of a live int-keyed node and skip the validation that rejects them
        # (reachable whenever a strong cache keeps the node alive).
        table = cls._intern_table
        if not kwargs:
            for arg in args:
                if arg.__class__ is bool or arg.__class__ is float:
                    break
            else:
                try:
                    entry = table.get(args)
                except TypeError:  # unhashable arg (e.g. a list of children)
                    entry = None
                if entry is not None:
                    canonical = entry()
                    if canonical is not None:
                        return canonical
        candidate = _construct(cls, *args, **kwargs)
        key_of = cls._intern_key
        if key_of is None:
            return candidate
        key = key_of(candidate)
        # One serialised lookup-and-insert: of racing threads the first insert
        # wins and every constructor call returns that canonical object.
        with CACHE_LOCK:
            entry = table.get(key)
            if entry is not None:
                canonical = entry()
                if canonical is not None:
                    return canonical
            entry = WeakEntry(candidate, table.remove)
            entry.key = key
            _dict_setitem(table, key, entry)  # lock held: skip the sanitizer frame
        return candidate


def _interned_reduce(self) -> Tuple[type, tuple]:
    # Reconstruct through the constructor so unpickling re-interns: field
    # order matches the constructors' positional arguments for every AST node.
    cls = type(self)
    return cls, cls._intern_key(self)


def _key_getter(names: Tuple[str, ...]):
    """``node -> field tuple``, built in C by one ``attrgetter`` for 2+ fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


def freeze_interned(*classes: type) -> None:
    """Install identity equality and hashing, the intern key, and re-interning pickling.

    Must run after the ``@dataclass`` decorators (which generate structural
    ``__eq__``/``__hash__`` that this replaces) and **before** the first
    instance is created, so that every instance is interned.
    """
    for cls in classes:
        cls.__hash__ = object.__hash__
        cls.__eq__ = object.__eq__
        cls.__ne__ = object.__ne__
        cls.__reduce__ = _interned_reduce
        cls._intern_key = _key_getter(tuple(cls.__dataclass_fields__))


def intern_table_sizes(*classes: type) -> dict:
    """Live canonical-instance counts per class (diagnostics / tests)."""
    return {cls.__name__: len(cls._intern_table) for cls in classes}


def check_intern_tables(*classes: type) -> int:
    """Verify intern-table consistency; returns the number of entries checked.

    Every live entry's own key must equal its table key, the node must hold
    exactly those field values, and re-running the constructor must return
    the *same object* — the invariant a lost insert race would break.
    Raises ``AssertionError`` on the first violation.
    """
    checked = 0
    for cls in classes:
        if cls._intern_key is None:
            continue
        with CACHE_LOCK:
            entries = list(cls._intern_table.items())
        for key, entry in entries:
            node = entry()
            if node is None:  # died since the snapshot
                continue
            if entry.key != key or cls._intern_key(node) != key:
                raise AssertionError(
                    f"{cls.__name__} entry keyed {key!r} carries {entry.key!r}, "
                    f"holds fields {cls._intern_key(node)!r}"
                )
            if cls(*key) is not node:
                raise AssertionError(f"{cls.__name__}{key!r} re-interned to a distinct object")
            checked += 1
    return checked
