"""MVCC snapshots of the EDB: immutable versions, refcounted leases.

The serving layer must let ``apply(ChangeSet)`` install a new EDB
version *while in-flight queries keep reading the old one*.  The shape
was already in the codebase: a :class:`~repro.storage.delta.DeltaOverlay`
is a writable delta over a frozen base.  Here that becomes a persistent
version chain:

* **version 0** is a frozen copy of the EDB at serve start;
* **version n+1** is a ``DeltaOverlay`` over version n's store, holding
  the batch's insertions in its delta and its retractions as
  tombstones — built in O(|change|), never touching version n — and
  then frozen (:meth:`~repro.storage.base.FactStore.freeze` turns the
  "base is frozen" convention into an enforced invariant);
* every ``flatten_depth`` versions the chain is collapsed into a fresh
  flat store, bounding per-read layer traversal without ever mutating
  a shared structure (the old chain stays valid for its readers).

Readers take a :class:`SnapshotLease` (refcount +1 under the manager's
lock); a version is garbage-collected when it is no longer the head and
its last lease is released — dropping the manager's reference lets
Python reclaim the overlay (the chain below survives as long as some
newer version's base chain, or an older lease, still needs it).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Tuple

from ..api.cache import FixpointCache
from ..api.planner import store_label
from ..core.atoms import Atom
from ..storage import DeltaOverlay, FactStore, make_store

__all__ = ["SnapshotLease", "SnapshotManager", "SnapshotVersion"]


class SnapshotVersion:
    """One immutable EDB version: a frozen store plus its bookkeeping.

    ``cache`` holds the fixpoint materializations and star abstractions
    valid for exactly this version's EDB; version GC drops it together
    with the store.
    """

    __slots__ = ("number", "store", "depth", "refs", "cache")

    def __init__(self, number: int, store: FactStore, depth: int):
        self.number = number
        self.store = store
        self.depth = depth
        self.refs = 0
        self.cache = FixpointCache(store, number)

    def __repr__(self) -> str:
        return (
            f"SnapshotVersion(v{self.number}, {len(self.store)} atoms, "
            f"depth {self.depth}, {self.refs} reader(s))"
        )


class SnapshotLease:
    """A refcounted read lease on one :class:`SnapshotVersion`.

    Release is idempotent (streams release on exhaustion *and* carry a
    GC finalizer as a backstop for abandoned streams).  Usable as a
    context manager.
    """

    __slots__ = ("_manager", "_version", "_released")

    def __init__(self, manager: "SnapshotManager", version: SnapshotVersion):
        self._manager = manager
        self._version = version
        self._released = False

    @property
    def version(self) -> int:
        return self._version.number

    @property
    def store(self) -> FactStore:
        return self._version.store

    @property
    def snapshot(self) -> SnapshotVersion:
        return self._version

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the lease; the first call decrements, the rest no-op."""
        if self._released:
            return
        self._released = True
        self._manager._release(self._version)

    def __enter__(self) -> "SnapshotLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"SnapshotLease(v{self.version}, {state})"


class SnapshotManager:
    """The version store: installs immutable EDB versions, hands out
    leases, and collects versions nobody can read any more."""

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        *,
        store: str = "instance",
        flatten_depth: int = 8,
    ):
        if flatten_depth < 1:
            raise ValueError("flatten_depth must be >= 1")
        self._store_name = store
        self._flatten_depth = flatten_depth
        self._lock = threading.Lock()
        base = make_store(store, atoms)
        base.freeze()
        head = SnapshotVersion(0, base, depth=0)
        self._head = head
        #: Live versions: the head plus every version some lease holds.
        self._versions: Dict[int, SnapshotVersion] = {0: head}
        self.collected = 0
        self.flattened = 0

    # -- read side ---------------------------------------------------------

    @property
    def head_version(self) -> int:
        return self._head.number

    def current(self) -> SnapshotLease:
        """A lease on the newest version (refcount +1)."""
        with self._lock:
            version = self._head
            version.refs += 1
            return SnapshotLease(self, version)

    def _release(self, version: SnapshotVersion) -> None:
        with self._lock:
            version.refs -= 1
            self._collect_locked()

    # -- write side --------------------------------------------------------

    def install(
        self,
        inserted: Tuple[Atom, ...],
        retracted: Tuple[Atom, ...],
    ) -> SnapshotVersion:
        """Install the next version: head ∖ *retracted* ∪ *inserted*.

        O(|change|) on the overlay path; every ``flatten_depth``-th
        install materializes a flat copy instead, so reads never
        traverse more than ``flatten_depth`` layers.  The previous head
        is untouched either way — in-flight readers are unaffected.
        """
        with self._lock:
            previous = self._head
            if previous.depth + 1 >= self._flatten_depth:
                store = make_store(self._store_name)
                retracted_set = set(retracted)
                store.add_all(
                    atom
                    for atom in previous.store
                    if atom not in retracted_set
                )
                store.add_all(inserted)
                depth = 0
                self.flattened += 1
            else:
                overlay = DeltaOverlay(previous.store)
                overlay.discard_all(retracted)
                overlay.add_all(inserted)
                store = overlay
                depth = previous.depth + 1
            store.freeze()
            version = SnapshotVersion(
                previous.number + 1, store, depth=depth
            )
            self._versions[version.number] = version
            self._head = version
            self._collect_locked()
            return version

    # -- garbage collection ------------------------------------------------

    def _collect_locked(self) -> None:
        """Drop every non-head version with no readers (lock held)."""
        dead = [
            number
            for number, version in self._versions.items()
            if version.refs == 0 and version is not self._head
        ]
        for number in dead:
            del self._versions[number]
        self.collected += len(dead)

    # -- observability -----------------------------------------------------

    @property
    def live_versions(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._versions))

    def refcounts(self) -> Dict[int, int]:
        """Per-version reader refcounts for every live version."""
        with self._lock:
            return {
                number: version.refs
                for number, version in sorted(self._versions.items())
            }

    def versions_snapshot(self) -> Tuple[SnapshotVersion, ...]:
        """The live versions, head first then ascending — the
        measurement order that attributes shared structure (overlay
        base chains, interning tables) to the head."""
        with self._lock:
            head = self._head
            rest = sorted(
                (v for v in self._versions.values() if v is not head),
                key=lambda v: v.number,
            )
            return (head, *rest)

    def stats(self) -> dict:
        with self._lock:
            return {
                "head_version": self._head.number,
                "head_depth": self._head.depth,
                "head_atoms": len(self._head.store),
                "live_versions": len(self._versions),
                "refcounts": {
                    str(number): version.refs
                    for number, version in sorted(self._versions.items())
                },
                "collected": self.collected,
                "flattened": self.flattened,
                "flatten_depth": self._flatten_depth,
                "store": store_label(self._store_name),
            }

    def __repr__(self) -> str:
        return (
            f"SnapshotManager(head=v{self._head.number}, "
            f"{len(self._versions)} live, {self.collected} collected)"
        )
