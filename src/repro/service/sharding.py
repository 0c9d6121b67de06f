"""Sharded KB store: N SQLite files behind per-shard locks.

A single :class:`~repro.service.kb_store.KbStore` serializes every
save/load behind one process-wide lock, which caps serving throughput
once many workers persist results concurrently. The sharded store
partitions entries across ``num_shards`` independent SQLite files, each
with its own lock (the per-partition-lock pattern of large partitioned
scientific stores), so writers to different shards never contend.

Routing is deterministic: the *query signature* — normalized query,
mode, algorithm, source, document count and config digest — is hashed
with SHA-1 and reduced modulo the shard count (:func:`shard_index`).
The ``corpus_version`` is deliberately **excluded** from routing: a
corpus refresh restamps every key, and keeping routing stable under
refresh means stale-entry cleanup stays a per-shard operation and all
versions of one query live in one shard.

The shard count is recorded in a ``shards.json`` manifest next to the
shard files; reopening with a different count is refused (entries would
silently become unreachable). Two re-routing paths exist:

- :meth:`ShardedKbStore.rebalance` — **offline** maintenance over a
  closed store, crash-safe via staged directory renames. It refuses to
  run while the store is open for serving (in this process or, via the
  ``serving.pid`` marker, in another live process on the same host).
- :meth:`ShardedKbStore.online_rebalance` — re-route **while serving
  continues**: a mover streams entries into a new shard generation
  under a double-write window, then commits the manifest and cuts
  routing over without a pause. The fabric's background mover drives
  this off :meth:`ShardedKbStore.shard_entry_counts`.

Shard backends are pluggable: ``backend_factory`` maps
``(shard_index, path)`` to any :class:`~repro.service.kb_store.KbBackend`,
which is how the fabric composes remote socket-served shards
(:mod:`repro.service.fabric`) with the same routing layer that serves
local files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.faultinject.points import fault_point
from repro.kb.facts import KnowledgeBase
from repro.service.kb_store import (
    EntrySignature,
    KbBackend,
    KbStore,
    load_signature,
)

DEFAULT_NUM_SHARDS = 4
MANIFEST_NAME = "shards.json"
#: Serving marker dropped next to the manifest while a store is open;
#: carries the owning pid so a stale marker (crashed process) does not
#: wedge offline maintenance forever.
SERVING_MARKER_NAME = "serving.pid"
_SHARD_FILE_TEMPLATE = "shard-{:03d}.sqlite"
_SHARD_GEN_FILE_TEMPLATE = "shard-g{}-{:03d}.sqlite"

#: Maps ``(shard_index, path)`` to the backend serving that shard.
BackendFactory = Callable[[int, str], KbBackend]

#: Directories currently open for serving in *this* process (resolved
#: path -> open-store count). The offline rebalance guard checks this
#: before touching any file; the ``serving.pid`` marker extends the
#: same guard across processes.
_OPEN_REGISTRY: Dict[str, int] = {}
_OPEN_REGISTRY_LOCK = threading.Lock()


def _fsync_dir(path: Path) -> None:
    """fsync a directory so renames inside it survive power loss.

    ``os.rename`` only rewrites the in-memory directory entry; until
    the parent directory's metadata hits disk, a crash can undo the
    rename. No-op on platforms whose directories refuse ``open``
    (Windows), where the rename-durability story differs anyway.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for the serving marker's owner."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


def shard_index(
    query: str,
    num_shards: int,
    mode: str = "joint",
    algorithm: str = "greedy",
    source: str = "wikipedia",
    num_documents: int = 1,
    config_digest: str = "",
) -> int:
    """Deterministic shard for a query signature, in ``[0, num_shards)``.

    Pure function of the signature fields (minus ``corpus_version``;
    see the module docstring) — stable across processes and Python
    versions, unlike the builtin ``hash``.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    payload = "\x1f".join(
        (query, mode, algorithm, source, str(num_documents), config_digest)
    )
    digest = hashlib.sha1(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def _shard_file_name(generation: int, index: int) -> str:
    """Shard file name for a generation (gen 0 keeps the legacy name,
    so every store written before online rebalance existed still
    opens)."""
    if generation == 0:
        return _SHARD_FILE_TEMPLATE.format(index)
    return _SHARD_GEN_FILE_TEMPLATE.format(generation, index)


class _RebalanceTarget:
    """The staging side of one in-flight online rebalance."""

    def __init__(
        self, num_shards: int, generation: int, shards: List[KbBackend]
    ) -> None:
        self.num_shards = num_shards
        self.generation = generation
        self.shards = shards


class ShardedKbStore:
    """Drop-in :class:`KbStore` replacement over N shard backends.

    Offers the service the :class:`~repro.service.kb_store.KbBackend`
    surface minus its per-shard ops (``delete_signatures``, and the
    ``search_*`` slices, which the search fan-out asks each backend of
    :meth:`shard_backends` for); reads and writes delegate to exactly
    one shard, maintenance operations aggregate over all of them.

    Args:
        directory: Directory holding the shard files and the manifest;
            created if absent.
        num_shards: Shard count for a *new* store. For an existing
            store this must match the manifest (or be ``None`` to adopt
            it); a mismatch raises instead of silently mis-routing.
        backend_factory: Maps ``(shard_index, path)`` to the backend
            serving that shard. Defaults to opening a local
            :class:`KbStore` at ``path``; the fabric passes a factory
            returning replicated socket clients, which is how local and
            remote shards compose behind one routing layer.
    """

    def __init__(
        self,
        directory: str,
        num_shards: Optional[int] = None,
        backend_factory: Optional[BackendFactory] = None,
        _maintenance: bool = False,
    ) -> None:
        self.directory = str(directory)
        path = Path(self.directory)
        path.mkdir(parents=True, exist_ok=True)
        manifest_path = path / MANIFEST_NAME
        generation = 0
        if manifest_path.exists():
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            existing = int(manifest["num_shards"])
            generation = int(manifest.get("generation", 0))
            if num_shards is not None and num_shards != existing:
                raise ValueError(
                    f"store at {self.directory} has {existing} shards; "
                    f"asked for {num_shards} — use ShardedKbStore.rebalance"
                )
            num_shards = existing
        else:
            if num_shards is None:
                num_shards = DEFAULT_NUM_SHARDS
            if num_shards <= 0:
                raise ValueError("num_shards must be positive")
            self._write_manifest(path, num_shards, generation)
        self.num_shards = num_shards
        self._generation = generation
        self._backend_factory = backend_factory or (
            lambda index, shard_path: KbStore(shard_path)
        )
        self._reclaim_stale_generations(path)
        self._shards: List[KbBackend] = [
            self._backend_factory(
                i, str(path / _shard_file_name(generation, i))
            )
            for i in range(num_shards)
        ]
        # Online-rebalance state: all routing reads/writes and the
        # double-write target swap synchronize on one condition.
        self._route_cond = threading.Condition()
        self._epoch = 0
        self._inflight: Dict[int, int] = {}
        self._target: Optional[_RebalanceTarget] = None
        self._retired_shards: List[KbBackend] = []
        self._retired_files: List[str] = []
        self._closed = False
        self._maintenance = _maintenance
        if not _maintenance:
            self._register_serving()

    # ---- serving registry --------------------------------------------------

    def _registry_key(self) -> str:
        return str(Path(self.directory).resolve())

    def _register_serving(self) -> None:
        key = self._registry_key()
        with _OPEN_REGISTRY_LOCK:
            _OPEN_REGISTRY[key] = _OPEN_REGISTRY.get(key, 0) + 1
        try:
            (Path(self.directory) / SERVING_MARKER_NAME).write_text(
                f"{os.getpid()}\n", encoding="utf-8"
            )
        except OSError:  # pragma: no cover - read-only media
            pass

    def _deregister_serving(self) -> None:
        key = self._registry_key()
        with _OPEN_REGISTRY_LOCK:
            remaining = _OPEN_REGISTRY.get(key, 0) - 1
            if remaining > 0:
                _OPEN_REGISTRY[key] = remaining
            else:
                _OPEN_REGISTRY.pop(key, None)
                remaining = 0
        if remaining == 0:
            try:
                (Path(self.directory) / SERVING_MARKER_NAME).unlink()
            except OSError:
                pass

    @classmethod
    def _assert_offline(cls, base: Path) -> None:
        """Refuse maintenance while the directory is open for serving.

        In-process openness is tracked exactly (the registry); other
        processes are covered by the ``serving.pid`` marker, whose
        owner must still be alive for the refusal to hold — a marker
        left by a crashed process is stale and is cleaned up here.
        """
        key = str(base.resolve())
        with _OPEN_REGISTRY_LOCK:
            open_count = _OPEN_REGISTRY.get(key, 0)
        if open_count:
            raise RuntimeError(
                f"store at {base} is open for serving in this process "
                f"({open_count} handle(s)); close it before offline "
                f"rebalance, or use online_rebalance()"
            )
        marker = base / SERVING_MARKER_NAME
        if marker.exists():
            try:
                pid = int(marker.read_text(encoding="utf-8").strip())
            except (OSError, ValueError):
                pid = None
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                raise RuntimeError(
                    f"store at {base} is being served by live process "
                    f"{pid}; offline rebalance would corrupt it — stop "
                    f"the server first, or use online_rebalance()"
                )
            try:
                marker.unlink()
            except OSError:  # pragma: no cover - marker raced away
                pass

    # ---- manifest / files --------------------------------------------------

    @staticmethod
    def _write_manifest(
        directory: Path, num_shards: int, generation: int
    ) -> None:
        """Atomically (tmp + rename + dir fsync) commit the manifest.

        The manifest is the cutover commit point of an online
        rebalance: once it names the new generation, a reopen after a
        crash routes to the new files — which the double-write window
        has kept complete.
        """
        manifest_path = directory / MANIFEST_NAME
        tmp_path = directory / (MANIFEST_NAME + ".tmp")
        payload: Dict[str, int] = {"num_shards": num_shards}
        if generation:
            payload["generation"] = generation
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, manifest_path)
        _fsync_dir(directory)

    def _reclaim_stale_generations(self, path: Path) -> None:
        """Delete shard files from other generations.

        After a crash mid-online-rebalance the staging generation's
        files survive without being named by the manifest; after a
        completed cutover the retired generation's files do. Either
        way they are garbage on the next open. Replica sidecars (the
        fabric appends suffixes to the primary path) share the
        current-generation prefix and are kept.
        """
        keep = [
            _shard_file_name(self._generation, i)
            for i in range(self.num_shards or 0)
        ]
        for candidate in sorted(path.glob("shard-*")):
            if any(candidate.name.startswith(name) for name in keep):
                continue
            try:
                candidate.unlink()
            except OSError:  # pragma: no cover - raced cleanup
                pass

    # ---- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every shard connection (including any staging target
        and retired generations) and release the serving marker."""
        if self._closed:
            return
        self._closed = True
        with self._route_cond:
            target = self._target
            self._target = None
            retired = list(self._retired_shards)
            self._retired_shards = []
            retired_files = list(self._retired_files)
            self._retired_files = []
        if target is not None:
            for shard in target.shards:
                shard.close()
        for shard in self._shards:
            shard.close()
        for shard in retired:
            shard.close()
        for name in retired_files:
            for leftover in Path(self.directory).glob(name + "*"):
                try:
                    leftover.unlink()
                except OSError:  # pragma: no cover - raced cleanup
                    pass
        if not self._maintenance:
            self._deregister_serving()

    def __enter__(self) -> "ShardedKbStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---- routing -----------------------------------------------------------

    def shard_backends(self) -> List[KbBackend]:
        """Frozen snapshot of the shard backends, in shard order.

        The search fan-out (:func:`repro.service.search.query.
        search_paginated`) takes this once per page request and derives
        the global-id arithmetic from ``len()`` + position, so a
        rebalance cutover mid-walk changes the *next* page's stride
        instead of tearing this one (open cursors are invalidated by a
        shard-count change; ``docs/SEARCH.md``).
        """
        with self._route_cond:
            return list(self._shards)

    # ---- meta --------------------------------------------------------------

    @property
    def corpus_version(self) -> str:
        """The corpus stamp the store was last synchronized to."""
        return self._shards[0].corpus_version

    def set_corpus_version(self, version: str) -> None:
        """Record the corpus stamp on every shard (and, during an
        online rebalance, on the staging generation too — the cutover
        must not roll the stamp back)."""
        with self._route_cond:
            shards = list(self._shards)
            target = self._target
        for shard in shards:
            shard.set_corpus_version(version)
        if target is not None:
            for shard in target.shards:
                shard.set_corpus_version(version)

    # ---- save / load -------------------------------------------------------

    def save(
        self,
        query: str,
        kb: KnowledgeBase,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
        created_at: Optional[float] = None,
        replace: bool = True,
    ) -> int:
        """Persist into the signature's shard; returns the entry id.

        While an online rebalance is in flight the entry is written to
        *both* the serving generation and the staging one (the
        double-write window), so the cutover can happen at any moment
        without losing writes. A failed double-write fails the whole
        save — an acknowledged write is on both sides or on neither.
        """
        with self._route_cond:
            epoch = self._epoch
            self._inflight[epoch] = self._inflight.get(epoch, 0) + 1
            num_shards = self.num_shards
            shards = self._shards
            target = self._target
        try:
            index = shard_index(
                query,
                num_shards,
                mode=mode,
                algorithm=algorithm,
                source=source,
                num_documents=num_documents,
                config_digest=config_digest,
            )
            entry_id = shards[index].save(
                query,
                kb,
                corpus_version=corpus_version,
                mode=mode,
                algorithm=algorithm,
                source=source,
                num_documents=num_documents,
                config_digest=config_digest,
                created_at=created_at,
                replace=replace,
            )
            if target is not None:
                target_index = shard_index(
                    query,
                    target.num_shards,
                    mode=mode,
                    algorithm=algorithm,
                    source=source,
                    num_documents=num_documents,
                    config_digest=config_digest,
                )
                target.shards[target_index].save(
                    query,
                    kb,
                    corpus_version=corpus_version,
                    mode=mode,
                    algorithm=algorithm,
                    source=source,
                    num_documents=num_documents,
                    config_digest=config_digest,
                    created_at=created_at,
                    replace=replace,
                )
            return entry_id
        finally:
            with self._route_cond:
                remaining = self._inflight.get(epoch, 0) - 1
                if remaining > 0:
                    self._inflight[epoch] = remaining
                else:
                    self._inflight.pop(epoch, None)
                self._route_cond.notify_all()

    def load(
        self,
        query: str,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> Optional[KnowledgeBase]:
        """Load from the signature's shard; None when absent."""
        with self._route_cond:
            num_shards = self.num_shards
            shards = self._shards
        index = shard_index(
            query,
            num_shards,
            mode=mode,
            algorithm=algorithm,
            source=source,
            num_documents=num_documents,
            config_digest=config_digest,
        )
        return shards[index].load(
            query,
            corpus_version=corpus_version,
            mode=mode,
            algorithm=algorithm,
            source=source,
            num_documents=num_documents,
            config_digest=config_digest,
        )

    def try_load(
        self,
        query: str,
        corpus_version: str,
        mode: str = "joint",
        algorithm: str = "greedy",
        source: str = "wikipedia",
        num_documents: int = 1,
        config_digest: str = "",
    ) -> Tuple[bool, Optional[KnowledgeBase]]:
        """Event-loop-safe load (see :meth:`KbStore.try_load`).

        Only the *routed* shard's lock is probed, so a writer on any
        other shard cannot make this report busy — per-shard locking
        keeps the non-blocking fast path usable even under write load.
        """
        with self._route_cond:
            num_shards = self.num_shards
            shards = self._shards
        index = shard_index(
            query,
            num_shards,
            mode=mode,
            algorithm=algorithm,
            source=source,
            num_documents=num_documents,
            config_digest=config_digest,
        )
        return shards[index].try_load(
            query,
            corpus_version=corpus_version,
            mode=mode,
            algorithm=algorithm,
            source=source,
            num_documents=num_documents,
            config_digest=config_digest,
        )

    # ---- maintenance -------------------------------------------------------

    def signatures(
        self,
        corpus_version: Optional[str] = None,
        mode: Optional[str] = None,
        algorithm: Optional[str] = None,
        config_digest: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[EntrySignature]:
        """Entry signatures across shards, newest first (same filters
        and ``limit`` as :meth:`KbStore.signatures`; each shard is asked
        for at most ``limit`` rows, then the merged top-``limit`` wins)."""
        out: List[EntrySignature] = []
        for shard in self._shards:
            out.extend(
                shard.signatures(
                    corpus_version=corpus_version,
                    mode=mode,
                    algorithm=algorithm,
                    config_digest=config_digest,
                    limit=limit,
                )
            )
        out.sort(key=lambda sig: -sig.created_at)
        return out if limit is None else out[: max(0, int(limit))]

    def delete_stale(self, current_version: str) -> int:
        """Drop other-version entries on every shard; returns the count.

        During an online rebalance the staging generation is cleaned
        too, so a refresh mid-window cannot resurrect stale entries at
        cutover.
        """
        with self._route_cond:
            shards = list(self._shards)
            target = self._target
        removed = sum(
            shard.delete_stale(current_version) for shard in shards
        )
        if target is not None:
            for shard in target.shards:
                shard.delete_stale(current_version)
        return removed

    def delete_for_entities(self, entities: Iterable[str]) -> int:
        """Drop entries touching the given entities on every shard;
        returns the count (serving generation only — the staging
        generation of an in-flight online rebalance is cleaned too, so
        the cutover cannot resurrect entries an ingest invalidated).

        Every shard applies the same
        :func:`repro.service.ingest.match.query_touches` rule locally
        (remote fabric shards receive the entity list over the wire).
        """
        entity_list = list(entities)
        if not entity_list:
            return 0
        with self._route_cond:
            shards = list(self._shards)
            target = self._target
        removed = sum(
            shard.delete_for_entities(entity_list) for shard in shards
        )
        if target is not None:
            for shard in target.shards:
                shard.delete_for_entities(entity_list)
        return removed

    def compact(
        self,
        max_age_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """TTL + size compaction with a *global* entry budget.

        ``max_age_seconds`` applies per shard (age is shard-local
        information). ``max_entries`` bounds the total across shards:
        the globally newest N entries survive, wherever they live — a
        per-shard budget would keep cold entries on underfull shards
        while evicting hot ones from full shards.

        Refused while an online rebalance is in flight: the mover and
        the double-write window assume entries only appear, so a
        concurrent eviction could resurrect a compacted entry at
        cutover. Retry after the window closes.
        """
        with self._route_cond:
            if self._target is not None:
                raise RuntimeError(
                    "online rebalance in progress; compact after cutover"
                )
        removed = 0
        if max_age_seconds is not None:
            for shard in self._shards:
                fault_point("sharding.compact.shard")
                removed += shard.compact(
                    max_age_seconds=max_age_seconds, now=now
                )
        if max_entries is not None:
            # Select by key from the signatures, delete by key: entry
            # ids are private to one shard file (a replica group's
            # members number the same entries differently).
            ranked: List[Tuple[float, int, int, EntrySignature]] = []
            for shard_no, shard in enumerate(self._shards):
                ranked.extend(
                    (sig.created_at, shard_no, -rank, sig)
                    for rank, sig in enumerate(shard.signatures())
                )
            budget = max(0, int(max_entries))
            if len(ranked) > budget:
                ranked.sort(key=lambda item: item[:3], reverse=True)
                doomed: Dict[int, List[EntrySignature]] = {}
                for _, shard_no, _, sig in ranked[budget:]:
                    doomed.setdefault(shard_no, []).append(sig)
                for shard_no, sigs in doomed.items():
                    removed += self._shards[shard_no].delete_signatures(sigs)
        return removed

    def stats(self) -> Dict[str, int]:
        """Aggregated row counts (KbStore-compatible) plus shard count."""
        out: Dict[str, int] = {"shards": self.num_shards}
        for shard in self._shards:
            for table, count in shard.stats().items():
                out[table] = out.get(table, 0) + count
        return out

    def entry_count(self) -> int:
        """Total stored entries across shards (cheap indexed counts)."""
        return sum(shard.entry_count() for shard in self._shards)

    def shard_entry_counts(self) -> List[int]:
        """kb_entries per shard, in shard order — the balance signal
        that drives :meth:`online_rebalance`."""
        return [shard.entry_count() for shard in self._shards]

    def shard_imbalance(self) -> float:
        """max/mean of :meth:`shard_entry_counts` (1.0 = perfectly
        balanced, 0.0 = empty store); the fabric's mover triggers an
        online rebalance when this exceeds its threshold."""
        counts = self.shard_entry_counts()
        total = sum(counts)
        if not counts or total == 0:
            return 0.0
        return max(counts) * len(counts) / total

    # ---- migration / rebalancing ------------------------------------------

    @classmethod
    def migrate_from(
        cls,
        source: KbStore,
        directory: str,
        num_shards: int = DEFAULT_NUM_SHARDS,
    ) -> "ShardedKbStore":
        """Copy every entry of a single-file store into a sharded one.

        The upgrade path from a single-file ``KbStore`` deployment:
        signatures, creation stamps and the corpus-version meta all
        carry over. The source store is left untouched; callers delete
        it once happy.
        """
        sharded = cls(directory, num_shards=num_shards)
        _copy_entries(source, sharded)
        sharded.set_corpus_version(source.corpus_version)
        return sharded

    @classmethod
    def rebalance(cls, directory: str, num_shards: int) -> "ShardedKbStore":
        """Re-route every entry of an existing store into N shards.

        Offline maintenance: the store must be closed. Running against
        a directory that is open for serving — in this process or by a
        live process holding the ``serving.pid`` marker — raises
        ``RuntimeError`` instead of silently corrupting the live store
        (use :meth:`online_rebalance` for that case). Crash-safe:
        entries are streamed one at a time into a sibling staging
        directory (the store is never held only in memory), and the
        rebalanced store replaces the original via two directory
        renames — a crash at any point leaves at least one complete
        store on disk. The next ``rebalance`` call recovers: if the
        crash landed inside the swap window (no valid store at
        ``directory``), the complete sibling copy is promoted back
        first; fully superseded ``.rebalance*`` siblings are reclaimed.
        A no-op when the store already has ``num_shards`` shards.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        base = Path(str(directory))
        cls._assert_offline(base)
        staging = base.with_name(base.name + ".rebalance")
        retired = base.with_name(base.name + ".rebalance-old")
        # Recovery first: a crash inside a previous swap window leaves
        # no (valid) store at ``base`` but a complete one in a sibling
        # — promote it back *before* opening ``base`` (which would
        # otherwise create an empty store) or deleting any sibling.
        # The staging copy wins when both exist: it is only ever
        # renamed-from after being fully written.
        if not (base / MANIFEST_NAME).exists():
            for survivor in (staging, retired):
                if (survivor / MANIFEST_NAME).exists():
                    if base.exists():
                        shutil.rmtree(base)
                    os.rename(survivor, base)
                    _fsync_dir(base.parent)
                    break
        for leftover in (staging, retired):
            if leftover.exists():
                shutil.rmtree(leftover)
        old = cls(str(base), _maintenance=True)
        if old.num_shards == num_shards:
            old.close()
            return cls(str(base))
        rebalanced = cls(str(staging), num_shards=num_shards,
                         _maintenance=True)
        _copy_entries(old, rebalanced)
        version = old.corpus_version
        if version:
            rebalanced.set_corpus_version(version)
        rebalanced.close()
        old.close()
        fault_point("sharding.rebalance.staged")
        # Each rename is followed by an fsync of the parent directory:
        # without it, "a crash at any point leaves at least one
        # complete store on disk" only holds for process crashes —
        # power loss could roll back *both* renames and resurrect a
        # half-deleted ``retired`` tree.
        os.rename(base, retired)
        _fsync_dir(base.parent)
        fault_point("sharding.rebalance.mid_swap")
        os.rename(staging, base)
        _fsync_dir(base.parent)
        fault_point("sharding.rebalance.pre_reclaim")
        shutil.rmtree(retired)
        return cls(str(base))

    def online_rebalance(self, num_shards: int) -> int:
        """Re-route every entry into ``num_shards`` shards **while
        serving continues** — no pause, no reopen.

        The state machine (each arrow survives a crash):

        1. *begin* — a staging generation of ``num_shards`` backends is
           created via the backend factory and the **double-write
           window** opens: every subsequent ``save`` lands in both the
           serving and the staging generation. In-flight saves that
           routed before the window opened are drained (an epoch
           barrier) so the mover cannot miss them.
        2. *copy* — the mover streams every entry of the serving
           generation into its staging shard, create-only
           (``replace=False``): a double-written entry is newer than
           its streamed copy and must win.
        3. *commit* — the manifest is atomically rewritten to name the
           staging generation. This is the durability cutover: a crash
           after this point reopens onto the new generation, which the
           window has kept complete.
        4. *cutover* — routing swaps to the new generation in memory
           and the window closes. Old backends are retired (closed and
           their files reclaimed on :meth:`close`).

        A crash during *copy* (or before *commit*) leaves the window
        open and the serving generation authoritative: calling
        ``online_rebalance`` again with the same count resumes (the
        create-only copy is idempotent); :meth:`abort_online_rebalance`
        rolls back instead. Returns the number of entries streamed by
        the copy pass.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        base = Path(self.directory)
        with self._route_cond:
            if self._closed:
                raise RuntimeError("store is closed")
            target = self._target
            if target is None:
                if num_shards == self.num_shards:
                    return 0
                generation = self._generation + 1
                shards = [
                    self._backend_factory(
                        i, str(base / _shard_file_name(generation, i))
                    )
                    for i in range(num_shards)
                ]
                target = _RebalanceTarget(num_shards, generation, shards)
                self._target = target
                self._epoch += 1
            elif target.num_shards != num_shards:
                raise RuntimeError(
                    f"online rebalance to {target.num_shards} shards is "
                    f"already in flight; abort it before rebalancing to "
                    f"{num_shards}"
                )
            barrier = self._epoch
            deadline = time.monotonic() + 60.0
            while any(epoch < barrier for epoch in self._inflight):
                if not self._route_cond.wait(timeout=1.0) and (
                    time.monotonic() > deadline
                ):  # pragma: no cover - requires a wedged writer
                    raise RuntimeError(
                        "pre-window saves did not drain within 60s"
                    )
            source_shards = list(self._shards)
        moved = 0
        for shard in source_shards:
            for sig in shard.signatures():
                fault_point("sharding.online_rebalance.copy",
                            query=sig.query)
                kb = load_signature(shard, sig)
                if kb is None:
                    continue  # deleted while the mover was walking
                target_index = shard_index(
                    sig.query,
                    target.num_shards,
                    mode=sig.mode,
                    algorithm=sig.algorithm,
                    source=sig.source,
                    num_documents=sig.num_documents,
                    config_digest=sig.config_digest,
                )
                target.shards[target_index].save(
                    sig.query,
                    kb,
                    corpus_version=sig.corpus_version,
                    mode=sig.mode,
                    algorithm=sig.algorithm,
                    source=sig.source,
                    num_documents=sig.num_documents,
                    config_digest=sig.config_digest,
                    created_at=sig.created_at,
                    replace=False,
                )
                moved += 1
        version = self.corpus_version
        if version:
            for shard in target.shards:
                shard.set_corpus_version(version)
        fault_point("sharding.online_rebalance.cutover")
        # Commit: after this rename a reopen routes to the new
        # generation. The double-write window is still open, so writes
        # racing the commit land on both sides regardless of which one
        # a post-crash reopen would pick.
        self._write_manifest(base, target.num_shards, target.generation)
        with self._route_cond:
            old_shards = self._shards
            old_generation = self._generation
            old_count = self.num_shards
            self._shards = target.shards
            self.num_shards = target.num_shards
            self._generation = target.generation
            self._target = None
            self._epoch += 1
            self._retired_shards.extend(old_shards)
            self._retired_files.extend(
                _shard_file_name(old_generation, i)
                for i in range(old_count)
            )
        return moved

    def abort_online_rebalance(self) -> bool:
        """Roll back an in-flight online rebalance: close the double-
        write window, drop the staging backends and reclaim their
        files. Returns False when no rebalance was in flight."""
        with self._route_cond:
            target = self._target
            if target is None:
                return False
            self._target = None
            self._epoch += 1
        for shard in target.shards:
            shard.close()
        base = Path(self.directory)
        for index in range(target.num_shards):
            name = _shard_file_name(target.generation, index)
            for leftover in base.glob(name + "*"):
                try:
                    leftover.unlink()
                except OSError:  # pragma: no cover - raced cleanup
                    pass
        return True

    def rebalance_in_progress(self) -> bool:
        """Whether a double-write window is currently open."""
        with self._route_cond:
            return self._target is not None


def _copy_entries(source, target) -> int:
    """Re-save every entry of ``source`` into ``target``; returns count."""
    copied = 0
    for sig in source.signatures():
        kb = load_signature(source, sig)
        if kb is None:  # pragma: no cover - signatures() and load() disagree
            raise RuntimeError(f"store lost the entry for {sig!r} mid-copy")
        target.save(
            sig.query,
            kb,
            corpus_version=sig.corpus_version,
            mode=sig.mode,
            algorithm=sig.algorithm,
            source=sig.source,
            num_documents=sig.num_documents,
            config_digest=sig.config_digest,
            created_at=sig.created_at,
        )
        copied += 1
    return copied


__all__ = [
    "DEFAULT_NUM_SHARDS",
    "SERVING_MARKER_NAME",
    "ShardedKbStore",
    "shard_index",
]
