"""Content-addressed, manifest-indexed on-disk result store for arena cells.

One JSON file per result, at ``root/<key[:2]>/<key>.json`` (two-level
fan-out keeps directories small on big sweeps).  Keys are the canonical
content hashes of :func:`repro.arena.grid.victim_key` — payloads are
:meth:`repro.attacks.AttackResult.to_dict` records wrapped with their cell
metadata — and of :func:`repro.arena.grid.verdict_key`, whose payloads are
one defense's verdict on one such record.

**v2 layout** adds two coordination artifacts next to the shard tree:

* ``MANIFEST`` — an append-only index, one tab-separated line per
  committed record (``v2\\t<key>\\t<shard-path>\\t<length>\\t<sha256>``,
  fsync'd on commit).  ``keys()`` / ``__contains__`` / ``__len__`` read an
  in-memory index loaded from this file once, instead of walking the
  directory tree on every call.  The manifest is an *index*, not the
  source of truth: the shard tree is.  A record written by another
  process (or by a writer killed between the record write and its
  manifest append) is still found by ``get``/``__contains__`` through a
  direct O(1) path probe, and :meth:`compact` rebuilds the manifest from
  the shard tree at any time.  A v1 store (records, no ``MANIFEST``)
  migrates transparently: the first index access rebuilds the manifest in
  place and every record stays byte-identical under its original key.
* ``.leases/`` — advisory per-name lease files (see :meth:`try_lease`)
  that let N concurrent runs — processes or hosts on a shared
  filesystem — split one grid and execute each unique cell exactly once.

:meth:`ResultStore.fill` is the one lease protocol: read, lease, re-check,
compute, bulk-write, read back.

Writes are atomic (temp file + ``os.replace``), so a killed run leaves
either a complete record or nothing — never a torn file — which is what
makes ``--resume`` after a mid-sweep kill safe without any journal.  On
top of that, ``get`` verifies every record it reads (manifest checksum +
JSON parse) and treats anything unreadable as a cache miss: the bad file
is quarantined (renamed to ``*.corrupt``) instead of crashing the resume,
and the victim simply re-executes.
"""

from __future__ import annotations

import gzip
import json
import logging
import os
import re
import socket
import threading
import time
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from repro.arena.grid import canonical_json
from repro.obs import metrics
from repro.obs.tracer import get_tracer

__all__ = ["LEASE_TTL", "Lease", "ResultStore"]

logger = logging.getLogger(__name__)

#: Default lease TTL in seconds: a lease older than this belongs to a dead
#: writer and is stolen.  Read at call time, so tests can shorten it.
LEASE_TTL = 900.0

#: Manifest line tags: a committed record, and a dropped (quarantined) key.
_PUT, _DROP = "v2", "v2-drop"

#: A content key: the 64 lowercase hex digits of a SHA-256.
_KEY = re.compile(r"[0-9a-f]{64}")

#: Leading bytes of a gzip stream — how ``get`` recognizes a compressed
#: record written by an earlier version (a JSON record can never begin
#: with 0x1f).  ``put`` always writes plain JSON.
_GZIP_MAGIC = b"\x1f\x8b"


@dataclass
class Lease:
    """An advisory, expiring, exclusive claim on a store-scoped name.

    Returned by :meth:`ResultStore.try_lease`.  Purely advisory: it
    coordinates cooperating writers (each unique arena cell executes
    exactly once across N concurrent runs) but protects nothing against a
    writer that ignores it.  A lease left behind by a killed process
    expires after its TTL and is stolen by the next claimant.

    A *live* holder whose work outlasts the TTL heartbeats it
    (:meth:`keep_alive`), so slow work is never stolen mid-run and
    computed twice by a concurrent run.
    """

    path: Path
    token: str
    #: TTL (seconds) the lease was acquired with; renewals re-use it.
    ttl: float

    def release(self):
        """Drop the lease if we still hold it (no-op after a steal)."""
        try:
            content = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        if content.split("\t", 1)[0] == self.token:
            try:
                self.path.unlink()
            except OSError:
                pass

    def renew(self):
        """Re-stamp the lease's acquisition time; False once stolen.

        Rewrites the lease file (atomically) with a fresh timestamp and
        the same token, pushing expiry ``ttl`` seconds into the future.
        After a steal the token no longer matches and the renewal
        declines — the new holder's file is never clobbered.  (A steal
        racing the verify→replace window itself is possible in theory,
        but a heartbeating holder renews at a third of its TTL — long
        before any claimant considers the lease stale.)
        """
        try:
            content = self.path.read_text(encoding="utf-8")
        except OSError:
            return False
        if content.split("\t", 1)[0] != self.token:
            return False
        temp = self.path.with_name(f".{uuid.uuid4().hex}.renew")
        try:
            temp.write_text(
                f"{self.token}\t{time.time()}\t{self.ttl}\n", encoding="utf-8"
            )
            os.replace(temp, self.path)
        except OSError:
            try:
                temp.unlink()
            except OSError:
                pass
            return False
        metrics.incr("lease.renewed")
        return True

    @contextmanager
    def keep_alive(self):
        """Heartbeat-renew this lease for the duration of a block.

        A daemon thread calls :meth:`renew` every ``ttl / 3`` seconds
        until the block exits; the thread stops beating on its own once
        the lease is stolen (nothing left to extend).
        """
        period = max(0.05, self.ttl / 3.0)
        stop = threading.Event()

        def beat():
            while not stop.wait(period):
                if not self.renew():
                    return

        thread = threading.Thread(
            target=beat, name="lease-heartbeat", daemon=True
        )
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=5.0)


class ResultStore:
    """A directory of content-addressed JSON records with a manifest index."""

    MANIFEST_NAME = "MANIFEST"
    LEASE_DIR = ".leases"

    def __init__(self, root):
        self.root = Path(root)
        self._index_cache = None
        self._bulk_depth = 0
        self._pending_lines = []
        self._pending_dirs = set()

    def path(self, key):
        """Where a record with this content key lives.

        Raises :class:`ValueError` unless ``key`` is a content key (64
        lowercase hex characters), so no key can name a file outside the
        shard tree.
        """
        if not isinstance(key, str) or not _KEY.fullmatch(key):
            raise ValueError(
                f"not a content key (64 lowercase hex characters): {key!r}"
            )
        return self.root / key[:2] / f"{key}.json"

    # -- the manifest index --------------------------------------------------
    @property
    def _index(self):
        """``key -> (relpath, length, sha256)``, loaded once per instance."""
        if self._index_cache is None:
            self._index_cache = self._load_index()
        return self._index_cache

    def _manifest_path(self):
        return self.root / self.MANIFEST_NAME

    def _load_index(self):
        manifest = self._manifest_path()
        if manifest.is_file():
            index = {}
            with open(manifest, "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if not line.endswith("\n"):
                        break  # torn tail from a writer killed mid-append
                    parts = line.rstrip("\n").split("\t")
                    if parts[0] == _PUT and len(parts) == 5:
                        try:
                            length = int(parts[3])
                        except ValueError:
                            continue
                        index[parts[1]] = (parts[2], length, parts[4])
                    elif parts[0] == _DROP and len(parts) == 2:
                        index.pop(parts[1], None)
            return index
        if self._has_records():
            # v1 store: records but no manifest — migrate in place.
            return self._rebuild_index()
        return {}

    def _has_records(self):
        if not self.root.is_dir():
            return False
        for shard in self.root.iterdir():
            if not shard.is_dir() or shard.name.startswith("."):
                continue
            for entry in shard.iterdir():
                if entry.name.endswith(".json") and not entry.name.startswith("."):
                    return True
        return False

    def _rebuild_index(self):
        """Scan the shard tree and atomically rewrite the manifest from it."""
        index = {}
        if self.root.is_dir():
            for shard in sorted(self.root.iterdir()):
                if not shard.is_dir() or shard.name.startswith("."):
                    continue
                for record in sorted(shard.iterdir()):
                    name = record.name
                    if not name.endswith(".json") or name.startswith("."):
                        continue
                    data = record.read_bytes()
                    index[record.stem] = (
                        f"{shard.name}/{name}",
                        len(data),
                        sha256(data).hexdigest(),
                    )
        if index or self._manifest_path().is_file():
            self._write_manifest(index)
        return index

    def _write_manifest(self, index):
        """Atomically replace the manifest with one line per live record."""
        self.root.mkdir(parents=True, exist_ok=True)
        temp = self.root / f".{self.MANIFEST_NAME}.{os.getpid()}.tmp"
        lines = [
            self._manifest_line(key, relpath, length, digest)
            for key, (relpath, length, digest) in sorted(index.items())
        ]
        fd = os.open(temp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
        try:
            os.write(fd, "".join(lines).encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temp, self._manifest_path())
        self._sync_directory(self.root)

    @staticmethod
    def _manifest_line(key, relpath, length, digest):
        return f"{_PUT}\t{key}\t{relpath}\t{length}\t{digest}\n"

    def _append_manifest(self, lines, durable=True):
        if not lines:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self._manifest_path(), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, "".join(lines).encode("utf-8"))
            if durable:
                metrics.incr("store.fsyncs")
                os.fsync(fd)
        finally:
            os.close(fd)

    def compact(self):
        """Rebuild the manifest from the shard tree (one line per record).

        Folds duplicate append lines and drop tombstones away, and adopts
        any record a crashed writer committed without its manifest line.
        Call with no concurrent writers — appends racing a compaction can
        be lost from the manifest (the records themselves are never
        touched; a later compaction re-adopts them).
        """
        self._index_cache = self._rebuild_index()
        return len(self._index_cache)

    # -- reads ---------------------------------------------------------------
    def __contains__(self, key):
        # Index first (O(1), no I/O); fall back to one path probe so
        # records committed by other processes — or by a writer killed
        # before its manifest append — are still visible.
        return key in self._index or self.path(key).is_file()

    def get(self, key):
        """The stored payload, or ``None`` when absent *or unreadable*.

        A torn, truncated or otherwise corrupt record is a cache miss,
        not an exception: the file is renamed to ``*.corrupt`` (kept for
        post-mortems), the key drops out of the index, and the caller
        re-executes that victim.  A key that is not a content key raises
        :class:`ValueError` (see :meth:`path`).
        """
        path = self.path(key)
        metrics.incr("store.reads")
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._drop(key)
            metrics.incr("store.read_misses")
            return None
        except OSError as error:
            metrics.incr("store.read_misses")
            return self._quarantine(key, path, f"unreadable ({error})")
        entry = self._index.get(key)
        if entry is not None:
            # Manifest length/sha cover the *stored* bytes —
            # compressed or not — so the integrity check is format-
            # independent and precedes any decompression.
            _, length, digest = entry
            if length != len(data) or digest != sha256(data).hexdigest():
                metrics.incr("store.read_misses")
                return self._quarantine(
                    key, path, "manifest checksum mismatch"
                )
        if data[:2] == _GZIP_MAGIC:
            try:
                data = gzip.decompress(data)
            except (OSError, EOFError, zlib.error):
                metrics.incr("store.read_misses")
                return self._quarantine(key, path, "corrupt gzip stream")
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            metrics.incr("store.read_misses")
            return self._quarantine(key, path, "unparseable JSON")
        metrics.incr("store.read_hits")
        return payload

    def keys(self):
        """All manifest-indexed content keys, in key order."""
        return sorted(self._index)

    def __len__(self):
        return len(self._index)

    def _drop(self, key):
        if self._index.pop(key, None) is not None:
            self._append_manifest([f"{_DROP}\t{key}\n"], durable=False)

    def _quarantine(self, key, path, reason):
        target = path.with_name(path.name + ".corrupt")
        won_rename = True
        try:
            os.replace(path, target)
        except OSError:
            won_rename = False
            target = None
        self._drop(key)
        metrics.incr("store.quarantined")
        message = (
            "quarantined corrupt arena record %s (%s)%s; "
            "treating it as a cache miss — the victim will re-execute"
        )
        where = f" -> {target.name}" if target is not None else ""
        # Warn exactly once per corrupt record per *run*, not per process:
        # under forked multi-writer runs every worker holds its own store
        # instance, so an instance flag would warn once per worker.  The
        # ``*.corrupt`` file is the store-level marker — exactly one
        # process wins the rename that creates it (the losers find the
        # source already gone) and that winner owns the warning.
        if won_rename:
            logger.warning(message, key[:12], reason, where)
        else:
            logger.debug(message, key[:12], reason, where)
        return None

    # -- writes --------------------------------------------------------------
    def put(self, key, payload):
        """Atomically persist ``payload`` under ``key``.

        The temp name embeds the pid so concurrent writers (process-pool
        workers, parallel sweeps sharing a store) never clobber each
        other's temp files; last ``os.replace`` wins, and since keys are
        content hashes of the full config, racing writers are writing the
        same record anyway.  Once the record is durable, one manifest
        line is appended and fsync'd — readers index the record from
        there, and ``get`` falls back to the path itself for the
        crash window between the two steps.
        """
        metrics.incr("store.writes")
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = canonical_json(payload).encode("utf-8")
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            temp.write_bytes(blob)
            if not self._bulk_depth:
                # Flush the temp file to disk before the rename becomes
                # visible: os.replace is only atomic with respect to the
                # *name*, not the data, so without the fsync a crash could
                # publish an empty file.  (Bulk mode skips this — the
                # manifest checksum catches a torn record on read, which
                # then simply re-executes.)
                descriptor = os.open(temp, os.O_RDONLY)
                try:
                    metrics.incr("store.fsyncs")
                    os.fsync(descriptor)
                finally:
                    os.close(descriptor)
            os.replace(temp, path)
        except BaseException:
            try:
                temp.unlink()
            except OSError:
                pass
            raise
        relpath = f"{key[:2]}/{path.name}"
        digest = sha256(blob).hexdigest()
        line = self._manifest_line(key, relpath, len(blob), digest)
        if self._bulk_depth:
            self._pending_lines.append(line)
            self._pending_dirs.add(path.parent)
        else:
            self._sync_directory(path.parent)
            self._append_manifest([line])
        self._index[key] = (relpath, len(blob), digest)

    @contextmanager
    def bulk(self):
        """Batch-commit context: one manifest fsync for many ``put`` calls.

        Inside the block, per-record fsyncs and directory syncs are
        deferred; on exit the buffered manifest lines land in one
        append + fsync and every touched shard directory syncs once.
        Durability weakens from per-record to per-batch — a crash inside
        the block can leave torn records, but the manifest checksums turn
        those into quarantined cache misses on the next read, so resume
        stays exact either way.
        """
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if not self._bulk_depth:
                self._flush_bulk()

    def _flush_bulk(self):
        metrics.incr("store.bulk_flushes")
        for directory in sorted(self._pending_dirs):
            self._sync_directory(directory)
        self._pending_dirs = set()
        lines, self._pending_lines = self._pending_lines, []
        self._append_manifest(lines)

    @staticmethod
    def _sync_directory(directory):
        """Best-effort fsync of a directory entry (no-op where unsupported)."""
        try:
            descriptor = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            metrics.incr("store.fsyncs")
            os.fsync(descriptor)
        except OSError:
            pass
        finally:
            os.close(descriptor)

    def clear(self):
        """Delete every record, the manifest, leases and orphans (``--fresh``).

        Indexed records unlink straight from the manifest index (no
        directory walk per key); one final sweep over the shard dirs
        catches what the index cannot know about — orphaned temp files,
        quarantined ``*.corrupt`` records, lease files and records whose
        writer died before the manifest append — and drops the emptied
        directories so a cleared store is indistinguishable from a fresh
        one.
        """
        for relpath, _, _ in self._index.values():
            try:
                (self.root / relpath).unlink()
            except OSError:
                pass
        self._index_cache = {}
        self._pending_lines = []
        self._pending_dirs = set()
        try:
            self._manifest_path().unlink()
        except OSError:
            pass
        if self.root.is_dir():
            for shard in list(self.root.iterdir()):
                if not shard.is_dir():
                    continue
                for leftover in list(shard.iterdir()):
                    try:
                        leftover.unlink()
                    except OSError:
                        pass
                try:
                    shard.rmdir()
                except OSError:
                    pass

    # -- compute-once fill ---------------------------------------------------
    def fill(self, name, keys, compute):
        """Every key's stored payload, computing the missing ones once.

        Missing keys are re-checked under lease ``name`` (its previous
        holder may have committed them); ``compute(missing)`` returns one
        payload per key, in order, and they are written in one
        :meth:`bulk` batch.  Returns ``(payloads, written)``: ``written``
        is the keys this call computed — or ``None``, with the missing
        keys mapped to ``None``, while another live writer holds the lease.
        """
        tracer = get_tracer()
        with tracer.span("store-read", records=len(keys)):
            payloads = {key: self.get(key) for key in keys}
        missing = [key for key in keys if payloads[key] is None]
        if not missing:
            return payloads, frozenset()
        lease = self.try_lease(name)
        if lease is None:
            return payloads, None
        try:
            written = [key for key in missing if self.get(key) is None]
            if written:
                with lease.keep_alive():
                    results = compute(written)
                    with tracer.span("store-write", records=len(written)):
                        with self.bulk():
                            for key, payload in zip(
                                written, results, strict=True
                            ):
                                self.put(key, payload)
        finally:
            lease.release()
        for key in missing:
            payloads[key] = self.get(key)
            if payloads[key] is None:
                raise RuntimeError(
                    f"arena store record {key[:12]}… vanished mid-run "
                    "(concurrent clear, or repeated corruption?)"
                )
        return payloads, frozenset(written)

    # -- leases --------------------------------------------------------------
    def try_lease(self, name, ttl=None):
        """Claim the advisory lease ``name``, or return ``None`` if held.

        ``ttl`` defaults to :data:`LEASE_TTL`.

        Acquisition is atomic (``os.link`` of a fully-written temp file —
        there is never a visible-but-empty lease).  A lease whose age
        exceeds its recorded TTL is *stolen*: exactly one claimant's
        rename-away of the stale file succeeds, and that claimant then
        re-competes for a fresh acquisition.  :meth:`fill` releases it
        when done; a killed holder's lease simply expires.
        """
        ttl = float(LEASE_TTL if ttl is None else ttl)
        lease_dir = self.root / self.LEASE_DIR
        lease_dir.mkdir(parents=True, exist_ok=True)
        path = lease_dir / f"{name}.lease"
        token = f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex}"
        temp = lease_dir / f".{token.rsplit(':', 1)[-1]}.tmp"
        temp.write_text(f"{token}\t{time.time()}\t{ttl}\n", encoding="utf-8")
        try:
            while True:
                try:
                    os.link(temp, path)
                    metrics.incr("lease.acquired")
                    return Lease(path=path, token=token, ttl=ttl)
                except FileExistsError:
                    pass
                if not self._lease_expired(path, ttl):
                    metrics.incr("lease.busy")
                    return None
                # Stale: rename the corpse away — one stealer wins the
                # rename, everyone else sees ENOENT and loops to re-compete
                # for the now-free name.
                corpse = lease_dir / f".{uuid.uuid4().hex}.steal"
                try:
                    os.replace(path, corpse)
                except OSError:
                    continue
                metrics.incr("lease.stolen")
                try:
                    corpse.unlink()
                except OSError:
                    pass
        finally:
            try:
                temp.unlink()
            except OSError:
                pass

    @staticmethod
    def _lease_expired(path, fallback_ttl):
        """Whether the lease at ``path`` has outlived its TTL (or is gone)."""
        try:
            content = path.read_text(encoding="utf-8")
            parts = content.rstrip("\n").split("\t")
            acquired_at, ttl = float(parts[1]), float(parts[2])
        except (OSError, IndexError, ValueError):
            # Unreadable/garbled lease: age it by mtime under our TTL.
            try:
                acquired_at, ttl = path.stat().st_mtime, float(fallback_ttl)
            except OSError:
                return True  # vanished — free to re-compete
        return time.time() > acquired_at + ttl
