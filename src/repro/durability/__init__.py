"""Crash-safe durability: atomic writes, the build journal and
emulator snapshots (the serve layer's write-attempt log,
:class:`~repro.serve.concurrency.AdmittedLog`, frames its records with
the journal's codec).

Every persistence path in the system routes through here so that a
process death at any instant — injected by the kill-point chaos layer
or delivered by the real world — loses at most the unit of work that
was in flight, never a completed one and never the integrity of an
artifact on disk.
"""

from .atomic import atomic_write, fsync_dir
from .harness import CrashRun, crash_resume_build, dir_digest, file_digest
from .journal import (
    BuildJournal,
    DurabilityError,
    DurabilityStats,
    JOURNAL_FORMAT_VERSION,
    JOURNAL_NAME,
    JournalWriter,
    as_journal,
    scan_records,
)
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotEncoder,
    read_snapshot,
    registry_diff,
    registry_dump,
    restore_registry,
    snapshot_registry,
    write_snapshot,
)

__all__ = [
    "atomic_write",
    "fsync_dir",
    "BuildJournal",
    "DurabilityError",
    "DurabilityStats",
    "JOURNAL_FORMAT_VERSION",
    "JOURNAL_NAME",
    "JournalWriter",
    "as_journal",
    "scan_records",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotEncoder",
    "read_snapshot",
    "registry_diff",
    "registry_dump",
    "restore_registry",
    "snapshot_registry",
    "write_snapshot",
    "CrashRun",
    "crash_resume_build",
    "dir_digest",
    "file_digest",
]
