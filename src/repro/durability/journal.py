"""The append-only build journal: crash-safe progress on disk.

One journal records every *completed* unit of build work — an extracted
resource, a targeted correction, a finished alignment round — as one
JSONL record.  Records are CRC-guarded and fsync'd as they are
appended, so after a crash at any instant the journal is a valid
prefix of the build's history plus, at worst, one torn tail line that
the reader drops.  ``repro build --journal DIR --resume`` replays that
prefix and re-runs only the work the crash interrupted.

Record framing (one JSON object per line)::

    {"crc": <crc32 of canonical record JSON>, "record": {"type": ..., ...}}

Reading is *torn-tail tolerant*: the first line that fails to parse or
whose CRC mismatches ends the valid prefix; everything from there on is
dropped (and the file is truncated back to the valid prefix when the
journal is reopened for appending), because records after a corrupt one
cannot be trusted to describe work that actually completed.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience.killswitch import kill_point, SimulatedCrash

JOURNAL_FORMAT_VERSION = 1
JOURNAL_NAME = "build.journal"


class DurabilityError(Exception):
    """The journal (or snapshot) cannot be used as requested."""


@dataclass
class DurabilityStats:
    """Counters for one run's durability activity (see ``RunReport``)."""

    journal_appends: int = 0
    journal_replays: int = 0
    resumes: int = 0
    crashes_injected: int = 0
    torn_records_dropped: int = 0

    def merge(self, other: "DurabilityStats") -> None:
        self.journal_appends += other.journal_appends
        self.journal_replays += other.journal_replays
        self.resumes += other.resumes
        self.crashes_injected += other.crashes_injected
        self.torn_records_dropped += other.torn_records_dropped

    def as_dict(self) -> dict:
        return {
            "journal_appends": self.journal_appends,
            "journal_replays": self.journal_replays,
            "resumes": self.resumes,
            "crashes_injected": self.crashes_injected,
            "torn_records_dropped": self.torn_records_dropped,
        }

    @property
    def untouched(self) -> bool:
        """True when no durability machinery was exercised at all."""
        return not any(self.as_dict().values())


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------

def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, ensure_ascii=False).encode(
        "utf-8"
    )


def encode_record(record: dict) -> bytes:
    """Frame one record as a CRC-guarded JSONL line.

    The envelope is assembled around the canonical body directly (the
    record is not serialized a second time); readers recompute the CRC
    over the re-canonicalized record, so both sides agree byte-for-byte.
    """
    body = _canonical(record)
    return (
        b'{"crc": ' + str(zlib.crc32(body)).encode("ascii")
        + b', "record": ' + body + b"}\n"
    )


def decode_line(line: bytes) -> dict | None:
    """One framed line back to its record; ``None`` if torn/corrupt."""
    try:
        envelope = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(envelope, dict):
        return None
    record = envelope.get("record")
    if not isinstance(record, dict):
        return None
    if envelope.get("crc") != zlib.crc32(_canonical(record)):
        return None
    return record


@dataclass
class JournalScan:
    """The readable prefix of a journal file."""

    records: list[dict] = field(default_factory=list)
    #: Byte offset where the valid prefix ends (truncate point).
    valid_bytes: int = 0
    #: Lines dropped after the valid prefix (torn tail / corruption).
    dropped: int = 0


def scan_records(path: str | Path) -> JournalScan:
    """Read the valid record prefix of a CRC-framed JSONL file.

    Stops at the first unreadable line: a torn tail from a crash
    mid-append, or a flipped bit anywhere, invalidates that record and
    everything after it (later records may describe work that depended
    on the corrupt one).
    """
    scan = JournalScan()
    target = Path(path)
    if not target.exists():
        return scan
    with target.open("rb") as handle:
        offset = 0
        for line in handle:
            record = decode_line(line) if line.endswith(b"\n") else None
            if record is None:
                # Count every remaining line as dropped, then stop.
                rest = handle.read()
                scan.dropped = 1 + rest.count(b"\n")
                break
            scan.records.append(record)
            offset += len(line)
        scan.valid_bytes = offset
    return scan


class JournalWriter:
    """Append-only, fsync'd writer over the CRC framing.

    Shared by the build journal and the serve layer's on-disk
    write-attempt log.  ``append`` is a kill site —
    ``mid-journal-append`` by default; the attempt log passes
    ``kill_site="mid-serve-wal-append"`` so schedules can target the
    two independently.  An injected crash there leaves a deliberately
    torn tail (half a line, flushed but not fsync'd) that the reader
    must tolerate.
    """

    def __init__(self, path: str | Path, fsync: bool = True,
                 kill_site: str = "mid-journal-append"):
        self.path = Path(path)
        self.fsync = fsync
        self.kill_site = kill_site
        self._handle = None

    def open(self, truncate_to: int | None = None) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        if truncate_to is not None and self._handle.tell() != truncate_to:
            self._handle.truncate(truncate_to)
            self._handle.seek(truncate_to)

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    def append(self, record: dict) -> None:
        if self._handle is None:
            self.open()
        data = encode_record(record)
        try:
            kill_point(self.kill_site)
        except SimulatedCrash:
            # Model the torn write a real crash produces: part of the
            # line reaches the file, the fsync never happens.
            self._handle.write(data[: max(1, len(data) // 2)])
            self._handle.flush()
            raise
        self._handle.write(data)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# The build journal proper
# ---------------------------------------------------------------------------

class BuildJournal:
    """Completed build work, durably journaled and replayable.

    Record types:

    - ``meta``       — header: format version + the build fingerprint
      (service, mode, seed, chaos profile); a resume refuses to mix
      journals across fingerprints.
    - ``resource``   — one resource's completed extraction: serialized
      spec text, generation report, attempts, per-resource chaos-lane
      call count, usage delta, resilience-stats delta.
    - ``correction`` — one completed targeted correction (same payload,
      keyed by correction round + resource).
    - ``round``      — one completed alignment round: post-round spec
      text of every machine, the repairs applied, counters needed to
      fast-forward the chaos/usage state for later rounds.
    """

    def __init__(self, directory: str | Path, telemetry=None,
                 stats: DurabilityStats | None = None,
                 fsync: bool = True):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self.telemetry = telemetry
        self.stats = stats if stats is not None else DurabilityStats()
        self._writer = JournalWriter(self.path, fsync=fsync)
        self._records: list[dict] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self, meta: dict) -> None:
        """Begin a fresh journal (discarding any previous contents)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        self._records = []
        self._writer.open(truncate_to=0)
        self.append("meta", format_version=JOURNAL_FORMAT_VERSION, **meta)

    def resume(self, meta: dict) -> list[dict]:
        """Reopen an interrupted journal and return its replayable records.

        Tolerates a torn tail (dropped, counted, truncated away) and
        refuses a journal whose fingerprint does not match the build
        being resumed — resuming ``ec2 --chaos mild`` from a
        ``dynamodb`` journal can only produce garbage.
        """
        scan = scan_records(self.path)
        self.stats.torn_records_dropped += scan.dropped
        if scan.dropped and self.telemetry is not None:
            self.telemetry.counter("durability.torn_records_dropped").inc(
                scan.dropped
            )
        if not scan.records:
            self.start(meta)
            return []
        header = scan.records[0]
        if header.get("type") != "meta":
            raise DurabilityError(
                f"{self.path} does not start with a meta record; "
                "not a build journal"
            )
        if header.get("format_version") != JOURNAL_FORMAT_VERSION:
            raise DurabilityError(
                f"{self.path} has journal format "
                f"{header.get('format_version')!r}; this build writes "
                f"version {JOURNAL_FORMAT_VERSION}"
            )
        for key, expected in meta.items():
            found = header.get(key)
            if found != expected:
                raise DurabilityError(
                    f"journal fingerprint mismatch: {key}={found!r} on "
                    f"disk, {expected!r} requested — refusing to resume "
                    "a different build"
                )
        self._records = scan.records
        self._writer.open(truncate_to=scan.valid_bytes)
        self.stats.resumes += 1
        if self.telemetry is not None:
            self.telemetry.counter("durability.resumes").inc()
        return scan.records[1:]

    def close(self) -> None:
        self._writer.close()

    # -- writing -----------------------------------------------------------

    def append(self, record_type: str, **fields: object) -> None:
        record = {"type": record_type, **fields}
        self._writer.append(record)
        self._records.append(record)
        self.stats.journal_appends += 1
        if self.telemetry is not None:
            self.telemetry.counter(
                "durability.journal_appends", type=record_type
            ).inc()

    def replayed(self, count: int = 1) -> None:
        """Account ``count`` records replayed instead of re-executed."""
        self.stats.journal_replays += count
        if self.telemetry is not None:
            self.telemetry.counter("durability.journal_replays").inc(count)

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def of_type(self, record_type: str) -> list[dict]:
        return [r for r in self._records if r.get("type") == record_type]

    def resource_replay(self) -> dict[str, dict]:
        """Completed extraction records by resource name."""
        return {r["name"]: r for r in self.of_type("resource")}

    def correction_replay(self) -> dict[tuple[int, str], dict]:
        """Completed correction records by (round, resource name)."""
        return {
            (r["round"], r["name"]): r for r in self.of_type("correction")
        }

    def round_records(self) -> list[dict]:
        """Completed alignment rounds, in index order, contiguous from 0.

        A gap means the journal was produced by something other than
        the loop's append discipline; replaying past a gap would apply
        repairs to a module state they were never made against.
        """
        rounds = sorted(self.of_type("round"), key=lambda r: r["index"])
        contiguous: list[dict] = []
        for expected, record in enumerate(rounds):
            if record["index"] != expected:
                raise DurabilityError(
                    f"journal rounds are not contiguous: expected round "
                    f"{expected}, found {record['index']}"
                )
            contiguous.append(record)
        return contiguous


def as_journal(value, telemetry=None) -> "BuildJournal | None":
    """Normalize a journal argument (a directory path, an instance, or
    ``None`` for no journaling)."""
    if value is None:
        return None
    if isinstance(value, BuildJournal):
        if telemetry is not None and value.telemetry is None:
            value.telemetry = telemetry
        return value
    return BuildJournal(value, telemetry=telemetry)
