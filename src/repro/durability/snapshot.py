"""Versioned emulator snapshots: the registry, deep-dumped to JSON.

A snapshot captures everything a serving emulator accumulated — every
machine instance's identity, type, parent link and state variables,
plus the deterministic ID counters — so a fresh process can
:meth:`~repro.interpreter.emulator.Emulator.restore` it and continue
exactly where the dead one stopped.  Combined with the serve layer's
write-attempt log (:class:`~repro.serve.concurrency.AdmittedLog`),
restore-then-replay reaches the precise pre-crash state;
:func:`registry_diff` is the equivalence check that proves it.

State values are encoded with a small tagged codec because SM state is
Python data, not JSON: tuples, sets and non-string dict keys all occur
in principle and must round-trip exactly (a tuple that comes back as a
list would change ``in``/equality semantics inside transition bodies).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .atomic import atomic_write
from .journal import DurabilityError

if TYPE_CHECKING:
    from ..interpreter.machine import InstanceMap, Registry

SNAPSHOT_FORMAT_VERSION = 1

_TAG = "$repro"


def encode_value(value: object) -> object:
    """Lower one state value to JSON-safe data, losslessly."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, set):
        items = [encode_value(item) for item in value]
        # Sets are unordered; sort the encodings so identical sets
        # produce identical snapshots (byte-level diffing depends on it).
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {_TAG: "set", "v": items}
    if isinstance(value, dict):
        if _TAG in value or not all(isinstance(k, str) for k in value):
            return {
                _TAG: "dict",
                "v": [
                    [encode_value(k), encode_value(v)]
                    for k, v in value.items()
                ],
            }
        return {key: encode_value(item) for key, item in value.items()}
    # A transaction Handle leaking into committed state is stored by
    # identity, matching how the evaluator flattens it on assignment.
    instance_id = getattr(value, "instance_id", None)
    if isinstance(instance_id, str):
        return instance_id
    raise DurabilityError(
        f"cannot snapshot state value of type {type(value).__name__}: "
        f"{value!r}"
    )


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag == "tuple":
            return tuple(decode_value(item) for item in value["v"])
        if tag == "set":
            return {decode_value(item) for item in value["v"]}
        if tag == "dict":
            return {
                decode_value(k): decode_value(v) for k, v in value["v"]
            }
        return {key: decode_value(item) for key, item in value.items()}
    return value


def _instance_entry(instance) -> dict:
    """One instance's snapshot entry."""
    return {
        "id": instance.id,
        "sm": instance.type_name,
        "parent_id": instance.parent_id,
        "state": {
            name: encode_value(value)
            for name, value in instance.state.items()
        },
    }


def _dump_state(counters: dict, instances: InstanceMap,
                placements: dict) -> dict:
    """The shared dump body: counters, encoded instances, placements.

    Instance order matters: the instance map's iteration order *is*
    creation order, and dependency scans iterate it — a restore that
    reordered instances would be observably different.
    """
    dump = {
        "counters": dict(counters),
        "instances": [
            _instance_entry(instance) for instance in instances.values()
        ],
    }
    # Region placements ride along only when a regional front door
    # assigned any, so non-regional snapshots stay byte-identical to
    # the pre-netem format.
    if placements:
        dump["placements"] = dict(placements)
    return dump


def registry_dump(registry: Registry) -> dict:
    """One live registry as deterministic plain data."""
    return _dump_state(
        registry._counters, registry.instances,
        getattr(registry, "placements", None) or {},
    )


def version_dump(version) -> dict:
    """One pinned :class:`~repro.interpreter.machine.RegistryVersion`
    as deterministic plain data — same format as :func:`registry_dump`.

    A version is immutable, so this dump needs no locking: the MVCC
    serve path uses it to snapshot a serving emulator while writers
    keep publishing, and the result can never be torn.
    """
    return _dump_state(version.counters, version.instances,
                       version.placements)


def snapshot_registry(registry: Registry) -> dict:
    """A versioned, restorable snapshot of one emulator's registry
    (log cursor ``wal_seq`` 0: see :func:`snapshot_version`)."""
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "wal_seq": 0,
        **registry_dump(registry),
    }


def snapshot_version(version) -> dict:
    """A restorable snapshot of one *pinned* registry version.

    Byte-identical to what :func:`snapshot_registry` would have
    produced at the moment the version was published, except that
    ``wal_seq`` is the write-attempt log cursor stamped onto the
    version at publish.
    """
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "wal_seq": version.wal_seq,
        **version_dump(version),
    }


def restore_registry(snapshot: dict, machines: dict) -> Registry:
    """Rebuild a registry from a snapshot against its spec module.

    Specs are not serialized into the snapshot — they live in the saved
    module; the snapshot references them by SM name and a restore into
    a module that lacks one of those SMs is refused.
    """
    # Imported here: the interpreter imports this module at load time.
    from ..interpreter.machine import InstanceMap, MachineInstance, Registry

    version = snapshot.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise DurabilityError(
            f"snapshot format {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    registry = Registry()
    registry._counters.update(snapshot.get("counters", {}))
    registry.placements.update(snapshot.get("placements", {}))
    base = {}
    for entry in snapshot.get("instances", []):
        sm_name = entry["sm"]
        spec = machines.get(sm_name)
        if spec is None:
            raise DurabilityError(
                f"snapshot references SM {sm_name!r} which the loaded "
                "module does not define"
            )
        base[entry["id"]] = MachineInstance(
            id=entry["id"],
            spec=spec,
            state={
                name: decode_value(value)
                for name, value in entry["state"].items()
            },
            parent_id=entry.get("parent_id", ""),
        )
    # The restored instances become the map's ``base`` in one step:
    # nothing is routed through the live write path.
    registry.instances = InstanceMap(base)
    return registry


def registry_diff(expected: dict, actual: dict) -> list[str]:
    """Human-readable divergences between two registry dumps.

    Empty list == byte-equivalent registries; this is the
    replay-equivalence check for snapshot + WAL restore.
    """
    diffs: list[str] = []
    if expected.get("counters") != actual.get("counters"):
        diffs.append(
            f"id counters differ: {expected.get('counters')} != "
            f"{actual.get('counters')}"
        )
    if expected.get("placements", {}) != actual.get("placements", {}):
        diffs.append(
            f"region placements differ: {expected.get('placements', {})} "
            f"!= {actual.get('placements', {})}"
        )
    left = expected.get("instances", [])
    right = actual.get("instances", [])
    left_ids = [entry["id"] for entry in left]
    right_ids = [entry["id"] for entry in right]
    if left_ids != right_ids:
        missing = set(left_ids) - set(right_ids)
        extra = set(right_ids) - set(left_ids)
        if missing:
            diffs.append(f"instances missing after restore: {sorted(missing)}")
        if extra:
            diffs.append(f"unexpected instances after restore: {sorted(extra)}")
        if not missing and not extra:
            diffs.append("instance creation order differs")
        return diffs
    for want, got in zip(left, right):
        for key in ("sm", "parent_id", "state"):
            if want.get(key) != got.get(key):
                diffs.append(
                    f"{want['id']}: {key} differs: "
                    f"{want.get(key)!r} != {got.get(key)!r}"
                )
    return diffs


def write_snapshot(path: str | Path, snapshot: dict,
                   fsync: bool = True) -> Path:
    """Persist a snapshot atomically (crash leaves old or new, whole).

    Compact separators keep ``json.dumps`` on CPython's C encoder
    (``indent`` forces the pure-Python one); every reader parses the
    file with ``json.loads``.  ``fsync=False`` skips the durability
    flushes (see :func:`~repro.durability.atomic.atomic_write`)."""
    return atomic_write(path, _dumps(snapshot) + "\n", fsync=fsync)


def read_snapshot(path: str | Path) -> dict:
    target = Path(path)
    try:
        snapshot = json.loads(target.read_text())
    except FileNotFoundError:
        raise DurabilityError(f"no snapshot at {target}") from None
    except json.JSONDecodeError as error:
        raise DurabilityError(
            f"snapshot {target} is corrupt: {error}"
        ) from None
    if not isinstance(snapshot, dict):
        raise DurabilityError(f"snapshot {target} is not a JSON object")
    return snapshot


def _dumps(value: object) -> str:
    """The JSON every snapshot file is written in: compact, keys sorted."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _object_text(members: dict[str, str]) -> str:
    """A JSON object from already-encoded member values, its keys in
    the order ``json.dumps(sort_keys=True)`` puts them."""
    return "{" + ",".join(
        f"{json.dumps(key)}:{members[key]}" for key in sorted(members)
    ) + "}"


class SnapshotEncoder:
    """One registry's snapshot file text, re-encoding only what changed.

    Committed instances are copy-on-write (:meth:`Transaction.commit`
    replaces an instance, never mutates it), so an instance's encoded
    entry holds for as long as that same object sits in the registry.
    The encoder keeps each id's instance and entry text from its
    earlier calls; :meth:`text` encodes only the instances whose object
    changed and joins the cached entries, so beyond one pass over the
    ids and the join its cost is O(changed instances), not O(registry).
    """

    __slots__ = ("_instances", "_texts", "encoded")

    def __init__(self):
        self._instances: dict[str, object] = {}
        self._texts: dict[str, str] = {}
        #: Instance entries encoded so far (cache misses).
        self.encoded = 0

    def text(self, version, **outer) -> str:
        """What :func:`write_snapshot` writes for
        ``{**outer, "snapshot": snapshot_version(version)}``, byte for
        byte."""
        instances, texts = self._instances, self._texts
        fragments = []
        for instance_id, instance in version.instances.items():
            if instances.get(instance_id) is not instance:
                instances[instance_id] = instance
                texts[instance_id] = _dumps(_instance_entry(instance))
                self.encoded += 1
            fragments.append(texts[instance_id])
        if len(instances) > 2 * len(fragments) + 64:
            # Forget the ids that are gone, and the instances they hold.
            self._instances = dict(version.instances.items())
            self._texts = {key: texts[key] for key in self._instances}
        snapshot = {
            "format_version": _dumps(SNAPSHOT_FORMAT_VERSION),
            "wal_seq": _dumps(version.wal_seq),
            "counters": _dumps(version.counters),
            # A mark for the instance entries, joined in below with one
            # copy: JSON text escapes NUL, so it occurs nowhere else.
            "instances": "[\0]",
        }
        if version.placements:
            snapshot["placements"] = _dumps(version.placements)
        members = {key: _dumps(value) for key, value in outer.items()}
        members["snapshot"] = _object_text(snapshot)
        head, tail = (_object_text(members) + "\n").split("\0")
        return "".join((head, ",".join(fragments), tail))
