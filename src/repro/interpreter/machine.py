"""Runtime state machines, transactions and handles.

Every cloud resource is one :class:`MachineInstance` — an SM spec plus
its current state variables (§3).  Transitions execute inside a
:class:`Transaction` so that a failed ``assert`` rolls back *all* state
effects, including those made through cross-SM ``call``s: cloud APIs
are atomic, and the paper's alignment methodology assumes failed calls
leave no trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spec import ast
from .errors import CloudError, INTERNAL_FAILURE


@dataclass(slots=True)
class MachineInstance:
    """One live resource: identity, spec, and committed state."""

    id: str
    spec: ast.SMSpec
    state: dict[str, object] = field(default_factory=dict)
    parent_id: str = ""

    @property
    def type_name(self) -> str:
        return self.spec.name


class Transaction:
    """Copy-on-write overlay over a registry for one API invocation.

    Reads see pending writes; :meth:`commit` publishes writes, creations
    and deletions atomically.  Abandoning the transaction (on a
    :class:`CloudError`) leaves the registry untouched.

    ``registry`` may also be a pinned :class:`RegistryVersion` for
    overlay *reads* that are never committed (the reference evaluation
    the drift monitor runs against a version); such transactions must
    never reach :meth:`commit`.
    """

    __slots__ = ("registry", "_writes", "_created", "_deleted", "_seen")

    def __init__(self, registry: "Registry | RegistryVersion"):
        self.registry = registry
        self._writes: dict[str, dict[str, object]] = {}
        self._created: dict[str, MachineInstance] = {}
        self._deleted: set[str] = set()
        #: Every instance this transaction has resolved or created, so
        #: each is looked up in the registry once (the registry cannot
        #: change under a transaction: writers are serialized).
        self._seen: dict[str, MachineInstance] = {}

    # -- instance access -----------------------------------------------------

    def instance(self, instance_id: str) -> MachineInstance | None:
        if instance_id in self._deleted:
            return None
        found = self._seen.get(instance_id)
        if found is None:
            instances = self.registry.instances
            delta = instances.delta
            found = (delta if instance_id in delta else instances.base).get(
                instance_id
            )
            if found is not None:
                self._seen[instance_id] = found
        return found

    def get_state(self, instance_id: str, name: str) -> object:
        pending = self._writes.get(instance_id)
        if pending is not None and name in pending:
            return pending[name]
        instance = self._seen.get(instance_id)
        if instance is None or instance_id in self._deleted:
            instance = self.instance(instance_id)
            if instance is None:
                raise CloudError(
                    INTERNAL_FAILURE, f"dangling reference {instance_id}"
                )
        return instance.state.get(name)

    def state_of(self, instance_id: str) -> dict[str, object]:
        """The instance's state as one mapping (overlay merged in).

        Compiled fused reads fetch this once per run of consecutive
        reads instead of paying the per-name overlay lookup.  The
        merge only copies when the transaction has pending writes for
        the instance; the result must be treated as read-only.
        """
        instance = self.instance(instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        pending = self._writes.get(instance_id)
        if pending:
            return {**instance.state, **pending}
        return instance.state

    def set_state(self, instance_id: str, name: str, value: object) -> None:
        if instance_id in self._deleted or (
            instance_id not in self._seen and self.instance(instance_id) is None
        ):
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        pending = self._writes.get(instance_id)
        if pending is None:
            pending = self._writes[instance_id] = {}
        pending[name] = value

    def create(self, instance: MachineInstance) -> None:
        self._created[instance.id] = instance
        self._seen[instance.id] = instance

    def mark_deleted(self, instance_id: str) -> None:
        self._deleted.add(instance_id)

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        """Publish writes, creations and deletions atomically.

        Commit is copy-on-write: an instance that existed before this
        transaction is *replaced* by a fresh :class:`MachineInstance`
        carrying the merged state, never mutated in place, and every
        change lands in the live :class:`InstanceMap`'s ``delta``.  A
        published :class:`RegistryVersion` therefore shares untouched
        instances (and the whole ``base``) with the live registry, and
        a pinned reader can never observe a half-applied commit — the
        MVCC serve path depends on it.  (State *values* are already
        safe to share: the spec language treats lists and maps as
        values, so builtins return fresh objects instead of mutating.)
        """
        registry = self.registry
        instances = registry.instances
        created = self._created
        deleted = self._deleted
        for instance in created.values():
            instances.set(instance.id, instance)
        for instance_id, writes in self._writes.items():
            if instance_id in deleted:
                continue
            fresh = created.get(instance_id)
            if fresh is not None:
                # Created in this same transaction: the object is
                # fresh, no published version can reference it yet.
                fresh.state.update(writes)
                continue
            target = instances.get(instance_id)
            if target is not None:
                # A replacement keeps the id's slot in iteration
                # (creation) order, which snapshots and dependency
                # scans rely on.
                instances.replace(instance_id, MachineInstance(
                    target.id, target.spec, {**target.state, **writes},
                    target.parent_id,
                ))
        for instance_id in deleted:
            instances.discard(instance_id)
        if created or self._writes or deleted:
            registry.mutations += 1


class ReadOnlyView:
    """A transaction-shaped, zero-overlay view over a registry.

    The compiled fast path uses one (shared, stateless) instance per
    emulator to dispatch statically effect-free transitions — mostly
    describes — without paying for a :class:`Transaction` that could
    never accumulate writes.  It implements exactly the read subset of
    the transaction interface that such transitions can reach.

    ``registry`` may be the live :class:`Registry` or a pinned
    :class:`RegistryVersion` — only the ``instances`` map is read, so
    the MVCC serve path reuses this view unchanged over immutable
    versions.  Lookups go straight to the map's ``delta`` and ``base``
    dicts: two C-level dict operations, no Python-level call.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: "Registry | RegistryVersion"):
        self.registry = registry

    def instance(self, instance_id: str) -> MachineInstance | None:
        instances = self.registry.instances
        delta = instances.delta
        return (delta if instance_id in delta else instances.base).get(
            instance_id
        )

    def get_state(self, instance_id: str, name: str) -> object:
        instances = self.registry.instances
        delta = instances.delta
        instance = (delta if instance_id in delta else instances.base).get(
            instance_id
        )
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        return instance.state.get(name)

    def state_of(self, instance_id: str) -> dict[str, object]:
        instances = self.registry.instances
        delta = instances.delta
        instance = (delta if instance_id in delta else instances.base).get(
            instance_id
        )
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        return instance.state


class Handle:
    """A transaction-scoped reference to a machine instance.

    This is what ``self`` and SM-typed values evaluate to inside a
    transition body; attribute access reads through the transaction
    overlay so cross-SM calls observe each other's pending writes.
    """

    __slots__ = ("txn", "instance_id")

    def __init__(self, txn: Transaction, instance_id: str):
        self.txn = txn
        self.instance_id = instance_id

    @property
    def id(self) -> str:
        return self.instance_id

    @property
    def spec(self) -> ast.SMSpec:
        instance = self.txn.instance(self.instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling handle {self.instance_id}")
        return instance.spec

    def get(self, name: str) -> object:
        if name == "id":
            return self.instance_id
        return self.txn.get_state(self.instance_id, name)

    def set(self, name: str, value: object) -> None:
        self.txn.set_state(self.instance_id, name, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Handle):
            return self.instance_id == other.instance_id
        if isinstance(other, str):
            return self.instance_id == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.instance_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Handle({self.instance_id})"


class InstanceMap:
    """Instance id -> :class:`MachineInstance`, copy-on-write in two levels.

    ``base`` is a plain dict that is never mutated once a published
    version shares it.  ``delta`` holds what changed since the last
    compaction: replacements, creations, and ``None`` tombstones for
    deleted ``base`` entries.  The live registry writes only into
    ``delta``, and :meth:`freeze` hands a version the shared
    ``base`` plus a copy of ``delta``, so publishing costs
    O(``len(delta)``), not O(live instances).  Once ``len(delta)``
    exceeds about 2·√n, the live map folds ``delta`` into a *new*
    ``base`` and starts an empty ``delta`` — each compaction costs
    O(n) and comes after about 2·√n writes, so both the publish copy
    and the amortised compaction stay O(√n) per write.

    Iteration is plain-dict order: creation order, with a replacement
    keeping its slot.  ``base | delta`` yields exactly that because
    instance ids are never reused within one registry, which keeps
    snapshots byte-identical to a flat dict's.  Hot read paths
    (:class:`ReadOnlyView`, :class:`Transaction`) resolve ids through
    ``delta``/``base`` directly rather than through :meth:`get`.
    """

    __slots__ = ("base", "delta", "_len")

    def __init__(self, base: dict[str, MachineInstance] | None = None):
        self.base: dict[str, MachineInstance] = {} if base is None else base
        self.delta: dict[str, MachineInstance | None] = {}
        self._len = len(self.base)

    # -- reads ---------------------------------------------------------------

    def get(self, instance_id: str) -> MachineInstance | None:
        delta = self.delta
        return (delta if instance_id in delta else self.base).get(instance_id)

    def __contains__(self, instance_id: object) -> bool:
        return self.get(instance_id) is not None

    def __len__(self) -> int:
        return self._len

    def _merged(self) -> dict[str, MachineInstance | None]:
        """``base`` overlaid with ``delta``, tombstones still in."""
        return self.base | self.delta if self.delta else self.base

    def items(self):
        return (
            (instance_id, instance)
            for instance_id, instance in self._merged().items()
            if instance is not None
        )

    def values(self):
        return (
            instance for instance in self._merged().values()
            if instance is not None
        )

    def __iter__(self):
        return (instance_id for instance_id, __ in self.items())

    # -- the live map's writes -------------------------------------------------

    def set(self, instance_id: str, instance: MachineInstance) -> None:
        """Create or replace one instance."""
        if self.get(instance_id) is None:
            self._len += 1
        self._put(instance_id, instance)

    def replace(self, instance_id: str, instance: MachineInstance) -> None:
        """Replace one instance that is present."""
        self._put(instance_id, instance)

    def discard(self, instance_id: str) -> None:
        """Delete one instance if it is present."""
        if self.get(instance_id) is None:
            return
        self._len -= 1
        if instance_id in self.base:
            self._put(instance_id, None)
        else:
            del self.delta[instance_id]

    def _put(self, instance_id: str, instance: MachineInstance | None) -> None:
        delta = self.delta
        delta[instance_id] = instance
        if len(delta) ** 2 > 4 * max(self._len, 1024):
            # A *new* base (``delta`` is non-empty, so ``base | delta``
            # copies): published versions still share the old one.
            base = self._merged()
            for gone in [key for key, value in delta.items() if value is None]:
                del base[gone]
            self.base = base
            self.delta = {}

    def freeze(self) -> "InstanceMap":
        """An immutable copy for a published version: shares ``base``."""
        frozen = InstanceMap.__new__(InstanceMap)
        frozen.base = self.base
        frozen.delta = self.delta.copy()
        frozen._len = self._len
        return frozen


class _RegistryReads:
    """The read surface :class:`Registry` and :class:`RegistryVersion`
    share: both carry ``instances`` (an :class:`InstanceMap`) and
    ``placements``."""

    __slots__ = ()

    def get(self, instance_id: str) -> MachineInstance | None:
        return self.instances.get(instance_id)

    def of_type(self, sm_name: str) -> list[MachineInstance]:
        return [
            instance
            for instance in self.instances.values()
            if instance.type_name == sm_name
        ]

    def region_of(self, instance_id: str, default: str = "") -> str:
        return self.placements.get(instance_id, default)

    def __len__(self) -> int:
        return len(self.instances)


class RegistryVersion(_RegistryReads):
    """One immutable published registry state (MVCC read snapshot).

    Built by :meth:`Registry.publish` under the serve layer's writer
    mutex and handed to readers, which dispatch against it with zero
    locking.  ``instances`` is a frozen :class:`InstanceMap` that
    shares the live map's ``base`` and owns a copy of its small
    ``delta`` — safe because :meth:`Transaction.commit` replaces
    rather than mutates committed instances and never writes into a
    shared ``base`` — so publishing costs O(instances changed since
    the last compaction), and consecutive versions share every
    untouched instance structurally.

    ``wal_seq`` is stamped by the serve layer at publish time (the seq
    of the last logged write attempt the version covers) so a snapshot
    dumped from a pinned version carries the correct recovery cursor.
    A version references nothing that references it back, so it is
    freed (with the instances only it still holds) the moment its last
    reader lets go, without waiting for the cycle collector.
    """

    __slots__ = (
        "version", "instances", "counters", "placements", "wal_seq",
    )

    def __init__(self, version: int, instances: InstanceMap,
                 counters: dict[str, int], placements: dict[str, str]):
        self.version = version
        self.instances = instances
        self.counters = counters
        self.placements = placements
        self.wal_seq = 0

    # -- mutation surface: refused loudly ------------------------------------

    def _immutable(self, op: str):
        raise RuntimeError(
            f"registry version {self.version} is immutable: {op} must "
            "run against the live registry under the writer mutex"
        )

    def new_id(self, sm_name: str) -> str:
        self._immutable("new_id")

    def create(self, spec, defaults, parent_id: str = ""):
        self._immutable("create")

    def place(self, instance_id: str, region: str) -> None:
        self._immutable("place")


class Registry(_RegistryReads):
    """All live resources of one emulated cloud, plus ID generation.

    IDs are deterministic per resource type (``vpc-00000001``), so two
    runs of the same DevOps program produce identical traces — a
    property both the tests and the alignment differ rely on.  An id
    is never reused, which is what lets :class:`InstanceMap` keep
    plain-dict iteration order.

    The registry is also the MVCC publication point: every observable
    mutation bumps ``mutations``, and :meth:`publish` turns the
    current state into an immutable :class:`RegistryVersion` (cached
    while nothing changed) at a cost proportional to the instance
    map's ``delta``, not to the registry.  Publishing is only ever
    done by the serve layer's single writer; plain single-threaded use
    never pays for it.
    """

    def __init__(self):
        self.instances = InstanceMap()
        self._counters: dict[str, int] = {}
        #: resource id -> home region, for network-realistic serving
        #: (:mod:`repro.netem`).  Empty unless a regional front door is
        #: placing resources; snapshots carry it only when non-empty,
        #: so non-regional runs stay byte-identical to before.
        self.placements: dict[str, str] = {}
        #: Monotonic mutation tick: bumped by ID allocation, commit
        #: and placement, so :meth:`publish` knows when the cached
        #: version is still current.
        self.mutations = 0
        #: The number of the most recently published version.  The
        #: emulator carries it across :meth:`reset`/``restore`` so the
        #: serve layer's version chain stays monotonic.
        self.version = 0
        self._published: RegistryVersion | None = None
        self._published_tick = -1

    def publish(self) -> RegistryVersion:
        """The current state as an immutable version (cached).

        Must be called with writes excluded (the serve layer's writer
        mutex); readers then pin the returned object and never touch
        the live registry again.
        """
        published = self._published
        if published is not None and self._published_tick == self.mutations:
            return published
        self.version += 1
        # Counters change only on creates and placements only when the
        # front door places a resource, so most versions share both
        # maps with their predecessor instead of copying them.
        counters = self._counters
        placements = self.placements
        if published is not None:
            if counters == published.counters:
                counters = published.counters
            if placements == published.placements:
                placements = published.placements
        published = RegistryVersion(
            self.version, self.instances.freeze(),
            counters.copy() if counters is self._counters else counters,
            placements.copy() if placements is self.placements
            else placements,
        )
        self._published = published
        self._published_tick = self.mutations
        return published

    def new_id(self, sm_name: str) -> str:
        count = self._counters.get(sm_name, 0) + 1
        self._counters[sm_name] = count
        self.mutations += 1
        prefix = "".join(part[0] for part in sm_name.split("_")) if len(
            sm_name
        ) > 12 else sm_name
        return f"{prefix}-{count:08d}"

    def create(
        self, spec: ast.SMSpec, defaults: dict[str, object], parent_id: str = ""
    ) -> MachineInstance:
        """A new instance of ``spec`` with a fresh id.  The instance
        takes ``defaults`` as its state dict: pass a fresh one."""
        return MachineInstance(
            id=self.new_id(spec.name),
            spec=spec,
            state=defaults,
            parent_id=parent_id,
        )

    def place(self, instance_id: str, region: str) -> None:
        """Record (or move) a resource's home region."""
        if region:
            self.placements[instance_id] = region
        else:
            self.placements.pop(instance_id, None)
        self.mutations += 1
