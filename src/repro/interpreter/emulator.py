"""The emulator front-end: cloud API in, API response out.

This is the component a DevOps program talks to instead of the real
cloud.  It dispatches each API call to the owning SM's transition
(via a dispatch table precomputed at construction), manages instance
lifecycle (create/destroy categories), binds request parameters, and
wraps evaluation in a transaction so failures roll back atomically.

Two execution paths share the same dispatch and binding code:

- the default ``compile=True`` path runs transition bodies lowered to
  Python closures (:mod:`repro.interpreter.compiler`);
- ``compile=False`` keeps everything on the tree-walking
  :class:`~repro.interpreter.evaluator.Evaluator`, the reference
  implementation the compiler must match observably.
"""

from __future__ import annotations

from functools import lru_cache

from ..durability.snapshot import restore_registry, snapshot_registry
from ..resilience.errors import TransientServiceError
from ..resilience.killswitch import kill_point
from ..resilience.policy import Deadline
from ..spec import ast
from .compiler import compile_module, CompiledModule, Runtime
from .errors import (
    ApiResponse,
    CloudError,
    default_notfound_code,
    INVALID_PARAMETER,
    MISSING_PARAMETER,
    UNKNOWN_API,
)
from .evaluator import Evaluator, evaluate_defaults
from .machine import Handle, ReadOnlyView, Registry, Transaction


@lru_cache(maxsize=4096)
def normalize_key(key: str) -> str:
    """Normalize a parameter key: ``VpcId`` == ``vpc_id`` == ``vpcid``.

    Memoized: the same few dozen parameter names arrive on every call,
    and request keys come from a similarly small client vocabulary
    (the cache is bounded in case they do not).
    """
    return key.replace("_", "").replace("-", "").lower()


#: Upper bound on :func:`normalize_params`' cache of key shapes.
KEY_SHAPE_CACHE_SIZE = 4096

#: Longest key shape (total characters over its keys) the cache keeps;
#: longer shapes are normalized per request, so a client cannot park
#: large keys in process memory.
KEY_SHAPE_CACHED_LENGTH = 256

#: A request's keys, in order -> their normalized names.
_KEY_SHAPES: dict[tuple, tuple[str, ...]] = {}


def normalize_params(params: dict) -> dict:
    """``params`` keyed by normalized names (:func:`normalize_key`).

    When two keys normalize alike, the later one wins.  Requests of
    one API arrive with the same few key shapes, so the names are
    computed once per shape (bounded cache) and both the serve path's
    validator and the emulator's binder reuse them.
    """
    shape = tuple(params)
    names = _KEY_SHAPES.get(shape)
    if names is None:
        names = tuple(map(normalize_key, shape))
        if sum(map(len, shape)) <= KEY_SHAPE_CACHED_LENGTH:
            if len(_KEY_SHAPES) >= KEY_SHAPE_CACHE_SIZE:
                _KEY_SHAPES.clear()
            _KEY_SHAPES[shape] = names
    return dict(zip(names, params.values()))


class _DispatchEntry:
    """Everything ``invoke`` needs about one API, resolved once.

    Hoists the per-call work the old dispatch loop repeated on every
    invocation: spec lookup, category tests, parameter-name
    normalization, subject-resolution strategy, and the not-found
    error code.
    """

    __slots__ = (
        "api", "sm_name", "spec", "transition", "bare_describe",
        "is_create", "is_destroy", "param_plan", "id_key", "id_params",
        "self_params", "notfound", "compiled", "pure_compiled", "parent",
        "defaults", "id_field",
    )

    def __init__(self, api: str, sm_name: str, spec: ast.SMSpec,
                 transition: ast.Transition, notfound: str, compiled,
                 defaults):
        self.api = api
        self.sm_name = sm_name
        self.spec = spec
        self.transition = transition
        self.notfound = notfound
        self.compiled = compiled
        #: A create's parent: the first SM-typed parameter naming an
        #: instance of this parent type.
        self.parent = spec.parent if transition.category == "create" else ""
        #: Zero-argument callable building a fresh instance's state.
        self.defaults = defaults
        self.bare_describe = (
            transition.category == "describe" and not transition.params
        )
        self.is_create = transition.category == "create"
        self.is_destroy = transition.category == "destroy"
        # Effect-free non-lifecycle transitions may dispatch without a
        # transaction (creates allocate, destroys mark-delete — both
        # need one regardless of the body).
        self.pure_compiled = (
            compiled
            if (
                compiled is not None
                and compiled.pure
                and not self.is_create
                and not self.is_destroy
            )
            else None
        )
        self.param_plan = tuple(
            (
                param.name,
                normalize_key(param.name),
                param.type.kind == "sm",
                param.type.sm_name,
            )
            for param in transition.params
        )
        #: The response key a create reports its new id under.
        self.id_field = f"{sm_name}_id"
        self.id_key = normalize_key(f"{spec.name}_id")
        self.id_params = tuple(
            param.name for param in transition.params
            if normalize_key(param.name) == self.id_key
        )
        self.self_params = tuple(
            param.name for param in transition.params
            if param.type.kind == "sm" and param.type.sm_name == spec.name
        )


class Emulator:
    """Executes a spec module as a mock cloud.

    Parameters
    ----------
    module:
        The executable specification (one service's SMs).
    notfound_codes:
        Per-resource-type overrides for the not-found error code, as
        extracted from documentation (e.g. DynamoDB uses
        ``ResourceNotFoundException`` instead of the EC2-style
        ``InvalidVpcID.NotFound``).
    compile:
        Lower transition bodies to closures at construction (default).
        Transitions the compiler cannot lower — or whose bodies are
        mutated after construction — transparently run on the
        evaluator instead.
    compiled:
        A :func:`compile_module` result for this same ``module``, to
        share between emulator instances (closures are stateless, so
        e.g. sharded differential passes compile once per round, not
        once per shard).  Overrides ``compile``.
    """

    def __init__(
        self,
        module: ast.SpecModule,
        notfound_codes: dict[str, str] | None = None,
        telemetry=None,
        compile: bool = True,
        compiled: CompiledModule | None = None,
    ):
        self.module = module
        self.notfound_codes = dict(notfound_codes or {})
        self.registry = Registry()
        self._index = module.transition_index()
        self._compiled: CompiledModule | None = (
            compiled if compiled is not None
            else compile_module(module) if compile
            else None
        )
        self._dispatch: dict[str, _DispatchEntry] = {}
        for api, (sm_name, transition) in self._index.items():
            if api.startswith("_"):
                continue  # helper transitions are not externally callable
            spec = module.machines[sm_name]
            self._dispatch[api] = _DispatchEntry(
                api, sm_name, spec, transition, self._notfound(sm_name),
                self._compiled.lookup(sm_name, api)
                if self._compiled is not None else None,
                self._defaults(sm_name, spec),
            )
        self._roview = ReadOnlyView(self.registry)
        self._version_rt: Runtime | None = None
        self._ro_rt = (
            Runtime(
                self._roview, self.registry, module.machines, self._compiled
            )
            if self._compiled is not None
            else None
        )
        #: Optional run sink; ``None`` keeps the dispatch hot path
        #: exactly as fast as an un-instrumented emulator.
        self._telemetry = telemetry

    # -- public API ------------------------------------------------------------

    @property
    def compiled(self) -> bool:
        """Whether this emulator runs the compiled fast path."""
        return self._compiled is not None

    def api_names(self) -> list[str]:
        """Every public cloud API this emulator responds to."""
        return sorted(self._dispatch)

    def supports(self, api: str) -> bool:
        return api in self._dispatch

    def read_only(self, api: str) -> bool:
        """Whether ``api`` can never mutate the registry.

        True for bare describes (list-class APIs), for transitions the
        compiler proved effect-free (the pure route), and for unknown
        APIs (which fail before touching state).  The serving layer
        uses this to route read traffic through a shared lock while
        writes serialize — the classification must therefore be
        *conservative*: a transition whose compiled body has gone
        stale (mutated after construction) re-classifies as a write.
        """
        entry = self._dispatch.get(api)
        if entry is None:
            return True
        if entry.bare_describe:
            return True
        pure = entry.pure_compiled
        return pure is not None and pure.fresh(entry.transition)

    def reset(self) -> None:
        """Drop all emulated resources (fresh mock cloud)."""
        prior = self.registry.version
        self.registry = Registry()
        # Carry the published-version counter across the swap so the
        # serve layer's version chain stays monotonic over resets.
        self.registry.version = prior
        self._rebind_registry()

    def _rebind_registry(self) -> None:
        self._roview = ReadOnlyView(self.registry)
        if self._compiled is not None:
            self._ro_rt = Runtime(
                self._roview, self.registry, self.module.machines,
                self._compiled,
            )

    # -- durability ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A versioned, restorable dump of all live resource state.

        Its ``wal_seq`` is 0: the serve layer logs write attempts and
        stamps the log cursor a snapshot covers (see
        :class:`~repro.serve.concurrency.ConcurrentEmulator`)."""
        return snapshot_registry(self.registry)

    def restore(self, snapshot: dict) -> None:
        """Replace all live state with a snapshot's (same module).

        Restoring never mutates a published version: the registry
        object is swapped wholesale, so readers pinned to an older
        version keep reading it untouched, and the next publish comes
        out as a *new* (still monotonically numbered) version.
        """
        prior = self.registry.version
        self.registry = restore_registry(snapshot, self.module.machines)
        self.registry.version = prior
        self._rebind_registry()

    # -- MVCC ------------------------------------------------------------------

    def publish_version(self):
        """Publish (or reuse) the current registry state as an
        immutable :class:`~repro.interpreter.machine.RegistryVersion`.

        Must be called with writers excluded — the serve layer does so
        under its writer mutex after every mutating dispatch, and
        stamps the returned version with the log cursor it covers.
        """
        return self.registry.publish()

    def _version_runtime(self, version):
        """The (view, runtime) pair for pure dispatch at a version.

        The emulator keeps the pair of the version it last read, so
        consecutive reads of one version share it.  The cache lives on
        the emulator, not on the version: a version that referenced
        its own view would form a cycle, and every superseded version
        (and the replaced instances only it holds) would then wait for
        the cycle collector instead of being freed when released.  Two
        readers racing to build it is benign — both results are
        equivalent and the attribute store is atomic.
        """
        rt = self._version_rt
        if (
            rt is None
            or rt.registry is not version
            or rt.compiled is not self._compiled
        ):
            rt = Runtime(ReadOnlyView(version), version,
                         self.module.machines, self._compiled)
            self._version_rt = rt
        return rt.txn, rt

    def invoke_at(self, version, api: str,
                  params: dict | None = None) -> ApiResponse:
        """Invoke a *read-only* cloud API against a pinned version.

        The lock-free serve read path: bare describes enumerate the
        version's instances, the compiled pure route dispatches
        against a read-only view of it, and nothing here ever touches
        the live registry, a lock, or the ID allocator.  The caller
        classified ``api`` via :meth:`read_only` before pinning; a
        body whose compiled form went stale between classification and
        dispatch falls back to an *uncommitted* evaluator pass over
        the version — observably identical for an effect-free body.
        """
        telemetry = self._telemetry
        if telemetry is None:
            return self._invoke_at(version, api, params)
        with telemetry.span(
            "emulator.invoke", kind="api_call", api=api
        ) as span:
            response = self._invoke_at(version, api, params)
            telemetry.metrics.counter("emulator.calls").inc()
            if not response.success:
                span.set("error_code", response.error_code)
                telemetry.metrics.counter(
                    "emulator.errors", code=response.error_code
                ).inc()
        return response

    def _invoke_at(self, version, api: str,
                   params: dict | None) -> ApiResponse:
        params = params or {}
        entry = self._dispatch.get(api)
        if entry is None:
            return ApiResponse.fail(
                UNKNOWN_API,
                f"The action {api} is not valid for this endpoint.",
            )
        if entry.bare_describe:
            ids = sorted(
                instance.id
                for instance in version.of_type(entry.sm_name)
            )
            return ApiResponse.ok({"ids": ids, "count": len(ids)})
        pure = entry.pure_compiled
        if (
            pure is not None
            and pure.fresh(entry.transition)
            and self._compiled is not None
        ):
            view, rt = self._version_runtime(version)
            try:
                subject, args = self._bind(entry, params, view)
                payload = pure.run(rt, subject, args)
            except CloudError as error:
                return error.to_response()
            except TransientServiceError as error:
                return ApiResponse.fail(error.code, error.message)
            return ApiResponse(True, payload)
        # Stale-compiled or uncompiled read: reference semantics over
        # an overlay that is never committed.
        txn = Transaction(version)
        try:
            subject, args = self._bind(entry, params, txn)
            evaluator = Evaluator(txn, self.module.machines, version)
            payload = evaluator.run_transition(
                subject, entry.transition, args
            )
        except CloudError as error:
            return error.to_response()
        except TransientServiceError as error:
            return ApiResponse.fail(error.code, error.message)
        return ApiResponse(True, payload)

    def invoke(
        self,
        api: str,
        params: dict | None = None,
        deadline: Deadline | None = None,
    ) -> ApiResponse:
        """Invoke a cloud API against the mock backend.

        ``deadline`` bounds the call the way a client-side timeout
        does: an already-expired deadline fails with ``RequestTimeout``
        before dispatch (and before any state changes), matching the
        fail-fast semantics the resilience layer's injected timeouts
        have.
        """
        telemetry = self._telemetry
        if telemetry is None:
            return self._invoke(api, params, deadline)
        with telemetry.span(
            "emulator.invoke", kind="api_call", api=api
        ) as span:
            response = self._invoke(api, params, deadline)
            telemetry.metrics.counter("emulator.calls").inc()
            if not response.success:
                span.set("error_code", response.error_code)
                telemetry.metrics.counter(
                    "emulator.errors", code=response.error_code
                ).inc()
        return response

    def reference_invoke(self, api: str, params: dict | None = None,
                         at=None) -> ApiResponse:
        """Run one API through the tree-walking evaluator, read-only.

        The reference semantics for drift monitoring: the compiled
        routes (pure closures and compiled transitions) are bypassed
        entirely and the transition runs under the
        :class:`Evaluator` on an *uncommitted* transaction, so the
        call can never mutate the registry.  Intended for read-only
        APIs — the serve path's drift monitor compares this against
        the live compiled dispatch over one pinned version (``at``, a
        :class:`~repro.interpreter.machine.RegistryVersion`) so no
        concurrent writer can fake a divergence; without ``at`` it
        reads the live registry (see
        :meth:`ConcurrentEmulator.drift_check
        <repro.serve.concurrency.ConcurrentEmulator.drift_check>`).
        """
        params = params or {}
        source = self.registry if at is None else at
        entry = self._dispatch.get(api)
        if entry is None:
            return ApiResponse.fail(
                UNKNOWN_API,
                f"The action {api} is not valid for this endpoint.",
            )
        if entry.bare_describe:
            ids = sorted(
                instance.id
                for instance in source.of_type(entry.sm_name)
            )
            return ApiResponse.ok({"ids": ids, "count": len(ids)})
        txn = Transaction(source)
        try:
            subject, args = self._bind(entry, params, txn)
            evaluator = Evaluator(txn, self.module.machines, source)
            payload = evaluator.run_transition(
                subject, entry.transition, args
            )
        except CloudError as error:
            return error.to_response()
        except TransientServiceError as error:
            return ApiResponse.fail(error.code, error.message)
        # Deliberately no commit: reference evaluation observes, never
        # mutates.
        return ApiResponse(True, payload)

    def _invoke(
        self,
        api: str,
        params: dict | None,
        deadline: Deadline | None,
    ) -> ApiResponse:
        params = params or {}
        if deadline is not None and deadline.expired():
            return ApiResponse.fail(
                "RequestTimeout",
                f"The call to {api} exceeded its deadline.",
            )
        entry = self._dispatch.get(api)
        if entry is None:
            return ApiResponse.fail(
                UNKNOWN_API, f"The action {api} is not valid for this endpoint."
            )
        # List-class APIs: describe transitions with no parameters
        # enumerate all instances of the resource type.
        if entry.bare_describe:
            ids = sorted(
                instance.id
                for instance in self.registry.of_type(entry.sm_name)
            )
            return ApiResponse.ok({"ids": ids, "count": len(ids)})
        pure = entry.pure_compiled
        if pure is not None and pure.fresh(entry.transition):
            # Effect-free body: dispatch against the shared read-only
            # view — no transaction to build, nothing to commit.
            try:
                subject, args = self._bind(entry, params, self._roview)
                payload = pure.run(self._ro_rt, subject, args)
            except CloudError as error:
                return error.to_response()
            except TransientServiceError as error:
                return ApiResponse.fail(error.code, error.message)
            # ``payload`` is freshly built per call; constructing the
            # response directly skips ``ok``'s defensive copy.
            return ApiResponse(True, payload)
        txn = Transaction(self.registry)
        try:
            subject, args = self._bind(entry, params, txn)
            compiled = entry.compiled
            if compiled is not None and compiled.fresh(entry.transition):
                rt = Runtime(
                    txn, self.registry, self.module.machines, self._compiled
                )
                payload = compiled.run(rt, subject, args)
            else:
                evaluator = Evaluator(
                    txn, self.module.machines, self.registry
                )
                payload = evaluator.run_transition(
                    subject, entry.transition, args
                )
            # Only a create's subject is new: any other subject was
            # resolved from the registry before the body ran.
            if entry.is_destroy:
                txn.mark_deleted(subject.instance_id)
            elif entry.is_create:
                payload.setdefault("id", subject.instance_id)
                payload.setdefault(entry.id_field, subject.instance_id)
        except CloudError as error:
            return error.to_response()
        except TransientServiceError as error:
            # An injected (or transport-level) fault inside dispatch:
            # pass its cloud error code through unchanged so resilient
            # clients classify it correctly; the transaction is simply
            # not committed, so state rolls back atomically.
            return ApiResponse.fail(error.code, error.message)
        # A served write was logged before dispatch, so a crash before
        # the commit (the ``mid-transition-commit`` kill site) recovers
        # by replaying it — never a committed-but-unlogged call.
        kill_point("mid-transition-commit")
        txn.commit()
        return ApiResponse(True, payload)

    # -- binding ---------------------------------------------------------------

    def _notfound(self, sm_name: str) -> str:
        return self.notfound_codes.get(sm_name, default_notfound_code(sm_name))

    def _defaults(self, sm_name: str, spec: ast.SMSpec):
        """The fresh-state factory for ``spec``'s instances."""
        if self._compiled is not None:
            compiled_spec = self._compiled.specs.get(sm_name)
            if compiled_spec is not None and compiled_spec.spec is spec:
                return compiled_spec.defaults
        return lambda: evaluate_defaults(spec)

    def _bind(
        self,
        entry: _DispatchEntry,
        params: dict,
        txn: Transaction | ReadOnlyView,
    ) -> tuple[Handle, dict[str, object]]:
        """Resolve the subject instance and bind request parameters."""
        request = normalize_params(params)
        args: dict[str, object] = {}
        parent = entry.parent
        parent_id = ""
        for name, norm, is_sm, sm_ref in entry.param_plan:
            value = request.get(norm)
            if value is not None and is_sm:
                # Each referenced instance is looked up once: its type
                # check and the parent search share the lookup.
                if value.__class__ is str:
                    instance = txn.instance(value)
                    if instance is None or (
                        sm_ref and instance.spec.name != sm_ref
                    ):
                        raise CloudError(
                            self._notfound(sm_ref or "resource"),
                            f"The ID '{value}' does not exist",
                        )
                    if parent and not parent_id and (
                        instance.spec.name == parent
                    ):
                        parent_id = value
                    value = Handle(txn, value)
                else:
                    value = self._resolve_reference(sm_ref, value, txn)
                    if parent and not parent_id and (
                        value.spec.name == parent
                    ):
                        parent_id = value.instance_id
            # Scalar parameters are deliberately not type-checked here:
            # cloud APIs validate *semantics* (via the documented
            # checks), and a framework-level type error would diverge
            # from cloud behaviour the documentation never promises.
            args[name] = value

        if entry.is_create:
            instance = self.registry.create(
                entry.spec, entry.defaults(), parent_id=parent_id
            )
            txn.create(instance)
            return Handle(txn, instance.id), args

        subject_id = self._subject_id(entry, request, args)
        if subject_id is None:
            raise CloudError(
                MISSING_PARAMETER,
                f"The request must contain the parameter {entry.spec.name}_id",
            )
        if isinstance(subject_id, Handle):
            return subject_id, args
        instance = txn.instance(str(subject_id))
        if instance is None or instance.type_name != entry.spec.name:
            raise CloudError(
                entry.notfound,
                f"The {entry.spec.name} ID '{subject_id}' does not exist",
            )
        return Handle(txn, instance.id), args

    def _resolve_reference(self, sm_name: str, value: object,
                           txn: Transaction | ReadOnlyView):
        if isinstance(value, Handle):
            return value
        if not isinstance(value, str):
            raise CloudError(
                INVALID_PARAMETER, f"Expected a resource identifier, got {value!r}"
            )
        instance = txn.instance(value)
        if instance is None or (sm_name and instance.type_name != sm_name):
            raise CloudError(
                self._notfound(sm_name or "resource"),
                f"The ID '{value}' does not exist",
            )
        return Handle(txn, instance.id)

    def _subject_id(
        self,
        entry: _DispatchEntry,
        request: dict,
        args: dict[str, object],
    ):
        # Preferred: a declared parameter named <sm>_id.
        for name in entry.id_params:
            if args.get(name):
                return args[name]
        # Next: a declared parameter typed SM<own-type>.
        for name in entry.self_params:
            if isinstance(args.get(name), Handle):
                return args[name]
        # Last resort: the raw request carries the id even though the
        # generated signature omitted it (a fault alignment can detect).
        return request.get(entry.id_key)
