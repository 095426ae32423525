"""Spec-derived request validation for the serve path.

The emulator core deliberately does *not* type-check scalar
parameters: documented semantic checks are part of cloud behaviour,
framework-level type errors are not, and alignment must compare only
what the documentation promises.  A production front door is the
opposite: garbage envelopes must be rejected with cloud-style
``ValidationError`` / ``MissingParameter`` codes *before* the
interpreter runs, rather than surfacing as interpreter internals.

:class:`RequestValidator` compiles each SM transition's typed
parameter list (the same :class:`~repro.spec.types.StateType` machinery
the spec language itself uses) into a per-API plan, resolved once at
construction:

- a parameter whose value fails its declared type (wrong JSON scalar,
  enum symbol outside the documented set, non-string resource
  reference, mistyped list/map) → ``ValidationError``;
- a non-create call that carries no subject identifier at all →
  ``MissingParameter`` (the same code and message the interpreter
  would eventually produce, issued before any dispatch work);
- undeclared parameters pass through untouched — real cloud front
  doors tolerate unknown keys, and rejecting them would diverge from
  behaviour the documentation never promises.

Unknown actions are *not* handled here: the emulator's own
``InvalidAction`` answer is already wire-shaped.
"""

from __future__ import annotations

from ..interpreter.emulator import normalize_key, normalize_params
from ..interpreter.errors import ApiResponse, MISSING_PARAMETER
from ..spec import ast
from ..spec.types import StateType

#: The front-door rejection code for a type-invalid parameter value.
VALIDATION_ERROR = "ValidationError"


def _describe(type_: StateType) -> str:
    """A human-facing name for a declared parameter type."""
    return type_.render()


def _is_str(value: object) -> bool:
    return isinstance(value, str)


class _ParamCheck:
    """One declared parameter's compiled validation plan."""

    __slots__ = ("name", "norm", "type", "is_sm", "accepts")

    def __init__(self, param):
        self.name = param.name
        self.norm = normalize_key(param.name)
        self.type = param.type
        self.is_sm = param.type.kind == "sm"
        #: Whether a non-null value is type-valid.  Over the wire an
        #: SM reference is a resource identifier.
        self.accepts = _is_str if self.is_sm else param.type.accepts

    def problem(self, value: object) -> str | None:
        """An error message if ``value`` is type-invalid, else None."""
        if value is None or self.accepts(value):
            return None
        if self.is_sm:
            return (
                f"Value ({value!r}) for parameter {self.name} is "
                f"invalid. Expected a resource identifier."
            )
        return (
            f"Value ({value!r}) for parameter {self.name} is "
            f"invalid. Expected type {_describe(self.type)}."
        )


class _ApiPlan:
    """Everything validation needs about one API, resolved once."""

    __slots__ = ("api", "checks", "subject_keys", "subject_param")

    def __init__(self, api: str, sm_name: str, spec: ast.SMSpec,
                 transition: ast.Transition):
        self.api = api
        self.checks = {
            check.norm: check
            for check in (_ParamCheck(p) for p in transition.params)
        }
        # Non-create, non-list calls must name their subject somehow:
        # a declared <sm>_id parameter, a declared SM<own-type>
        # parameter, or the raw <sm>_id key (the interpreter's own
        # resolution order).  Validation only checks *presence*; an
        # unknown id is still the interpreter's NotFound to give.
        self.subject_keys: tuple[str, ...] = ()
        self.subject_param = f"{spec.name}_id"
        bare_describe = (
            transition.category == "describe" and not transition.params
        )
        if transition.category != "create" and not bare_describe:
            keys = {normalize_key(self.subject_param)}
            for param in transition.params:
                if (
                    param.type.kind == "sm"
                    and param.type.sm_name == spec.name
                ):
                    keys.add(normalize_key(param.name))
            self.subject_keys = tuple(keys)


class RequestValidator:
    """Validates request parameter envelopes against the spec module."""

    def __init__(self, module: ast.SpecModule, telemetry=None):
        self.telemetry = telemetry
        self._plans: dict[str, _ApiPlan] = {}
        for api, (sm_name, transition) in module.transition_index().items():
            if api.startswith("_"):
                continue
            self._plans[api] = _ApiPlan(
                api, sm_name, module.machines[sm_name], transition
            )

    def validate(self, api: str, params: dict) -> ApiResponse | None:
        """A failure response for a malformed request, or ``None``."""
        plan = self._plans.get(api)
        if plan is None:
            return None  # unknown action: the emulator answers itself
        request = normalize_params(params)
        checks = plan.checks
        for norm, value in request.items():
            if value is None:
                continue
            check = checks.get(norm)
            if check is not None and not check.accepts(value):
                return self._reject(
                    api, VALIDATION_ERROR, check.problem(value)
                )
        if not plan.subject_keys:
            return None
        for key in plan.subject_keys:
            if request.get(key) is not None:
                return None
        return self._reject(
            api, MISSING_PARAMETER,
            "The request must contain the parameter "
            f"{plan.subject_param}",
        )

    def _reject(self, api: str, code: str, message: str) -> ApiResponse:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "serve.validation_rejects", code=code
            ).inc()
            self.telemetry.event("validation_reject", api=api, code=code)
        return ApiResponse.fail(code, message)
