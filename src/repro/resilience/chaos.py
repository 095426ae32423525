"""Seeded fault injection for the two remote dependencies.

The paper's pipelines talk to flaky services: the alignment loop runs
differential traces against the *real* cloud (§4.3) and extraction
prompts an LLM repeatedly (§4.2).  The chaos layer reproduces the
failure taxonomy of those services deterministically, so the retry /
degradation machinery is exercised by ordinary test runs:

- cloud side (:class:`ChaosProxy`): ``RequestLimitExceeded``
  throttling, transient ``InternalError`` 5xx, call timeouts, and
  eventual-consistency lag (a just-created resource briefly invisible
  to describes);
- model side (:class:`ChaosLLM`): transient overload errors and
  truncated completions that fail to parse.

All injection decisions come from a seeded hash keyed by call
position, so a chaotic run is exactly reproducible, and all faults are
injected *before* the wrapped operation executes — retrying an
injected fault is always safe (no at-most-once hazard).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from ..interpreter.errors import ApiResponse
from .errors import TransientServiceError
from .policy import seeded_fraction

#: Environment variable selecting a chaos profile for entry points
#: that were not given one explicitly (used by the CI chaos job).
CHAOS_ENV_VAR = "REPRO_CHAOS_PROFILE"


@dataclass(frozen=True)
class ChaosProfile:
    """Per-fault-class injection rates for one named regime."""

    name: str
    #: Cloud-side rates (per invocation).
    throttle: float = 0.0
    transient_error: float = 0.0
    timeout: float = 0.0
    consistency_lag: float = 0.0
    #: How many proxy invocations a lagged resource stays invisible.
    max_lag_steps: int = 2
    #: Model-side rates (per generation / diagnosis call).
    llm_transient: float = 0.0
    llm_truncation: float = 0.0

    @property
    def active(self) -> bool:
        return any(
            (
                self.throttle,
                self.transient_error,
                self.timeout,
                self.consistency_lag,
                self.llm_transient,
                self.llm_truncation,
            )
        )


OFF_PROFILE = ChaosProfile(name="off")

#: Everyday weather: occasional throttles and blips every layer must
#: absorb without changing any pipeline outcome.
MILD_PROFILE = ChaosProfile(
    name="mild",
    throttle=0.04,
    transient_error=0.03,
    timeout=0.02,
    consistency_lag=0.05,
    llm_transient=0.05,
    llm_truncation=0.08,
)

#: A bad day: heavy throttling plus a model that truncates most
#: completions — some resources fail generation persistently and must
#: be quarantined rather than crash the run.
HOSTILE_PROFILE = ChaosProfile(
    name="hostile",
    throttle=0.15,
    transient_error=0.10,
    timeout=0.08,
    consistency_lag=0.15,
    llm_transient=0.20,
    llm_truncation=0.75,
)

PROFILES = {
    profile.name: profile
    for profile in (OFF_PROFILE, MILD_PROFILE, HOSTILE_PROFILE)
}


def chaos_profile(name: str) -> ChaosProfile:
    """Look up a named profile (``off`` / ``mild`` / ``hostile``)."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {name!r}; "
            f"expected one of {sorted(PROFILES)}"
        ) from None


def resolve_profile(value: "ChaosProfile | str | None") -> ChaosProfile:
    """Normalize a chaos argument: profile, name, or None (env/off)."""
    if isinstance(value, ChaosProfile):
        return value
    if isinstance(value, str):
        return chaos_profile(value)
    return chaos_profile(os.environ.get(CHAOS_ENV_VAR, "off"))


class ChaosEngine:
    """The seeded decision core shared by both chaos wrappers."""

    def __init__(self, profile: ChaosProfile, seed: int = 23):
        self.profile = profile
        self.seed = seed
        #: Injected fault counts by class, for visibility.
        self.injected: dict[str, int] = {}
        # One engine may serve several sharded proxies concurrently;
        # decisions are pure functions of (seed, key), only this
        # counter needs guarding.
        self._lock = threading.Lock()

    def decide(self, rate: float, *key: object) -> bool:
        return rate > 0 and seeded_fraction(self.seed, *key) < rate

    def fraction(self, *key: object) -> float:
        return seeded_fraction(self.seed, *key)

    def count(self, fault_class: str) -> None:
        with self._lock:
            self.injected[fault_class] = (
                self.injected.get(fault_class, 0) + 1
            )


class ChaosProxy:
    """Wraps a cloud backend and injects its failure taxonomy.

    Implements the same backend surface as :class:`ReferenceCloud` and
    :class:`Emulator` (``invoke`` / ``reset`` / ``supports`` /
    ``api_names``), so it can stand between any trace runner and any
    backend.  Faults fire before delegation, so the wrapped backend's
    state never reflects a failed call.
    """

    def __init__(self, inner, engine: ChaosEngine):
        self.inner = inner
        self.engine = engine
        self._calls = 0
        #: id -> proxy call count at which it becomes visible.
        self._invisible_until: dict[str, int] = {}
        # The serving layer drives one proxy from many worker threads;
        # the call counter and lag table are the only shared state.
        self._state_lock = threading.Lock()

    # -- delegated surface -------------------------------------------------

    def api_names(self) -> list[str]:
        return self.inner.api_names()

    def supports(self, api: str) -> bool:
        return self.inner.supports(api)

    def read_only(self, api: str) -> bool:
        return self.inner.read_only(api)

    def reset(self) -> None:
        with self._state_lock:
            self._invisible_until.clear()
        self.inner.reset()

    # -- chaotic dispatch --------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        with self._state_lock:
            self._calls += 1
            call = self._calls
        profile, engine = self.engine.profile, self.engine
        if engine.decide(profile.throttle, "throttle", api, call):
            engine.count("throttle")
            return ApiResponse.fail(
                "RequestLimitExceeded", "Request limit exceeded."
            )
        if engine.decide(profile.transient_error, "5xx", api, call):
            engine.count("transient_error")
            return ApiResponse.fail(
                "InternalError",
                "An internal error has occurred. Retry your request.",
            )
        if engine.decide(profile.timeout, "timeout", api, call):
            engine.count("timeout")
            return ApiResponse.fail(
                "RequestTimeout", "The request timed out before completing."
            )
        lagged = self._lagged_reference(params, call)
        if lagged is not None:
            engine.count("consistency_lag")
            return ApiResponse.fail(
                "InvalidResourceID.NotFound",
                f"The ID '{lagged}' does not exist",
            )
        response = self.inner.invoke(api, params)
        self._maybe_lag_created(api, response, call)
        return response

    def _lagged_reference(self, params: dict | None,
                          call: int) -> str | None:
        """The first parameter naming a still-propagating resource."""
        if not self._invisible_until or not params:
            return None
        with self._state_lock:
            for value in params.values():
                if not isinstance(value, str):
                    continue
                visible_at = self._invisible_until.get(value)
                if visible_at is None:
                    continue
                if call < visible_at:
                    return value
                del self._invisible_until[value]
        return None

    def _maybe_lag_created(self, api: str, response: ApiResponse,
                           call: int) -> None:
        """Decide whether a freshly created resource propagates slowly."""
        if not response.success:
            return
        created = response.data.get("id")
        if not isinstance(created, str) or not created:
            return
        profile, engine = self.engine.profile, self.engine
        if engine.decide(profile.consistency_lag, "lag", api, call):
            steps = 1 + int(
                engine.fraction("lagsteps", created)
                * max(1, profile.max_lag_steps)
            )
            with self._state_lock:
                self._invisible_until[created] = call + steps


def _truncate(text: str, fraction: float) -> str:
    """Cut a completion short, the way an interrupted stream does."""
    keep = max(1, int(len(text) * (0.35 + 0.5 * fraction)))
    return text[:keep]


class ChaosLLM:
    """Wraps an LLM client and injects model-side faults.

    Duck-typed to the :class:`~repro.llm.client.LLMClient` protocol
    (plus ``regenerate_clean``, which targeted correction uses).
    Transient overloads surface as :class:`TransientServiceError`
    before the wrapped model runs; truncation corrupts the returned
    text so the caller's parse-and-re-prompt loop sees it.
    """

    def __init__(self, inner, engine: ChaosEngine):
        self.inner = inner
        self.engine = engine
        self._calls = 0

    @property
    def usage(self):
        return self.inner.usage

    @property
    def telemetry(self):
        return getattr(self.inner, "telemetry", None)

    def _check_transient(self, prompt: str, *key: object) -> None:
        profile, engine = self.engine.profile, self.engine
        if engine.decide(profile.llm_transient, "llm5xx", *key):
            engine.count("llm_transient")
            usage = getattr(self.inner, "usage", None)
            if usage is not None:
                usage.record_failure(prompt)
            raise TransientServiceError(
                "ModelOverloaded", "The model is overloaded; retry shortly."
            )

    def generate_spec(self, resource, prompt: str, attempt: int = 0):
        self._calls += 1
        self._check_transient(prompt, resource.name, attempt, self._calls)
        text, report = self.inner.generate_spec(resource, prompt, attempt)
        profile, engine = self.engine.profile, self.engine
        if engine.decide(
            profile.llm_truncation, "truncate", resource.name, attempt,
            self._calls,
        ):
            engine.count("llm_truncation")
            # The parse-and-re-prompt loop accounts the failed request
            # when the truncated text fails to parse.
            text = _truncate(
                text, engine.fraction("cutpoint", resource.name, attempt)
            )
        return text, report

    def regenerate_clean(self, resource, prompt: str):
        self._calls += 1
        self._check_transient(prompt, resource.name, "clean", self._calls)
        return self.inner.regenerate_clean(resource, prompt)

    def diagnose_error_message(self, message: str):
        self._calls += 1
        self._check_transient(message, "diagnose", self._calls)
        return self.inner.diagnose_error_message(message)
