"""Resilience: fault injection, retry/backoff, graceful degradation.

The extraction and alignment pipelines are talk-to-flaky-remote-
service workloads (the LLM and the real cloud respectively).  This
package provides the machinery that keeps them honest about it:

- :mod:`~repro.resilience.chaos` — seeded, deterministic fault
  injection reproducing the cloud's and the model's failure taxonomy
  (``off`` / ``mild`` / ``hostile`` profiles);
- :mod:`~repro.resilience.retry`, :mod:`~repro.resilience.policy`,
  :mod:`~repro.resilience.breaker` — exponential backoff with seeded
  full jitter, per-call deadlines, per-resource circuit breakers;
- :mod:`~repro.resilience.stats` — accounting, so degradation is
  visible in every pipeline report rather than silent;
- :mod:`~repro.resilience.killswitch` — named kill points and the
  seeded crash schedule that fires them (injected process death).

The chaos/resilient wrappers are exposed lazily (they import the
interpreter's response type); the pure machinery imports eagerly.
"""

from __future__ import annotations

from .breaker import BreakerBoard, CircuitBreaker
from .errors import (
    CallTimeout,
    CircuitOpenError,
    DeadlineExceeded,
    is_notfound_code,
    is_transient_code,
    ResilienceError,
    RetriesExhausted,
    TransientServiceError,
    TRANSIENT_CODES,
)
from .policy import (
    Deadline,
    DEFAULT_POLICY,
    NO_RETRY_POLICY,
    RetryPolicy,
    seeded_fraction,
    VirtualClock,
)
from .ratelimit import TokenBucket
from .retry import retry_call
from .stats import ResilienceStats

_LAZY = {
    "ChaosEngine": "chaos",
    "ChaosLLM": "chaos",
    "ChaosProfile": "chaos",
    "ChaosProxy": "chaos",
    "chaos_profile": "chaos",
    "CHAOS_ENV_VAR": "chaos",
    "HOSTILE_PROFILE": "chaos",
    "MILD_PROFILE": "chaos",
    "OFF_PROFILE": "chaos",
    "PROFILES": "chaos",
    "resolve_profile": "chaos",
    "ResilientBackend": "resilient",
    "ResilientLLM": "resilient",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(name)
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "BreakerBoard",
    "CallTimeout",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "DEFAULT_POLICY",
    "NO_RETRY_POLICY",
    "ResilienceError",
    "ResilienceStats",
    "RetriesExhausted",
    "retry_call",
    "RetryPolicy",
    "TokenBucket",
    "seeded_fraction",
    "TransientServiceError",
    "TRANSIENT_CODES",
    "VirtualClock",
    "is_notfound_code",
    "is_transient_code",
    *sorted(_LAZY),
]
