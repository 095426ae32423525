"""Deadline propagation and retry marking for the serve path.

A production request carries two pieces of client intent the serving
layers must honor end to end:

- its **remaining deadline** — past which any work done is wasted
  work, so an overloaded system sheds it *before* dispatch (queue
  time, RTT and shard hops all eat the budget on the shared virtual
  clock);
- whether it is a **retry** — so retry storms can be drawn from a
  capped side-budget instead of amplifying the overload that caused
  the first shed.

Both travel in a :class:`RequestMeta` on a context variable, the same
propagation channel the obs plane's :class:`RequestContext` uses: the
front door reads the envelope's ``DeadlineSeconds`` / ``Retry``
fields once, installs the meta, and admission, the region gate and
the shard RPC stub all read it without any signature threading.

A request whose deadline cannot be met any more is answered with
``RequestTimeout`` carrying the ``ExpiredBeforeDispatch`` marker and
the stage that shed it (``admission`` / ``netem`` / ``shard``) — the
honest wire shape for "we did not even try, your budget was gone".
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from ..interpreter.errors import ApiResponse

#: The error code a blown deadline sheds with (transient: the caller's
#: budget, not the service, decides whether a retry makes sense).
EXPIRED_CODE = "RequestTimeout"

#: The response-data marker proving no work was attempted.
EXPIRED_MARKER = "ExpiredBeforeDispatch"


class DeadlineError(ValueError):
    """An envelope ``DeadlineSeconds`` that cannot be interpreted."""


class RequestMeta:
    """Client intent riding alongside one in-flight request."""

    __slots__ = ("deadline", "retry")

    def __init__(self, deadline: float | None = None,
                 retry: bool = False):
        #: Absolute virtual-clock instant the client stops caring.
        self.deadline = deadline
        #: True when the client marked this request as a retry.
        self.retry = retry

    def remaining(self, now: float) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - now

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


#: The in-flight request's meta on the current logical thread.
CURRENT_META: ContextVar[RequestMeta | None] = ContextVar(
    "repro_serve_meta", default=None
)


def current_meta() -> RequestMeta | None:
    """The propagated meta of the in-flight request, if any."""
    return CURRENT_META.get()


#: The in-flight request's obs record (a
#: :class:`~repro.obs.tracectx.RequestContext`), installed by the obs
#: plane.  It sits beside the meta so the serve layers read it without
#: importing the obs plane (a shard worker never does).
CURRENT_REQUEST: ContextVar = ContextVar("repro_obs_request", default=None)


def current_request():
    """The propagated obs context of the in-flight request, if any."""
    return CURRENT_REQUEST.get()


@contextmanager
def request_meta(deadline: float | None = None, retry: bool = False):
    """Install a :class:`RequestMeta` for the enclosed dispatch."""
    token = CURRENT_META.set(RequestMeta(deadline, retry))
    try:
        yield
    finally:
        CURRENT_META.reset(token)


def deadline_at(seconds, clock) -> float | None:
    """The absolute virtual deadline of ``seconds`` of client budget.

    A client states its deadline as relative seconds (what a wire
    client can state without sharing a clock); the absolute virtual
    deadline is minted here, at arrival — queue time already counts
    against it.  ``None`` is no deadline; a non-positive budget is
    honest shorthand for "already expired"; a value that is not a
    number raises :class:`DeadlineError` so the front door can answer
    with a validation error instead of silently dropping the client's
    intent.
    """
    if seconds is None:
        return None
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
        raise DeadlineError(
            "DeadlineSeconds must be a number of seconds of "
            "remaining client budget"
        )
    now = clock.now()
    return now + float(seconds) if seconds > 0 else now


def expired_response(stage: str, remaining: float = 0.0) -> ApiResponse:
    """The shed answer for a request whose deadline cannot be met."""
    return ApiResponse(
        success=False,
        data={EXPIRED_MARKER: True, "Stage": stage},
        error_code=EXPIRED_CODE,
        error_message=(
            f"The request deadline expired before dispatch "
            f"(shed at {stage}); no work was attempted."
        ),
    )
