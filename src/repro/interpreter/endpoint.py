"""A wire-protocol envelope over any backend.

Emulators "mimic the cloud by exposing identical API interfaces" (§2):
DevOps tooling talks a JSON envelope (action + parameters) and expects
request ids, typed error envelopes and consistent metadata.  This layer
wraps any backend — learned emulator, reference cloud, baseline — in
that shape, so a client cannot tell which it is speaking to except
through behaviour (which is the whole point of alignment).

The envelope follows the query-API convention::

    request:  {"Action": "CreateVpc", "Parameters": {"CidrBlock": ...}}
    success:  {"ResponseMetadata": {"RequestId": ...}, <data fields>}
    failure:  {"ResponseMetadata": {"RequestId": ...},
               "Error": {"Code": ..., "Message": ...}}

The endpoint is thread-safe: the serving layer shares one instance
across worker threads, so request-id allocation is serialized (each id
is still a pure function of the endpoint seed and its position in the
admission order — recorded traffic replays byte-identically).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ApiResponse


class ProtocolError(Exception):
    """The request envelope itself is malformed."""


def build_envelope(response: ApiResponse, request_id: str) -> dict:
    """The wire envelope of one response under ``request_id``."""
    body: dict = {"ResponseMetadata": {"RequestId": request_id}}
    if response.success:
        body.update(response.data)
    else:
        body["Error"] = {
            "Code": response.error_code,
            "Message": response.error_message,
        }
        # Failure responses normally carry no data; the serving layer
        # uses the slot for throttle metadata (Retry-After hints),
        # which rides inside the error object the way the cloud's own
        # throttle annotations do.
        if response.data:
            body["Error"].update(response.data)
    return body


#: How an envelope encoded with an empty request id begins
#: (``json.dumps`` of :func:`build_envelope` under ``""``).
_BLANK_ID = json.dumps(build_envelope(ApiResponse(True), ""))[:-1]


class EncodedResponse(ApiResponse):
    """A response whose envelope was encoded where it was made.

    A shard worker runs :func:`build_envelope` with an empty request
    id and ships the JSON text; the parent mints the id and splices it
    in (:meth:`with_request_id`), so the text it returns is the one an
    in-process endpoint would have encoded.  ``data`` is decoded from
    the text only when something reads it.  A success whose data had
    its own top-level ``ResponseMetadata`` key carries that value in
    place of the request id, as in process: no id is spliced into it.
    """

    def __init__(self, text: str, success: bool, error_code: str = "",
                 error_message: str = ""):
        # ApiResponse is frozen; this sets its fields once, as its own
        # generated __init__ does.
        set_field = object.__setattr__
        set_field(self, "text", text)
        set_field(self, "success", success)
        set_field(self, "error_code", error_code)
        set_field(self, "error_message", error_message)

    @cached_property
    def data(self) -> dict:
        body = json.loads(self.text)
        if not self.success:
            error = body["Error"]
            error.pop("Code", None)
            error.pop("Message", None)
            return error
        if self.text.startswith(_BLANK_ID):
            del body["ResponseMetadata"]
        return body

    def with_request_id(self, request_id: str) -> str:
        """The envelope text carrying ``request_id``."""
        text = self.text
        if not text.startswith(_BLANK_ID):
            return text
        cut = len(_BLANK_ID) - 2  # between the blank id's quotes
        return text[:cut] + request_id + text[cut:]


def encode_envelope(response: ApiResponse, request_id: str) -> str:
    """The envelope text of one response under ``request_id``: the one
    text encoder every wire ``handle`` answers through (a response
    encoded where it was made only has the id spliced in)."""
    if isinstance(response, EncodedResponse):
        return response.with_request_id(request_id)
    return json.dumps(build_envelope(response, request_id))


class RequestIdSequence:
    """Deterministic, thread-safe request-id allocation.

    Ids are a hash of ``(seed, counter)``, formatted UUID-style.  The
    counter increment is atomic so concurrent callers never mint
    duplicate ids; the *sequence* of ids is fixed by the seed, and
    which request gets which id is fixed by admission order.
    """

    __slots__ = ("seed", "_counter", "_lock")

    def __init__(self, seed: int = 1):
        self.seed = seed
        self._counter = 0
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            self._counter += 1
            counter = self._counter
        digest = hashlib.sha256(
            f"{self.seed}:{counter}".encode()
        ).hexdigest()
        return (f"{digest[:8]}-{digest[8:12]}-{digest[12:16]}-"
                f"{digest[16:20]}-{digest[20:32]}")


@dataclass
class JsonEndpoint:
    """A JSON front door for one backend.

    Request ids are deterministic (a hash of the endpoint seed and the
    request counter) so recorded traffic replays byte-identically.
    """

    backend: object
    seed: int = 1
    #: Optional run sink; per-request spans and counters land here.
    telemetry: object | None = None
    _ids: RequestIdSequence = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._ids is None:
            self._ids = RequestIdSequence(self.seed)

    def _request_id(self) -> str:
        return self._ids.next()

    # -- dict envelope -----------------------------------------------------

    @staticmethod
    def parse(request: dict) -> tuple[str, dict]:
        """``(action, parameters)`` of one envelope, or
        :class:`ProtocolError` when it is malformed."""
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        action = request.get("Action")
        if not isinstance(action, str) or not action:
            raise ProtocolError("request must carry a string 'Action'")
        parameters = request.get("Parameters", {})
        if parameters is None:
            parameters = {}
        if not isinstance(parameters, dict):
            raise ProtocolError("'Parameters' must be a JSON object")
        return action, parameters

    def dispatch(self, request: dict,
                 parsed: tuple[str, dict] | None = None) -> dict:
        """Handle one decoded request envelope.

        ``parsed`` is the envelope's :meth:`parse` result when the
        caller already has it, so the envelope is parsed once.
        """
        action, parameters = (
            self.parse(request) if parsed is None else parsed
        )
        return self.envelope(self.call(action, parameters))

    def call(self, action: str, parameters: dict) -> ApiResponse:
        """One parsed request's response from the backend."""
        telemetry = self.telemetry
        if telemetry is None or getattr(telemetry, "obs", None) is not None:
            # Under the serving observability plane the request's root
            # span is its per-request span; a second one here would
            # only double the span count the tail sampler is bounding.
            return self.backend.invoke(action, parameters)
        with telemetry.span(
            "endpoint.request", kind="endpoint", action=action
        ) as span:
            response = self.backend.invoke(action, parameters)
            telemetry.metrics.counter("endpoint.requests").inc()
            if not response.success:
                span.set("error_code", response.error_code)
                telemetry.metrics.counter("endpoint.errors").inc()
        return response

    def envelope(self, response: ApiResponse) -> dict:
        """The envelope of one response, under the next request id."""
        if isinstance(response, EncodedResponse):
            return json.loads(self.encode(response))
        return build_envelope(response, self._request_id())

    def encode(self, response: ApiResponse) -> str:
        """The envelope text of one response, under the next request
        id (:func:`encode_envelope`)."""
        return encode_envelope(response, self._request_id())

    # -- text envelope -----------------------------------------------------------

    @staticmethod
    def load(payload: "str | bytes") -> object:
        """The JSON value of one wire payload; undecodable bytes and
        unparsable JSON raise :class:`ProtocolError`."""
        if isinstance(payload, (bytes, bytearray)):
            try:
                payload = bytes(payload).decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError(
                    "request body is not valid UTF-8"
                ) from None
        try:
            return json.loads(payload)
        except (json.JSONDecodeError, ValueError) as error:
            message = getattr(error, "msg", str(error))
            raise ProtocolError(
                f"could not parse request: {message}"
            ) from None

    def handle(self, payload: "str | bytes") -> str:
        """Handle one JSON-encoded request; always returns valid JSON.

        Undecodable bytes, unparsable JSON, a non-object top level and
        a missing or mistyped ``Action`` or ``Parameters`` (see
        :meth:`load` and :meth:`parse`) come back as a
        400-style ``SerializationException`` rather than an exception:
        wire front doors don't crash on bad input.
        """
        try:
            action, parameters = self.parse(self.load(payload))
        except ProtocolError as error:
            return json.dumps(self.serialization_error(str(error)))
        return self.encode(self.call(action, parameters))

    def serialization_error(self, message: str) -> dict:
        """The ``SerializationException`` envelope for a bad request."""
        return {
            "ResponseMetadata": {"RequestId": self._request_id()},
            "Error": {
                "Code": "SerializationException",
                "Message": message,
            },
        }

    @staticmethod
    def is_error(body: dict) -> bool:
        return "Error" in body
