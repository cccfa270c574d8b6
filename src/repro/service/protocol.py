"""Typed wire messages of the prediction service.

Every request and response is a frozen dataclass with a class-level
``type`` tag.  The JSON wire form is a flat object carrying the protocol
version, the type tag and the dataclass fields::

    {"v": 1, "type": "predict", "machine": "pentium3-myrinet",
     "px": 2, "py": 2, "deck": "validation", "iterations": 12}

:func:`encode` produces that form; :func:`decode_request` /
:func:`decode_response` rebuild the dataclass, rejecting unknown
versions, unknown types and unexpected or missing fields with
:class:`~repro.errors.ProtocolError`.  Tuples are rendered as JSON
arrays and restored on decode (each class lists its tuple-typed fields
in ``_TUPLE_FIELDS``), so ``decode(json.loads(json.dumps(encode(m))))``
round-trips to an equal message.

The version is bumped whenever a field changes meaning or shape; adding
a new message type or a new defaulted field is backward compatible and
keeps the version.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Mapping

from repro.errors import ProtocolError

#: Wire-format version spoken by this build (the ``"v"`` envelope field).
PROTOCOL_VERSION = 1

_REQUEST_TYPES: dict[str, type] = {}
_RESPONSE_TYPES: dict[str, type] = {}


def _register(registry: dict[str, type]):
    def decorator(cls):
        registry[cls.type] = cls
        return cls
    return decorator


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class PredictRequest:
    """One analytic prediction (mirrors ``api.predict``)."""

    type: ClassVar[str] = "predict"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    machine: str
    px: int
    py: int
    deck: str = "validation"
    iterations: int = 12


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class SimulateRequest:
    """One discrete-event simulation run (mirrors ``api.simulate``).

    ``seed`` is the noise-seed offset (``api.simulate``'s
    ``seed_offset``).  Numeric-mode runs are not servable — their flux
    fields are not JSON-friendly — so there is no ``numeric`` field.
    """

    type: ClassVar[str] = "simulate"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    machine: str
    px: int
    py: int
    deck: str = "validation"
    iterations: int = 12
    with_noise: bool = True
    seed: int = 0
    execution: str = "auto"
    samples: int = 0


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class StudySubmitRequest:
    """Submit a study as a background job.

    ``spec`` is either a registered study name (its default spec) or a
    ``StudySpec.to_dict()`` mapping; ``smoke`` runs the reduced grid.
    """

    type: ClassVar[str] = "study_submit"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    spec: Any
    smoke: bool = False


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class JobStatusRequest:
    type: ClassVar[str] = "job_status"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class JobResultRequest:
    type: ClassVar[str] = "job_result"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class JobArtifactsRequest:
    type: ClassVar[str] = "job_artifacts"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class JobCancelRequest:
    type: ClassVar[str] = "job_cancel"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class JobListRequest:
    type: ClassVar[str] = "job_list"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class HealthRequest:
    type: ClassVar[str] = "health"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()


@_register(_REQUEST_TYPES)
@dataclass(frozen=True)
class StatsRequest:
    type: ClassVar[str] = "stats"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class PredictResponse:
    """An analytic prediction; numbers bit-identical to ``api.predict``.

    ``source`` records the serving tier: ``"memory"`` (the in-process
    LRU) or ``"computed"`` (a sweep-runner evaluation, itself possibly
    warmed from the disk cache — see ``/v1/stats`` for that split).
    """

    type: ClassVar[str] = "predict_result"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    total_time: float
    compute_time: float
    communication_time: float
    hardware_name: str = ""
    application_name: str = ""
    source: str = "computed"


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class SimulateResponse:
    """A simulated measurement; numbers bit-identical to ``api.simulate``."""

    type: ClassVar[str] = "simulate_result"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("elapsed_samples",)

    machine: str
    px: int
    py: int
    elapsed_time: float
    seed: int = 0
    iterations: int = 0
    total_messages: int = 0
    total_bytes: float = 0.0
    compute_fraction: float = 0.0
    execution_tier: str = ""
    elapsed_samples: tuple = ()
    elapsed_mean: float | None = None
    elapsed_std: float | None = None
    elapsed_ci95: float | None = None
    source: str = "computed"


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class JobStatusResponse:
    """One background job's lifecycle state.

    ``state`` is one of ``queued`` / ``running`` / ``done`` / ``failed``
    / ``cancelled``; ``rows`` is the result's row count once done.
    """

    type: ClassVar[str] = "job_status"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str
    state: str
    study: str = ""
    spec_hash: str = ""
    error: str | None = None
    rows: int | None = None
    elapsed_s: float = 0.0


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class JobListResponse:
    """Every known job as ``(job_id, state)`` pairs, submission order."""

    type: ClassVar[str] = "job_list"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("jobs",)

    jobs: tuple = ()


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class JobResultResponse:
    """A finished job's full ``StudyResult.to_dict()`` artifact."""

    type: ClassVar[str] = "job_result"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str
    state: str
    result: Any = None
    error: str | None = None


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class JobArtifactsResponse:
    """Where a finished job's artifact files live (server-side paths)."""

    type: ClassVar[str] = "job_artifacts"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("files",)

    job_id: str
    path: str = ""
    files: tuple = ()
    manifest: Any = None


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class JobCancelResponse:
    """Outcome of a cancellation attempt.

    ``cancelled`` is True only when the job was stopped before running;
    a job already in flight keeps running (its threads cannot be
    interrupted) and only records the request.
    """

    type: ClassVar[str] = "job_cancel"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    job_id: str
    state: str
    cancelled: bool = False


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class HealthResponse:
    type: ClassVar[str] = "health"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("studies", "machines")

    status: str = "ok"
    version: str = ""
    studies: tuple = ()
    machines: tuple = ()


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class StatsResponse:
    """Service counters: per-endpoint requests, cache tiers, jobs."""

    type: ClassVar[str] = "stats"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    uptime_s: float = 0.0
    requests: dict = field(default_factory=dict)
    coalescer: dict = field(default_factory=dict)
    lru: dict = field(default_factory=dict)
    disk: dict = field(default_factory=dict)
    jobs: dict = field(default_factory=dict)


@_register(_RESPONSE_TYPES)
@dataclass(frozen=True)
class ErrorResponse:
    """Any failure; ``status`` doubles as the HTTP status code."""

    type: ClassVar[str] = "error"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()

    error: str
    status: int = 400


# ---------------------------------------------------------------------------
# Wire form
# ---------------------------------------------------------------------------


def _to_wire(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_to_wire(item) for item in value]
    if isinstance(value, list):
        return [_to_wire(item) for item in value]
    if isinstance(value, dict):
        return {key: _to_wire(item) for key, item in value.items()}
    return value


def _to_tuple(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_to_tuple(item) for item in value)
    return value


def encode(message) -> dict[str, Any]:
    """The JSON-object wire form of a message (any registered dataclass)."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "type": message.type}
    for info in fields(message):
        payload[info.name] = _to_wire(getattr(message, info.name))
    return payload


def _decode(payload: Any, registry: dict[str, type], kind: str):
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"service {kind} must be a JSON object, "
                            f"got {type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; this build speaks "
            f"v{PROTOCOL_VERSION}")
    type_name = payload.get("type")
    cls = registry.get(type_name)
    if cls is None:
        raise ProtocolError(
            f"unknown service {kind} type {type_name!r}; "
            f"known: {sorted(registry)}")
    data = {key: value for key, value in payload.items()
            if key not in ("v", "type")}
    known = {info.name for info in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProtocolError(f"{type_name}: unexpected field(s) {unknown}")
    for name in cls._TUPLE_FIELDS:
        if name in data:
            data[name] = _to_tuple(data[name])
    try:
        return cls(**data)
    except TypeError as exc:
        raise ProtocolError(f"{type_name}: {exc}") from exc


def decode_request(payload: Any):
    """Rebuild a request message from its wire form (strictly validated)."""
    return _decode(payload, _REQUEST_TYPES, "request")


def decode_response(payload: Any):
    """Rebuild a response message from its wire form (strictly validated)."""
    return _decode(payload, _RESPONSE_TYPES, "response")
