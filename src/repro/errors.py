"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so user
code can catch a single base class.  Sub-hierarchies exist for the PACE
modelling languages (PSL / HMCL / capp), the discrete-event cluster
simulator, and the SWEEP3D application layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


# ---------------------------------------------------------------------------
# Modelling-language errors (PSL / HMCL / capp)
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for errors in PACE model definition or evaluation."""


class PslError(ModelError):
    """Base class for Performance Specification Language errors."""


class PslSyntaxError(PslError):
    """Raised by the PSL lexer/parser on malformed input.

    Parameters
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based source position of the offending token, when known.
    filename:
        Name of the script being parsed, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, filename: str | None = None):
        self.line = line
        self.column = column
        self.filename = filename
        location = ""
        if filename is not None:
            location += f"{filename}:"
        if line is not None:
            location += f"{line}"
            if column is not None:
                location += f":{column}"
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class PslNameError(PslError):
    """Raised when a PSL identifier cannot be resolved during evaluation."""


class PslEvaluationError(PslError):
    """Raised when a PSL procedure fails to evaluate."""


class HmclError(ModelError):
    """Base class for Hardware Modelling and Configuration Language errors."""


class HmclSyntaxError(HmclError):
    """Raised on malformed HMCL hardware description scripts."""


class HmclLookupError(HmclError):
    """Raised when a hardware resource value (clc cost, mpi parameter) is missing."""


class CappError(ModelError):
    """Base class for errors from the ``capp`` static C source analyser."""


class CappSyntaxError(CappError):
    """Raised when the C-subset parser cannot understand the source."""


class EvaluationError(ModelError):
    """Raised when the PACE evaluation engine cannot produce a prediction."""


# ---------------------------------------------------------------------------
# Cluster simulator errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event cluster simulator errors."""


class DeadlockError(SimulationError):
    """Raised when every live simulated rank is blocked and no event is pending."""

    def __init__(self, message: str, blocked_ranks: list[int] | None = None):
        self.blocked_ranks = list(blocked_ranks or [])
        super().__init__(message)


class RankFailureError(SimulationError):
    """Raised when a simulated rank's program raises an exception."""

    def __init__(self, rank: int, original: BaseException):
        self.rank = rank
        self.original = original
        super().__init__(f"rank {rank} failed: {original!r}")


class CommunicatorError(SimulationError):
    """Raised on invalid use of the simulated MPI communicator API."""


class TraceError(SimulationError):
    """Raised when a rank program cannot be trace-compiled for replay.

    Trace replay (:mod:`repro.simmpi.trace`) requires the event pattern to
    be independent of virtual time: numeric payload runs and clock reads
    make the pattern (or its results) timing-dependent and are rejected
    with this error.
    """


class NetworkConfigError(SimulationError):
    """Raised when a network model is configured with invalid parameters."""


class ProcessorConfigError(SimulationError):
    """Raised when a processor model is configured with invalid parameters."""


# ---------------------------------------------------------------------------
# Application (SWEEP3D) errors
# ---------------------------------------------------------------------------


class Sweep3DError(ReproError):
    """Base class for SWEEP3D application errors."""


class InputDeckError(Sweep3DError):
    """Raised for malformed or inconsistent SWEEP3D input decks."""


class DecompositionError(Sweep3DError):
    """Raised when a problem cannot be decomposed onto the processor array."""


class ConvergenceError(Sweep3DError):
    """Raised when source iteration fails to converge within the allowed iterations."""


# ---------------------------------------------------------------------------
# Experiment harness errors
# ---------------------------------------------------------------------------


class ExperimentError(ReproError):
    """Raised when an experiment definition or run is invalid."""


class StoreError(ExperimentError):
    """Raised by artifact/cache stores (:mod:`repro.experiments.remotestore`)
    on bad keys, missing objects, or backend I/O failures."""


class FleetError(ExperimentError):
    """Raised by the elastic shard fleet (:mod:`repro.experiments.fleet`)
    on coordinator/worker protocol violations or an unrecoverable run."""


# ---------------------------------------------------------------------------
# Prediction-service errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Raised for prediction-service failures (server- or client-side).

    ``status`` carries the HTTP status code the condition maps to — the
    server uses it to pick the response status, the client re-raises the
    server's reported code.
    """

    def __init__(self, message: str, status: int = 400):
        self.status = status
        super().__init__(message)


class ProtocolError(ServiceError):
    """Raised when a service message cannot be encoded or decoded.

    Covers version mismatches, unknown message types and malformed or
    unexpected fields on the wire (:mod:`repro.service.protocol`).
    """


class MachineNotFoundError(ExperimentError):
    """Raised when a machine name is not present in the registry."""
