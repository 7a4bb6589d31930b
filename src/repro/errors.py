"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A cache, scheme, or workload was configured with invalid parameters.

    Examples: a non-power-of-two associativity, a partial-compare subset
    count that does not divide the associativity, or a tag width too
    narrow for the requested partial-compare width.
    """


class TraceFormatError(ReproError):
    """A trace file or stream could not be parsed."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state.

    This indicates a bug in the library rather than a user error; it is
    raised by internal invariant checks.
    """


class SweepPointError(ReproError):
    """A sweep point failed inside a worker process.

    Raised by the parallel runners in place of the bare worker
    traceback: the message names the failing
    :class:`~repro.experiments.runner.SweepPoint` configuration and the
    original error, and the failure is recorded in the run manifest
    (when one is being emitted). The original exception is chained as
    ``__cause__`` where the process boundary allows it.

    ``failure`` carries the structured
    :class:`~repro.resilience.policy.PointFailure` payload — point
    signature, exception class, traceback text, attempt count, worker
    pid — when the raising layer has one (``None`` otherwise).
    """

    def __init__(self, message: str, failure=None) -> None:
        super().__init__(message)
        self.failure = failure

    def __reduce__(self):
        """Preserve the ``failure`` payload across process boundaries."""
        return (type(self), (self.args[0] if self.args else "", self.failure))


class SweepTimeoutError(SweepPointError):
    """A sweep point exceeded its per-point wall-clock timeout.

    Raised (or recorded as a :class:`~repro.resilience.policy.PointFailure`
    with ``kind="timeout"``) by the resilient sweep executor when a
    worker does not finish a point within
    :attr:`~repro.resilience.policy.RetryPolicy.timeout` seconds; the
    hung worker pool is killed and re-created.
    """


class StorageError(ReproError):
    """A durable-storage operation failed at the disk level.

    Raised by the :mod:`repro.storage` I/O layer (and the writers
    threaded through it — checkpoints, artifact stores, spool writers,
    bench histories) when the operating system refuses a write:
    ``ENOSPC``, ``EIO``, a failed ``fsync``. Unlike a transient worker
    fault, retrying without operator action will not help, so it
    surfaces as this typed error (``repro-sweep`` exits 2 on it)
    instead of a bare ``OSError``.
    """


class IntegrityError(StorageError):
    """Stored data failed an end-to-end integrity check on read.

    Raised when a CRC32 record frame, an RPM2 column checksum, or a
    bench-history envelope checksum does not match the bytes on disk —
    bitrot, a torn write that survived undetected, or manual tampering.
    The contract is *detected, never silently wrong*: a reader that
    cannot verify raises this instead of returning plausible garbage,
    and ``repro-fsck`` repairs or quarantines the file.
    """


class CheckpointError(ReproError):
    """A sweep checkpoint could not be created, read, or matched.

    Examples: a corrupt header line, a schema version from a newer
    writer, a ``config_hash`` recorded for a different workload than
    the one being resumed, or a second writer holding the checkpoint's
    advisory lock.
    """
