"""Structured error taxonomy and bounded retry for PolygraphMR.

Every failure surfaced by the artifact store or ensemble runtime is an
instance of :class:`PolygraphError` carrying a machine-readable ``reason``
code, so callers (and the audit tooling) can aggregate failures without
parsing message strings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .metrics import get_registry

__all__ = [
    "PolygraphError",
    "ArtifactError",
    "ArtifactCorrupt",
    "ArtifactMissing",
    "IntegrityMismatch",
    "DegradedEnsemble",
    "TransientIOError",
    "CampaignError",
    "ConfigError",
    "ServeError",
    "RetryPolicy",
    "retry_with_backoff",
]


class PolygraphError(Exception):
    """Base class for every error raised by polygraphmr.

    Construction increments the error-taxonomy counter
    ``errors_total{type, reason}`` — every subclass funnels through here, so
    the counter is the machine-readable failure census the ``reason`` codes
    were designed for.  Subclasses that carry a ``reason`` set it *before*
    calling ``super().__init__``, which is what makes the label available.
    """

    def __init__(self, *args):
        super().__init__(*args)
        get_registry().counter(
            "errors_total", type=type(self).__name__, reason=str(getattr(self, "reason", ""))
        ).inc()


class ArtifactError(PolygraphError):
    """A problem with a single on-disk artifact.

    Parameters
    ----------
    path:
        Filesystem path of the offending artifact.
    reason:
        Short machine-readable code, e.g. ``"bad-zip"``, ``"not-found"``,
        ``"probs-not-simplex"``.
    detail:
        Optional human-readable elaboration.
    """

    def __init__(self, path: str | Path, reason: str, detail: str = ""):
        self.path = str(path)
        self.reason = reason
        self.detail = detail
        msg = f"{self.path}: {reason}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class ArtifactCorrupt(ArtifactError):
    """The artifact exists but its bytes are not a loadable archive."""


class ArtifactMissing(ArtifactError):
    """An expected artifact file is absent from the cache."""

    def __init__(self, path: str | Path, reason: str = "not-found", detail: str = ""):
        super().__init__(path, reason, detail)


class IntegrityMismatch(ArtifactError):
    """The artifact loads, but its contents violate a semantic invariant
    (wrong shape, non-finite values, probability rows not on the simplex)."""


class DegradedEnsemble(PolygraphError):
    """The ensemble cannot run even in degraded mode (too few members)."""

    def __init__(self, model: str, available: Sequence[str], required: int):
        self.model = model
        self.available = list(available)
        self.required = required
        super().__init__(
            f"model {model!r}: only {len(self.available)} usable member(s) "
            f"{self.available}, need >= {required}"
        )


class TransientIOError(PolygraphError):
    """Raised when bounded retries on a transient IO failure are exhausted."""

    def __init__(self, path: str | Path, attempts: int, last: BaseException):
        self.path = str(path)
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"{self.path}: gave up after {attempts} attempt(s): {last!r}"
        )


class CampaignError(PolygraphError):
    """A fault-injection campaign cannot proceed.  Carries a machine-readable
    ``reason``; codes in use include ``journal-bad-checksum`` /
    ``journal-unparseable-line`` (committed journal history was altered),
    ``journal-chain-broken`` (a record's ``prev`` does not link to its
    predecessor's seal — or the checkpoint-sealed chain head disagrees with
    the journal), ``journal-no-header``, ``journal-version-mismatch``,
    ``config-mismatch``, ``journal-behind-checkpoint`` (a checkpoint
    committed more records than the journal or a worker shard still holds),
    ``checkpoint-invalid`` (a checksum-valid checkpoint with a mistyped
    field), ``journal-exists``, ``no-models``, and ``bad-workers``."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        msg = reason if not detail else f"{reason} ({detail})"
        super().__init__(msg)


class ServeError(PolygraphError):
    """The serving gateway cannot serve a request or come up.  Carries a
    machine-readable ``reason``; codes in use include ``unknown-model`` (no
    such model directory under the served cache), ``frame-too-large`` (an
    unterminated protocol frame exceeded the bound — the connection's frame
    boundaries can no longer be trusted), and ``no-listener`` (the gateway
    was configured with neither a TCP host nor a unix socket)."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        msg = reason if not detail else f"{reason} ({detail})"
        super().__init__(msg)


class ConfigError(PolygraphError, ValueError):
    """A declarative configuration is invalid — a fault scenario file, a
    :class:`~polygraphmr.faults.FaultSpec`, or a campaign parameter.

    Raised at *construction/parse* time, never deep inside an injection
    loop, so the offending field is named while the full config context is
    still at hand.  Subclasses :class:`ValueError` as well so callers that
    predate the taxonomy (``except ValueError``) keep working.

    Parameters
    ----------
    field:
        Exact path of the offending field, e.g. ``"scenario.rate"`` or
        ``"scenarios/quantize-4bit.toml: scenario.step"``.
    reason:
        Short machine-readable code, e.g. ``"out-of-range"``,
        ``"unknown-kind"``, ``"missing-field"``.
    detail:
        Human-readable elaboration — what was found, what would be valid.
    """

    def __init__(self, field: str, reason: str, detail: str = ""):
        self.field = field
        self.reason = reason
        self.detail = detail
        msg = f"{field}: {reason}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``sleep`` is injectable so tests never actually wait.  The jitter is drawn
    from a PRNG seeded with ``seed`` alone, so the same policy always produces
    the same sleep schedule — a resumed campaign retries exactly like the run
    it replaces.  ``max_total_sleep`` caps the summed backoff of one
    :func:`retry_with_backoff` call so a retry storm cannot stall a sweep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.0  # fraction of each delay added, in [0, 1]
    seed: int = 0
    max_total_sleep: float = 5.0
    retry_on: tuple[type[BaseException], ...] = (OSError,)
    sleep: Callable[[float], None] = field(default=time.sleep)

    def delay_for(self, attempt: int, *, rng: random.Random | None = None) -> float:
        delay = min(self.base_delay * (2**attempt), self.max_delay)
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def schedule(self) -> list[float]:
        """The full (deterministic) sleep schedule this policy would follow,
        after jitter and the total-sleep cap — handy for tests and audits."""

        rng = random.Random(self.seed)
        out: list[float] = []
        budget = self.max_total_sleep
        for attempt in range(max(0, self.attempts - 1)):
            delay = min(self.delay_for(attempt, rng=rng), budget)
            out.append(delay)
            budget -= delay
        return out

    def sleep_budget_clamped(self) -> bool:
        """Whether ``max_total_sleep`` truncates this policy's backoff — i.e.
        the uncapped delays would sleep longer than the budget allows."""

        rng = random.Random(self.seed)
        uncapped = sum(self.delay_for(a, rng=rng) for a in range(max(0, self.attempts - 1)))
        return uncapped > self.max_total_sleep


def retry_with_backoff(
    fn: Callable[[], T],
    *,
    path: str | Path = "<unknown>",
    policy: RetryPolicy | None = None,
) -> T:
    """Call ``fn`` up to ``policy.attempts`` times, backing off between tries.

    Only exceptions listed in ``policy.retry_on`` are retried; anything else
    propagates immediately.  Once attempts are exhausted the last error is
    wrapped in :class:`TransientIOError` so callers can distinguish "the disk
    hiccuped" from "the file is garbage".

    Sleeps follow ``policy.schedule()``: seeded jitter keeps the schedule
    reproducible across runs, and the summed sleep never exceeds
    ``policy.max_total_sleep``.
    """

    policy = policy or RetryPolicy()
    schedule = policy.schedule()
    last: BaseException | None = None
    for attempt in range(policy.attempts):
        try:
            return fn()
        except policy.retry_on as exc:  # noqa: PERF203 - loop is the point
            last = exc
            get_registry().counter("retry_attempts_total").inc()
            if attempt + 1 < policy.attempts and schedule[attempt] > 0.0:
                policy.sleep(schedule[attempt])
    assert last is not None
    # Exhaustion is a countable event, not just a journalled one: the sweep
    # dashboards need to see retry storms without parsing error strings.
    get_registry().counter("retry_exhausted_total").inc()
    if policy.sleep_budget_clamped():
        get_registry().counter("retry_sleep_budget_exhausted_total").inc()
    raise TransientIOError(path, policy.attempts, last)
