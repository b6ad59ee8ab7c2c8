"""Per-submodel circuit breakers for the ensemble runtime.

A submodel whose artifacts fail validation once will very likely fail again
on the next batch — yet without a breaker the runtime re-reads and re-parses
the same corrupt bytes on every trial of a campaign.  Each (model, stem)
pair therefore gets a small state machine:

* **closed** — loads proceed normally.
* **open** — tripped after ``failure_threshold`` *consecutive* corrupt-load
  failures; the member is skipped without touching the disk.
* **half-open** — after a cool-down the breaker admits exactly one probe
  load; success closes it, failure re-opens it.

The cool-down is measured in runtime *ticks* (one tick per
:func:`~polygraphmr.faults.prepare_degradation` call, i.e. per campaign
trial, and one per gateway batch), never wall-clock time, so a resumed
campaign replays the same open/half-open/closed transitions as the run it
replaces.  The whole board serialises to plain JSON for the campaign
journal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import get_registry

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "merge_snapshots",
    "non_closed_in_snapshot",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When to trip and how long to stay open.

    ``cooldown_ticks`` counts runtime ticks, not seconds — trial counts are
    reproducible across resumes, wall-clock is not.
    """

    failure_threshold: int = 3
    cooldown_ticks: int = 2


class CircuitBreaker:
    """State machine for one (model, stem) member."""

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_tick: int | None = None
        self.n_skipped = 0  # cheap skips served while open

    def _transition(self, to_state: str) -> None:
        """Move to ``to_state``, counting the transition (out-of-band) when
        the state actually changes."""

        if self.state != to_state:
            get_registry().counter("breaker_transitions_total", to=to_state).inc()
        self.state = to_state

    def allow(self, tick: int) -> bool:
        """Whether a load may be attempted at ``tick``; flips open → half-open
        when the cool-down has elapsed (the admitted load is the probe)."""

        if self.state in (CLOSED, HALF_OPEN):
            return True
        assert self.opened_at_tick is not None
        if tick - self.opened_at_tick >= self.policy.cooldown_ticks:
            self._transition(HALF_OPEN)
            return True
        self.n_skipped += 1
        get_registry().counter("breaker_skips_total").inc()
        return False

    def record_success(self) -> None:
        self._transition(CLOSED)
        self.consecutive_failures = 0
        self.opened_at_tick = None

    def record_failure(self, tick: int) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or self.consecutive_failures >= self.policy.failure_threshold:
            self._transition(OPEN)
            self.opened_at_tick = tick

    # -- serialisation ---------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opened_at_tick": self.opened_at_tick,
            "n_skipped": self.n_skipped,
        }

    def restore(self, snap: dict) -> None:
        self.state = snap["state"]
        self.consecutive_failures = int(snap["consecutive_failures"])
        self.opened_at_tick = snap["opened_at_tick"]
        self.n_skipped = int(snap.get("n_skipped", 0))


class BreakerBoard:
    """All breakers for one runtime/campaign, keyed ``"<model>/<stem>"``."""

    def __init__(self, policy: BreakerPolicy | None = None):
        self.policy = policy or BreakerPolicy()
        self.tick_count = 0
        self._breakers: dict[str, CircuitBreaker] = {}

    @staticmethod
    def key(model: str, stem: str) -> str:
        return f"{model}/{stem}"

    def breaker(self, model: str, stem: str) -> CircuitBreaker:
        return self._breakers.setdefault(self.key(model, stem), CircuitBreaker(self.policy))

    def tick(self) -> int:
        """Advance the trial clock; called once per ``prepare_degradation``
        call (one per trial) and once per gateway batch."""

        self.tick_count += 1
        return self.tick_count

    def allow(self, model: str, stem: str) -> bool:
        return self.breaker(model, stem).allow(self.tick_count)

    def record_success(self, model: str, stem: str) -> None:
        self.breaker(model, stem).record_success()

    def record_failure(self, model: str, stem: str) -> None:
        self.breaker(model, stem).record_failure(self.tick_count)

    def state(self, model: str, stem: str) -> str:
        b = self._breakers.get(self.key(model, stem))
        return b.state if b is not None else CLOSED

    def non_closed(self) -> dict[str, str]:
        """Every breaker not in the closed state, keyed ``"<model>/<stem>"``."""

        return {k: b.state for k, b in sorted(self._breakers.items()) if b.state != CLOSED}

    def states_for(self, model: str) -> dict[str, str]:
        """Non-closed breaker states for one model's stems — what a
        degraded gateway reply reports."""

        prefix = f"{model}/"
        return {
            k.removeprefix(prefix): b.state
            for k, b in sorted(self._breakers.items())
            if k.startswith(prefix) and b.state != CLOSED
        }

    # -- serialisation ---------------------------------------------------

    def snapshot(self) -> dict:
        """Full JSON-serialisable state; journalled per trial so a resumed
        campaign restores exactly the breaker behaviour mid-sweep."""

        return {
            "tick_count": self.tick_count,
            "breakers": {k: b.snapshot() for k, b in sorted(self._breakers.items())},
        }

    def restore(self, snap: dict) -> None:
        self.tick_count = int(snap.get("tick_count", 0))
        self._breakers = {}
        for k, s in snap.get("breakers", {}).items():
            b = CircuitBreaker(self.policy)
            b.restore(s)
            self._breakers[k] = b


# -- snapshot algebra ------------------------------------------------------
#
# The campaign keeps one board *per model* (see
# polygraphmr.campaign.TrialExecutor), so the snapshots to combine are always
# disjoint in their breaker keys ("<model>/<stem>").  That makes the merge
# rule trivially deterministic: union the breaker entries (sorted by key) and
# sum the tick counts.  Summing ticks preserves the serial run's meaning —
# each board ticks once per trial of its model, so the sum is the total trial
# count, exactly what a single shared board would have counted.


def merge_snapshots(snaps) -> dict:
    """Fold per-model board snapshots into one board-shaped snapshot.

    ``snaps`` must have disjoint breaker keys (guaranteed when each snapshot
    belongs to a different model); a collision raises
    :class:`ValueError` rather than silently picking a winner.
    """

    tick_count = 0
    breakers: dict[str, dict] = {}
    for snap in snaps:
        tick_count += int(snap.get("tick_count", 0))
        for key, state in snap.get("breakers", {}).items():
            if key in breakers:
                raise ValueError(f"breaker key {key!r} present in multiple snapshots")
            breakers[key] = state
    return {"tick_count": tick_count, "breakers": {k: breakers[k] for k in sorted(breakers)}}


def non_closed_in_snapshot(snap: dict) -> dict[str, str]:
    """``BreakerBoard.non_closed()`` computed directly on a snapshot."""

    return {
        k: s["state"]
        for k, s in sorted(snap.get("breakers", {}).items())
        if s.get("state") != CLOSED
    }
