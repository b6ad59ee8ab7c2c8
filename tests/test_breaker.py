"""Circuit breakers: state-machine transitions, serialisation, and the
runtime wiring that turns repeated corrupt loads into cheap skips."""

from __future__ import annotations

import shutil

from polygraphmr.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, BreakerPolicy, CircuitBreaker
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.faults import corrupt_file_truncate, prepare_degradation
from polygraphmr.store import ArtifactStore

from .conftest import SYNTH_MEMBERS


class TestCircuitBreaker:
    def test_trips_only_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=3, cooldown_ticks=2))
        b.record_failure(tick=1)
        b.record_failure(tick=1)
        assert b.state == CLOSED
        b.record_failure(tick=1)
        assert b.state == OPEN
        assert b.opened_at_tick == 1

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=3, cooldown_ticks=2))
        b.record_failure(tick=1)
        b.record_failure(tick=1)
        b.record_success()
        b.record_failure(tick=2)
        b.record_failure(tick=2)
        assert b.state == CLOSED  # the streak restarted; threshold not reached

    def test_open_skips_until_cooldown_then_half_opens(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown_ticks=2))
        b.record_failure(tick=5)
        assert b.state == OPEN
        assert not b.allow(tick=5)
        assert not b.allow(tick=6)
        assert b.n_skipped == 2
        assert b.allow(tick=7)  # cooldown elapsed: the probe is admitted
        assert b.state == HALF_OPEN

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown_ticks=1))
        b.record_failure(tick=1)
        assert b.allow(tick=2)
        b.record_success()
        assert b.state == CLOSED
        assert b.consecutive_failures == 0

    def test_half_open_probe_failure_reopens_immediately(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=5, cooldown_ticks=1))
        for _ in range(5):
            b.record_failure(tick=1)
        assert b.allow(tick=2)
        assert b.state == HALF_OPEN
        b.record_failure(tick=2)  # one failure suffices in half-open
        assert b.state == OPEN
        assert b.opened_at_tick == 2

    def test_snapshot_restore_round_trip(self):
        policy = BreakerPolicy(failure_threshold=2, cooldown_ticks=3)
        b = CircuitBreaker(policy)
        b.record_failure(tick=4)
        b.record_failure(tick=4)
        assert not b.allow(tick=5)

        clone = CircuitBreaker(policy)
        clone.restore(b.snapshot())
        assert clone.state == b.state
        assert clone.opened_at_tick == b.opened_at_tick
        assert not clone.allow(tick=6)
        assert clone.allow(tick=7)  # same cooldown arithmetic as the original


class TestBreakerBoard:
    def test_states_and_non_closed(self):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=9))
        board.tick()
        board.record_failure("m", "pp-Hist")
        board.record_success("m", "ORG")
        assert board.state("m", "pp-Hist") == OPEN
        assert board.state("m", "ORG") == CLOSED
        assert board.state("m", "never-seen") == CLOSED
        assert board.non_closed() == {"m/pp-Hist": OPEN}
        assert board.states_for("m") == {"pp-Hist": OPEN}
        assert board.states_for("other") == {}

    def test_snapshot_restore_preserves_tick_clock(self):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=2))
        board.tick()
        board.tick()
        board.record_failure("m", "pp-Hist")

        clone = BreakerBoard(board.policy)
        clone.restore(board.snapshot())
        assert clone.tick_count == 2
        assert clone.state("m", "pp-Hist") == OPEN
        # one more tick is still inside the cooldown, the next is not
        clone.tick()
        assert not clone.allow("m", "pp-Hist")
        clone.tick()
        assert clone.allow("m", "pp-Hist")


class TestRuntimeIntegration:
    def _corrupt_member(self, cache, stem):
        src = cache / "tinynet" / "ORG.val.probs.npz"
        for split in ("val", "test"):
            corrupt_file_truncate(
                src, cache / "tinynet" / f"{stem}.{split}.probs.npz", keep_fraction=0.3, seed=13
            )

    def test_open_breaker_skips_load_attempts(self, synthetic_store, synthetic_cache):
        """threshold=2, cooldown=2: load attempts per trial must go 2, 0, 1 —
        trip on trial 1 (val+test), skip trial 2, half-open probe on trial 3."""

        self._corrupt_member(synthetic_cache, "pp-Hist")
        board = BreakerBoard(BreakerPolicy(failure_threshold=2, cooldown_ticks=2))
        runtime = EnsembleRuntime(synthetic_store, breakers=board)

        attempts: list[int] = []
        inner = synthetic_store.try_load_probs

        def counting(model, stem, split, **kwargs):
            if stem == "pp-Hist":
                attempts[-1] += 1
            return inner(model, stem, split, **kwargs)

        synthetic_store.try_load_probs = counting

        contexts, states = [], []
        for _ in range(3):
            attempts.append(0)
            contexts.append(
                prepare_degradation(synthetic_store, "tinynet", members=list(SYNTH_MEMBERS), runtime=runtime)
            )
            states.append(board.states_for("tinynet"))

        assert attempts == [2, 0, 1]
        assert all(ctx.session.degraded for ctx in contexts)
        assert contexts[1].session.quarantined["pp-Hist"] == "circuit-open"
        assert states[1].get("pp-Hist") == OPEN
        # the half-open probe on trial 3 failed again, so the breaker re-opened
        assert states[2].get("pp-Hist") == OPEN
        assert board.state("tinynet", "pp-Hist") == OPEN

    def test_breaker_closes_after_artifacts_are_repaired(self, synthetic_cache):
        """The resume scenario: trip the breaker against corrupt artifacts,
        repair the files on disk, then run with a *fresh store* (quarantine is
        per-instance) but the *same board* — the half-open probe must succeed
        and the member must rejoin the ensemble."""

        self._corrupt_member(synthetic_cache, "pp-Hist")
        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=1))

        tripped = EnsembleRuntime(ArtifactStore(synthetic_cache), breakers=board)
        first = prepare_degradation(tripped.store, "tinynet", members=list(SYNTH_MEMBERS), runtime=tripped)
        assert first.session.degraded
        assert board.state("tinynet", "pp-Hist") == OPEN

        for split in ("val", "test"):  # repair: restore valid (ORG-shaped) probs
            shutil.copyfile(
                synthetic_cache / "tinynet" / f"ORG.{split}.probs.npz",
                synthetic_cache / "tinynet" / f"pp-Hist.{split}.probs.npz",
            )

        recovered = EnsembleRuntime(ArtifactStore(synthetic_cache), breakers=board)
        second = prepare_degradation(recovered.store, "tinynet", members=list(SYNTH_MEMBERS), runtime=recovered)
        assert board.state("tinynet", "pp-Hist") == CLOSED
        assert "pp-Hist" in second.session.members
        assert not second.session.degraded
        assert board.states_for("tinynet") == {}

    def test_missing_files_never_trip_breakers(self, synthetic_store, synthetic_cache):
        for split in ("val", "test"):
            (synthetic_cache / "tinynet" / f"pp-FlipX.{split}.probs.npz").unlink()
        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=1))
        runtime = EnsembleRuntime(synthetic_store, breakers=board)
        for _ in range(3):
            ctx = prepare_degradation(synthetic_store, "tinynet", members=list(SYNTH_MEMBERS), runtime=runtime)
        assert board.state("tinynet", "pp-FlipX") == CLOSED
        assert "pp-FlipX" in ctx.session.missing
