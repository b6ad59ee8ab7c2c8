"""Sparse-fault delta evaluation: a trial recomputes only the samples its
fault touches and splices them into the memoised clean reference.  The
reference is the whole-split public chain, ``sanitize_probs_batch(
spec.apply_batch(stack))`` → ``ensemble_features`` → ``test_targets`` →
``predict_proba``; every array must equal it bit for bit."""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr import faults
from polygraphmr.decision import LogisticDecisionModule, ensemble_features, misprediction_targets
from polygraphmr.ensemble import EnsembleRuntime, ModelSession, _score_clean
from polygraphmr.faults import (
    FAULT_MODELS,
    DegradationContext,
    FaultDraw,
    FaultSpec,
    _faulted_scores,
    degradation_report,
    prepare_degradation,
    sanitize_probs_batch,
)
from polygraphmr.scenarios import Scenario, builtin_scenarios
from polygraphmr.store import ArtifactStore

from . import oracles

PROBS_SCENARIOS = sorted(name for name, s in builtin_scenarios().items() if s.target == "probs")
LEGACY = [("bitflip", rate, 0.0) for rate in (0.0, 0.0005, 0.001, 0.01, 0.05, 0.2, 1.0)] + [
    ("gaussian", 0.0, sigma) for sigma in (0.0, 0.05)
]
F32 = np.dtype(np.float32)


def chain(session: ModelSession, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whole-split public chain a trial used to run."""

    stack = sanitize_probs_batch(spec.apply_batch(session.test_stack))
    features = ensemble_features(stack)
    return features, session.test_targets(stack), session.module.predict_proba(features)


def assert_same(got, want) -> None:
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def dense_report(ctx: DegradationContext, spec) -> dict:
    """``degradation_report`` with every fault taken as dense."""

    with mock.patch.object(faults, "DENSE_SHARE", -1.0):
        return degradation_report(ctx, spec, baselines=True)


@pytest.fixture()
def delta_ctx(delta_cache):
    return prepare_degradation(ArtifactStore(delta_cache), "delta")


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", PROBS_SCENARIOS)
    def test_every_builtin_scenario_equals_the_chain(self, delta_ctx, name, seed):
        fault = builtin_scenarios()[name].fault(seed)
        assert_same(_faulted_scores(delta_ctx, fault), chain(delta_ctx.session, fault))
        assert degradation_report(delta_ctx, fault, baselines=True) == dense_report(delta_ctx, fault)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(("kind", "rate", "sigma"), LEGACY)
    def test_every_legacy_kind_and_rate_equals_the_chain(self, delta_ctx, kind, rate, sigma, seed):
        spec = FaultSpec(kind, rate=rate, sigma=sigma, seed=seed)
        assert_same(_faulted_scores(delta_ctx, spec), chain(delta_ctx.session, spec))
        assert degradation_report(delta_ctx, spec, baselines=True) == dense_report(delta_ctx, spec)

    @pytest.mark.parametrize("slab", [1, 7, 1200, 5000])
    def test_reference_slabs_do_not_change_bytes(self, delta_cache, monkeypatch, slab):
        """The delta split has 1201 samples: slabs of 1200 leave a last slab
        of one sample, slabs of 5000 build it in one go."""

        monkeypatch.setattr(faults, "REFERENCE_SLAB", slab)
        ctx = prepare_degradation(ArtifactStore(delta_cache), "delta")
        spec = FaultSpec("bitflip", rate=0.001, seed=3)
        assert_same(_faulted_scores(ctx, spec), chain(ctx.session, spec))

    def test_sparse_faults_take_the_row_path_and_dense_ones_do_not(self, delta_ctx, monkeypatch):
        gathered = []
        real = faults._inject
        monkeypatch.setattr(
            faults,
            "_inject",
            lambda stack, draw, dtype, rows=slice(None): gathered.append(rows) or real(stack, draw, dtype, rows),
        )
        n = delta_ctx.session.n_samples
        for spec in (
            FaultSpec("bitflip", rate=0.001, seed=1),  # about 1% of the samples
            builtin_scenarios()["element-bitflip-8"].fault(1),
            FaultSpec("bitflip", rate=0.5, seed=1),  # every sample: dense
            FaultSpec("gaussian", sigma=0.05, seed=1),  # no index selection: dense
            builtin_scenarios()["channel-bitflip-10pct"].fault(1),  # every sample of a column
        ):
            degradation_report(delta_ctx, spec)
        assert [isinstance(rows, slice) for rows in gathered] == [False, False, True, True, True]
        assert 0 < gathered[0].size < 0.05 * n and 0 < gathered[1].size <= 8

    def test_one_sample_fault_equals_the_chain(self, delta_ctx):
        """A single touched sample is featurized as a one-row stack."""

        one = Scenario(name="one", surface="element", kind="gaussian", sigma=0.3, count=1)
        for seed in range(24):
            fault = one.fault(seed)
            assert_same(_faulted_scores(delta_ctx, fault), chain(delta_ctx.session, fault))

    # casting the signalling NaN a flip leaves (0x7FA00000) to float64 warns
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    def test_planted_special_bitflip_results(self, delta_ctx):
        """Flips that leave NaN, ±inf, subnormals and all-zero rows on the
        touched samples, and a tied vote, still equal the chain."""

        session = delta_ctx.session
        stack = np.array(session.test_stack)
        m, n, c = stack.shape
        # sample 3: 1.0 / 1.5 / 1.25 in ORG become +inf / NaN / NaN under a
        # bit-30 flip; sample 9: a subnormal-bound 1.5·2^-126 loses bit 23
        stack[0, 3, :3] = [1.0, 1.5, 1.25]
        stack[1, 3, 0] = -1.0  # -> -inf
        stack[2, 9, 0] = np.float32(1.5 * 2.0**-126)
        # sample 17: every member uniform, a tie on every vote
        stack[:, 17, :] = 1.0 / c
        stack.flags.writeable = False
        idx = np.array([3 * c, 3 * c + 1, 3 * c + 2, 9 * c, 17 * c + 1])
        bits = np.array([30, 30, 30, 23, 0], dtype=np.uint32)
        draw = FaultDraw("bitflip", idx, bits)

        class Planted:
            target = "probs"
            dtype = F32

            def draw(self, shape):
                return draw

            def apply_batch(self, stacked):
                out = np.array(stacked, dtype=np.float32, order="C")
                draw.apply(out.reshape(out.shape[0], -1))
                return out

        planted = DegradationContext(session=_with_stack(session, stack), **_clean_fields(session, stack))
        faulted = Planted().apply_batch(stack)
        assert np.isposinf(faulted[0, 3, 0]) and np.isnan(faulted[0, 3, 1:3]).all() and np.isneginf(faulted[1, 3, 0])
        assert 0 < abs(faulted[2, 9, 0]) < np.finfo(np.float32).tiny
        assert_same(_faulted_scores(planted, Planted()), chain(planted.session, Planted()))


class TestReferenceMemo:
    def test_built_once_per_dtype_and_shared_by_contexts(self, delta_cache):
        runtime = EnsembleRuntime(ArtifactStore(delta_cache))
        first = prepare_degradation(runtime.store, "delta", runtime=runtime)
        degradation_report(first, FaultSpec("bitflip", rate=0.001, seed=1))
        degradation_report(first, builtin_scenarios()["stuck-at-one-0.1pct"].fault(1))
        assert set(first.references) == {F32, np.dtype(np.float64)}
        # the synthetic artifacts hold float32 values: one reference serves both
        assert first.references[F32] is first.references[np.dtype(np.float64)]
        again = prepare_degradation(runtime.store, "delta", runtime=runtime)
        assert again.references is first.references
        before = dict(first.references)
        degradation_report(again, FaultSpec("bitflip", rate=0.001, seed=2))
        assert all(again.references[k] is v for k, v in before.items())
        for ref in before.values():
            for array in (ref.features, ref.targets):
                assert not array.flags.writeable

    def test_each_dtype_splices_into_its_own_reference(self, delta_ctx):
        """Faults of both dtypes, interleaved on one context, each equal the
        chain: the float32 reference (the clean split rounded to float32)
        is never spliced into a float64 trial, nor the other way round.  The
        synthetic artifacts hold float32 values, so the stack is nudged off
        them to make the two references differ."""

        session = delta_ctx.session
        stack = session.test_stack * (1.0 - 1e-9) + 1e-10
        stack.flags.writeable = False
        ctx = DegradationContext(session=_with_stack(session, stack), **_clean_fields(session, stack))
        specs = [
            FaultSpec("bitflip", rate=0.001, seed=1),
            builtin_scenarios()["stuck-at-one-0.1pct"].fault(1),
            builtin_scenarios()["element-bitflip-8"].fault(2),
            builtin_scenarios()["stuck-at-zero-1pct"].fault(2),
        ]
        for spec in specs + specs[::-1]:
            assert_same(_faulted_scores(ctx, spec), chain(ctx.session, spec))
        f32, f64 = ctx.references[F32], ctx.references[np.dtype(np.float64)]
        assert not np.array_equal(f32.features, f64.features)

    @pytest.mark.parametrize("first", [F32, np.dtype(np.float64)])
    def test_float32_valued_split_shares_one_reference(self, delta_ctx, monkeypatch, first):
        """Sanitizing widens to float64, so on a split of float32 values the
        float32 reference is the float64 one: it is built once, whichever
        dtype asks first, and both dtypes still equal the chain."""

        built = []
        real = faults._featurize_rows
        monkeypatch.setattr(faults, "_featurize_rows", lambda s, f, rows: built.append(f.dtype) or real(s, f, rows))
        bitflip = FaultSpec("bitflip", rate=0.001, seed=1)
        stuck = builtin_scenarios()["stuck-at-one-0.1pct"].fault(1)
        specs = [bitflip, stuck] if first == F32 else [stuck, bitflip]
        for spec in specs + specs:
            assert_same(_faulted_scores(delta_ctx, spec), chain(delta_ctx.session, spec))
        slabs = -(-delta_ctx.session.n_samples // faults.REFERENCE_SLAB)
        # four trials featurize their own rows; the reference is built once, in float32 slabs
        assert built.count(F32) == 2 + slabs and built.count(np.dtype(np.float64)) == 2
        assert delta_ctx.references[F32] is delta_ctx.references[np.dtype(np.float64)]

    def test_dense_faults_build_no_reference(self, delta_ctx):
        degradation_report(delta_ctx, FaultSpec("gaussian", sigma=0.05, seed=1))
        assert delta_ctx.references == {}

    def test_rewritten_test_member_drops_the_reference(self, delta_cache, write_probs):
        runtime = EnsembleRuntime(ArtifactStore(delta_cache))
        stale = prepare_degradation(runtime.store, "delta", runtime=runtime)
        spec = FaultSpec("bitflip", rate=0.001, seed=4)
        degradation_report(stale, spec)
        path = runtime.store.probs_path("delta", "pp-FlipX", "test")
        write_probs(path, np.roll(np.load(path)["probs"], 1, axis=-1))
        st = os.stat(path)  # a new signature even where timestamps are coarse
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        fresh = prepare_degradation(runtime.store, "delta", runtime=runtime)
        assert fresh.references is not stale.references and fresh.references == {}
        assert degradation_report(fresh, spec) == degradation_report(
            prepare_degradation(ArtifactStore(delta_cache), "delta"), spec
        )
        assert_same(_faulted_scores(fresh, spec), chain(fresh.session, spec))


# ---------------------------------------------------------------------------
# hypothesis property: random shapes, selections and special values
# ---------------------------------------------------------------------------

# float32 values whose bit flips land on NaN, ±inf, subnormals and zeros
PALETTE = np.array([1.0, 1.5, 1.25, 0.75, 0.5, 0.25, 0.1, 0.0, 1.5 * 2.0**-126, 2.0**-126], dtype=np.float32)


def _clean_fields(session: ModelSession, stack: np.ndarray) -> dict:
    baseline = _score_clean(_with_stack(session, stack))
    return {
        "clean_features": baseline.features,
        "clean_targets": baseline.targets,
        "clean_flags": baseline.flags,
        "clean": baseline.metrics,
    }


def _with_stack(session: ModelSession, stack: np.ndarray) -> ModelSession:
    return ModelSession(
        model=session.model,
        members=session.members,
        val_stack=session.val_stack,
        test_stack=stack,
        module=session.module,
        missing=[],
        quarantined={},
        test_labels=session.test_labels,
    )


def _context(m: int, n: int, c: int, base: int, palette: bool) -> DegradationContext:
    rng = np.random.default_rng(base)
    val = rng.random((m, 24, c)).astype(np.float32)
    val /= val.sum(axis=-1, keepdims=True)
    val_labels = rng.integers(0, c, size=24)
    if palette:
        test = rng.choice(PALETTE, size=(m, n, c))
        uniform = rng.random(n) < 0.3  # tied votes on every member
        test[:, uniform, :] = np.float32(1.0 / c)
    else:
        test = rng.random((m, n, c)).astype(np.float32)
        test /= test.sum(axis=-1, keepdims=True)
    test.flags.writeable = False
    module = LogisticDecisionModule().fit(ensemble_features(val), misprediction_targets(val[0], val_labels))
    members = ["ORG"] + [f"m{i}" for i in range(1, m)]
    session = ModelSession("prop", members, val, test, module, [], {}, rng.integers(0, c, size=n))
    return DegradationContext(session=session, **_clean_fields(session, test))


@st.composite
def _fault(draw, n: int, c: int):
    kind = draw(st.sampled_from(FAULT_MODELS))
    surface = draw(st.sampled_from(("tensor", "element", "channel", "legacy")))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 2))
    if surface == "legacy":
        if draw(st.booleans()):
            rate = draw(st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0))
            return FaultSpec("bitflip", rate=rate, seed=seed)
        return FaultSpec("gaussian", sigma=draw(st.sampled_from((0.0, 0.05, 2.0))), seed=seed)
    params = {
        "gaussian": {"sigma": 0.1},
        "quantize": {"step": draw(st.sampled_from((0.0625, 0.5)))},
    }.get(kind, {})
    if surface == "element":
        params["count"] = draw(st.integers(min_value=1, max_value=n * c))
    else:
        # rates down to where the selection rounds to no element at all
        params["rate"] = draw(st.sampled_from((1.0, 1e-9)) | st.floats(min_value=1e-6, max_value=1.0))
    return Scenario(name="prop", surface=surface, kind=kind, **params).fault(seed)


class TestDeltaProperty:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @settings(max_examples=150)
    @given(
        m=st.integers(min_value=2, max_value=5),
        n=st.integers(min_value=1, max_value=40),
        c=st.integers(min_value=1, max_value=6),
        base=st.integers(min_value=0, max_value=99),
        palette=st.booleans(),
        share=st.sampled_from((1.0, faults.DENSE_SHARE)),
        slab=st.integers(min_value=1, max_value=50),
        data=st.data(),
    )
    def test_delta_equals_the_chain_and_the_oracle(self, m, n, c, base, palette, share, slab, data):
        ctx = _context(m, n, c, base, palette)
        spec = data.draw(_fault(n, c))
        with mock.patch.object(faults, "DENSE_SHARE", share), mock.patch.object(faults, "REFERENCE_SLAB", slab):
            got = _faulted_scores(ctx, spec)
        want = chain(ctx.session, spec)
        assert_same(got, want)
        # the touched samples, against the slow per-sample features of the
        # oracle-injected, oracle-sanitized members
        rows = spec.draw((n, c)).samples(c)
        rows = np.arange(n) if rows is None else rows
        injected = spec.apply_batch(ctx.session.test_stack)
        repaired = np.stack([oracles.sanitize_probs(member) for member in injected])
        assert np.array_equal(got[0][rows], oracles.ensemble_features(repaired)[rows], equal_nan=True)

    @settings(max_examples=80)
    @given(
        n=st.integers(min_value=1, max_value=30),
        c=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_draw_on_gathered_rows_equals_gathering_the_injected_stack(self, n, c, m, data):
        spec = data.draw(_fault(n, c))
        stack = np.random.default_rng(n * c).random((m, n, c)).astype(spec.dtype)
        draw = spec.draw((n, c))
        whole = stack.copy()
        draw.apply(whole.reshape(m, -1))
        rows = draw.samples(c)
        if rows is None:
            return
        assert np.array_equal(rows, np.unique(draw.idx // c))
        gathered = np.ascontiguousarray(stack[:, rows])
        draw.on_rows(rows, c).apply(gathered.reshape(m, -1))
        assert np.array_equal(gathered, whole[:, rows], equal_nan=True)
        untouched = np.setdiff1d(np.arange(n), rows)
        assert np.array_equal(whole[:, untouched], stack[:, untouched])
