"""PolygraphMR: fault-tolerant misprediction detection for CNN ensembles.

Layers (see ``docs/ARCHITECTURE.md``):

1. Artifact store — validated, quarantining access to ``.repro_cache``
   (:mod:`polygraphmr.store`, :mod:`polygraphmr.integrity`,
   :mod:`polygraphmr.manifest`, :mod:`polygraphmr.naming`), with opt-in
   carving of damaged archives (:mod:`polygraphmr.salvage`) and a
   verified-once artifact cache (:mod:`polygraphmr.cache`).
2. Ensemble runtime — graceful-degradation assembly + decision module
   (:mod:`polygraphmr.ensemble`, :mod:`polygraphmr.decision`), guarded by
   per-submodel circuit breakers (:mod:`polygraphmr.breaker`).
3. Fault-injection harness (:mod:`polygraphmr.faults`) with declarative
   multi-resolution scenarios (:mod:`polygraphmr.scenarios`) and the
   crash-safe, resumable campaign runner over it
   (:mod:`polygraphmr.campaign`).
4. Error taxonomy + bounded retry (:mod:`polygraphmr.errors`).
5. Observability — out-of-band metrics registry and tracing spans
   (:mod:`polygraphmr.metrics`, :mod:`polygraphmr.tracing`).
"""

from .breaker import BreakerBoard, BreakerPolicy, CircuitBreaker
from .cache import ArtifactCache
from .decision import DetectionMetrics, LogisticDecisionModule
from .ensemble import DegradedResult, EnsembleResult, EnsembleRuntime, ModelSession, ModelSkipped
from .errors import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMissing,
    CampaignError,
    ConfigError,
    DegradedEnsemble,
    IntegrityMismatch,
    PolygraphError,
    RetryPolicy,
    ServeError,
    TransientIOError,
    retry_with_backoff,
)
from .manifest import CacheManifest, ModelManifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    load_registry,
    merge_registries,
    set_registry,
)
from .naming import display_to_stem, resolve_greedy_file, stem_to_display
from .salvage import SalvageReport, salvage_npz
from .store import ArtifactStore
from .tracing import Span, SpanRecord, Tracer, get_tracer, set_tracer

__version__ = "0.1.0"

_FAULT_EXPORTS = (
    "FaultSpec",
    "measure_degradation",
)
_CAMPAIGN_EXPORTS = (
    "CampaignConfig",
    "CampaignJournal",
    "CampaignRunner",
    "TrialExecutor",
    "TrialSpec",
    "report_campaign",
    "verify_campaign",
)
_PARALLEL_EXPORTS = ("ParallelCampaignRunner",)
_SCENARIO_EXPORTS = ("Scenario", "ScenarioFault", "builtin_scenarios", "resolve_scenarios")
_SERVE_EXPORTS = (
    "FrameAssembler",
    "PolygraphService",
    "ServeConfig",
    "ServeGateway",
    "ServeRequest",
    "parse_request",
    "request_frame",
    "response_frame",
)


def __getattr__(name: str):
    # Lazy so that `python -m polygraphmr.faults` / `python -m
    # polygraphmr.campaign` don't import those modules twice (package import
    # + runpy __main__ execution).
    if name in _FAULT_EXPORTS:
        from . import faults

        return getattr(faults, name)
    if name in _CAMPAIGN_EXPORTS:
        from . import campaign

        return getattr(campaign, name)
    if name in _PARALLEL_EXPORTS:
        from . import parallel

        return getattr(parallel, name)
    if name in _SCENARIO_EXPORTS:
        from . import scenarios

        return getattr(scenarios, name)
    if name in _SERVE_EXPORTS:
        from . import serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArtifactCache",
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactMissing",
    "ArtifactStore",
    "BreakerBoard",
    "BreakerPolicy",
    "CacheManifest",
    "CampaignConfig",
    "CampaignError",
    "CampaignJournal",
    "CampaignRunner",
    "CircuitBreaker",
    "ConfigError",
    "Counter",
    "DegradedEnsemble",
    "DegradedResult",
    "DetectionMetrics",
    "EnsembleResult",
    "EnsembleRuntime",
    "FaultSpec",
    "FrameAssembler",
    "Gauge",
    "Histogram",
    "IntegrityMismatch",
    "LogisticDecisionModule",
    "MetricsRegistry",
    "ModelManifest",
    "ModelSession",
    "ModelSkipped",
    "ParallelCampaignRunner",
    "PolygraphError",
    "PolygraphService",
    "RetryPolicy",
    "SalvageReport",
    "Scenario",
    "ScenarioFault",
    "ServeConfig",
    "ServeError",
    "ServeGateway",
    "ServeRequest",
    "Span",
    "SpanRecord",
    "Tracer",
    "TransientIOError",
    "TrialExecutor",
    "TrialSpec",
    "builtin_scenarios",
    "display_to_stem",
    "get_registry",
    "get_tracer",
    "load_registry",
    "measure_degradation",
    "merge_registries",
    "parse_request",
    "report_campaign",
    "request_frame",
    "response_frame",
    "resolve_greedy_file",
    "resolve_scenarios",
    "retry_with_backoff",
    "salvage_npz",
    "set_registry",
    "set_tracer",
    "stem_to_display",
    "verify_campaign",
    "__version__",
]
