"""crossmodel: label-free correctness signals from verifier prefill scoring.

A generating model's greedy answer is scored by a second model in a
single prefill pass; the verifier's surprise (mean negative
log-likelihood over answer tokens) and uncertainty (mean entropy) are
then used to predict correctness, to route hard queries to a stronger
model, or to abstain.
"""

import importlib

from .backend import (
    Backend,
    BackendCapabilities,
    BackendConfig,
    DecodeParams,
    EntropySupport,
    GeneratedAnswer,
    HTTPBackend,
    MockBackend,
    ScoredSequence,
    SeededModel,
    TokenScore,
    TokenScores,
    build_backend,
    load_backend_config,
)
from .datasets import GoldAnswer, Instance, TaskPreset, judge, load_dataset
from .pipeline import EvalReport, RunConfig, TOOL_VERSION, evaluate_pair
from .runstore import CacheKey, RunStore
from .signals import (
    SignalRecord,
    cme,
    cmp,
    cmp_final,
    g_ent,
    g_ppl,
    signal_vector,
    suspicion_score,
)

__version__ = TOOL_VERSION

# Names resolved on first access (PEP 562), so that only the stages that use
# them import their modules: metrics imports numpy, which generate and signals
# never need, and only route needs routing.
_LAZY = {
    "metrics": ("CaseMeans", "CorrelationResult", "CoverageAccuracyCurve", "LabeledScore",
                "RoutingCurve", "auroc", "case_means", "coverage_accuracy", "pgr_curve",
                "quintile_spread", "spearman", "weak_generator_guard"),
    "routing": ("RoutePolicy", "RouteDecision", "abstain_batch", "calibrate_threshold",
                "route_batch"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:  # the submodule itself, as `crossmodel.metrics`
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULE})


__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendConfig",
    "CacheKey",
    "CaseMeans",
    "CorrelationResult",
    "CoverageAccuracyCurve",
    "DecodeParams",
    "EntropySupport",
    "EvalReport",
    "GeneratedAnswer",
    "GoldAnswer",
    "HTTPBackend",
    "Instance",
    "LabeledScore",
    "MockBackend",
    "RouteDecision",
    "RoutePolicy",
    "RoutingCurve",
    "RunConfig",
    "RunStore",
    "ScoredSequence",
    "SeededModel",
    "SignalRecord",
    "TaskPreset",
    "TokenScore",
    "TokenScores",
    "auroc",
    "abstain_batch",
    "build_backend",
    "calibrate_threshold",
    "case_means",
    "cme",
    "cmp",
    "cmp_final",
    "coverage_accuracy",
    "evaluate_pair",
    "g_ent",
    "g_ppl",
    "judge",
    "load_backend_config",
    "load_dataset",
    "pgr_curve",
    "quintile_spread",
    "route_batch",
    "signal_vector",
    "spearman",
    "suspicion_score",
    "weak_generator_guard",
]
