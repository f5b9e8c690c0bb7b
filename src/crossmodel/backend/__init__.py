"""Model backends: greedy generation and prefill scoring."""

from .base import Backend, PTRUE_TEMPLATE, entropy_of, ptrue_from_distribution, ptrue_prompt, topk_entropy
from .http import BackendConfig, HTTPBackend, load_backend_config
from .mock import MockBackend, ScriptedModel, SeededModel, mock_tokenize
from .types import (
    BackendCapabilities,
    DecodeParams,
    EntropySupport,
    GeneratedAnswer,
    ScoredSequence,
    TokenScore,
    TokenScores,
)

from ..errors import ConfigError


def build_backend(config: BackendConfig) -> Backend:
    """Instantiate a backend from its declaration."""
    if config.type == "http":
        return HTTPBackend(config)
    if config.type == "mock":
        vocab = config.extra.get("vocab")
        entropy = config.extra.get("entropy")  # "exact" (default) | "none" | int k
        if entropy == "none":
            support = EntropySupport.none()
        elif isinstance(entropy, int):
            support = EntropySupport.top_k(entropy)
        else:
            support = EntropySupport.exact()
        model = SeededModel(config.seed, config.vocab_size or 16, config.peak, vocab=vocab)
        return MockBackend(config.id, model, entropy_support=support)
    raise ConfigError(f"unknown backend type {config.type!r}")


__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendConfig",
    "DecodeParams",
    "EntropySupport",
    "GeneratedAnswer",
    "HTTPBackend",
    "MockBackend",
    "PTRUE_TEMPLATE",
    "ScoredSequence",
    "ScriptedModel",
    "SeededModel",
    "TokenScore",
    "TokenScores",
    "build_backend",
    "entropy_of",
    "load_backend_config",
    "mock_tokenize",
    "ptrue_from_distribution",
    "ptrue_prompt",
    "topk_entropy",
]
