"""repro: reproduction of "ML-Based AIG Timing Prediction to Enhance Logic Optimization".

The package is organised as a set of substrates (AIG core, transformations,
standard-cell library, technology mapping, STA) topped by the paper's
contribution (graph-level feature extraction, gradient-boosted delay
prediction, and the ML-enhanced simulated-annealing optimization flow).

The public entry point is the service layer in :mod:`repro.api`: a
:class:`~repro.api.SynthesisSession` owns the cell library, a cached (and
optionally process-parallel) PPA evaluator, and a registry of trained
models, and serves evaluation, optimization, dataset generation, and
training through typed requests.

Quickstart
----------
>>> from repro import SynthesisSession
>>> session = SynthesisSession()
>>> result = session.evaluate("EX68")
>>> result.delay_ps > 0
True
>>> session.optimize(design="EX68", flow="baseline", iterations=5, seed=1).flow
'baseline'
"""

from repro.version import __version__

__all__ = [
    "CachedEvaluator",
    "CampaignSpec",
    "EvalRequest",
    "Evaluator",
    "GroundTruthEvaluator",
    "OptimizeRequest",
    "OptimizeResult",
    "ParallelEvaluator",
    "PpaResult",
    "ResultStore",
    "ShardedResultStore",
    "SynthesisSession",
    "__version__",
    "campaign_report",
    "campaign_status",
    "default_session",
    "diff_stores",
    "evaluate_aig",
    "merge_store",
    "open_store",
    "run_campaign",
    "ServiceClient",
    "ServiceConfig",
    "SynthesisService",
    "create_service",
]

_SERVICE_EXPORTS = frozenset(
    {
        "ServiceClient",
        "ServiceConfig",
        "SynthesisService",
        "create_service",
    }
)

_CAMPAIGN_EXPORTS = frozenset(
    {
        "CampaignSpec",
        "ResultStore",
        "ShardedResultStore",
        "campaign_report",
        "campaign_status",
        "diff_stores",
        "merge_store",
        "open_store",
        "run_campaign",
    }
)
_API_EXPORTS = (
    frozenset(__all__) - {"__version__"} - _CAMPAIGN_EXPORTS - _SERVICE_EXPORTS
)


def __getattr__(name: str):
    # The service and campaign layers are re-exported lazily so
    # `import repro` stays cheap and the api -> opt -> repro.* import chain
    # never becomes circular.
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    if name in _CAMPAIGN_EXPORTS:
        from repro import campaign

        return getattr(campaign, name)
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
