"""The serving-side contract: what an inference backend must provide.

An :class:`InferenceBackend` is one *serving instance* — a model plus
how it is deployed.  The scheduler (:mod:`repro.llm.scheduler`) is the
only caller: modules describe their calls as
:class:`~repro.llm.requests.InferenceRequest` envelopes and never see the
backend type, so swapping the simulated engine for another one (a
local inference server, a recorded-trace replayer) is a backend change,
not a pipeline change.

The repo's reference implementation is
:class:`~repro.llm.simulated.SimulatedLLM`, whose
:meth:`~repro.llm.simulated.SimulatedLLM.execute` serves all four request
kinds with calibrated latency and behaviour.  Another backend would
satisfy the same protocol with genuine inference time; the
scheduler's batching logic keys on ``profile`` / ``deployment``, so any
backend exposing those groups correctly across agents.

Backend contract, beyond the method signature:

- **Determinism** — all stochasticity must flow from the backend's own
  seeded stream; executing the same request sequence twice yields the
  same results (the repo's trials depend on it).
- **Execution at submit time** — ``execute`` resolves the request's
  *content* (decision, verdict, token counts) immediately and models its
  cost in :attr:`~repro.llm.requests.InferenceResult.latency`; it must
  not touch the episode clock or metrics.  Attribution is the
  scheduler's job, which is what lets serving modes change latency
  without ever changing outcomes.
- **Completion requests** draw no randomness and keep no accounting:
  the caller samples their content from the behaviour kernel itself
  (matching the seed's joint-plan cost model exactly).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.llm.deployment import DeploymentOptions
from repro.llm.profiles import LLMProfile
from repro.llm.requests import InferenceRequest, InferenceResult


@runtime_checkable
class InferenceBackend(Protocol):
    """One model-serving instance the scheduler can dispatch to."""

    #: Effective model profile (deployment transforms already applied).
    profile: LLMProfile
    #: How the model is served; the scheduler batches per
    #: (profile, deployment) group and uses
    #: :meth:`~repro.llm.deployment.DeploymentOptions.batched_call_latency`.
    deployment: DeploymentOptions

    def execute(self, request: InferenceRequest) -> InferenceResult:
        """Serve one request; content now, modeled cost in the result."""
        ...
