"""Resource governance, graceful degradation and fault injection.

Layers (see ``docs/robustness.md``):

* :mod:`~repro.resilience.budget` — :class:`Budget` envelopes (soft
  wall-clock deadline, live-node cap, step cap) threaded through the
  BDD manager's hot loops; overruns raise a structured
  :class:`BudgetExceededError` at a consistent-state point;
* :mod:`~repro.resilience.degrade` — fold a budget kill plus the
  already-completed ladder rungs into an ``inconclusive``
  :class:`~repro.core.result.CheckResult` carrying the strongest
  completed verdict;
* :mod:`~repro.resilience.faults` — deterministic fault injection
  (allocator failure in ``mk``, worker crashes, journal ENOSPC / torn
  writes, mid-reorder aborts) so every recovery path is provable;
* :mod:`~repro.resilience.backoff` — :class:`BackoffPolicy`, capped
  exponential backoff with *seeded* jitter, shared by the serve slot
  layer and the service client so retry schedules are reproducible.
"""

from .backoff import BackoffPolicy
from .budget import Budget, BudgetExceededError
from .degrade import (describe_strongest, inconclusive_result,
                      strongest_completed)
from .faults import (FaultPlan, InjectedFault, crashy_stub_task,
                     inject_journal_fault, inject_mk_memory_error,
                     inject_reorder_abort, planned_crash)

__all__ = [
    "BackoffPolicy",
    "Budget",
    "BudgetExceededError",
    "inconclusive_result",
    "strongest_completed",
    "describe_strongest",
    "FaultPlan",
    "InjectedFault",
    "inject_mk_memory_error",
    "inject_reorder_abort",
    "inject_journal_fault",
    "crashy_stub_task",
    "planned_crash",
]
