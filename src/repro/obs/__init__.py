"""Structured tracing and metrics for the whole check ladder.

The paper's contribution is a *cost/accuracy ladder*; this package makes
the cost side observable.  A :class:`Tracer` records hierarchical spans
(``ladder > rung:output_exact > reorder``) with wall time and exit-time
annotations (live/peak node counts, computed-table deltas), plus instant
events for garbage collections, budget polls and quantification schedule
choices.  Traces export as a JSONL event stream or as Chrome
``trace_event`` JSON loadable in ``about:tracing`` / Perfetto, and the
``python -m repro.experiments trace`` subcommand records, summarizes and
diffs them (see ``docs/observability.md``).

Layering contract: this package is a stdlib-only leaf — it imports
nothing from ``repro``, so every layer (including :mod:`repro.bdd`,
which receives its tracer by duck-typed injection rather than import)
may depend on it without cycles.  Tracing is opt-in: with no tracer
installed every hook is a single ``is None`` test on a cold path, an
overhead bound enforced by ``benchmarks/test_obs_micro.py``.
"""

from .tracer import Span, Tracer, get_tracer, set_tracer
from .snapshot import ManagerSnapshot
from .export import (load_trace, read_jsonl, to_chrome, write_chrome,
                     write_jsonl)
from .summary import aggregate_spans, build_tree, format_diff, \
    format_summary

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "ManagerSnapshot",
    "read_jsonl",
    "write_jsonl",
    "to_chrome",
    "write_chrome",
    "load_trace",
    "build_tree",
    "aggregate_spans",
    "format_summary",
    "format_diff",
]
