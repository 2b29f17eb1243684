"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments table2 --errors 20 --selections 3
    python -m repro.experiments table2 --stats   # + computed-table traffic
    python -m repro.experiments table40 --benchmarks alu4,comp
    python -m repro.experiments figures
    python -m repro.experiments table1 --paper-scale   # hours, faithful
    python -m repro.experiments lint examples/circuits/*.blif
    python -m repro.experiments trace record --benchmark C880
    python -m repro.experiments trace diff before.json after.json
    python -m repro.experiments cache info .check-cache
    python -m repro.experiments cache prune .check-cache --max-bytes 5000000

Campaigns shard across cores, checkpoint, and resume (docs/parallel.md)::

    python -m repro.experiments table1 --jobs 8 --timeout 120 \\
        --journal table1.jsonl
    python -m repro.experiments table1 --jobs 8 --resume table1.jsonl
    python -m repro.experiments table1 --format json > table1.json

All progress goes to stderr; stdout carries only the table (or the
--format json/csv export), so redirection is always clean.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..core.ladder import CHECK_ORDER, run_ladder
from ..generators.benchmarks import BENCHMARK_NAMES
from ..jobs.journal import JournalWriteError
from ..generators.paper_examples import ALL_FIGURES
from .runner import ExperimentConfig, run_table
from .tables import format_table

__all__ = ["main"]

_TABLES = {
    "table1": dict(fraction=0.1, num_boxes=1,
                   title="Table 1: 10% of the gates in one Black Box"),
    "table2": dict(fraction=0.1, num_boxes=5,
                   title="Table 2: 10% of the gates in five Black Boxes"),
    "table40": dict(fraction=0.4, num_boxes=1,
                    title="40% variant: 40% of the gates in one Black "
                          "Box (Section 3, tech-report experiment)"),
}


def _run_figures() -> int:
    print("Paper figures (Sections 2.1-2.2.3): first check that finds "
          "the inserted error\n")
    for name, (factory, expected) in ALL_FIGURES.items():
        spec, partial = factory()
        results = run_ladder(spec, partial,
                             checks=[c for c in CHECK_ORDER
                                     if c != "random_pattern"],
                             stop_at_first_error=False)
        first = next((r.check for r in results if r.error_found), None)
        status = "OK" if first == expected else "MISMATCH"
        print("%-9s expected %-12s found-by %-12s [%s]"
              % (name, expected or "-", first or "-", status))
    return 0


def _interrupted(progress_done, args) -> int:
    """Ctrl-C handling: flush progress, print a resume hint, exit 130.

    The journal writer appends (and flushes) each record as it lands
    and the engine closes it on the way out, so everything completed
    before the interrupt is already safe on disk.
    """
    progress_done()
    journal = args.journal or args.resume
    if journal:
        print("interrupted — completed cases are safe in %s; rerun "
              "with --resume %s to continue" % (journal, journal),
              file=sys.stderr)
    else:
        print("interrupted — no journal was active; rerun with "
              "--journal FILE to make campaigns resumable",
              file=sys.stderr)
    return 130


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The linter has its own option set (files, --format, ...) that
        # clashes with the experiment flags, so it dispatches early.
        from ..analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        # Likewise the observability tool (record/summary/diff).
        from ..obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "cache":
        # And the check-cache housekeeping tool (info/prune).
        from ..analysis.static.cli import main as cache_main

        return cache_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation of 'Checking Equivalence "
                    "for Partial Implementations' (DAC 2001)")
    parser.add_argument("experiment",
                        choices=sorted(_TABLES) + ["figures", "sweep"],
                        help="which table/figure set to regenerate "
                             "(also: 'lint FILE...' runs the netlist "
                             "linter, 'trace record|summary|diff' "
                             "the observability tool, and 'cache "
                             "info|prune' the check-cache tool, see "
                             "their '--help')")
    parser.add_argument("--selections", type=int, default=None,
                        help="random Black Box selections per circuit "
                             "(paper: 5)")
    parser.add_argument("--errors", type=int, default=None,
                        help="error insertions per selection (paper: 100)")
    parser.add_argument("--patterns", type=int, default=None,
                        help="random patterns for the r.p. check "
                             "(paper: 5000)")
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--benchmarks", type=str, default=None,
                        help="comma-separated circuit subset (default: "
                             "all: %s)" % ",".join(BENCHMARK_NAMES))
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's campaign size "
                             "(5 selections x 100 errors x 5000 patterns)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the campaign "
                             "(default 1 = in-process serial; results "
                             "are bit-identical either way)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-case wall-clock deadline; an overdue "
                             "case is killed and recorded as TIMEOUT "
                             "instead of aborting the campaign")
    parser.add_argument("--soft-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="cooperative per-case deadline: the case "
                             "stops itself and records the strongest "
                             "completed check's verdict as INCONCLUSIVE "
                             "instead of being killed")
    parser.add_argument("--node-limit", type=int, default=None,
                        metavar="NODES",
                        help="max live BDD nodes per check; an "
                             "overrunning check degrades to "
                             "INCONCLUSIVE with per-level stats")
    parser.add_argument("--strategy", choices=("bdd", "portfolio",
                                               "sat"),
                        default=None,
                        help="engine for the symbolic 0,1,X and "
                             "output exact checks: 'bdd' (default), "
                             "'sat' (CDCL miter / CEGAR encodings) or "
                             "'portfolio' (race both under "
                             "deterministic step quanta; first answer "
                             "wins and the winning engine is "
                             "journaled per check — see docs/sat.md)")
    parser.add_argument("--preflight", action="store_true",
                        help="run the static cone-hash/ternary "
                             "preflight before each case's checks; "
                             "statically decided cases never build a "
                             "BDD (see docs/static-analysis.md)")
    parser.add_argument("--check-cache", metavar="DIR", default=None,
                        help="content-addressed check-verdict cache "
                             "directory; verdicts already proven for "
                             "an identical (spec, impl, check, budget) "
                             "are replayed byte-identically instead of "
                             "re-running")
    parser.add_argument("--journal", metavar="FILE", default=None,
                        help="append per-case results to a JSONL "
                             "checkpoint as they complete")
    parser.add_argument("--resume", metavar="FILE", default=None,
                        help="skip cases already completed in this "
                             "journal, then continue appending to it")
    parser.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="write one JSONL trace per case into DIR "
                             "(sets REPRO_TRACE_DIR, inherited by "
                             "worker processes; inspect with 'trace "
                             "summary', see docs/observability.md)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table",
                        help="stdout format (progress stays on stderr)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="additionally write results as JSON")
    parser.add_argument("--csv", metavar="FILE", default=None,
                        help="additionally write results as CSV")
    parser.add_argument("--stats", action="store_true",
                        help="also print computed-table traffic per "
                             "check (hits/misses/evictions, hit rate)")
    parser.add_argument("--compare", action="store_true",
                        help="also print a measured-vs-paper comparison "
                             "(tables 1 and 2 only)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.soft_timeout is not None and args.soft_timeout <= 0:
        parser.error("--soft-timeout must be positive")
    if args.node_limit is not None and args.node_limit <= 0:
        parser.error("--node-limit must be positive")
    if args.trace_dir:
        import os

        os.makedirs(args.trace_dir, exist_ok=True)
        # Environment, not a parameter: spawn-based pool workers inherit
        # it, so per-case tracing works identically for --jobs N.
        os.environ["REPRO_TRACE_DIR"] = args.trace_dir

    if args.experiment == "figures":
        return _run_figures()

    # Progress — every path, including the worker pool's per-case
    # reporting — writes to stderr only, so piping stdout (the table or
    # a --format json/csv export) never picks up progress lines.
    progress = None
    if not args.quiet:
        def progress(message: str) -> None:
            print("\r%-70s" % message[:70], end="", file=sys.stderr,
                  flush=True)

    def progress_done() -> None:
        if progress is not None:
            print(file=sys.stderr)

    if args.experiment == "sweep":
        from .sweep import format_sweep, run_fraction_sweep

        names = ([n.strip() for n in args.benchmarks.split(",")]
                 if args.benchmarks else ["alu4", "comp"])
        unknown = set(names) - set(BENCHMARK_NAMES)
        if unknown:
            parser.error("unknown benchmarks: %s" % ", ".join(unknown))
        for bench_name in names:
            try:
                points = run_fraction_sweep(
                    bench_name, errors=args.errors or 6,
                    selections=args.selections or 1,
                    patterns=args.patterns or 300, seed=args.seed,
                    progress=progress, jobs=args.jobs,
                    timeout=args.timeout, journal=args.journal,
                    resume=args.resume,
                    node_limit=args.node_limit,
                    soft_timeout=args.soft_timeout)
            except KeyboardInterrupt:
                return _interrupted(progress_done, args)
            except JournalWriteError as exc:
                progress_done()
                print("error: %s" % exc, file=sys.stderr)
                return 1
            progress_done()
            print(format_sweep(bench_name, points))
            print()
        return 0

    table = _TABLES[args.experiment]
    overrides = dict(fraction=table["fraction"],
                     num_boxes=table["num_boxes"], seed=args.seed)
    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",")]
        unknown = set(names) - set(BENCHMARK_NAMES)
        if unknown:
            parser.error("unknown benchmarks: %s" % ", ".join(unknown))
        overrides["benchmarks"] = names
    for attr in ("selections", "errors", "patterns", "node_limit",
                 "soft_timeout", "check_cache", "strategy"):
        value = getattr(args, attr)
        if value is not None:
            overrides[attr] = value
    if args.preflight:
        overrides["preflight"] = True
    if args.paper_scale:
        config = ExperimentConfig.paper_scale(**overrides)
    else:
        config = ExperimentConfig(**overrides)

    try:
        rows = run_table(config, progress=progress, jobs=args.jobs,
                         timeout=args.timeout, journal=args.journal,
                         resume=args.resume)
    except KeyboardInterrupt:
        return _interrupted(progress_done, args)
    except JournalWriteError as exc:
        progress_done()
        print("error: %s" % exc, file=sys.stderr)
        return 1
    progress_done()
    if args.json:
        from .export import rows_to_json

        with open(args.json, "w") as handle:
            handle.write(rows_to_json(rows))
    if args.csv:
        from .export import rows_to_csv

        with open(args.csv, "w") as handle:
            handle.write(rows_to_csv(rows))
    if args.format == "json":
        from .export import rows_to_json

        print(rows_to_json(rows))
        return 0
    if args.format == "csv":
        from .export import rows_to_csv

        print(rows_to_csv(rows), end="")
        return 0
    print(format_table(
        rows,
        "%s  (%d selections x %d errors, %d patterns, seed %d)"
        % (table["title"], config.selections, config.errors,
           config.patterns, config.seed)))
    if args.stats:
        from .tables import format_cache_stats

        print()
        print(format_cache_stats(rows, checks=config.checks))
    if args.compare and args.experiment in ("table1", "table2"):
        from .paper_reference import (PAPER_TABLE1, PAPER_TABLE2,
                                      format_comparison)

        reference = PAPER_TABLE1 if args.experiment == "table1" \
            else PAPER_TABLE2
        print()
        print("measured vs paper (detection ratios):")
        print(format_comparison(rows, reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
