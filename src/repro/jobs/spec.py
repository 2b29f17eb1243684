"""Case enumeration for check campaigns.

A campaign (Section 3 of the paper: selections x errors x checks per
benchmark) is flattened into self-describing :class:`CaseSpec` records.
Every random decision a case makes — which gates become the Black Box,
which mutation is inserted, which patterns the r.p. check draws — is
seeded from the case *coordinates* via SHA-256, never from a shared
sequential ``random.Random`` stream.  Any subset of cases can therefore
run in any order, in any process, on any machine, and still reproduce
the serial campaign bit-for-bit; this is the determinism contract the
parallel engine (:mod:`repro.jobs.engine`) is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..seeds import _canon, derive_seed  # noqa: F401  (re-exported)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.runner import ExperimentConfig

__all__ = ["CaseSpec", "derive_seed", "enumerate_cases"]


@dataclass(frozen=True)
class CaseSpec:
    """One campaign case: a (benchmark, selection, error) coordinate.

    Carries everything a worker needs to execute the case from scratch
    in a fresh process: the campaign parameters plus derived seeds.
    """

    benchmark: str
    selection: int
    error_index: int
    fraction: float
    num_boxes: int
    patterns: int
    seed: int
    checks: Tuple[str, ...]
    #: In-process governance (see :mod:`repro.resilience`): max live BDD
    #: nodes per check and a cooperative wall-clock deadline per case.
    #: ``None`` disables the respective limit.
    node_limit: Optional[int] = None
    soft_timeout: Optional[float] = None
    #: Static analysis (see :mod:`repro.analysis.static`): run the
    #: ternary/cone-hash preflight before the checks, and/or consult a
    #: content-addressed verdict cache rooted at ``check_cache``.  The
    #: preflight changes which checks execute (it is part of the case
    #: key); the cache only changes where verdicts come from, never
    #: what they are, so it is excluded from the key.
    preflight: bool = False
    check_cache: Optional[str] = None
    #: Engine strategy for the symbolic rungs (see
    #: :mod:`repro.core.portfolio`): ``"portfolio"`` races BDD vs SAT
    #: under deterministic step quanta, ``"sat"`` runs the SAT
    #: encodings alone.  ``None`` (the BDD-only default; ``"bdd"`` is
    #: normalized away at enumeration time) keeps journals
    #: byte-identical to pre-portfolio ones.
    strategy: Optional[str] = None

    @property
    def partial_seed(self) -> int:
        """Seed for carving this selection's Black Boxes."""
        return derive_seed(self.seed, self.benchmark, self.selection,
                           "partial")

    @property
    def mutation_seed(self) -> int:
        """Seed for picking this case's inserted error."""
        return derive_seed(self.seed, self.benchmark, self.selection,
                           self.error_index, "mutation")

    @property
    def case_seed(self) -> int:
        """Seed for the random-pattern check of this case."""
        return derive_seed(self.seed, self.benchmark, self.selection,
                           self.error_index, "patterns")

    @property
    def key(self) -> Tuple:
        """Hashable identity used for journal resume matching."""
        return (self.benchmark, self.selection, self.error_index,
                repr(self.fraction), self.num_boxes, self.patterns,
                self.seed, self.checks, self.node_limit,
                repr(self.soft_timeout) if self.soft_timeout is not None
                else None, self.preflight, self.strategy)

    def describe(self) -> str:
        """Short human-readable coordinate for progress lines."""
        return "%s sel %d err %d" % (self.benchmark, self.selection,
                                     self.error_index)

    def to_dict(self) -> Dict:
        data = {
            "benchmark": self.benchmark,
            "selection": self.selection,
            "error_index": self.error_index,
            "fraction": self.fraction,
            "num_boxes": self.num_boxes,
            "patterns": self.patterns,
            "seed": self.seed,
            "checks": list(self.checks),
        }
        # Omitted when unset so ungoverned journals stay byte-identical
        # to those written before resource governance existed.
        if self.node_limit is not None:
            data["node_limit"] = self.node_limit
        if self.soft_timeout is not None:
            data["soft_timeout"] = self.soft_timeout
        if self.preflight:
            data["preflight"] = True
        if self.check_cache is not None:
            data["check_cache"] = self.check_cache
        if self.strategy is not None:
            data["strategy"] = self.strategy
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CaseSpec":
        node_limit = data.get("node_limit")
        soft_timeout = data.get("soft_timeout")
        return cls(benchmark=data["benchmark"],
                   selection=int(data["selection"]),
                   error_index=int(data["error_index"]),
                   fraction=float(data["fraction"]),
                   num_boxes=int(data["num_boxes"]),
                   patterns=int(data["patterns"]),
                   seed=int(data["seed"]),
                   checks=tuple(data["checks"]),
                   node_limit=int(node_limit)
                   if node_limit is not None else None,
                   soft_timeout=float(soft_timeout)
                   if soft_timeout is not None else None,
                   preflight=bool(data.get("preflight", False)),
                   check_cache=data.get("check_cache"),
                   strategy=data.get("strategy"))


def enumerate_cases(config: "ExperimentConfig",
                    benchmarks: Optional[Sequence[str]] = None)\
        -> List[CaseSpec]:
    """Flatten a campaign config into its case list.

    Order is benchmark-major, then selection, then error index — the
    canonical order the aggregator folds records in, so float sums are
    identical no matter in which order the cases actually executed.
    """
    from ..core.portfolio import normalize_strategy
    from ..generators.benchmarks import BENCHMARK_FACTORIES

    names = list(benchmarks if benchmarks is not None
                 else (config.benchmarks or BENCHMARK_FACTORIES))
    strategy = normalize_strategy(getattr(config, "strategy", None))
    cases: List[CaseSpec] = []
    for name in names:
        for selection in range(config.selections):
            for error_index in range(config.errors):
                cases.append(CaseSpec(
                    benchmark=name, selection=selection,
                    error_index=error_index, fraction=config.fraction,
                    num_boxes=config.num_boxes,
                    patterns=config.patterns, seed=config.seed,
                    checks=tuple(config.checks),
                    node_limit=getattr(config, "node_limit", None),
                    soft_timeout=getattr(config, "soft_timeout", None),
                    preflight=getattr(config, "preflight", False),
                    check_cache=getattr(config, "check_cache", None),
                    strategy=strategy))
    return cases
