"""Fault-injection tests: every recovery path actually recovers.

The injectors (:mod:`repro.resilience.faults`) make the failures the
robustness layer claims to survive happen deterministically: allocator
death inside ``mk``, a reorder aborted mid-pass, ENOSPC / torn journal
appends, and workers that die mid-case.
"""

import json

import pytest

from repro.bdd import Bdd
from repro.core.result import OUTCOME_ERROR, OUTCOME_OK
from repro.experiments.runner import ExperimentConfig
from repro.jobs import (JournalWriteError, JournalWriter,
                        enumerate_cases, read_journal, run_campaign)
from repro.jobs.spec import CaseSpec
from repro.resilience import (Budget, FaultPlan, InjectedFault,
                              crashy_stub_task,
                              inject_journal_fault,
                              inject_mk_memory_error,
                              inject_reorder_abort, planned_crash)

CONFIG = ExperimentConfig(selections=1, errors=4, patterns=30,
                          benchmarks=["alu4"])


def _some_case(**overrides) -> CaseSpec:
    case = enumerate_cases(CONFIG)[0]
    if overrides:
        from dataclasses import replace

        case = replace(case, **overrides)
    return case


class TestFaultPlan:
    def test_deterministic_across_instances(self):
        case = _some_case()
        a, b = FaultPlan.for_case(case), FaultPlan.for_case(case)
        assert a == b
        assert a.trigger("mk", 1, 100) == b.trigger("mk", 1, 100)
        assert a.fires("crash", 3) == b.fires("crash", 3)

    def test_differs_per_case(self):
        plans = [FaultPlan.for_case(c) for c in enumerate_cases(CONFIG)]
        assert len({p.seed for p in plans}) == len(plans)

    def test_trigger_range(self):
        plan = FaultPlan.for_case(_some_case())
        for site in ("a", "b", "c", "d"):
            assert 5 <= plan.trigger(site, 5, 50) < 50
        with pytest.raises(ValueError):
            plan.trigger("x", 3, 3)


def _fault_operands(xs):
    """Three 8-variable functions with interleaved (costly) support."""
    a, b, c, d, e, f, g, h = xs
    p = (a & e) ^ (b & f) ^ (c & g) ^ (d & h)
    q = (a | h) & (b | g) & (c | f) & (d | e)
    r = (a & ~c) | (b ^ f) | (d & e) | (g & ~h)
    return p, q, r


def _and_or_chain(bdd, xs, p, q, r):
    acc = bdd.true
    for i, x in enumerate(xs):
        acc = acc & (x | xs[(i + 2) % len(xs)])
    return acc


#: One program per kernel family; each makes at least 20 governed
#: events (node creations, ITE / quantification steps), past the
#: plan's trigger range.
_FAULT_PROGRAMS = {
    "and_or": _and_or_chain,
    "xor": lambda bdd, xs, p, q, r: p ^ q,
    "not": lambda bdd, xs, p, q, r: ~p,
    "ite": lambda bdd, xs, p, q, r: p.ite(q, r),
    "and_exists": lambda bdd, xs, p, q, r: p.and_exists(q, ["b", "g"]),
    "compose": lambda bdd, xs, p, q, r: p.compose({"a": q, "f": r}),
    "exists": lambda bdd, xs, p, q, r: p.exists(["b", "g"]),
    "forall": lambda bdd, xs, p, q, r: q.forall(["e", "f"]),
    # Restrict is governed through node creation only, and one restrict
    # of these operands creates at most 18 nodes: chain two.
    "restrict": lambda bdd, xs, p, q, r:
        p.restrict({"h": True}).restrict({"g": True}),
}


class TestMkMemoryError:
    @pytest.mark.parametrize("kernel", list(_FAULT_PROGRAMS))
    def test_manager_consistent_after_allocator_death(self, kernel):
        program = _FAULT_PROGRAMS[kernel]
        clean = Bdd()
        xs = clean.add_vars("abcdefgh")
        expected = program(clean, xs, *_fault_operands(xs)).sat_count()

        bdd = Bdd()
        xs = bdd.add_vars("abcdefgh")
        operands = _fault_operands(xs)
        plan = FaultPlan.for_case(_some_case())
        at_call = plan.trigger("mk-oom", 2, 20)
        with inject_mk_memory_error(bdd.manager, at_call) as calls:
            with pytest.raises(MemoryError):
                program(bdd, xs, *operands)
        assert calls[0] == at_call
        assert bdd.manager.invariant_violations() == []
        # The seam is restored and the manager fully usable.
        assert bdd.manager._budget_countdown is None
        assert program(bdd, xs, *operands).sat_count() == expected
        conj = bdd.true
        for x in xs:
            conj = conj & x
        assert conj.sat_count() == 1

    def test_never_fires_inside_a_legacy_swap(self):
        # The reference manager's swap creates nodes through ``mk``; an
        # armed countdown must wait until the level is whole again.
        from repro.bdd._legacy import LegacyBdd

        bdd = LegacyBdd()
        xs = bdd.add_vars(["v%d" % i for i in range(8)])
        acc = bdd.false
        for i in range(4):
            acc = acc | (xs[i] & xs[7 - i])
        count = acc.sat_count(nvars=8)
        with inject_mk_memory_error(bdd.manager, 5) as calls:
            bdd.reorder()
            assert bdd.manager.invariant_violations() == []
            assert acc.sat_count(nvars=8) == count
            with pytest.raises(MemoryError):
                _and_or_chain(bdd, xs, None, None, None)
        assert calls[0] == 5
        assert bdd.manager.invariant_violations() == []

    def test_refuses_a_manager_with_a_budget(self):
        bdd = Bdd()
        bdd.set_budget(Budget(max_live_nodes=100))
        with pytest.raises(ValueError):
            with inject_mk_memory_error(bdd.manager, 3):
                pass
        assert bdd.manager.budget is not None

    def test_worker_degrades_mk_oom_to_error_record(self, monkeypatch):
        # An organic MemoryError inside a check must yield an ERROR
        # column, not lose the case or kill the campaign.
        from repro.experiments import runner
        from repro.jobs import worker as worker_module

        real = runner.run_one_case

        def oom_on_ie(spec, partial, checks, *args, **kwargs):
            if "ie" in checks:
                raise MemoryError("injected: allocator death")
            return real(spec, partial, checks, *args, **kwargs)

        monkeypatch.setattr(worker_module, "run_one_case", oom_on_ie,
                            raising=False)
        monkeypatch.setattr(runner, "run_one_case", oom_on_ie)
        record = worker_module.execute_case(_some_case())
        assert record.outcome == OUTCOME_ERROR
        assert record.checks["ie"].outcome == OUTCOME_ERROR
        assert "MemoryError" in record.checks["ie"].detail
        assert record.checks["r.p."].outcome == OUTCOME_OK


class TestReorderAbort:
    def _loaded_bdd(self):
        bdd = Bdd()
        xs = bdd.add_vars(["v%d" % i for i in range(8)])
        acc = bdd.false
        for i in range(0, 8, 2):
            acc = acc | (xs[i] & xs[i + 1])
        return bdd, acc

    def test_abort_leaves_invariants_intact(self):
        bdd, acc = self._loaded_bdd()
        count = acc.sat_count(nvars=8)
        with inject_reorder_abort(at_swap=3) as swaps:
            with pytest.raises(InjectedFault):
                bdd.reorder()
        assert swaps[0] == 3
        assert bdd.manager.invariant_violations() == []
        assert acc.sat_count(nvars=8) == count

    def test_reorder_works_after_abort(self):
        bdd, acc = self._loaded_bdd()
        with inject_reorder_abort(at_swap=5):
            with pytest.raises(InjectedFault):
                bdd.reorder()
        bdd.reorder()  # seam restored; a clean pass must succeed
        assert bdd.manager.invariant_violations() == []


class TestJournalFaults:
    def _record(self):
        from repro.jobs.journal import CaseRecord, CheckOutcome

        return CaseRecord(case=_some_case(), outcome=OUTCOME_OK,
                          checks={"ie": CheckOutcome(error_found=True)},
                          seconds=0.5, mutation="stub")

    def test_transient_enospc_retried_once(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with JournalWriter(path) as writer:
            with inject_journal_fault(writer, at_write=1,
                                      mode="enospc") as proxy:
                writer.write(self._record())
            assert proxy.fired == 1
        records = read_journal(path)
        assert len(records) == 1
        assert records[0].checks["ie"].error_found

    def test_torn_write_truncated_then_retried(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with JournalWriter(path) as writer:
            with inject_journal_fault(writer, at_write=1,
                                      mode="torn") as proxy:
                writer.write(self._record())
            assert proxy.fired == 1
        with open(path, "rb") as handle:
            raw = handle.read()
        # Exactly one whole line: the torn half was truncated away.
        assert raw.count(b"\n") == 1
        json.loads(raw.decode("utf-8"))
        assert len(read_journal(path)) == 1

    def test_persistent_enospc_diagnosed_with_path(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with JournalWriter(path) as writer:
            writer.write(self._record())
            with inject_journal_fault(writer, at_write=1, mode="enospc",
                                      repeat=True):
                with pytest.raises(JournalWriteError) as info:
                    writer.write(self._record())
        assert path in str(info.value)
        assert "resume" in str(info.value)
        # The earlier record survived and the file is whole-line clean.
        assert len(read_journal(path)) == 1

    def test_torn_then_full_disk_leaves_clean_file(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with JournalWriter(path) as writer:
            writer.write(self._record())
            with inject_journal_fault(writer, at_write=1, mode="torn",
                                      repeat=True):
                with pytest.raises(JournalWriteError):
                    writer.write(self._record())
        records = read_journal(path)
        assert len(records) == 1


class TestWorkerCrashRecovery:
    def test_planned_crashes_end_as_terminal_errors(self):
        # Deterministically crash a subset of workers; the pool must
        # retry, re-crash (the plan is coordinate-pure) and emit
        # terminal ERROR records while unaffected cases stay OK.
        cases = enumerate_cases(CONFIG)
        crashing = {c.key for c in cases if planned_crash(c)}
        assert crashing, "fault plan selected no case; widen the config"
        assert len(crashing) < len(cases)
        result = run_campaign(CONFIG, jobs=2, timeout=60.0,
                              task=crashy_stub_task)
        by_key = {r.case.key: r for r in result.records}
        for case in cases:
            record = by_key[case.key]
            if case.key in crashing:
                assert record.outcome == OUTCOME_ERROR
                assert "worker died" in record.checks["ie"].detail
            else:
                assert record.outcome == OUTCOME_OK
