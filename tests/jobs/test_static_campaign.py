"""Campaign-level static analysis: cache determinism and journaling."""

import json
import os
import random

import pytest

from repro.analysis.static import CheckCache
from repro.core.ladder import run_ladder
from repro.experiments.export import rows_to_csv, rows_to_json
from repro.experiments.runner import ExperimentConfig, run_table
from repro.jobs import worker
from repro.jobs.journal import CaseRecord, CheckOutcome
from repro.jobs.spec import CaseSpec, enumerate_cases
from repro.jobs.worker import clear_caches, execute_case
from repro.partial.blackbox import PartialImplementation
from repro.partial.mutations import insert_random_error


def _config(tmp_path, **overrides):
    params = dict(selections=1, errors=3, patterns=100,
                  benchmarks=["alu4"],
                  check_cache=str(tmp_path / "cache"))
    params.update(overrides)
    return ExperimentConfig(**params)


class TestWarmCacheDeterminism:
    def test_warm_rerun_is_byte_identical_with_hits(self, tmp_path):
        config = _config(tmp_path, preflight=True)
        clear_caches()
        cold = run_table(config)
        clear_caches()
        warm = run_table(config)
        assert rows_to_csv(cold) == rows_to_csv(warm)
        hits = sum(warm[0].check_cache_hits.values())
        assert hits > 0
        assert sum(cold[0].check_cache_hits.values()) == 0
        static = json.loads(rows_to_json(warm))[0]["static"]
        assert sum(static["check_cache_hits"].values()) == hits

    def test_cache_does_not_change_verdicts(self, tmp_path):
        base = run_table(_config(tmp_path, check_cache=None))
        clear_caches()
        cached = run_table(_config(tmp_path))
        assert [base[0].detected, base[0].valid] \
            == [cached[0].detected, cached[0].valid]

    def test_preflight_and_plain_verdicts_agree(self, tmp_path):
        plain = run_table(_config(tmp_path, check_cache=None))
        clear_caches()
        preflight = run_table(_config(tmp_path, check_cache=None,
                                      preflight=True))
        assert plain[0].detected == preflight[0].detected
        assert plain[0].valid == preflight[0].valid

    def test_preflight_cache_isolated_from_plain(self, tmp_path):
        # The same pair checked with and without preflight must not
        # share entries (the preflight run may restrict the pair).
        run_table(_config(tmp_path))
        clear_caches()
        warm_preflight = run_table(_config(tmp_path, preflight=True))
        assert sum(warm_preflight[0].check_cache_hits.values()) == 0


class TestCaseSpecRoundTrip:
    def test_static_fields_serialize(self):
        case = CaseSpec(benchmark="alu4", selection=0, error_index=1,
                        fraction=0.1, num_boxes=1, patterns=100,
                        seed=2001, checks=("r.p.", "ie"),
                        preflight=True, check_cache="/tmp/cc")
        data = case.to_dict()
        assert data["preflight"] is True
        assert data["check_cache"] == "/tmp/cc"
        assert CaseSpec.from_dict(data) == case

    def test_defaults_stay_off_the_wire(self):
        case = CaseSpec(benchmark="alu4", selection=0, error_index=1,
                        fraction=0.1, num_boxes=1, patterns=100,
                        seed=2001, checks=("r.p.",))
        data = case.to_dict()
        assert "preflight" not in data and "check_cache" not in data

    def test_preflight_is_part_of_the_key(self):
        kwargs = dict(benchmark="alu4", selection=0, error_index=1,
                      fraction=0.1, num_boxes=1, patterns=100,
                      seed=2001, checks=("r.p.",))
        plain = CaseSpec(**kwargs)
        preflight = CaseSpec(preflight=True, **kwargs)
        cached = CaseSpec(check_cache="/tmp/cc", **kwargs)
        assert plain.key != preflight.key
        # the cache only changes where verdicts come from, never what
        # they are, so it must NOT invalidate journal resume matching
        assert plain.key == cached.key

    def test_enumerate_cases_passes_static_config(self, tmp_path):
        config = _config(tmp_path, preflight=True)
        cases = enumerate_cases(config)
        assert all(c.preflight for c in cases)
        assert all(c.check_cache == config.check_cache for c in cases)


class TestJournalFields:
    def test_cached_flag_round_trips(self):
        outcome = CheckOutcome(error_found=True, cached=True)
        data = outcome.to_dict()
        assert data["cached"] is True
        assert CheckOutcome.from_dict(data).cached is True

    def test_cached_default_off_the_wire(self):
        assert "cached" not in CheckOutcome().to_dict()
        assert CheckOutcome.from_dict(
            CheckOutcome().to_dict()).cached is False

    def test_discharged_round_trips(self):
        case = CaseSpec(benchmark="alu4", selection=0, error_index=0,
                        fraction=0.1, num_boxes=1, patterns=100,
                        seed=2001, checks=("r.p.",))
        record = CaseRecord(case=case, discharged=3)
        line = record.to_json_line()
        assert CaseRecord.from_json_line(line).discharged == 3
        plain = CaseRecord(case=case)
        assert "discharged" not in plain.to_dict()
        assert CaseRecord.from_json_line(
            plain.to_json_line()).discharged is None


class TestWorkerShortCircuit:
    @pytest.mark.parametrize("overrides", [
        {}, {"strategy": "portfolio"}, {"node_limit": 200_000}],
        ids=["default", "portfolio", "node_limit"])
    def test_cached_outcomes_marked_in_record(self, tmp_path, overrides):
        config = _config(tmp_path, **overrides)
        case = enumerate_cases(config)[0]
        clear_caches()
        cold = execute_case(case)
        clear_caches()
        warm = execute_case(case)
        assert cold.outcome == warm.outcome
        assert not any(o.cached for o in cold.checks.values())
        cached = [name for name, o in warm.checks.items() if o.cached]
        assert cached  # at least the authoritative checks replay
        for name in cached:
            assert warm.checks[name].to_dict() == dict(
                cold.checks[name].to_dict(), cached=True)
        if "strategy" in overrides:
            # the raced rungs' winners survive the replay
            for name in ("0,1,X", "oe"):
                assert warm.checks[name].cached
                assert warm.checks[name].engine in ("sat", "bdd")

    def test_foreign_entries_are_rerun(self, tmp_path):
        config = _config(tmp_path)
        case = enumerate_cases(config)[0]
        clear_caches()
        cold = execute_case(case)
        root = config.check_cache
        for folder, _, names in os.walk(root):
            for name in names:
                with open(os.path.join(folder, name), "w") as handle:
                    json.dump({"v": 1}, handle)
        clear_caches()
        warm = execute_case(case)
        assert not any(o.cached for o in warm.checks.values())
        assert {n: dict(o.to_dict(), seconds=0)
                for n, o in warm.checks.items()} \
            == {n: dict(o.to_dict(), seconds=0)
                for n, o in cold.checks.items()}

    def test_preflight_discharge_count_recorded(self, tmp_path):
        config = _config(tmp_path, preflight=True, check_cache=None)
        case = enumerate_cases(config)[0]
        clear_caches()
        record = execute_case(case)
        assert record.discharged is not None
        plain_case = enumerate_cases(
            _config(tmp_path, check_cache=None))[0]
        assert execute_case(plain_case).discharged is None


class TestOneCodecTwoSurfaces:
    """Campaign cases and the ladder share the key rule and payload
    codec, but their entries measure different managers (a fresh one
    per check vs one shared by all rungs), so neither replays the
    other's."""

    @pytest.mark.parametrize("first", ["campaign", "ladder"])
    def test_entries_stay_apart(self, tmp_path, first):
        config = _config(tmp_path, errors=1)
        root = config.check_cache
        case = enumerate_cases(config)[0]
        clear_caches()
        tuned, _ = worker._tuned_spec(case.benchmark)
        partial = worker._carved_partial(case, tuned)
        mutated, _ = insert_random_error(
            partial.circuit, random.Random(case.mutation_seed))
        impl = PartialImplementation(mutated, partial.boxes)

        def campaign():
            clear_caches()
            record = execute_case(case)
            return [o.cached for o in record.checks.values()]

        def ladder():
            cache = CheckCache(root)
            results = run_ladder(tuned, impl, patterns=case.patterns,
                                 seed=case.case_seed,
                                 stop_at_first_error=False, cache=cache)
            assert all(r.outcome == "ok" for r in results)
            return [r.stats.get("check_cache") == "hit"
                    for r in results]

        order = [campaign, ladder]
        if first == "ladder":
            order.reverse()
        for surface in order:  # cold: the other side's entries miss
            assert not any(surface())
        for surface in order:  # warm: each side hits its own entries
            hits = surface()
            assert hits and all(hits)
