"""The content-addressed check cache: keys, robustness, ladder rung 0."""

import json
import os

from repro.analysis.static import CheckCache
from repro.analysis.static.cache import CACHE_VERSION, budget_class
from repro.core.ladder import run_ladder
from repro.core.result import OUTCOME_OK
from repro.generators.paper_examples import ALL_FIGURES, figure1
from repro.obs import Tracer, set_tracer


class TestKeys:
    def test_key_is_deterministic_and_sensitive(self, tmp_path):
        cache = CheckCache(str(tmp_path))
        base = cache.key("s", "i", "ie", budget="nodes=None;soft=None")
        assert base == cache.key("s", "i", "ie",
                                 budget="nodes=None;soft=None")
        assert base != cache.key("s2", "i", "ie",
                                 budget="nodes=None;soft=None")
        assert base != cache.key("s", "i", "oe",
                                 budget="nodes=None;soft=None")
        assert base != cache.key("s", "i", "ie",
                                 budget="nodes=100;soft=None")
        assert base != cache.key("s", "i", "ie",
                                 budget="nodes=None;soft=None",
                                 variant="preflight")
        assert base != cache.key("s", "i", "ie",
                                 budget="nodes=None;soft=None",
                                 patterns=100, seed=1)

    def test_budget_class_canonical(self):
        assert budget_class() == "nodes=None;soft=None"
        assert budget_class(5000, 1.5) == "nodes=5000;soft=1.5"
        # repr round-trips floats that decimal formatting would mangle
        assert budget_class(None, 0.1) == "nodes=None;soft=0.1"

    def test_version_is_part_of_the_key(self, tmp_path):
        cache = CheckCache(str(tmp_path))
        assert ("v%d" % CACHE_VERSION) in "v%d" % CACHE_VERSION
        key = cache.key("s", "i", "ie")
        # simulate a format bump by rebuilding the material manually
        import hashlib

        other = hashlib.sha256("\x1f".join(
            ["v%d" % (CACHE_VERSION + 1), "s", "i", "ie", "",
             "None", "None", ""]).encode("utf-8")).hexdigest()
        assert key != other


class TestTraffic:
    def test_round_trip_and_counters(self, tmp_path):
        cache = CheckCache(str(tmp_path))
        key = cache.key("s", "i", "ie")
        assert cache.get(key) is None
        cache.put(key, {"error_found": False, "seconds": 0.25})
        assert cache.get(key) == {"error_found": False, "seconds": 0.25}
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CheckCache(str(tmp_path))
        key = cache.key("s", "i", "ie")
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert cache.get(key) is None
        with open(path, "w") as handle:
            json.dump(["not", "a", "dict"], handle)
        assert cache.get(key) is None
        assert cache.misses == 2

    def test_failed_write_is_silent(self, tmp_path, monkeypatch):
        cache = CheckCache(str(tmp_path))

        def disk_full(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.analysis.static.cache.os.replace",
                            disk_full)
        cache.put(cache.key("s", "i", "ie"), {"x": 1})  # must not raise
        assert cache.stores == 0
        # the temp file was cleaned up, the entry never materialized
        assert cache.get(cache.key("s", "i", "ie")) is None
        assert not any(name.startswith(".tmp-")
                       for _, _, files in os.walk(cache.root)
                       for name in files)

    def test_entries_fan_out_by_prefix(self, tmp_path):
        cache = CheckCache(str(tmp_path))
        key = cache.key("s", "i", "ie")
        cache.put(key, {"v": 1})
        assert os.path.dirname(cache.path_for(key)).endswith(key[:2])


class TestLadderRungZero:
    def test_warm_ladder_replays_byte_identically(self, tmp_path):
        spec, partial = figure1()
        cold = run_ladder(spec, partial, stop_at_first_error=False,
                          cache=str(tmp_path))
        warm = run_ladder(spec, partial, stop_at_first_error=False,
                          cache=str(tmp_path))
        assert [(r.check, r.error_found, r.seconds, r.outcome)
                for r in cold] \
            == [(r.check, r.error_found, r.seconds, r.outcome)
                for r in warm]
        assert all(r.stats.get("check_cache") == "hit" for r in warm)
        assert not any(r.stats.get("check_cache") for r in cold)

    def test_cache_respects_budget_class(self, tmp_path):
        from repro.resilience.budget import Budget

        spec, partial = figure1()
        run_ladder(spec, partial, stop_at_first_error=False,
                   cache=str(tmp_path))
        governed = run_ladder(spec, partial, stop_at_first_error=False,
                              cache=str(tmp_path),
                              budget=Budget.from_limits(
                                  node_limit=10_000_000))
        # different budget class -> no replay from the ungoverned run
        assert not any(r.stats.get("check_cache") == "hit"
                       for r in governed)

    def test_all_figures_replay_identically(self, tmp_path):
        for name, (factory, _expected) in ALL_FIGURES.items():
            spec, partial = factory()
            root = str(tmp_path / name)
            cold = run_ladder(spec, partial, stop_at_first_error=False,
                              cache=root)
            warm = run_ladder(spec, partial, stop_at_first_error=False,
                              cache=root)
            assert [(r.check, r.error_found, r.detail) for r in cold] \
                == [(r.check, r.error_found, r.detail) for r in warm], \
                name
            hits = [r for r in warm
                    if r.stats.get("check_cache") == "hit"]
            # every authoritative cold verdict is replayed warm
            assert len(hits) == sum(1 for r in cold
                                    if r.outcome == OUTCOME_OK)

    def test_foreign_entry_is_a_miss_and_rewritten(self, tmp_path):
        # A valid JSON object in another format (say, an entry written
        # by an older cache version) must cost a re-run, never a crash.
        spec, partial = figure1()
        root = str(tmp_path)
        cold = run_ladder(spec, partial, stop_at_first_error=False,
                          cache=root)
        entries = sorted(os.path.join(folder, name)
                         for folder, _, names in os.walk(root)
                         for name in names)
        assert len(entries) == len(cold)
        with open(entries[0], "w") as handle:
            json.dump({"v": 1}, handle)
        cache = CheckCache(root)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            warm = run_ladder(spec, partial, stop_at_first_error=False,
                              cache=cache)
        finally:
            set_tracer(previous)
        assert [(r.check, r.error_found, r.detail) for r in warm] \
            == [(r.check, r.error_found, r.detail) for r in cold]
        assert cache.stats() == {"hits": len(cold) - 1, "misses": 1,
                                 "stores": 1}
        lookups = [e["args"]["hit"] for e in tracer.events
                   if e["name"] == "check_cache"]
        assert sorted(lookups) == [False] + [True] * (len(cold) - 1)
        assert sum(r.stats.get("check_cache") == "hit"
                   for r in warm) == len(cold) - 1
        # the re-run overwrote the foreign entry with a real verdict
        again = CheckCache(root)
        run_ladder(spec, partial, stop_at_first_error=False, cache=again)
        assert again.stats() == {"hits": len(cold), "misses": 0,
                                 "stores": 0}
