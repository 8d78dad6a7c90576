"""One keyed-cache implementation backs every process-wide memo."""

import pytest

from repro.core.keyedcache import KeyedCache
from repro.orchestration.plancache import PLAN_CACHE


class TestKeyedCache:
    def test_hit_miss_accounting(self):
        cache = KeyedCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("a", lambda: calls.append(1) or 7) == 7
        assert cache.get_or_compute("a", lambda: calls.append(2) or 9) == 7
        assert calls == [1]
        assert cache.stats() == (1, 1)

    def test_fifo_eviction(self):
        cache = KeyedCache(maxsize=2)
        for key in "abc":
            cache.get_or_compute(key, lambda k=key: k.upper())
        assert cache.lookup("a") is None  # first in, first out
        assert cache.lookup("c") == "C"
        assert len(cache) == 2

    def test_fetch_reports_hit_flag(self):
        cache = KeyedCache()
        assert cache.fetch("k", lambda: 7) == (7, False)
        assert cache.fetch("k", lambda: 99) == (7, True)
        assert cache.stats() == (1, 1)

    def test_bypass_leaves_no_trace(self):
        cache = KeyedCache()
        value, hit = cache.fetch("k", lambda: 1, bypass=True)
        assert (value, hit) == (1, False)
        assert len(cache) == 0
        assert cache.stats() == (0, 0)

    def test_fetch_per_call_bypass(self):
        cache = KeyedCache()
        cache.fetch("k", lambda: 7)
        # A bypassed call neither reads nor writes nor counts — and
        # does not disturb other users of the same cache.
        assert cache.fetch("k", lambda: 99, bypass=True) == (99, False)
        assert cache.stats() == (0, 1)
        assert cache.fetch("k", lambda: 5) == (7, True)

    def test_failures_are_not_cached(self):
        cache = KeyedCache()
        with pytest.raises(ZeroDivisionError):
            cache.get_or_compute("k", lambda: 1 / 0)
        assert len(cache) == 0
        # The miss was never recorded for a failed compute.
        assert cache.stats() == (0, 0)
        assert cache.get_or_compute("k", lambda: 5) == 5

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            KeyedCache(maxsize=0)

    def test_keys_in_fifo_order(self):
        cache = KeyedCache(maxsize=4)
        for key in "cab":
            cache.get_or_compute(key, lambda k=key: k)
        assert cache.keys() == ("c", "a", "b")

    def test_resize_grow_keeps_entries_and_counters(self):
        cache = KeyedCache(maxsize=2)
        for key in "ab":
            cache.get_or_compute(key, lambda k=key: k)
        cache.resize(8)
        assert cache.maxsize == 8
        assert cache.keys() == ("a", "b")
        assert cache.stats() == (0, 2)
        for key in "cdef":
            cache.get_or_compute(key, lambda k=key: k)
        assert len(cache) == 6  # no longer evicting at 2

    def test_resize_shrink_evicts_oldest(self):
        cache = KeyedCache(maxsize=4)
        for key in "abcd":
            cache.get_or_compute(key, lambda k=key: k)
        cache.resize(2)
        assert cache.keys() == ("c", "d")

    def test_resize_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            KeyedCache().resize(0)


class TestSharedImplementation:
    def test_plan_cache_is_a_keyed_cache(self):
        # The plan cache, the data-profile cache, and the profiler cache
        # all share this one implementation.
        assert isinstance(PLAN_CACHE, KeyedCache)

    def test_profile_caches_share_the_module(self):
        from repro.core.api import PROFILE_CACHE
        from repro.orchestration.problem import PROFILER_CACHE

        assert isinstance(PROFILE_CACHE, KeyedCache)
        assert isinstance(PROFILER_CACHE, KeyedCache)

    def test_profile_cache_deduplicates_work(self):
        from repro.core.api import PROFILE_CACHE, _cached_profile
        from repro.core.config import DistTrainConfig

        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        PROFILE_CACHE.clear()
        first = _cached_profile(
            config.mllm.seq_len, config.data_config, config.data_seed
        )
        second = _cached_profile(
            config.mllm.seq_len, config.data_config, config.data_seed
        )
        assert first is second
        assert PROFILE_CACHE.stats() == (1, 1)
