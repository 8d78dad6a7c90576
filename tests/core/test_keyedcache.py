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
        from repro.core.api import PROFILE_CACHE, profile
        from repro.core.config import DistTrainConfig

        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        PROFILE_CACHE.clear()
        first = profile(config)
        second = profile(config)
        assert first is second
        assert PROFILE_CACHE.stats() == (1, 1)
