"""Content-addressed result cache: integrity, corruption, strictness."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.experiments.cache import CacheCorruptionError, ResultCache

FINGERPRINT = "SimulationConfig(algorithm=x, n_users=60)"


def _outcome(seed=7, value=1.25):
    return {"seed": seed, "used_seed": seed, "attempts": 1,
            "status": "ok", "error": None,
            "values": {"value": value}, "termination": "complete",
            "n_stuck": 0}


class TestRoundtrip:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        outcome = _outcome()
        path = cache.put(FINGERPRINT, 7, outcome)
        assert os.path.exists(path)
        assert cache.get(FINGERPRINT, 7) == outcome
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.corrupt == 0

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(FINGERPRINT, 99) is None
        assert cache.stats.misses == 1

    def test_keyed_by_fingerprint_and_seed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(FINGERPRINT, 7, _outcome(seed=7))
        assert cache.get("other-config", 7) is None
        assert cache.get(FINGERPRINT, 8) is None
        assert cache.get(FINGERPRINT, 7) is not None

    def test_float_values_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        value = 0.1 + 0.2  # not representable prettily
        cache.put(FINGERPRINT, 1, _outcome(seed=1, value=value))
        assert cache.get(FINGERPRINT, 1)["values"]["value"] == value

    def test_non_ok_outcome_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        failed = dict(_outcome(), status="failed", error="boom")
        with pytest.raises(ValueError):
            cache.put(FINGERPRINT, 7, failed)

    def test_put_overwrites_atomically(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(FINGERPRINT, 7, _outcome(value=1.0))
        cache.put(FINGERPRINT, 7, _outcome(value=2.0))
        assert cache.get(FINGERPRINT, 7)["values"]["value"] == 2.0
        # No stray temp files left behind.
        leftovers = [name for _dir, _sub, names in os.walk(tmp_path)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []


class TestCorruption:
    def _corrupt_entry(self, cache, mutate):
        path = cache.put(FINGERPRINT, 7, _outcome())
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        mutate(path, entry)
        return path

    def test_truncated_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put(FINGERPRINT, 7, _outcome())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "finge')
        assert cache.get(FINGERPRINT, 7) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_tampered_payload_fails_checksum(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        def mutate(path, entry):
            entry["outcome"]["values"]["value"] = 99.0
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)

        self._corrupt_entry(cache, mutate)
        assert cache.get(FINGERPRINT, 7) is None
        assert cache.stats.corrupt == 1

    def test_identity_mismatch_detected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        src = cache.put(FINGERPRINT, 7, _outcome())
        # A checksum-valid entry copied under the wrong key: the tree
        # was moved or hand-edited.
        dst = cache.path_for(FINGERPRINT, 8)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(src, dst)
        assert cache.get(FINGERPRINT, 8) is None
        assert cache.stats.corrupt == 1

    def test_strict_mode_raises(self, tmp_path):
        cache = ResultCache(str(tmp_path), strict=True)
        path = cache.put(FINGERPRINT, 7, _outcome())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json")
        with pytest.raises(CacheCorruptionError) as excinfo:
            cache.get(FINGERPRINT, 7)
        assert excinfo.value.path == path
        assert cache.stats.corrupt == 1

    def test_version_mismatch_is_corruption(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        def mutate(path, entry):
            entry["version"] = 999
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)

        self._corrupt_entry(cache, mutate)
        assert cache.get(FINGERPRINT, 7) is None
        assert cache.stats.corrupt == 1
