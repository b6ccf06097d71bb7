"""Content-addressed result store for resilient sweeps.

Completed replicate outcomes are persisted keyed by
``sha256(config_fingerprint | seed)`` — the same identity that derives
retry seeds — so an overlapping re-run (same config, same seed)
fetches the finished outcome instead of recomputing it. Because the
cache stores the *canonical* outcome dict (the digest-bearing fields:
status, seed, used seed, attempts, metric values, error), a warm-cache
sweep journals byte-identical records and reports the same
``SweepResult.canonical_digest`` as a cold recomputation. The store
doubles as partial-result salvage: after an interrupted sweep, every
outcome that finished survives in the cache even if the run's journal
was lost.

Entries are single JSON files (two-level fan-out directories keyed by
the hash prefix) with an embedded checksum over their payload. A
corrupt entry — truncated write, bit rot, hand edit — is counted and
treated as a miss by default; ``strict=True`` escalates it to
:class:`CacheCorruptionError` for pipelines that treat the cache as a
source of truth. Writes are atomic (temp file + ``os.replace``), so a
crash mid-store never leaves a torn entry. Only ``ok`` outcomes are
stored: failures must re-run, not haunt future sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["ResultCache", "CacheStats", "CacheCorruptionError"]

#: Version 2: outcomes carry ``termination``/``n_stuck``, not ``degraded``.
_CACHE_VERSION = 2


class CacheCorruptionError(RuntimeError):
    """A cache entry failed checksum or schema validation (strict mode)."""

    def __init__(self, message: str, *, path: str) -> None:
        super().__init__(message)
        self.path = path


@dataclass
class CacheStats:
    """Hit/miss accounting for one sweep's cache traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}


def _entry_key(fingerprint: str, seed: int) -> str:
    return hashlib.sha256(
        f"{fingerprint}|{seed}".encode("utf-8")).hexdigest()


def _canonical_json(payload: Dict[str, Any]) -> str:
    # sort_keys + no whitespace variance => a stable checksum surface.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Dict[str, Any]) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        _canonical_json(body).encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of finished replicate outcomes.

    ``get``/``put`` speak plain dicts (the journal's canonical outcome
    records), keeping this module free of any import cycle with
    :mod:`repro.experiments.replicates`.
    """

    def __init__(self, root: str, *, strict: bool = False) -> None:
        self.root = os.fspath(root)
        self.strict = strict
        self.stats = CacheStats()

    # -- paths -----------------------------------------------------------

    def path_for(self, fingerprint: str, seed: int) -> str:
        key = _entry_key(fingerprint, seed)
        return os.path.join(self.root, key[:2], key[2:4], f"{key}.json")

    # -- read ------------------------------------------------------------

    def get(self, fingerprint: str, seed: int) -> Optional[Dict[str, Any]]:
        """The stored canonical outcome dict, or ``None`` on a miss.

        Corruption counts as a miss unless ``strict``, in which case it
        raises :class:`CacheCorruptionError`.
        """
        path = self.path_for(fingerprint, seed)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError) as exc:
            return self._corrupt(path, f"unreadable entry: {exc}")
        problem = self._validate(entry, fingerprint, seed)
        if problem is not None:
            return self._corrupt(path, problem)
        self.stats.hits += 1
        return entry["outcome"]

    def _validate(self, entry: Any, fingerprint: str,
                  seed: int) -> Optional[str]:
        if not isinstance(entry, dict):
            return f"entry is {type(entry).__name__}, not an object"
        for field in ("version", "fingerprint", "seed", "outcome",
                      "checksum"):
            if field not in entry:
                return f"entry is missing {field!r}"
        if entry["version"] != _CACHE_VERSION:
            return (f"entry version {entry['version']!r} != "
                    f"{_CACHE_VERSION}")
        if entry["checksum"] != _checksum(entry):
            return "checksum mismatch"
        # A key collision is astronomically unlikely; an entry that
        # *passes* its checksum but names a different identity means
        # the tree was moved or hand-edited — corruption either way.
        if entry["fingerprint"] != fingerprint or entry["seed"] != seed:
            return ("entry identity mismatch "
                    f"(stored seed {entry['seed']!r})")
        if not isinstance(entry["outcome"], dict):
            return "outcome payload is not an object"
        return None

    def _corrupt(self, path: str, problem: str) -> None:
        self.stats.corrupt += 1
        if self.strict:
            raise CacheCorruptionError(
                f"corrupt cache entry {path}: {problem}", path=path)
        self.stats.misses += 1
        return None

    # -- write -----------------------------------------------------------

    def put(self, fingerprint: str, seed: int,
            outcome: Dict[str, Any]) -> str:
        """Persist an ``ok`` outcome's canonical dict; returns the path.

        Non-ok outcomes are rejected — a cached failure would mask a
        transient-vs-systematic distinction the retry ladder exists to
        probe.
        """
        if outcome.get("status") != "ok":
            raise ValueError(
                f"only ok outcomes are cacheable, got "
                f"{outcome.get('status')!r}")
        path = self.path_for(fingerprint, seed)
        entry = {"version": _CACHE_VERSION, "fingerprint": fingerprint,
                 "seed": seed, "outcome": outcome}
        entry["checksum"] = _checksum(entry)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path
