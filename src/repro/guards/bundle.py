"""Crash-forensics bundles: self-contained snapshots of a failing run.

A bundle is one JSON file written atomically (tmp file + ``os.replace``)
the moment a guard fires — an invariant violation, or an unhandled
exception escaping the runner. It carries everything needed
to understand *and re-run* the failure on another machine: the full
config (plus its fingerprint), the seed, the engine clock and upcoming
event queue, per-peer state summaries, the recent transfer log, and
the violation or error report itself. :mod:`repro.guards.replay`
turns a bundle back into a simulation.
"""

from __future__ import annotations

import json
import os
import traceback as _traceback
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.guards import GuardRuntime, InvariantViolation
    from repro.sim.runner import Simulation

__all__ = ["BUNDLE_VERSION", "write_bundle", "load_bundle",
           "config_fingerprint"]

#: Version 2 dropped the stall bundle kind and two guard-config fields.
BUNDLE_VERSION = 2

#: Default directory (under the working directory) when the guard
#: config does not name one.
DEFAULT_BUNDLE_DIR = "crash-bundles"


def config_fingerprint(config) -> str:
    """A stable human-diffable fingerprint of a simulation config.

    ``repr`` of the frozen dataclass tree: byte-identical for equal
    configs, and readable enough to eyeball what differs between two
    bundles. (The sweep journal uses the same convention.)
    """
    return repr(config)


def _peer_summary(peer) -> Dict[str, Any]:
    return {
        "peer_id": peer.peer_id,
        "lineage_id": peer.lineage_id,
        "capacity": peer.capacity,
        "is_seeder": peer.is_seeder,
        "is_freerider": peer.is_freerider,
        "departed": peer.departed,
        "arrival_time": peer.arrival_time,
        "bootstrap_time": peer.bootstrap_time,
        "completion_time": peer.completion_time,
        "pieces_held": len(peer.pieces),
        "pending": sorted(peer.pending),
        "total_uploaded": peer.total_uploaded,
        "total_downloaded": peer.total_downloaded,
        "total_received_raw": peer.total_received_raw,
        "offline_until": peer.offline_until,
    }


def _build_payload(sim: "Simulation", kind: str,
                   guards: Optional["GuardRuntime"],
                   violations: Optional[List["InvariantViolation"]],
                   error: Optional[BaseException]) -> Dict[str, Any]:
    config = sim.config
    engine = sim.engine
    peers = [_peer_summary(p) for p in sim._seeders]
    peers += [_peer_summary(p) for p in sim._all_peers]
    payload: Dict[str, Any] = {
        "bundle_version": BUNDLE_VERSION,
        "kind": kind,
        "algorithm": config.algorithm.value,
        "seed": config.seed,
        "config_fingerprint": config_fingerprint(config),
        "config": config.to_dict(),
        "engine": {
            "now": engine.now,
            "events_fired": engine.events_fired,
            "pending_events": engine.pending,
            "queue_tail": [list(entry) for entry in engine.upcoming(16)],
        },
        "round_index": sim.round_index,
        "violations": [v.to_dict() for v in violations or []],
        "error": None,
        "peers": peers,
        "recent_transfers": list(guards.recent_transfers) if guards else [],
        "metrics": {
            "total_uploaded": sim.collector.total_uploaded_so_far,
            "peer_uploaded": sim.collector.peer_uploaded_so_far,
            "freerider_received": sim.collector.freerider_received_so_far,
            "samples_taken": len(sim.collector.metrics.samples),
        },
    }
    if error is not None:
        payload["error"] = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": "".join(_traceback.format_exception(
                type(error), error, error.__traceback__)),
        }
    return payload


def write_bundle(sim: "Simulation", kind: str,
                 guards: Optional["GuardRuntime"] = None,
                 violations: Optional[List["InvariantViolation"]] = None,
                 error: Optional[BaseException] = None) -> str:
    """Atomically write one crash bundle; returns its path.

    ``kind`` is ``"violation"`` or ``"exception"``. The
    write goes to a temp file in the target directory first and is
    published with ``os.replace``, so a bundle either exists complete
    or not at all — a crash mid-dump never leaves a half-written JSON
    for the replay tooling to choke on.
    """
    bundle_dir = None
    if guards is not None:
        bundle_dir = guards.config.bundle_dir
    if bundle_dir is None:
        bundle_dir = DEFAULT_BUNDLE_DIR
    os.makedirs(bundle_dir, exist_ok=True)

    payload = _build_payload(sim, kind, guards, violations, error)
    stem = (f"bundle-{kind}-{sim.config.algorithm.value}"
            f"-seed{sim.config.seed}-r{sim.round_index}")
    path = os.path.join(bundle_dir, f"{stem}.json")
    counter = 1
    while os.path.exists(path):
        path = os.path.join(bundle_dir, f"{stem}-{counter}.json")
        counter += 1

    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=repr)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    """Load a bundle written by :func:`write_bundle`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("bundle_version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported bundle version {version!r} in {path} "
            f"(this build reads version {BUNDLE_VERSION})")
    return payload
