"""Re-run a crash bundle's scenario to its failure point.

The simulator is deterministic for a fixed config+seed, so the bundle's
embedded config is enough to reproduce the failure — no state snapshot
restore needed. :func:`replay` rebuilds the simulation, runs it (a few
rounds past the recorded failure round, in case the original raise
landed mid-round), and reports whether the same failure recurred.

Corruption injected *from outside* the simulation (the targeted guard
tests) obviously cannot replay from config alone; pass the same
injection via ``setup`` to reproduce those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import InvariantViolationError
from repro.guards.bundle import load_bundle

__all__ = ["ReplayResult", "replay"]


@dataclass
class ReplayResult:
    """Outcome of re-running one bundle.

    ``reproduced`` is True when the replay ended the same way the
    original run did: same failure kind, and — for violations — the
    same guard codes at the same round.
    """

    bundle_path: str
    kind: str
    reproduced: bool
    outcome: str
    round_index: Optional[int] = None
    codes: List[str] = field(default_factory=list)
    detail: Optional[str] = None
    new_bundle_path: Optional[str] = None


def replay(path: str, setup: Optional[Callable[[Any], None]] = None,
           extra_rounds: int = 2,
           bundle_dir: Optional[str] = None) -> ReplayResult:
    """Reload ``path`` and re-run its scenario to the failure point.

    Parameters
    ----------
    path:
        A bundle written by :func:`repro.guards.bundle.write_bundle`.
    setup:
        Optional hook called with the rebuilt ``Simulation`` before it
        runs — the place to re-apply an external corruption injection.
    extra_rounds:
        Slack past the recorded failure round before the replay is cut
        off (the run is capped there so a *fixed* bug terminates fast
        instead of running the original config to completion).
    bundle_dir:
        Where the replay's own bundle (if it fails again) is written;
        defaults to the original bundle's configured directory.
    """
    # Imported lazily: repro.sim.config imports repro.sim.guards, which
    # reaches back into this package for the bundle writer.
    from repro.sim.config import SimulationConfig

    payload = load_bundle(path)
    kind = payload["kind"]
    fail_round = payload.get("round_index") or 0

    config_data: Dict[str, Any] = dict(payload["config"])
    original_rounds = int(config_data.get("max_rounds", fail_round))
    # Cap the replay just past the failure point — but never below the
    # config-validation floors (the flash crowd must fully arrive, at
    # least one sample must land), and never by touching the arrival
    # parameters themselves: those feed the RNG, and changing them
    # would replay a different run.
    floor = max(1, int(config_data.get("sample_interval", 1)))
    if config_data.get("arrival_process", "flash") == "flash":
        floor = max(floor, -int(-float(
            config_data.get("flash_crowd_duration", 0.0)) // 1))
    config_data["max_rounds"] = min(original_rounds,
                                    max(fail_round + extra_rounds, floor))
    if bundle_dir is not None:
        guards = dict(config_data.get("guards") or {})
        guards["bundle_dir"] = bundle_dir
        config_data["guards"] = guards
    config = SimulationConfig.from_dict(config_data)

    from repro.sim.runner import Simulation
    sim = Simulation(config)
    if setup is not None:
        setup(sim)

    expected_codes = sorted({v["code"] for v in payload["violations"]})
    try:
        result = sim.run()
    except InvariantViolationError as exc:
        codes = sorted({v.code for v in exc.violations})
        round_index = exc.violations[0].round_index if exc.violations else None
        return ReplayResult(
            bundle_path=path, kind=kind, outcome="violation",
            reproduced=(kind == "violation" and codes == expected_codes
                        and round_index == fail_round),
            round_index=round_index, codes=codes, detail=str(exc),
            new_bundle_path=exc.bundle_path)
    except Exception as exc:
        recorded = payload.get("error") or {}
        return ReplayResult(
            bundle_path=path, kind=kind, outcome="exception",
            reproduced=(kind == "exception"
                        and type(exc).__name__ == recorded.get("type")),
            detail=f"{type(exc).__name__}: {exc}",
            new_bundle_path=getattr(exc, "bundle_path", None))

    return ReplayResult(bundle_path=path, kind=kind, outcome="clean",
                        reproduced=False,
                        round_index=result.metrics.rounds_run,
                        detail="replay completed without failing")
