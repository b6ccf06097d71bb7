"""Experiment harness: scenarios and per-table/figure runners.

* :mod:`repro.experiments.scenarios` — canonical configurations
  (paper scale and scaled-down variants) and algorithm sweeps;
* :mod:`repro.experiments.tables` — Tables I-III and the Figure 2/3
  analytic rankings;
* :mod:`repro.experiments.figures` — the Figure 4-6 simulation sweeps;
* :mod:`repro.experiments.report` — everything, rendered as one text
  report.
"""

from repro._lazy import lazy_namespace

#: Every package-level name and where it lives; each is imported on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    "ablations": "repro.experiments.ablations",
    "export": "repro.experiments.export",
    "figures": "repro.experiments.figures",
    "hybrid_validation": "repro.experiments.hybrid_validation",
    "replicates": "repro.experiments.replicates",
    "report": "repro.experiments.report",
    "scenarios": "repro.experiments.scenarios",
    "tables": "repro.experiments.tables",
    "trace_analysis": "repro.experiments.trace_analysis",
    "validation": "repro.experiments.validation",
    "figure4": "repro.experiments.figures:figure4",
    "figure5": "repro.experiments.figures:figure5",
    "figure6": "repro.experiments.figures:figure6",
    "full_report": "repro.experiments.report:full_report",
    "default_scale": "repro.experiments.scenarios:default_scale",
    "paper_scale": "repro.experiments.scenarios:paper_scale",
    "run_all_algorithms": "repro.experiments.scenarios:run_all_algorithms",
    "smoke_scale": "repro.experiments.scenarios:smoke_scale",
    "with_freeriders": "repro.experiments.scenarios:with_freeriders",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
