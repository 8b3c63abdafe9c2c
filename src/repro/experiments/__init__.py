"""Experiment harness: one module per paper table/figure (see DESIGN.md)."""

from .ablations import (
    counter_size_sweep,
    design_b_sweep,
    extraction_sweep,
    monitoring_range_sweep,
    pattern_length_sweep,
    structure_sweep,
    sweep_report,
    trigger_offset_width_sweep,
)
from .motivation import (
    fig2_report,
    fig4_report,
    fig5_report,
    run_fig2,
    run_fig4,
    run_table_i,
    table_i_report,
)
from .multi_core import (
    TABLE_VII_MIXES,
    build_heterogeneous_mixes,
    fig13,
    fig13_report,
)
from .cache import ResultCache
from .engine import EngineCounters, ExperimentEngine, SimJob
from .faults import (BatchFailed, FaultPolicy, JobFailure, JobTimeout,
                     RunInterrupted)
from .journal import RunJournal
from .manifest import RunManifest, current_git_sha
from .report import format_percent, format_series, format_table
from .runner import SuiteRunner
from .sensitivity import bandwidth_sweep, llc_size_sweep
from .single_core import (
    SingleCoreResults,
    family_breakdown,
    family_report,
    prefetch_depth_report,
    run_single_core,
)

__all__ = [
    "BatchFailed",
    "EngineCounters",
    "ExperimentEngine",
    "FaultPolicy",
    "JobFailure",
    "JobTimeout",
    "ResultCache",
    "RunInterrupted",
    "RunJournal",
    "RunManifest",
    "SimJob",
    "SingleCoreResults",
    "SuiteRunner",
    "TABLE_VII_MIXES",
    "current_git_sha",
    "bandwidth_sweep",
    "build_heterogeneous_mixes",
    "counter_size_sweep",
    "family_breakdown",
    "family_report",
    "design_b_sweep",
    "extraction_sweep",
    "fig13",
    "fig13_report",
    "fig2_report",
    "fig4_report",
    "fig5_report",
    "format_percent",
    "format_series",
    "format_table",
    "llc_size_sweep",
    "monitoring_range_sweep",
    "pattern_length_sweep",
    "prefetch_depth_report",
    "run_fig2",
    "run_fig4",
    "run_single_core",
    "run_table_i",
    "structure_sweep",
    "sweep_report",
    "table_i_report",
    "trigger_offset_width_sweep",
]
