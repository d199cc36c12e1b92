"""Evaluation, sweeps and reporting utilities for the attack experiments."""

from repro.analysis.evaluation import (
    AttackEvaluation,
    count_modified_parameters,
    evaluate_attack_result,
    evaluate_modification,
)
from repro.analysis.tolerance import ToleranceCurve, fault_tolerance_curve
from repro.analysis.sweeps import SweepRecord, sweep_s_r_grid
from repro.analysis.reporting import Table, format_float, render_markdown, render_text
from repro.analysis.plotting import ascii_bar_chart, ascii_line_chart
from repro.defenses.detectors import (
    DetectionReport,
    detection_report,
    parameter_audit_detection_probability,
    probe_detection_probability,
    probes_needed_for_detection,
)

__all__ = [
    "AttackEvaluation",
    "evaluate_attack_result",
    "evaluate_modification",
    "count_modified_parameters",
    "ToleranceCurve",
    "fault_tolerance_curve",
    "SweepRecord",
    "sweep_s_r_grid",
    "Table",
    "render_text",
    "render_markdown",
    "format_float",
    "ascii_line_chart",
    "ascii_bar_chart",
    "DetectionReport",
    "detection_report",
    "probe_detection_probability",
    "probes_needed_for_detection",
    "parameter_audit_detection_probability",
]
