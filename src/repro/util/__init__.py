"""Utilities: ASCII tables, series plots, CSV export, DOT rendering,
related-work validation matrix."""

from .tables import ascii_series_plot, ascii_table, write_csv
from .dot import csdf_to_dot, tpdf_to_dot
from .validation import (
    FEATURE_HEADERS,
    RELATED_WORK,
    ModelFeatures,
    feature_matrix_rows,
    tpdf_claims,
)

__all__ = [
    "ascii_table",
    "ascii_series_plot",
    "write_csv",
    "csdf_to_dot",
    "tpdf_to_dot",
    "ModelFeatures",
    "RELATED_WORK",
    "FEATURE_HEADERS",
    "feature_matrix_rows",
    "tpdf_claims",
]
