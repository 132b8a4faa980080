"""Minimum buffer sizes of the OFDM demodulator (Fig. 8).

The paper reports, for one iteration of the application::

    Buff_TPDF = 3 + beta * (12*N + L)      (M = 4 selected by the control node)
    Buff_CSDF =     beta * (17*N + L)

and a 29% improvement (1 - 12/17 = 29.4%) of TPDF over CSDF,
"explained by the fact that the dynamic topology obtained using TPDF
... allows to remove unused edges".

We *measure* both numbers instead of assuming them: the TPDF graph is
restricted to the mode the control node selected (unused edges
removed, exactly the paper's argument), the CSDF baseline keeps both
demapper paths, and a buffer-minimizing single-processor iteration is
executed on each, summing per-channel occupancy peaks.  The paper's
closed forms are evaluated alongside for comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ...csdf import minimal_buffer_schedule, total_buffer_size
from ...errors import AnalysisError
from ...tpdf import restrict_to_selection
from .pipeline import bindings_for, build_ofdm_csdf, build_ofdm_tpdf
from .qam import scheme_for_m


def paper_tpdf_buffer(beta: int, n: int, l: int) -> int:
    """The paper's closed form for TPDF (Fig. 8 caption)."""
    return 3 + beta * (12 * n + l)


def paper_csdf_buffer(beta: int, n: int, l: int) -> int:
    """The paper's closed form for CSDF (Fig. 8 caption)."""
    return beta * (17 * n + l)


def measured_tpdf_buffer(beta: int, n: int, l: int, m: int = 4) -> dict[str, int]:
    """Per-channel buffer peaks of one TPDF iteration in the selected
    mode (unused edges removed — dynamic topology)."""
    graph = build_ofdm_tpdf()
    port = "qam" if scheme_for_m(m) == "qam16" else "qpsk"
    restricted = restrict_to_selection(graph, "DUP", ["in", port])
    restricted = restrict_to_selection(restricted, "TRAN", [port, "out"])
    csdf = restricted.as_csdf()
    _, peaks = minimal_buffer_schedule(csdf, bindings_for(beta, n, l, m))
    return peaks


def measured_csdf_buffer(beta: int, n: int, l: int) -> dict[str, int]:
    """Per-channel buffer peaks of one CSDF-baseline iteration (both
    demapper paths always present)."""
    graph = build_ofdm_csdf()
    _, peaks = minimal_buffer_schedule(graph, bindings_for(beta, n, l, 4))
    return peaks


@dataclass
class Fig8Point:
    """One point of the Fig. 8 series."""

    beta: int
    n: int
    l: int
    tpdf_measured: int
    csdf_measured: int
    tpdf_paper: int
    csdf_paper: int

    @property
    def improvement(self) -> float:
        """Measured TPDF saving over CSDF (the paper reports ~29%)."""
        if not self.csdf_measured:
            return 0.0
        return 1.0 - self.tpdf_measured / self.csdf_measured


def fig8_point(beta: int, n: int, l: int = 1, m: int = 4) -> Fig8Point:
    return Fig8Point(
        beta=beta,
        n=n,
        l=l,
        tpdf_measured=total_buffer_size(measured_tpdf_buffer(beta, n, l, m)),
        csdf_measured=total_buffer_size(measured_csdf_buffer(beta, n, l)),
        tpdf_paper=paper_tpdf_buffer(beta, n, l),
        csdf_paper=paper_csdf_buffer(beta, n, l),
    )


def fig8_series(
    betas=tuple(range(10, 101, 10)),
    ns=(512, 1024),
    l: int = 1,
    m: int = 4,
) -> list[Fig8Point]:
    """The full Fig. 8 sweep: beta in 10..100, N in {512, 1024}.

    Runs through :func:`repro.analysis.analyze_batch` over two shared
    graph instances (the mode-restricted TPDF and the CSDF baseline):
    the symbolic balance solve, repetition vectors and consistency
    verdicts are computed once per graph and reused across all
    ``(beta, N)`` valuations instead of once per point.
    """
    from ...analysis import analyze_batch

    graph = build_ofdm_tpdf()
    port = "qam" if scheme_for_m(m) == "qam16" else "qpsk"
    restricted = restrict_to_selection(graph, "DUP", ["in", port])
    restricted = restrict_to_selection(restricted, "TRAN", [port, "out"])
    tpdf_csdf = restricted.as_csdf()
    csdf = build_ofdm_csdf()

    grid = [(beta, n) for n in ns for beta in betas]
    options = dict(with_liveness=False, with_mcr=False)
    reports = analyze_batch(
        itertools.chain(
            ((tpdf_csdf, bindings_for(beta, n, l, m)) for beta, n in grid),
            ((csdf, bindings_for(beta, n, l, 4)) for beta, n in grid),
        ),
        **options,
    )
    tpdf_reports, csdf_reports = reports[: len(grid)], reports[len(grid):]
    def measured(report, beta, n):
        if report.total_buffer is None:
            detail = "; ".join(
                f"{stage}: {message}"
                for stage, message in {**report.skipped, **report.errors}.items()
            )
            raise AnalysisError(
                f"fig8 point (beta={beta}, N={n}) has no buffer measurement: {detail}"
            )
        return report.total_buffer

    return [
        Fig8Point(
            beta=beta,
            n=n,
            l=l,
            tpdf_measured=measured(tpdf, beta, n),
            csdf_measured=measured(baseline, beta, n),
            tpdf_paper=paper_tpdf_buffer(beta, n, l),
            csdf_paper=paper_csdf_buffer(beta, n, l),
        )
        for (beta, n), tpdf, baseline in zip(grid, tpdf_reports, csdf_reports)
    ]
