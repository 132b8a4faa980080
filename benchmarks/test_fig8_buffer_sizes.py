"""FIG8 — the paper's headline evaluation: minimum buffer size of the
OFDM demodulator vs vectorization degree beta, TPDF against CSDF.

Paper: Buff_TPDF = 3 + beta(12N + L), Buff_CSDF = beta(17N + L), for
N in {512, 1024}, beta in 10..100, L = 1; TPDF improves on CSDF by 29%
(1 - 12/17 = 29.4%).  We *measure* both sides by executing one
buffer-minimizing iteration of each implementation and print the
measured series next to the paper's closed forms.
"""

import pytest

from repro.apps.ofdm import fig8_point, fig8_series
from repro.util import ascii_series_plot, ascii_table, write_csv

BETAS = tuple(range(10, 101, 10))


def test_fig8_full_sweep(benchmark, report):
    series = benchmark.pedantic(
        fig8_series, kwargs={"betas": BETAS, "ns": (512, 1024)},
        rounds=1, iterations=1,
    )
    for point in series:
        assert point.tpdf_measured == point.tpdf_paper
        assert point.csdf_measured == point.csdf_paper
        assert point.improvement == pytest.approx(1 - 12 / 17, abs=0.005)

    rows = [
        [pt.n, pt.beta, pt.tpdf_measured, pt.tpdf_paper, pt.csdf_measured,
         pt.csdf_paper, f"{100 * pt.improvement:.1f}%"]
        for pt in series
    ]
    table = ascii_table(
        ["N", "beta", "TPDF measured", "TPDF paper", "CSDF measured",
         "CSDF paper", "improvement"],
        rows,
        title="Fig. 8 — minimum buffer size vs vectorization degree "
              "(paper: ~29% improvement)",
    )
    xs = list(BETAS)
    plot = ascii_series_plot(
        xs,
        {
            "TPDF N=512": [pt.tpdf_measured for pt in series if pt.n == 512],
            "CSDF N=512": [pt.csdf_measured for pt in series if pt.n == 512],
            "TPDF N=1024": [pt.tpdf_measured for pt in series if pt.n == 1024],
            "CSDF N=1024": [pt.csdf_measured for pt in series if pt.n == 1024],
        },
        title="Fig. 8 (ASCII rendering)",
    )
    write_csv(
        "benchmarks/results/fig8_buffer_sizes.csv",
        ["N", "beta", "tpdf_measured", "tpdf_paper", "csdf_measured",
         "csdf_paper", "improvement"],
        [[pt.n, pt.beta, pt.tpdf_measured, pt.tpdf_paper, pt.csdf_measured,
          pt.csdf_paper, pt.improvement] for pt in series],
    )
    report("fig8_buffer_sizes", table + "\n\n" + plot)


def test_fig8_single_point_cost(benchmark):
    """Timing reference: one Fig. 8 measurement point."""
    point = benchmark(fig8_point, 100, 1024)
    assert point.tpdf_measured == point.tpdf_paper


def test_fig8_parametric_mcr_replaces_sweep(benchmark, report):
    """One piecewise build gives the throughput bound over the whole
    Fig. 8 grid.

    Both Fig. 8 implementations (mode-restricted TPDF and the CSDF
    baseline) get their throughput bound as a piecewise-symbolic
    function over the full evaluation domain (beta = 10..100,
    N in 512..1024); every grid point must match the concrete Howard
    solver bit-for-bit.  The wall-clock of the per-binding sweep and of
    the single build are recorded alongside the buffer numbers; the
    sweep re-expands nothing per binding (the rings outside the cyclic
    cores are closed-form), so it costs milliseconds too."""
    import time

    from repro.apps.ofdm import build_ofdm_csdf, build_ofdm_tpdf
    from repro.apps.ofdm.qam import scheme_for_m
    from repro.csdf import max_cycle_ratio, parametric_mcr
    from repro.tpdf import restrict_to_selection

    graph = build_ofdm_tpdf()
    port = "qam" if scheme_for_m(4) == "qam16" else "qpsk"
    restricted = restrict_to_selection(graph, "DUP", ["in", port])
    restricted = restrict_to_selection(restricted, "TRAN", [port, "out"])
    tpdf_csdf = restricted.as_csdf()
    csdf = build_ofdm_csdf()

    grid = [{"beta": beta, "N": n, "L": 1, "M": 4}
            for n in (512, 1024) for beta in BETAS]
    cases = [
        ("TPDF (restricted)", tpdf_csdf,
         {"beta": (10, 100), "N": (512, 1024), "L": (1, 1), "M": (4, 4)}),
        ("CSDF baseline", csdf,
         {"beta": (10, 100), "N": (512, 1024), "L": (1, 1)}),
    ]

    def compare():
        rows = []
        for name, g, domain in cases:
            start = time.perf_counter()
            concrete = [max_cycle_ratio(g, bindings) for bindings in grid]
            sweep_s = time.perf_counter() - start

            start = time.perf_counter()
            piecewise = parametric_mcr(g, domain)
            symbolic = [piecewise.evaluate_float(b) for b in grid]
            parametric_s = time.perf_counter() - start

            assert symbolic == concrete, f"{name}: piecewise != Howard"
            rows.append((name, piecewise, sweep_s, parametric_s))
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = ascii_table(
        ["implementation", "bindings", "regions", "sweep (ms)",
         "parametric (ms)"],
        [
            [name, len(grid), len(pw.regions),
             f"{sweep_s * 1000:.1f}", f"{parametric_s * 1000:.1f}"]
            for name, pw, sweep_s, parametric_s in rows
        ],
        title="Fig. 8 — throughput bound over the evaluation grid: "
              "per-binding Howard sweep vs. one piecewise build "
              "(bit-for-bit equal)",
    )
    write_csv(
        "benchmarks/results/fig8_parametric_mcr.csv",
        ["implementation", "bindings", "regions", "sweep_s", "parametric_s"],
        [[name, len(grid), len(pw.regions), sweep_s, parametric_s]
         for name, pw, sweep_s, parametric_s in rows],
    )
    report("fig8_parametric_mcr", table)
