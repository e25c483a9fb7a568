"""Integration tests for the evaluation harness (tables and figures).

These run the same code as the benchmark harness at reduced kernel sizes and
assert the qualitative "shape" the paper reports (who wins, what matches
exactly, which diagnostics appear).
"""

import re

import pytest

from repro.evaluation import figures, paper_data, runner, table4, table5, table6
from repro.store import store_counters


@pytest.fixture(scope="module")
def quick_table5():
    return table5.generate(runner.QUICK_TABLE5_PARAMS)


@pytest.fixture(scope="module")
def quick_table6():
    return table6.generate(runner.QUICK_TABLE6_PARAMS)


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return table4.generate(size=8)

    def test_all_four_design_points_present(self, rows):
        assert set(rows) == set(paper_data.PAPER_TABLE4)

    def test_precision_optimization_helps_hir(self, rows):
        auto = rows["HIR (auto opt)"].measured.as_dict()
        noopt = rows["HIR (no opt)"].measured.as_dict()
        assert auto["LUT"] < noopt["LUT"]
        assert auto["FF"] < noopt["FF"]

    def test_manual_precision_helps_hls(self, rows):
        manual = rows["Vivado HLS (manual opt)"].measured.as_dict()
        automatic = rows["Vivado HLS"].measured.as_dict()
        assert manual["LUT"] <= automatic["LUT"]
        assert manual["FF"] <= automatic["FF"]

    def test_shape_check_passes(self, rows):
        assert table4.check_shape(rows)

    def test_render_mentions_paper_numbers(self, rows):
        text = table4.render(rows)
        assert "Table 4" in text and "paper" in text


class TestTable5:
    def test_all_kernels_measured(self, quick_table5):
        assert set(quick_table5) == set(paper_data.PAPER_TABLE5)

    def test_dsp_and_bram_parity(self, quick_table5):
        for name, row in quick_table5.items():
            assert row.baseline.as_dict()["DSP"] == row.hir.as_dict()["DSP"], name
            assert row.baseline.as_dict()["BRAM"] == row.hir.as_dict()["BRAM"], name

    def test_hir_no_worse_in_luts_on_non_pe_kernels(self, quick_table5):
        for name in ("transpose", "stencil_1d", "histogram", "convolution"):
            row = quick_table5[name]
            assert row.hir.as_dict()["LUT"] <= row.baseline.as_dict()["LUT"], name

    def test_fifo_uses_more_registers_than_hand_verilog(self, quick_table5):
        row = quick_table5["fifo"]
        assert row.hir.as_dict()["FF"] >= row.baseline.as_dict()["FF"]

    def test_shape_checks(self, quick_table5):
        checks = table5.check_shape(quick_table5)
        assert all(checks.values()), checks

    def test_render(self, quick_table5):
        text = table5.render(quick_table5)
        assert "Table 5" in text and "gemm" in text


class TestEstimateOncePerDesign:
    """The resource model charges each design the tables report exactly
    once: an HLS baseline reuses the estimate ``compile_program`` already
    made (``HLSReport.estimated_resources``)."""

    @pytest.fixture
    def estimated(self, monkeypatch):
        import sys

        from repro.resources.model import estimate_resources as real
        designs = []

        def counting(design, *args, **kwargs):
            designs.append(design)
            return real(design, *args, **kwargs)

        # Every binding of the function, including `from ... import` copies.
        for module in list(sys.modules.values()):
            if getattr(module, "estimate_resources", None) is real:
                monkeypatch.setattr(module, "estimate_resources", counting)
        # A warm store would serve the HIR reports without estimating.
        monkeypatch.setenv("REPRO_STORE_DIR", "")
        return designs

    def test_table5_estimates_each_of_its_12_designs_once(self, estimated):
        table5.generate(runner.QUICK_TABLE5_PARAMS)
        assert len(estimated) == len({id(design) for design in estimated}) == 12

    def test_table4_estimates_each_of_its_4_designs_once(self, estimated):
        table4.generate(size=8)
        assert len(estimated) == len({id(design) for design in estimated}) == 4


class TestTable6:
    def test_hir_compiles_faster_on_every_kernel(self, quick_table6):
        for name, row in quick_table6.items():
            assert row.speedup > 1.0, f"{name}: {row.speedup}"

    def test_average_speedup_positive(self, quick_table6):
        assert table6.average_speedup(quick_table6) > 1.0

    def test_shape_check(self, quick_table6):
        assert table6.check_shape(quick_table6)

    def test_render_includes_paper_reference(self, quick_table6):
        text = table6.render(quick_table6)
        assert "1112" in text

    def test_best_of_repeats_a_slow_first_sample(self):
        samples = iter([0.09, 0.02, 0.02])
        assert table6._best_of(lambda: next(samples), repeats=3) == [0.02]

    def test_best_of_interleaves_and_runs_long_samples_once(self):
        calls = []

        def sampler(label, seconds):
            def measure():
                calls.append(label)
                return seconds
            return measure

        best = table6._best_of(sampler("hir", 0.02), sampler("hls", 5.0))
        assert best == [0.02, 5.0]
        assert calls == ["hir", "hls"] + ["hir"] * 4


class TestCompileTimeBypassesTheStore:
    """Compile-time measurements run with persistence off: a warm
    ``REPRO_STORE_DIR`` must neither break them nor be what they time."""

    @pytest.fixture(autouse=True)
    def env_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))

    def test_timing_breakdown_survives_a_warm_store(self):
        for _ in range(2):          # the second run would hit the store
            text = runner.render_compile_timing(quick=True)
            assert "pass timing report" in text
            assert "canonicalize" in text

    def test_table6_hir_column_reads_no_store(self):
        before = store_counters()
        table6.measure_kernel("transpose")
        assert store_counters() == before

    def test_timing_breakdown_times_a_sweep_not_the_memo(self):
        """A compile of the same program earlier in the process (Tables 4
        and 5 in ``repro report``) does not shorten the breakdown's sweep:
        it schedules its design points again."""
        from repro.hls import compile_program
        from repro.kernels import build_kernel
        artifacts = build_kernel("gemm", size=4)
        compile_program(artifacts.hls_program, artifacts.hls_function)
        (line,) = [line for line in
                   runner.render_compile_timing(quick=True).splitlines()
                   if line.startswith("DSE design points:")]
        assert re.fullmatch(r"DSE design points: \d+ examined, \d+ pruned, "
                            r"[1-9]\d* scheduled", line)


class TestFigures:
    def test_figure1_reproduced(self):
        assert figures.figure1().reproduced

    def test_figure2_reproduced(self):
        assert figures.figure2().reproduced

    def test_figure3_reproduced(self):
        result = figures.figure3()
        assert result.reproduced
        assert result.bank_layout == paper_data.PAPER_FIGURE3_BANKS

    def test_figure_renders(self):
        assert "Figure 1" in figures.figure1().render()
        assert "Figure 3" in figures.figure3().render()


class TestRunner:
    def test_quick_run_produces_everything(self):
        results = runner.run_all(quick=True)
        assert results.table4 and results.table5 and results.table6
        assert results.figure1.reproduced and results.figure2.reproduced
        assert results.figure3.reproduced
        rendered = results.render()
        assert "Table 4" in rendered and "Figure 3" in rendered
