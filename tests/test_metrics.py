import json
from pathlib import Path

import pytest

from acgl.harness import PerformanceMatrix
from acgl.metrics import (
    RunReport,
    average_forgetting,
    average_performance,
    curve_svg,
    emit_report,
    heatmap_svg,
    matrix_from_csv,
    matrix_to_csv,
    report_to_json,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "report"


def four_task_report():
    """Fixed report used for the golden-file comparison."""
    matrix = PerformanceMatrix(rows=(
        (0.9,),
        (0.85, 0.8),
        (0.825, 0.7875, 0.75),
        (0.8, 0.775, 0.7375, 0.7),
    ))
    return RunReport(
        matrix,
        times={"base_train_s": 1.5, "align_s": 0.25,
               "update_s": [0.1, 0.1, 0.1], "eval_s": [0.05, 0.05, 0.05, 0.05],
               "total_s": 2.15},
        config={"gamma": 1.0, "seed": 42},
    )


class TestAveragePerformance:
    def test_two_task_final_row(self):
        m = PerformanceMatrix(rows=((0.7,), (0.8, 0.9)))
        assert average_performance(m) == pytest.approx(0.85)

    def test_single_session(self):
        m = PerformanceMatrix(rows=((0.7,),))
        assert average_performance(m) == pytest.approx(0.7)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^performance matrix is empty$"):
            average_performance(PerformanceMatrix(rows=()))

    def test_invariant_to_final_row_reordering(self):
        a = PerformanceMatrix(rows=((0.5,), (0.2, 0.8)))
        b = PerformanceMatrix(rows=((0.5,), (0.8, 0.2)))
        assert average_performance(a) == average_performance(b)


class TestAverageForgetting:
    def test_no_forgetting_when_rows_hold(self):
        m = PerformanceMatrix(rows=((0.9,), (0.9, 0.6), (0.9, 0.6, 0.7)))
        assert average_forgetting(m) == pytest.approx(0.0)

    def test_two_task_hand_value(self):
        m = PerformanceMatrix(rows=((0.9,), (0.8, 0.7)))
        assert average_forgetting(m) == pytest.approx(0.1)

    def test_three_task_hand_value(self):
        m = PerformanceMatrix(rows=((0.9,), (0.85, 0.8), (0.7, 0.75, 0.9)))
        # (0.9 - 0.7 + 0.8 - 0.75) / 2
        assert average_forgetting(m) == pytest.approx(0.125)

    def test_improvement_gives_negative_value(self):
        m = PerformanceMatrix(rows=((0.5,), (0.8, 0.9)))
        assert average_forgetting(m) == pytest.approx(-0.3)

    def test_single_session_is_undefined_not_zero(self):
        # Every run has at least two sessions; fewer is an error, not an AF of 0.
        m = PerformanceMatrix(rows=((0.7,),))
        with pytest.raises(ValueError, match="at least two sessions, got 1"):
            average_forgetting(m)

    def test_pairs_diagonal_with_final_row_per_task(self):
        # Swapping two earlier tasks (rows/cols together) must swap their
        # per-task drops but keep the mean.
        m = PerformanceMatrix(rows=((0.9,), (0.6, 0.8), (0.5, 0.7, 0.95)))
        swapped = PerformanceMatrix(rows=((0.8,), (0.6, 0.9), (0.7, 0.5, 0.95)))
        assert average_forgetting(m) == pytest.approx(average_forgetting(swapped))


class TestCsvRoundTrip:
    def test_matrix_round_trip_exact(self):
        m = PerformanceMatrix(rows=((1.0 / 3.0,), (0.1 + 0.2, 2.0 / 7.0)))
        back = matrix_from_csv(matrix_to_csv(m))
        assert back.rows == m.rows  # bit-exact through repr

    def test_csv_layout(self):
        m = PerformanceMatrix(rows=((0.9,), (0.8, 0.7)))
        assert matrix_to_csv(m) == "0.9\n0.8,0.7\n"


class TestSvg:
    def test_single_cell_heatmap_is_brightest(self):
        svg = heatmap_svg(PerformanceMatrix(rows=((1.0,),)))
        assert svg.count("<rect") == 2  # background + one cell
        assert "#faeb64" in svg  # ramp at accuracy 1.0

    def test_zero_cell_is_darkest(self):
        svg = heatmap_svg(PerformanceMatrix(rows=((0.0,),)))
        assert "#101428" in svg

    def test_heatmap_has_one_cell_per_defined_entry(self):
        m = four_task_report().matrix
        svg = heatmap_svg(m)
        assert svg.count("<rect") == 1 + 10  # background + lower triangle

    def test_curve_svg_contains_all_points(self):
        svg = curve_svg(["0.001", "0.1", "10"], {"AP": [0.5, 0.9, 0.6]}, "t")
        assert svg.count("<circle") == 3
        assert "polyline" in svg

    def test_flat_curve_sits_mid_plot_on_a_unit_axis(self):
        svg = curve_svg(["a", "b"], {"AP": [0.5, 0.5]}, "t")
        assert '<polyline points="64.0,152.0 464.0,152.0"' in svg
        assert ">0.000</text>" in svg and ">1.000</text>" in svg

    def test_curve_svg_matches_golden_file(self):
        svg = curve_svg(["0.0001", "1.0", "100.0"],
                        {"AP": [0.6125, 0.8375, 0.55], "AF": [0.0375, -0.0125, 0.2]},
                        "sweep over gamma")
        golden = (GOLDEN_DIR.parent / "sweep" / "sweep.svg").read_text(encoding="utf-8")
        assert svg == golden, "sweep.svg deviates from the reviewed golden copy"


class TestEmission:
    def test_report_json_fields(self, tmp_path):
        report = four_task_report()
        assert emit_report(report, tmp_path) is None
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["ap"] == pytest.approx(0.753125)
        assert doc["af"] == pytest.approx((0.1 + 0.025 + 0.0125) / 3)
        assert doc["config"]["seed"] == 42
        assert len(doc["matrix"]) == 4

    def test_single_session_report_is_refused(self, tmp_path):
        report = RunReport(PerformanceMatrix(rows=((0.5,),)), times={}, config={})
        with pytest.raises(ValueError, match="at least two sessions"):
            emit_report(report, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_emission_deterministic(self, tmp_path):
        report = four_task_report()
        emit_report(report, tmp_path / "a")
        emit_report(report, tmp_path / "b")
        for name in ("report.json", "matrix.csv", "heatmap.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_matches_golden_files(self, tmp_path):
        report = four_task_report()
        emit_report(report, tmp_path)
        for name in ("report.json", "matrix.csv", "heatmap.svg"):
            golden = (GOLDEN_DIR / name).read_bytes()
            produced = (tmp_path / name).read_bytes()
            assert produced == golden, f"{name} deviates from the reviewed golden copy"
