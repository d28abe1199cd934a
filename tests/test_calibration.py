"""Unit tests for the calibration report and its suite-extension driver."""

import sys

import pytest

from repro.attacks.lab import HijackLab
from repro.cli import main
from repro.experiments.calibration import PAPER_CONSTANTS, calibrate


@pytest.fixture(scope="module")
def report(medium_lab: HijackLab):
    return calibrate(medium_lab, agreement_samples=5, path_samples=30, seed=1)


class TestCalibration:
    def test_structural_numbers_match_summary(self, report, medium_graph):
        assert report.as_count == len(medium_graph)
        assert report.link_count == medium_graph.edge_count()
        assert report.links_per_as == pytest.approx(
            medium_graph.edge_count() / len(medium_graph)
        )

    def test_engines_agree_perfectly(self, report):
        assert report.engine_simulator_agreement == 1.0
        assert report.agreement_samples == 5

    def test_path_inflation_is_mild(self, report):
        # Valley-free routing on an internet-shaped graph barely inflates
        # path lengths.
        assert 1.0 <= report.path_inflation_mean < 1.5
        assert report.path_samples > 0

    def test_healthy(self, report):
        assert report.healthy()

    def test_render_mentions_paper_references(self, report):
        text = report.render()
        assert "62%" in text
        assert "42697" in text
        assert "healthy" in text

    def test_paper_constants_pinned(self):
        assert PAPER_CONSTANTS["tier1_count"] == 17
        assert PAPER_CONSTANTS["transit_fraction"] == pytest.approx(0.1479, abs=1e-3)

    def test_cli_calibrate(self, capsys):
        assert main([
            "calibrate", "--as-count", "500",
            "--agreement-samples", "3", "--path-samples", "15",
        ]) == 0
        assert "Calibration report" in capsys.readouterr().out


class TestSubprefixExtensionDriver:
    def test_ext_subprefix_summary(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.suite import ExperimentSuite
        from repro.topology.generator import GeneratorConfig

        suite = ExperimentSuite(ExperimentConfig(
            topology=GeneratorConfig.scaled(500, seed=23),
            seed=23,
            output_dir=tmp_path,
            attacker_sample=40,
            detection_attacks=50,
        ))
        result = suite.ext_subprefix()
        summary = result.summary
        assert summary["subprefix_hijack"]["mean"] >= summary["origin_hijack"]["mean"]
        assert summary["subprefix_dominates_fraction"] >= 0.9
        assert (
            summary["subprefix_with_core299_rov"]["mean"]
            < summary["subprefix_hijack"]["mean"]
        )


class TestNoNetworkx:
    def test_calibration_runs_without_networkx(self, medium_lab, monkeypatch):
        """Calibration needs no networkx: with the module unimportable it
        still measures path inflation, and the BFS hop distances give the
        exact mean the networkx shortest paths gave on this seed."""
        monkeypatch.setitem(sys.modules, "networkx", None)
        report = calibrate(medium_lab, agreement_samples=0, path_samples=40, seed=3)
        assert report.path_samples == 40
        assert report.path_inflation_mean == 1.0716666666666668
