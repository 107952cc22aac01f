"""Tests for the CLI."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.topology == "small"
        assert args.hours == 1.0

    @pytest.mark.parametrize(
        "flag",
        [("--head-layout", "list"), ("--no-scrape-cache",), ("--lazy-blocks",)],
        ids=lambda flag: flag[0],
    )
    def test_implementation_selecting_flags_are_gone(self, flag, capsys):
        """Each job has one production path, so the flags that picked
        between two are usage errors, not silently accepted."""
        for command in ("simulate", "serve"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestSimulate:
    def test_small_run_report(self):
        code, output = run_cli("simulate", "--hours", "0.5", "--seed", "3")
        assert code == 0
        assert "deployment:" in output
        assert "jobs_submitted" in output
        assert "top consumers:" in output

    def test_jean_zay_topology(self):
        code, output = run_cli(
            "simulate", "--topology", "jean-zay", "--scale", "0.004", "--hours", "0.3"
        )
        assert code == 0
        assert "node power by class:" in output


class TestDashboards:
    def test_stdout_export(self):
        code, output = run_cli("dashboards")
        assert code == 0
        bundle = json.loads(output)
        assert "ceems-fig2a" in bundle

    def test_file_export(self, tmp_path):
        target = tmp_path / "dashboards.json"
        code, output = run_cli("dashboards", "--output", str(target))
        assert code == 0
        assert "wrote" in output
        assert json.loads(target.read_text())


class TestValidateConfig:
    def test_valid_config(self, tmp_path):
        path = tmp_path / "ceems.yml"
        path.write_text(
            "exporter:\n  port: 9010\n"
            "tsdb:\n  scrape_interval: 15s\n"
            "lb:\n  strategy: round-robin\n"
        )
        code, output = run_cli("validate-config", str(path))
        assert code == 0
        assert "ok:" in output

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.yml"
        path.write_text("lb:\n  strategy: chaos\n")
        code, output = run_cli("validate-config", str(path))
        assert code == 1
        assert "invalid" in output

    def test_missing_file(self):
        code, output = run_cli("validate-config", "/does/not/exist.yml")
        assert code == 1


class TestExportRules:
    def test_stdout_export_parses_back(self):
        from repro.energy.export import parse_rules_file

        code, output = run_cli("export-rules")
        assert code == 0
        groups = parse_rules_file(output)
        assert any(g.name.startswith("ceems-power-") for g in groups)

    def test_file_export(self, tmp_path):
        target = tmp_path / "rules.yml"
        code, _output = run_cli("export-rules", "--output", str(target))
        assert code == 0
        assert "groups:" in target.read_text()

    def test_shipped_artifact_current(self):
        """etc/prometheus-rules.yml matches the executable library."""
        import pathlib

        _code, output = run_cli("export-rules")
        shipped = pathlib.Path("etc/prometheus-rules.yml").read_text()
        assert output.strip() == shipped.strip()
