"""Tests for the CLI."""

import dataclasses
import io
import json

import pytest

from repro.cli import _build_sim, build_parser, main
from repro.cluster.simulation import SimulationConfig

CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
#: Options of ``simulate`` that are not SimulationConfig fields.
NOT_CONFIG = {"command", "func", "topology", "scale", "hours"}
SIM_DESTS = sorted(set(vars(build_parser().parse_args(["simulate"]))) - NOT_CONFIG)


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
        [
            ("--head-layout", "list"),
            ("--no-scrape-cache",),
            ("--lazy-blocks",),
            ("--scrape-workers", "2"),
            ("--decode-cache-chunks", "8"),
            ("--results-cache-mb", "1"),
            ("--exemplars-per-series", "4"),
            ("--split-interval", "900"),
        ],
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


class TestFlagsAreConfigFields:
    """Every sim flag is a SimulationConfig field: same default, and a
    value given on the command line reaches ``sim.config``."""

    @pytest.mark.parametrize("command", ["simulate", "serve"])
    def test_parsed_defaults_are_the_field_defaults(self, command):
        parsed = vars(build_parser().parse_args([command]))
        dests = set(parsed) - NOT_CONFIG - {"port"}
        assert dests == set(SIM_DESTS)
        for dest in dests:
            assert parsed[dest] == CONFIG_DEFAULTS[dest], dest

    @pytest.mark.parametrize("dest", SIM_DESTS)
    def test_flag_reaches_sim_config(self, dest, tmp_path):
        default = CONFIG_DEFAULTS[dest]
        flag = "--" + dest.replace("_", "-")
        if isinstance(default, bool):
            value, argv = True, [flag]
        else:
            if isinstance(default, str):
                value = str(tmp_path / dest)
            elif isinstance(default, int):
                value = default * 2 + 1
            else:
                value = default / 2 if default else 0.5
            argv = [flag, str(value)]
        sim = _build_sim(build_parser().parse_args(["simulate", *argv]))
        assert getattr(sim.config, dest) == value
        if sim.config.persist_dir:
            sim.hot_tsdb.close()

    def test_alert_interval_zero_disables_alert_evaluation(self):
        args = build_parser().parse_args(["simulate", "--alert-interval", "0"])
        sim = _build_sim(args)
        assert sim.rule_evaluator.alert_groups == []
        assert sim.rule_evaluator.groups  # recording rules still run
        sim.run(300.0)
        assert sim.rule_evaluator.alert_evaluations == 0
        code, output = run_cli("simulate", "--alert-interval", "0", "--hours", "0.05")
        assert code == 0
        assert "deployment:" in output


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
