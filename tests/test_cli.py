"""The ``python -m repro.experiments`` command-line interface."""

import pytest

from repro import telemetry
from repro.experiments import clear_caches
from repro.experiments.__main__ import main
from repro.telemetry import spans as telemetry_spans


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestCli:
    def test_runs_one_experiment(self, capsys):
        assert main(["fig2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "PT" in out

    def test_telemetry_report_prints_stage_table(self, capsys, monkeypatch):
        # main() switches recording on for the rest of the process.
        monkeypatch.setattr(telemetry_spans, "_enabled", telemetry.enabled())
        telemetry.take_totals()
        try:
            code = main(
                ["fig9", "--scale", "tiny", "--telemetry-report",
                 "--workers", "2"]
            )
        finally:
            telemetry.take_totals()
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("stage totals:"):].splitlines()
        rows = {line.split()[0] for line in table[3:] if line.strip()}
        assert {"candidates", "features", "model"} <= rows

    def test_unknown_experiment_errors(self):
        with pytest.raises(KeyError):
            main(["fig99", "--scale", "tiny"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--scale", "galactic"])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
