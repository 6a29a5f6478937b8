"""scripts/reproduce_figures.py with its command runner stubbed: argument
checks and the line printed after each command."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_check_refused_before_running(monkeypatch, capsys):
    # the tracked results/ hold the full pass, so a quick pass always differs
    script = _load_script()
    ran = []
    monkeypatch.setattr(script, "cli_main", lambda argv: ran.append(argv) or 0)
    assert script.main(["--quick", "--check"]) == 2
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert len(err.splitlines()) == 1 and "--quick" in err


def test_each_command_reports_wall_time_and_peak_rss(monkeypatch, capsys, tmp_path):
    script = _load_script()
    monkeypatch.setattr(script, "cli_main", lambda argv: 0)
    assert script._run_all(str(tmp_path), quick=True) == 0
    out = capsys.readouterr().out
    pattern = r"== (\S+) wall time: \d+\.\d\d s, peak RSS so far: (\d+\.\d) MB"
    reports = re.findall(pattern, out)
    assert [command for command, _ in reports] == [command for *_, command in script.RUNS]
    assert all(float(peak) > 0 for _, peak in reports)
