"""scripts/reproduce_figures.py: argument checks that run no command."""

import importlib.util
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
