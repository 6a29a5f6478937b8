"""scripts/reproduce_figures.py with its command runner stubbed: the line
printed after each command; and the config headers of what it tracks."""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

from ris_sim.experiment_config import config_digest, config_header, load_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_command_reports_wall_time_and_peak_rss(monkeypatch, capsys, tmp_path):
    script = _load_script()
    monkeypatch.setattr(script, "cli_main", lambda argv: 0)
    assert script._run_all(str(tmp_path)) == 0
    out = capsys.readouterr().out
    pattern = r"== (\S+) wall time: \d+\.\d\d s, peak RSS so far: (\d+\.\d) MB"
    reports = re.findall(pattern, out)
    assert [command for command, _ in reports] == [command for *_, command in script.RUNS]
    assert all(float(peak) > 0 for _, peak in reports)


def test_tracked_headers_are_their_configs():
    # every header line of results/, the digest included, is the header of
    # the config that the script runs into that directory
    script = _load_script()
    for out, config, _ in script.RUNS:
        cfg = replace(load_config(script.CONFIGS / config), out_dir=f"results/{out}")
        paths = sorted((script.RESULTS / out).glob("*.csv"))
        assert paths, out
        for path in paths:
            lines = path.read_text().splitlines(keepends=True)
            header = "".join(line for line in lines if line.startswith("#"))
            assert header == config_header(cfg), path
            assert header.splitlines()[-1] == f"# config_digest: {config_digest(cfg)}"
