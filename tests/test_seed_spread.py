"""scripts/seed_spread.py at two seeds and a small trial count: the output
format only, since at this size the gate values mean nothing; and its
argument checks."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_spread.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("seed_spread", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_seeds_print_one_row_each_then_worst_and_median(capsys):
    script = _load_script()
    assert script.main(["--seeds", "2", "--trials", "1000", "--threads", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1000 trials per seed, default config, --threads 1"
    assert lines[1].split() == ["seed", *script.COLUMNS]
    number = r"\s+\d+\.\d{6}"
    labels = [str(seed) for seed in script.SEEDS[:2]] + ["worst", "median"]
    assert len(lines) == 2 + len(labels)
    for label, line in zip(labels, lines[2:]):
        assert re.fullmatch(re.escape(label) + rf"\s*({number}){{3}}", line), line
    rows = [[float(v) for v in line.split()[1:]] for line in lines[2:]]
    assert rows[2] == [max(a, b) for a, b in zip(rows[0], rows[1])]


def test_too_few_trials_exit_usage_before_any_ensemble(capsys, monkeypatch):
    # empirical_laplace takes no error bar from fewer than 1000 samples
    script = _load_script()

    def no_ensemble(*args, **kwargs):
        raise AssertionError("ensemble run before the arguments were checked")

    monkeypatch.setattr(script.montecarlo, "run_ensemble", no_ensemble)
    for trials in ("0", "999"):
        with pytest.raises(SystemExit) as exc:
            script.main(["--seeds", "1", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials must be at least 1000" in capsys.readouterr().err
