#!/usr/bin/env python3
"""Run every figure-reproduction experiment into results/.

Order: signal CDF validation, outage sweep, transform validation, the six
epidemic panels, then the four propagation-intensity sweeps.  Figures 3 and
4 use the default configuration; the rest load their dedicated files.

Every command runs with --threads set to the CPUs this process may run on,
which changes no output byte.  When it ends, its wall time is printed with
this process's peak RSS so far (``ru_maxrss``; it never falls, so a command
that raises it is the one that set it, and forked Monte Carlo workers are
not counted).
The Monte Carlo commands take 2-10 s each at the configs' 1e5 trials on two
CPUs; pass --quick for a 2e4-trial smoke pass.

With --check nothing under results/ is written: every command runs into a
temporary directory, and each CSV is compared with the tracked file, both
its data lines (those not starting with #) and its config header lines
(those starting with #) except ``# out_dir:``, which names the directory;
``# config_digest:`` hashes every other key, so it is compared too.
For each differing file the differing columns are printed with their
largest relative difference (or the number of differing cells for text
columns), and the differing header keys by name; the exit code is 1.  The
tracked results come from a full pass at the configs' trials, so --check
refuses --quick: it prints one line to stderr and exits 2 before running
anything.
"""

import argparse
import csv
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from ris_sim.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
RESULTS = ROOT / "results"

# (output directory under results/, config file, command)
RUNS = [
    ("fig3", "default.yaml", "validate-power"),
    ("fig4", "default.yaml", "outage-sweep"),
    ("laplace", "default.yaml", "validate-laplace"),
    ("fig5", "fig5_sis_panels.yaml", "sis-sim"),
    ("fig6", "fig6_r0_vs_ue_density.yaml", "r0-sweep"),
    ("fig7", "fig7_r0_vs_frequency_low.yaml", "r0-sweep"),
    ("fig8", "fig8_r0_vs_frequency_high.yaml", "r0-sweep"),
    ("fig9", "fig9_r0_vs_elements_low.yaml", "r0-sweep"),
    ("fig10", "fig10_r0_vs_elements_high.yaml", "r0-sweep"),
]


def _run_all(out_root: str, quick: bool) -> int:
    threads = str(len(os.sched_getaffinity(0)))
    for out, config, command in RUNS:
        argv = ["--config", str(CONFIGS / config), "--out", f"{out_root}/{out}",
                "--threads", threads, command]
        if quick:
            argv = ["--trials", "20000"] + argv
        print(f"== ris-sim {' '.join(argv)}", flush=True)
        start = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - start
        # kilobytes on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"== {command} wall time: {wall:.2f} s, peak RSS so far: {peak:.1f} MB",
              flush=True)
        if code != 0:
            print(f"command failed with exit code {code}", file=sys.stderr)
            return code
    return 0


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _header_keys(path: Path) -> dict[str, list[str]]:
    """The config header's lines by top-level key (a nested block such as
    the sweep goes with its key), without out_dir."""
    keys: dict[str, list[str]] = {}
    key = ""
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            continue
        body = line[2:]
        if not body.startswith(" "):
            key = body.split(":", 1)[0]
        keys.setdefault(key, []).append(body)
    keys.pop("out_dir", None)
    return keys


def _rel_diff(a: str, b: str) -> float | None:
    """Relative difference of two numeric cells; None if either is text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def _column_report(fresh: list[str], tracked: list[str]) -> list[str]:
    """One line per differing column: its largest relative difference."""
    fresh_rows, tracked_rows = list(csv.reader(fresh)), list(csv.reader(tracked))
    if fresh_rows[:1] != tracked_rows[:1]:
        return [f"header {fresh_rows[:1]} vs {tracked_rows[:1]}"]
    if len(fresh_rows) != len(tracked_rows):
        return [f"{len(fresh_rows) - 1} rows vs {len(tracked_rows) - 1}"]
    lines = []
    for col, name in enumerate(fresh_rows[0]):
        worst, text_cells = 0.0, 0
        for f_row, t_row in zip(fresh_rows[1:], tracked_rows[1:]):
            if f_row[col] == t_row[col]:
                continue
            rel = _rel_diff(f_row[col], t_row[col])
            if rel is None:
                text_cells += 1
            else:
                worst = max(worst, rel)
        if text_cells:
            lines.append(f"{name}: {text_cells} text cells differ")
        elif worst > 0.0:
            lines.append(f"{name}: largest relative difference {worst:.3g}")
    return lines


def _compare(fresh_root: Path) -> dict[str, list[str]]:
    """CSVs whose data or header lines differ from the tracked ones, each
    with its per-column report and its differing header keys."""
    fresh = {p.relative_to(fresh_root) for p in fresh_root.rglob("*.csv")}
    tracked = {p.relative_to(RESULTS) for p in RESULTS.rglob("*.csv")}
    differ = {}
    for rel in sorted(fresh | tracked):
        if rel not in fresh or rel not in tracked:
            differ[str(rel)] = [f"only in {'fresh run' if rel in fresh else 'results/'}"]
            continue
        a, b = _data_lines(fresh_root / rel), _data_lines(RESULTS / rel)
        report = _column_report(a, b) if a != b else []
        ha, hb = _header_keys(fresh_root / rel), _header_keys(RESULTS / rel)
        keys = sorted(k for k in ha.keys() | hb.keys() if ha.get(k) != hb.get(k))
        if keys:
            report.append(f"header keys: {', '.join(keys)}")
        if a != b or keys:
            differ[str(rel)] = report
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="2e4 trials instead of 1e5")
    parser.add_argument("--check", action="store_true",
                        help="run into a temporary directory and compare with results/")
    args = parser.parse_args(argv)
    if args.check and args.quick:
        print("--check compares with results/, written at the configs' trials: "
              "drop --quick", file=sys.stderr)
        return 2
    if not args.check:
        return _run_all("results", args.quick)
    with tempfile.TemporaryDirectory(prefix="ris-sim-check-") as tmp:
        code = _run_all(tmp, args.quick)
        if code != 0:
            return code
        differ = _compare(Path(tmp))
    for rel, columns in differ.items():
        print(f"differs: {rel}")
        for line in columns:
            print(f"  {line}")
    if differ:
        return 1
    print(f"all CSV data and header lines match results/ ({len(RUNS)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
