#!/usr/bin/env python3
"""Run every figure-reproduction experiment into results/.

Order: signal CDF validation, outage sweep, transform validation, the six
epidemic panels, then the four propagation-intensity sweeps.  Figures 3 and
4 use the default configuration; the rest load their dedicated files.

Full-size runs (1e5 trials) take a few minutes each for the Monte Carlo
commands; pass --quick for a 2e4-trial smoke pass.

With --check nothing under results/ is written: every command runs into a
temporary directory, and each CSV's data lines (those not starting with #,
so the config header with its out_dir is skipped) are compared with the
tracked file.  Differing files are printed and the exit code is 1.  The
tracked results come from a --quick pass, so use --quick --check.
"""

import argparse
import sys
import tempfile
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
    for out, config, command in RUNS:
        argv = ["--config", str(CONFIGS / config), "--out", f"{out_root}/{out}", command]
        if quick:
            argv = ["--trials", "20000"] + argv
        print(f"== ris-sim {' '.join(argv)}", flush=True)
        code = cli_main(argv)
        if code != 0:
            print(f"command failed with exit code {code}", file=sys.stderr)
            return code
    return 0


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _compare(fresh_root: Path) -> list[str]:
    """Relative paths of CSVs whose data lines differ from the tracked ones."""
    fresh = {p.relative_to(fresh_root) for p in fresh_root.rglob("*.csv")}
    tracked = {p.relative_to(RESULTS) for p in RESULTS.rglob("*.csv")}
    differ = []
    for rel in sorted(fresh | tracked):
        if rel not in fresh or rel not in tracked:
            differ.append(f"{rel} (only in {'fresh run' if rel in fresh else 'results/'})")
        elif _data_lines(fresh_root / rel) != _data_lines(RESULTS / rel):
            differ.append(str(rel))
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="2e4 trials instead of 1e5")
    parser.add_argument("--check", action="store_true",
                        help="run into a temporary directory and compare with results/")
    args = parser.parse_args()
    if not args.check:
        return _run_all("results", args.quick)
    with tempfile.TemporaryDirectory(prefix="ris-sim-check-") as tmp:
        code = _run_all(tmp, args.quick)
        if code != 0:
            return code
        differ = _compare(Path(tmp))
    for rel in differ:
        print(f"differs: {rel}")
    if differ:
        return 1
    print(f"all CSV data lines match results/ ({len(RUNS)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
