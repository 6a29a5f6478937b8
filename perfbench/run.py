"""Benchmark of the ``ris-sim`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout.  Each command runs as a user runs it: one
fresh ``python3`` process per command, on the checkout's ``src/``.  A pass
runs each of the workload's commands once.  With ``--trace 0`` the run
repeats passes at ``--threads nproc`` (``sis-panels``: 1), each after one
timed run of ``probe.py``, until ``--seconds`` is spent, and reports medians
over them with times scaled to the probe's reference speed.  With
``--trace 1`` it runs one pass at ``--threads 1``, one at ``--threads
nproc`` and one traced pass at ``--threads nproc``.  Every pass's CSV data
must equal the first pass's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it print every metric with its unit, the run record and, for a
per-layer metric that reads 0, why.  ``--workload all`` runs the four
workloads one after the other and prefixes each metric with its workload.
Outputs, generated configs and run records go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever its --seconds
# probe.py's time on the host the bounds were tuned on (2 vCPUs of an Intel
# Xeon); end-to-end times are scaled to the host speed at which it takes this
PROBE_REF_S = 1.0

# name -> (unit, better); BENCHMARK.json lists the same names in this order
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Run:
    """One finished command process."""

    cmd: workloads.Command
    wall: float
    setup: float  # launch until the config is loaded
    imported: float | None  # launch until ris_sim.cli is imported
    rss_kb: int
    errors: list[str]
    gates: dict
    files: dict  # csv name -> (digest of data lines, bytes)
    trace: dict | None


@dataclass
class Pass:
    threads: int
    runs: list[Run] = field(default_factory=list)
    probe: float = PROBE_REF_S  # probe.py's wall time just before the pass

    @property
    def speed(self) -> float:
        """Multiplier that takes this pass's times to the reference speed."""
        return PROBE_REF_S / self.probe

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def setup(self) -> float:
        return sum(r.setup for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_kb for r in self.runs) / 1024.0


def run_process(argv: list[str], env: dict, out: Path, err: Path, timeout: float):
    """(exit code, launch time, exit time, peak RSS in KiB) of one process.

    The process is waited for without reaping (``WNOWAIT``) so that the
    watchdog can never signal a recycled pid, then reaped with ``wait4`` for
    its resource usage.
    """
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    lock = threading.Lock()
    reaping = threading.Event()

    def kill():
        with lock:
            if not reaping.is_set():
                os.kill(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        kill()
        raise
    finally:
        watchdog.cancel()
        ended = time.monotonic()
        with lock:
            reaping.set()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, launched, ended, usage.ru_maxrss


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, work_dir: Path,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.pop("RIS_SIM_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.passes = 0

    def run_pass(self, threads: int, traced: bool = False, probe: bool = False) -> Pass:
        result = Pass(threads)
        pass_dir = self.work_dir / f"pass{self.passes}"
        self.passes += 1
        pass_dir.mkdir(parents=True)
        if probe:
            code, launched, ended, _ = run_process(
                [sys.executable, str(HERE / "probe.py")], self.env, pass_dir / "probe.out",
                pass_dir / "probe.err", max(1.0, self.deadline - time.monotonic()))
            if code:
                raise RuntimeError(f"probe.py failed with exit code {code}")
            result.probe = ended - launched
        for i, cmd in enumerate(self.workload.commands):
            out = pass_dir / f"{i}-{cmd.command}"
            out.mkdir(parents=True)
            stamp = out / "stamp.json"
            argv = [sys.executable, str(HERE / "shim.py"), "--stamp", str(stamp)]
            argv += ["--trace"] if traced else []
            argv += ["--", "--config", str(cmd.config), "--seed", str(self.seed),
                     "--trials", str(cmd.trials), "--threads", str(threads),
                     "--out", str(out), cmd.command]
            timeout = max(1.0, self.deadline - time.monotonic())
            code, launched, ended, rss = run_process(
                argv, self.env, out / "stdout.txt", out / "stderr.txt", timeout)
            record = json.loads(stamp.read_text()) if stamp.is_file() else {}
            stamps = record.get("stamps", {})
            imported = stamps.get("imported")
            loaded = stamps.get("config_loaded", imported)
            errors, gates, files = ([f"exit code {code}"], {}, {}) if code else (
                workloads.check(cmd, out, (out / "stdout.txt").read_text()))
            result.runs.append(Run(
                cmd, ended - launched, (loaded or ended) - launched,
                None if imported is None else imported - launched,
                rss, errors, gates, files, record.get("trace")))
        return result


def check_determinism(reference: Pass, other: Pass) -> None:
    """Fail every command whose CSV data differ from the reference pass."""
    for ref_run, run in zip(reference.runs, other.runs):
        for name, (digest, _) in run.files.items():
            ref_digest = ref_run.files.get(name, (None,))[0]
            if ref_digest is not None and digest != ref_digest:
                run.errors.append(
                    f"{name}: data differ from the first pass (--threads {reference.threads})")


def end_to_end(workload: workloads.Workload, passes: list[Pass], speed: bool = True) -> dict:
    """Medians over the passes; times at the reference speed unless
    ``speed`` is False."""
    median = statistics.median
    scale = [p.speed if speed else 1.0 for p in passes]
    return {
        "wall_s": median([p.wall * k for p, k in zip(passes, scale)]),
        "setup_s": median([p.setup * k for p, k in zip(passes, scale)]),
        "work_per_s": median([workload.work / ((p.wall - p.setup) * k)
                              for p, k in zip(passes, scale)]),
        "peak_rss_mb": median([p.rss_mb for p in passes]),
    }


def machine_record(seed: int) -> dict:
    sources = sorted((ROOT / "src" / "ris_sim").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "ris_sim_source_sha256": digest,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 started: float) -> dict:
    work_dir = WORK / name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.build(name, seed, smoke, ROOT, work_dir)
    bench = Bench(workload, seed, work_dir, started + RUN_BUDGET_S)

    if trace:
        reference = bench.run_pass(1)
        untraced = bench.run_pass(bench.nproc)
        traced = bench.run_pass(bench.nproc, traced=True)
        passes = [reference, untraced, traced]
    else:
        passes = []
        while (not passes or
               time.monotonic() - started + passes[-1].wall + passes[-1].probe <= seconds):
            passes.append(bench.run_pass(workload.threads or bench.nproc, probe=True))
    for other in passes[1:]:
        check_determinism(passes[0], other)

    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.errors]
    if trace:
        values, absent = layers.derive(reference, untraced, traced)
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values, absent = end_to_end(workload, passes), {}
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
        raw = end_to_end(workload, passes, speed=False)
    return {
        "workload": name,
        "size": {**workload.size, "commands": [c.label for c in workload.commands],
                 "work_per_pass": f"{workload.work} {workload.work_unit}"},
        "work_metric": workload.work_metric,
        "passes": [{"threads": p.threads, "probe_s": p.probe, "wall_s": p.wall,
                    "setup_s": p.setup, "commands_wall_s": [r.wall for r in p.runs]}
                   for p in passes],
        "unscaled": {} if trace else {
            **{k: raw[k] for k in ("wall_s", "setup_s", "work_per_s")},
            "probe_s": statistics.median([p.probe for p in passes])},
        "attempted": len(runs),
        "failed": len(failed),
        "errors": [f"{r.cmd.label}: {e}" for r in failed for e in r.errors],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "absent": absent,
    }


def report(result: dict) -> None:
    """Print every metric by name with its unit, then the failures."""
    name = result["workload"]
    threads = [p["threads"] for p in result["passes"]]
    print(f"== {name}: {result['size']['work_per_pass']} per pass, "
          f"{len(threads)} passes at --threads {threads}")
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric:48s} {m['value']:.6g} {m['unit']}")
        if metric == "work_per_s":
            print(f"{name}  {result['work_metric']:48s} {m['value']:.6g} {m['unit']}")
        if metric in result["absent"]:
            print(f"{name}    (0: {result['absent'][metric]})")
    for metric, value in result["unscaled"].items():
        unit = END_TO_END.get(metric, ("s",))[0]
        print(f"{name}  {'unscaled ' + metric:48s} {value:.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name}  {'failed_ops_ratio':48s} {ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands)")
    for error in result["errors"]:
        print(f"{name}  FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes that exercise every workload, check and wrapper")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ris_sim" / "cli.py").is_file():
        print(f"error: no ris_sim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    # compile once up front, so that no pass pays for writing bytecode
    compileall.compile_dir(ROOT / "src" / "ris_sim", quiet=1)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        start = time.monotonic() if args.workload == "all" else started
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    args.smoke, start))
    record = {"run": machine_record(args.seed), "workloads": results}
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("run record: " + json.dumps(record["run"]))
    for result in results:
        print(f"size {result['workload']}: " + json.dumps(result["size"]))
        report(result)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
