"""End-to-end and per-layer benchmark of the ``sternseq`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Each invocation of the command
line is a fresh interpreter (``from sternseq.cli import main``, as the
installed console script does) with standard output written to a file,
started from an explicit environment and reaped with ``os.wait4`` for
its own peak RSS and CPU time.  Every output is checked against the
independent reference in ``reference.py``.

``--trace 0`` repeats rounds of one invocation plus two start-up probes
(interpreters that only import ``sternseq.cli``) for S seconds, and
reports the median wall time and peak RSS of an invocation and the
median start-up time.  ``--trace 1`` repeats rounds of one untraced and
one traced invocation (``traced.py``) and reports per-layer self times
and work counts.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed
only picks the lines that the checkers recompute; ``sternseq`` never
sees it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the benchmark writes only inside the checkout

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from traced import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 60
SETUP_PROBES_PER_ROUND = 2
CLI = "import sys; from sternseq.cli import main; sys.exit(main())"

#: Workload name -> (command-line arguments, checker in reference.py, its parameters).
WORKLOADS = {
    "verify-24": (["verify", "--k-range", "12..24"], "check_verify", {"lo": 12, "hi": 24}),
    "closed-form-deep": (
        ["records", "--bits", "6000", "--source", "closed-form", "--format", "bfile"],
        "check_closed_form_bits",
        {"k": 6000},
    ),
    "closed-form-sweep": (
        ["records", "--max-bits", "600", "--source", "closed-form", "--format", "jsonlines"],
        "check_closed_form_sweep",
        {"max_bits": 600},
    ),
    "plot-2m": (["plot", "--max", str((1 << 21) - 1)], "check_plot", {"max_n": (1 << 21) - 1}),
}


def child_env() -> dict[str, str]:
    """The environment of every child, built from scratch.

    ``PYTHONPATH`` selects the checkout's sources over any installed
    copy.  ``PYTHONUNBUFFERED`` and ``PYTHONDONTWRITEBYTECODE`` are left
    out: the first turns each ``print`` into its own write system call,
    the second makes every start-up recompile the package, and a user's
    installed package has neither.  ``STERNSEQ_MAX_BITS`` is left out so
    the default memory ceiling applies.  Compiled bytecode goes under the
    work directory, so the children write nothing outside the checkout.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
    }


@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mib: float
    cpu_s: float


def spawn(argv: list[str], stdout_path: Path) -> Child:
    """Run one child to its end; time it and read its own resource usage.

    This process must stay small: a spawned child starts from its
    parent's address space, whose peak RSS the kernel folds into the
    child's ``ru_maxrss`` at ``exec``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(WORK / "stderr.txt"), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return Child(
        exit_code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        peak_rss_mib=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def digest(path: Path) -> tuple[str, int, int]:
    """Content hash, byte count and line count of an output file."""
    h = hashlib.blake2b()
    size = lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
            size += len(block)
            lines += block.count(b"\n")
    return h.hexdigest(), size, lines


class Ledger:
    """Counts operations and checks each distinct output once, after the timed loop.

    An operation is one invocation of the command line; it fails when
    it exits non-zero or its output fails the check.
    """

    def __init__(self, checker: str, params: dict, seed: int) -> None:
        self.checker, self.params, self.seed = checker, params, seed
        self.keys: list[tuple] = []
        self.saved: dict[tuple, Path] = {}
        self.output_size = (0, 0)
        self.bad: set[tuple] = set()
        self.correct = True

    def record(self, child: Child, out: Path) -> tuple:
        digest_hex, size, lines = digest(out)
        key = (child.exit_code, digest_hex)
        self.keys.append(key)
        if key not in self.saved:
            self.saved[key] = WORK / f"output-{len(self.saved)}.txt"
            os.replace(out, self.saved[key])
            if child.exit_code != 0:
                shutil.copyfile(WORK / "stderr.txt", self.saved[key].with_suffix(".err"))
        self.output_size = (size, lines)
        return key

    def settle(self) -> None:
        """Check every distinct output against the reference."""
        for key, path in self.saved.items():
            problems = self._check(key[0], path)
            if problems:
                self.bad.add(key)
                if key[0] == 0:
                    self.correct = False  # the program claimed success with a wrong output
                err = path.with_suffix(".err")
                if err.exists():
                    problems[:0] = err.read_text(errors="replace").strip().splitlines()[-1:]
                print(f"check failed: {'; '.join(problems[:5])}", file=sys.stderr)

    def _check(self, exit_code: int, path: Path) -> list[str]:
        # In its own process, so that this one stays small (see ``spawn``).
        argv = [sys.executable, "-B", str(HERE / "reference.py"), self.checker]
        argv += [json.dumps(self.params), str(exit_code), str(path), str(self.seed)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            return [f"checker crashed: {done.stderr.strip()[-300:]}"]
        return json.loads(done.stdout)

    def ok(self, key: tuple) -> bool:
        return key not in self.bad

    @property
    def attempted(self) -> int:
        return len(self.keys)

    @property
    def failed(self) -> int:
        return sum(key in self.bad for key in self.keys)


def setup_probe() -> float:
    """Wall time of a fresh interpreter that only imports ``sternseq.cli``."""
    child = spawn(["-c", "import sternseq.cli"], WORK / "setup.txt")
    if child.exit_code != 0:
        sys.exit("importing sternseq.cli failed: " + (WORK / "stderr.txt").read_text()[-300:])
    return child.wall_s


def rounds(seconds: float, one_round) -> None:
    """Repeat ``one_round`` while at least half a round of ``seconds`` remains.

    One untimed start-up first compiles the bytecode.  The machine's
    speed drifts over tens of seconds, so a run that spans more of it
    gives steadier medians than more repetitions in a burst.
    """
    setup_probe()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - began) / 2 - start > seconds:
            return


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(seconds: float, ledger: Ledger, cli_args: list[str]) -> dict:
    out = WORK / "out.txt"
    runs, setup = [], []

    def one_round():
        child = spawn(["-c", CLI, *cli_args], out)
        runs.append((child, ledger.record(child, out)))
        setup.extend(setup_probe() for _ in range(SETUP_PROBES_PER_ROUND))

    rounds(seconds, one_round)
    ledger.settle()
    good = [child for child, key in runs if ledger.ok(key)]
    if not good:
        return {}
    return {
        "wall_s": metric(statistics.median(c.wall_s for c in good), "s"),
        "peak_rss_mib": metric(statistics.median(c.peak_rss_mib for c in good), "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def run_traced(seconds: float, ledger: Ledger, cli_args: list[str]) -> dict:
    out, trace_path = WORK / "out.txt", WORK / "trace.json"
    plain, traced = [], []

    def one_round():
        child = spawn(["-c", CLI, *cli_args], out)
        plain.append((child, ledger.record(child, out)))
        trace_path.unlink(missing_ok=True)
        child = spawn([str(HERE / "traced.py"), str(trace_path), *cli_args], out)
        doc = json.loads(trace_path.read_text()) if trace_path.exists() else None
        traced.append((child, ledger.record(child, out), doc))

    rounds(seconds, one_round)
    ledger.settle()
    plain = [child for child, key in plain if ledger.ok(key)]
    traced = [(child, doc) for child, key, doc in traced if ledger.ok(key)]
    if not plain or not traced:
        return {}
    for child, doc in traced:
        if sum(doc["self_s"].values()) > child.wall_s:
            sys.exit("traced self times exceed the traced wall time")
    self_s = {
        layer: statistics.median(doc["self_s"][layer] for _, doc in traced) for layer in LAYERS
    }
    total = statistics.median(child.wall_s for child, _ in traced)
    doc = traced[-1][1]
    metrics = {f"{layer}.self_s": metric(self_s[layer], "s") for layer in LAYERS}
    metrics.update({name: metric(count, "count") for name, count in doc["counts"].items()})
    metrics["records.scan_useful_ratio"] = metric(doc["records.scan_useful_ratio"], "ratio")
    metrics["cli.output_bytes"] = metric(ledger.output_size[0], "bytes")
    metrics["cli.output_lines"] = metric(ledger.output_size[1], "count")
    metrics["process.cpu_s"] = metric(statistics.median(c.cpu_s for c in plain), "s")
    metrics["trace.total_s"] = metric(total, "s")
    metrics["trace.remainder_s"] = metric(total - sum(self_s.values()), "s")
    metrics["trace.overhead_s"] = metric(total - statistics.median(c.wall_s for c in plain), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sternseq" / "cli.py").is_file():
        print(f"error: no sternseq sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    cli_args, checker, params = WORKLOADS[args.workload]
    ledger = Ledger(checker, params, args.seed)
    runner = run_traced if args.trace else run_untraced
    try:
        metrics = runner(args.seconds, ledger, cli_args)
    finally:
        for path in WORK.iterdir():
            if path.is_file():
                path.unlink()
    if not metrics:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
