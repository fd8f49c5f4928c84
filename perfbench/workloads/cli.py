"""cli: the README's example commands, one fresh interpreter each."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np

# The tasks run the CLI in subprocesses; importing it here makes the
# set-up measurement time the CLI's own start-up imports.
import kslayers.cli  # noqa: F401

from . import Task, child_env, require

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "child.py")


class Cli:
    """One subprocess per README command, run one at a time.

    Every batch reuses the same output and input paths, so the files must
    come out byte-identical to the first batch's.  ``mode`` is set by the
    runner: "plain" runs ``python -m kslayers.cli``; "spans" and "profile"
    run it through child.py, which records into ``trace_dir``.
    """

    name = "cli"
    nominal_batch_s = 11.0
    workdir = os.path.join(".bench_work", "cli")
    trace_dir = os.path.join(".bench_work", "cli-trace")

    def __init__(self, seed: int, tiny: bool = False):
        self.mode = "plain"
        rng = np.random.default_rng([seed, 4])
        self.radii = np.sort(rng.uniform(1e-3, 1.0, 64))
        self.inputs = self.radii.tolist()
        self.radii_file = os.path.join(self.workdir, "radii.txt")
        kmax, steps = ("2", "5") if tiny else ("4", "25")
        solution = os.path.join(self.workdir, "solve", "solution.csv")
        self.commands = [
            ("green", ["green", "--k", "1", "--b", "1e-3", "--outer", "neumann",
                       "--grid-file", self.radii_file]),
            ("nondegen", ["nondegen", "--kmax", kmax, "--b-grid", "1e-4,1e-3,1e-2"]),
            ("ansatz_k1", ["ansatz", "--lambda", "1e-4"]),
            ("ansatz_k2", ["ansatz", "--lambda", "1e-4", "--k", "2"]),
            ("residual", ["residual", "--lambda", "1e-4", "--k", "1"]),
            ("fixpoint", ["fixpoint", "--lambda", "1e-4"]),
            ("solve", ["solve", "--lambda", "1e-4", "--init", "ansatz"]),
            ("branch", ["branch", "--i", "2", "--sign", "+", "--steps", steps]),
            ("report", ["report", "--in", solution, "--k", "1", "--lambda", "1e-4"]),
        ]
        self.tasks = [self._task(name, argv) for name, argv in self.commands]
        self.warmup = []

    def sizes(self) -> dict:
        return {"tasks": len(self.tasks), "commands": [n for n, _ in self.commands],
                "grid_file_radii": int(self.radii.size)}

    def write_inputs(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        with open(self.radii_file, "w") as f:
            f.write("".join(f"{x!r}\n" for x in self.inputs))

    def _task(self, name, argv) -> Task:
        out_dir = os.path.join(self.workdir, name)

        def call(state):
            cmd = [*argv, "--out", out_dir]
            if self.mode == "plain":
                full = [sys.executable, "-m", "kslayers.cli", *cmd]
            else:
                record = os.path.join(self.trace_dir, name)
                full = [sys.executable, CHILD, self.mode, record, *cmd]
            return subprocess.run(full, env=child_env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=150)

        def check(state, proc):
            require(proc.returncode == 0,
                    f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
            paths = proc.stdout.decode().split()
            require(bool(paths), "command reported no output files")
            kept = []
            for path in sorted(paths):
                with open(path, "rb") as f:
                    kept += [path, f.read()]
            return kept

        return Task(name, call, check)
