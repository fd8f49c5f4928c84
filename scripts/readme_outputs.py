#!/usr/bin/env python3
"""Write the output files of the README's CLI examples into one directory.

    python scripts/readme_outputs.py DIR

runs sixteen commands, one fresh interpreter each, with this checkout's
``src`` first on the import path: the README's examples (``ansatz`` at
k = 1 and k = 2, and the scaffold route ``ansatz --lambda 1e-20 --outer
neumann`` then ``solve --lambda 1e-20 --init file`` on its ``ansatz.csv``),
plus ``ansatz --lambda 1e-4 --k 2 --outer neumann``,
``ansatz --lambda 1e-3 --k 3 --outer neumann --eta 0.75``,
``residual --lambda 1e-4 --k 2 --outer neumann``,
``solve --lambda 1e-4 --init constant --value 2.0`` and
``green --b 1e-3 --config green.cfg``, whose file supplies the required
``--k`` (2) and ``--outer`` (neumann).  Each command writes into
its own subdirectory of DIR.  The commands run inside DIR on relative
paths, so the echoed configurations do not name DIR; ``green`` reads a
fixed 64-radius grid file and ``green.cfg`` written there first, and
``report`` reads the ``solution.csv`` that ``solve`` wrote.
``commands.txt`` lists every command with its exit code and printed output.

Run it from two checkouts and compare with ``diff -r DIR1 DIR2``: outputs
that are byte-identical give no diff.  The script exits 1 if any command
exits non-zero.
"""

import os
import subprocess
import sys

import numpy as np

COMMANDS = [
    ("green", ["green", "--k", "1", "--b", "1e-3", "--outer", "neumann",
               "--grid-file", "radii.txt"]),
    ("green_config", ["green", "--b", "1e-3", "--config", "green.cfg"]),
    ("nondegen", ["nondegen", "--kmax", "4", "--b-grid", "1e-4,1e-3,1e-2"]),
    ("ansatz_k1", ["ansatz", "--lambda", "1e-4"]),
    ("ansatz_k2", ["ansatz", "--lambda", "1e-4", "--k", "2"]),
    ("ansatz_k2_neumann", ["ansatz", "--lambda", "1e-4", "--k", "2",
                           "--outer", "neumann"]),
    ("ansatz_k3_neumann", ["ansatz", "--lambda", "1e-3", "--k", "3",
                           "--outer", "neumann", "--eta", "0.75"]),
    ("residual_k1", ["residual", "--lambda", "1e-4", "--k", "1"]),
    ("residual_k2_neumann", ["residual", "--lambda", "1e-4", "--k", "2",
                             "--outer", "neumann"]),
    ("fixpoint", ["fixpoint", "--lambda", "1e-4"]),
    ("solve", ["solve", "--lambda", "1e-4", "--init", "ansatz"]),
    ("ansatz_scaffold", ["ansatz", "--lambda", "1e-20", "--outer", "neumann"]),
    ("solve_scaffold", ["solve", "--lambda", "1e-20", "--init", "file",
                        "--file", os.path.join("ansatz_scaffold", "ansatz.csv")]),
    ("solve_constant", ["solve", "--lambda", "1e-4", "--init", "constant",
                        "--value", "2.0"]),
    ("branch", ["branch", "--i", "2", "--sign", "+", "--steps", "25"]),
    ("report", ["report", "--in", os.path.join("solve", "solution.csv"),
                "--k", "1", "--lambda", "1e-4"]),
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: readme_outputs.py DIR", file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with open(os.path.join(out, "radii.txt"), "w") as f:
        f.write("".join(f"{x!r}\n" for x in np.linspace(0.01, 1.0, 64).tolist()))
    with open(os.path.join(out, "green.cfg"), "w") as f:
        f.write("k=2\nouter=neumann\n")

    failed = 0
    log = []
    for name, args in COMMANDS:
        cmd = [sys.executable, "-m", "kslayers.cli", *args, "--out", name]
        run = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        failed += run.returncode != 0
        log.append(f"$ kslayers {' '.join(args)} --out {name}\n"
                   f"exit {run.returncode}\n{run.stdout}{run.stderr}")
        print(f"{name}: exit {run.returncode}")
    with open(os.path.join(out, "commands.txt"), "w") as f:
        f.write("\n".join(log))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
