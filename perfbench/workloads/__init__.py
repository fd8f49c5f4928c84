"""The benchmark's four workloads: seeded inputs, the calls into kslayers,
and a check of every task's output that does not trust the code under test.

Each workload lives in its own module, which imports only the kslayers
modules its tasks call, so a fresh interpreter that loads one workload
(the set-up measurement) pays only that workload's imports.  This package
itself imports numpy and the standard library only.

A workload is a list of tasks run in order as one batch;
``nominal_batch_s`` is a batch's time at the seed commit on a 2-core
x86-64 box, which turns the run's --seconds into a number of batches.
Each task has an untimed ``prep`` (input generation), a timed ``call``
into kslayers, and an untimed ``check`` that raises ``CheckFailed`` or
returns the values whose bytes must repeat exactly in every batch of the
run.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAMES = ("layers", "ladder", "branch", "cli")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def load(name: str):
    """The workload class of ``workloads.<name>`` (Layers, Ladder, ...)."""
    return getattr(importlib.import_module(f"workloads.{name}"), name.capitalize())


def child_env() -> dict:
    """Environment for kslayers subprocesses: the checkout's sources, and
    KSLAYERS_THREADS unset so the CLI runs at its defaults."""
    env = {k: v for k, v in os.environ.items() if k != "KSLAYERS_THREADS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class CheckFailed(Exception):
    """A task's output broke an invariant the benchmark checks."""


@dataclass
class Task:
    name: str
    call: Callable[[dict], object]
    check: Callable[[dict, object], list]
    prep: Callable[[dict], None] | None = None


def digest(values) -> str:
    """Hash of the exact bytes of a list of arrays, numbers and bytes."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, (bytes, str)):
            h.update(v.encode() if isinstance(v, str) else v)
        else:
            h.update(np.ascontiguousarray(np.asarray(v, dtype=float)).tobytes())
    return h.hexdigest()


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fv_rows(r: np.ndarray):
    """Tridiagonal rows of -Laplace in conservative radial flux form.

    Written out from the discretisation's definition (faces at midpoints,
    cell measure int r dr, zero flux through r = 0 and r = 1) independently
    of ``kslayers.radial``.  The coefficients are double precision, as the
    discrete equation is; ``apply`` accumulates in extended precision.
    """
    r = np.asarray(r, dtype=float)
    faces = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1]]])
    vol = 0.5 * (faces[1:] ** 2 - faces[:-1] ** 2)
    flux = faces[1:-1] / np.diff(r)
    main = np.zeros(r.size)
    main[:-1] += flux / vol[:-1]
    main[1:] += flux / vol[1:]
    return main, -flux / vol[:-1], -flux / vol[1:]


def apply(rows, potential, u):
    """(-Laplace + 1 - potential) u and the matching |row| |u| scale."""
    main, upper, lower = (np.asarray(x, dtype=np.longdouble) for x in rows)
    u = np.asarray(u, dtype=np.longdouble)
    d = main + 1 - np.asarray(potential, dtype=np.longdouble)
    out, scale = d * u, np.abs(d * u)
    out[:-1] += upper * u[1:]
    out[1:] += lower * u[:-1]
    scale[:-1] += np.abs(upper * u[1:])
    scale[1:] += np.abs(lower * u[:-1])
    return out, scale


def zero_count(u: np.ndarray) -> int:
    """Sign changes of u - 1 along the grid."""
    s = np.sign(u - 1.0)
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] != s[:-1]))
