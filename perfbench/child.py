"""Fresh-interpreter helper for run.py; not meant to be run by hand.

    child.py setup WORKLOAD SEED TINY     load the workload, build inputs, print "ready"
    child.py spans RECORD CLI-ARGS...     run kslayers.cli with spans recorded
    child.py profile RECORD CLI-ARGS...   run kslayers.cli under cProfile

``spans`` writes RECORD.spans.json (spans and call counters); ``profile``
writes RECORD.prof (the main thread and every worker thread, merged).
Both exit with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys


def _setup(workload: str, seed: str, tiny: str) -> int:
    from workloads import load

    load(workload)(int(seed), tiny == "1")
    print("ready", flush=True)
    return 0


def _spans(record: str, argv: list[str]) -> int:
    from tracing import Counters, Tracer

    from kslayers import cli

    tracer, counters = Tracer(), Counters()
    tracer.install()
    counters.install()
    try:
        code = cli.main(argv)
    finally:
        counters.uninstall()
        tracer.uninstall()
    with open(record + ".spans.json", "w") as f:
        json.dump({"spans": tracer.records(), "counts": tracer.counts,
                   "counters": counters.n}, f)
    return code


def _profile(record: str, argv: list[str]) -> int:
    import cProfile
    import threading

    workers = []
    thread_run = threading.Thread.run

    def profiled_run(self):
        prof = cProfile.Profile()
        workers.append(prof)
        prof.enable()
        try:
            thread_run(self)
        finally:
            prof.disable()

    threading.Thread.run = profiled_run
    main = cProfile.Profile()
    main.enable()
    try:
        from kslayers import cli

        code = cli.main(argv)
    finally:
        main.disable()
        threading.Thread.run = thread_run
    import pstats

    stats = pstats.Stats(main)
    for prof in workers:
        stats.add(prof)
    stats.dump_stats(record + ".prof")
    return code


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        return _setup(*rest)
    if mode == "spans":
        return _spans(rest[0], rest[1:])
    if mode == "profile":
        return _profile(rest[0], rest[1:])
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
