"""Run one ``repro`` CLI command in this process and record when work began.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python perfbench/host.py RECORD.json [--setup-only] [--trace] -- \\
        figures --output OUT --cache-dir CACHE

The command runs through ``repro.cli.main`` exactly as ``python -m repro``
would run it.  RECORD.json receives, in ``time.monotonic()`` seconds (a
clock shared by every process on the host):

* ``first_work`` -- when the first unit of work started: the first
  experiment's ``run`` for ``figures``, ``Melody.run`` for ``campaign``.
  Everything before it (interpreter start, imports, registries, argument
  parsing) is set-up.
* ``experiments`` -- for ``figures``, each experiment's start and the end
  of its render: one figure's latency as the user waits for it.
* ``trace`` -- with ``--trace``, the per-layer span summary.

``--setup-only`` exits as soon as the first unit of work starts.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _write(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record))


def main(argv) -> int:
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    record_path = Path(options[0])
    setup_only = "--setup-only" in options
    traced = "--trace" in options
    record: dict = {"first_work": None, "experiments": []}

    def mark_first_work() -> None:
        if record["first_work"] is None:
            record["first_work"] = time.monotonic()
            if setup_only:
                _write(record_path, record)
                os._exit(0)

    from repro.cli import main as cli_main

    experiment_modules = ()
    if command[0] == "figures":
        from repro.experiments import ALL_EXPERIMENTS

        experiment_modules = ALL_EXPERIMENTS
        for module in ALL_EXPERIMENTS:
            _probe_experiment(module, record, mark_first_work)
    else:
        from repro.core.melody import Melody

        run = Melody.run

        def marked_run(self, *args, **kwargs):
            mark_first_work()
            return run(self, *args, **kwargs)

        Melody.run = marked_run

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(experiment_modules)
    try:
        code = cli_main(command)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.summary()
        _write(record_path, record)
    return code


def _probe_experiment(module, record: dict, mark_first_work) -> None:
    run, render = module.run, module.render
    name = module.__name__.rsplit(".", 1)[-1]
    started = {}

    def probed_run(*args, **kwargs):
        mark_first_work()
        started["t"] = time.monotonic()
        return run(*args, **kwargs)

    def probed_render(*args, **kwargs):
        text = render(*args, **kwargs)
        record["experiments"].append([name, started["t"], time.monotonic()])
        return text

    module.run, module.render = probed_run, probed_render


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
