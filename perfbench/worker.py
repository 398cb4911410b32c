"""Traced fleet worker: ``repro worker --url`` with the benchmark's tracing.

Runs the program's HTTP worker loop (:func:`repro.flow.run_http_worker`)
with every traced name wrapped, and writes the spans to ``--spans`` when
the coordinator stops the fleet.  Started by the ``fleet`` workload of
``run.py`` in its traced phase; run from the root of a checkout with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import time

from repro.flow import run_http_worker

from tracing import Tracer, install


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--max-idle", type=float, required=True)
    args = parser.parse_args()
    tracer = Tracer(time.perf_counter, "worker")
    install(tracer)
    try:
        run_http_worker(args.url, cache_dir=args.cache_dir, max_idle=args.max_idle)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
