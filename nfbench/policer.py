"""The live policer process of the ``live_flood`` workload.

Built as ``runner serve`` builds it: ``start_policer`` at the scenario's
capacity (``flood.py``) on an ephemeral loopback port, its always-on
metrics registry, and a flight recorder fed by a 0.25 s monitor loop.  It
speaks JSON lines on standard output and reads one command per line on
standard input:

* ``mark``       report CPU time, wall time, counters and (when tracing)
  the per-layer aggregates, for window-edge differences;
* ``trace on``   install the layer wrappers from ``layers.py`` (one tracer
  for the whole run, so aggregates accumulate over traced spells);
* ``trace off``  remove them again;
* ``stop``       drain, shut down, report final counters, exit.

End of input also stops it, so the process never outlives its generator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from flood import CAPACITY_BPS, HOSTS  # noqa: E402
from repro.obs.flight import FlightRecorder  # noqa: E402
from repro.runtime.serve import start_policer  # noqa: E402


def say(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve(args: argparse.Namespace) -> None:
    inject = layers.parse_inject(args.inject)
    patches: Optional[layers.Patches] = layers.install(None, inject) if inject else None
    tracer: Optional[layers.Tracer] = None

    policer = await start_policer(capacity_bps=CAPACITY_BPS)
    flight = FlightRecorder()
    policer.attach_flight(flight, args.flight_dump)

    async def monitor() -> None:
        while True:
            await asyncio.sleep(0.25)
            flight.record_metrics(policer.stats(event="snapshot"))

    loop = asyncio.get_running_loop()
    monitor_task = loop.create_task(monitor())
    assert policer.transport is not None
    say({"event": "listening", "port": policer.transport.get_extra_info("sockname")[1]})
    while len(policer.addrs) < len(HOSTS):
        await asyncio.sleep(0.002)
    say({"event": "registered", "hosts": len(policer.addrs)})

    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    while True:
        command = (await reader.readline()).decode().strip()
        if command in ("", "stop"):
            break
        if command == "mark":
            say({"event": "mark", "cpu_s": time.process_time(),
                 "wall_s": time.perf_counter(), "counters": dict(policer.counters),
                 "layers": tracer.snapshot() if tracer is not None else None})
        elif command in ("trace on", "trace off"):
            if patches is not None:
                patches.undo()
            patches = None
            if command == "trace on":
                tracer = tracer or layers.Tracer()
                patches = layers.install(tracer, inject)
            elif inject:
                patches = layers.install(None, inject)
            say({"event": command})

    monitor_task.cancel()
    await policer.shutdown()
    written = 0
    if tracer is not None and args.spans_out:
        written = tracer.write_sample(args.spans_out)
    say({"event": "final", "counters": dict(policer.counters),
         "registered": len(policer.addrs), "spans_written": written,
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--flight-dump", required=True)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--inject", action="append", default=[], metavar="LAYER=US")
    asyncio.run(serve(parser.parse_args()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
