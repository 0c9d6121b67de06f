"""The ``gateway_hot`` server process.

Builds the deployment (world, sharded on-disk store, sync service),
prefills every key of the working set into the store, starts an
``HttpGateway`` over an ``AsyncQKBflyService`` on an ephemeral port and
announces ``READY <port>`` on stdout. It serves until SIGTERM (or until
stdin closes, so it cannot outlive a load generator that died), then
shuts down cleanly and, when tracing, writes its spans.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from typing import Optional

import paths  # noqa: F401  (puts src/ on sys.path)
from trace import Recorder, install
from workloads import CHANNELS, entity_names, gateway_service_config

from repro.core.qkbfly import SessionState
from repro.corpus.world import World, WorldConfig
from repro.service.api import QueryRequest
from repro.service.async_service import AsyncQKBflyService
from repro.service.gateway import HttpGateway
from repro.service.service import QKBflyService


async def serve(service: QKBflyService, recorder: Optional[Recorder]) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def on_stdin() -> None:
        if not sys.stdin.buffer.read1(4096):  # EOF: the parent is gone
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    gateway = HttpGateway(
        AsyncQKBflyService(service, own_service=True), own_service=True
    )
    await gateway.start()
    try:
        if recorder is not None:
            recorder.enabled = True  # set-up spans are not the workload's
        print(f"READY {gateway.port}", flush=True)
        await stop.wait()
    finally:
        await gateway.aclose()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    recorder = None
    if args.trace_out:
        recorder = Recorder()
        install(recorder)
    world = World(WorldConfig(), seed=args.world_seed)
    service = QKBflyService(
        SessionState.from_world(world),
        service_config=gateway_service_config(args.store_dir),
    )
    for name in entity_names(world):
        for channel in CHANNELS:
            service.serve(QueryRequest(query=name, source=channel))
    asyncio.run(serve(service, recorder))
    if recorder is not None:
        recorder.write_jsonl(args.trace_out)


if __name__ == "__main__":
    main()
