"""Async serving: concurrent clients, hot traffic isolated from cold.

Demonstrates :class:`repro.service.AsyncQKBflyService` — the asyncio
front end over the serving layer — under a workload that mixes hot
(cache-hit) and cold (full-pipeline) queries from many concurrent
clients:

1. a burst of concurrent *identical* cold queries collapses onto one
   pipeline run (single-flight dedup across coroutines);
2. while slow cold queries grind on the executor tier, cache hits keep
   resolving on the event loop in microseconds (no head-of-line
   blocking — the property ``tests/test_service_async.py`` asserts);
3. a mixed hot/cold batch via ``asyncio.gather`` preserves order and
   per-client result isolation.

Run:  python examples/async_serving.py
"""

from __future__ import annotations

import asyncio
import time

from repro import build_world
from repro.service import AsyncQKBflyService, QueryRequest, ServiceConfig


def pick_queries(service: AsyncQKBflyService, count: int):
    """The most prominent entities of the world, as query strings."""
    entities = sorted(
        service.session.entity_repository.entities(),
        key=lambda e: -e.prominence,
    )
    return [e.canonical_name for e in entities[:count]]


async def client(service: AsyncQKBflyService, name: str, query: str):
    """One simulated client issuing one v1 envelope."""
    result = await service.serve(QueryRequest(query=query, client_id=name))
    print(
        f"  [{name}] {result.normalized_query!r}: {len(result.kb.facts)} "
        f"facts via {result.served_from} in {result.seconds * 1000:.3f} ms"
    )
    return result


async def main() -> None:
    world = build_world(seed=7)
    config = ServiceConfig(max_workers=4)
    async with AsyncQKBflyService.from_world(
        world, service_config=config
    ) as service:
        queries = pick_queries(service, 5)
        hot, cold = queries[0], queries[1:]

        print("== 1. Identical concurrent cold queries (single-flight) ==")
        await asyncio.gather(
            *(client(service, f"client-{i}", hot) for i in range(4))
        )
        stats = service.stats()
        print(
            f"  4 clients, {stats['pipeline_runs']} pipeline run(s), "
            f"{stats['executor']['deduplicated']} deduplicated\n"
        )

        print("== 2. Cache hits stay fast while cold queries run ==")
        background = asyncio.ensure_future(
            service.serve_batch(
                [QueryRequest(query=query, num_documents=2) for query in cold]
            )
        )
        latencies = []
        while not background.done():
            t0 = time.perf_counter()
            result = await service.serve(QueryRequest(query=hot))
            latencies.append(time.perf_counter() - t0)
            assert result.cache_hit
            await asyncio.sleep(0.001)
        await background
        latencies.sort()
        p50 = latencies[len(latencies) // 2] * 1000
        print(
            f"  {len(latencies)} cache hits served on the loop while "
            f"{len(cold)} cold queries ran; hit p50 {p50:.3f} ms\n"
        )

        print("== 3. Mixed hot/cold batch from concurrent clients ==")
        workload = [hot, cold[0], hot, cold[1], hot]
        results = await service.serve_batch(
            [QueryRequest(query=query) for query in workload]
        )
        for query, result in zip(workload, results):
            print(
                f"  {query!r} -> {len(result.kb.facts)} facts "
                f"({result.served_from})"
            )

        final = service.stats()
        print(
            f"\nServed {final['async']['answered']} requests: "
            f"{final['async']['loop_cache_hits']} on-loop cache hits, "
            f"{final['executor']['submitted']} flights, "
            f"{final['pipeline_runs']} pipeline runs"
        )


if __name__ == "__main__":
    asyncio.run(main())
