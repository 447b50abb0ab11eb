"""The benchmark's own load generator for the serving workload.

Open loop (``run_step``): request ``i`` of a step is *due* at
``start + i / rate`` whether or not earlier requests have been answered, so
a slow server cannot slow the offered load down.  Latency is timed from the due time, not from the
moment the generator got round to sending, so a late generator shows up as
latency instead of hiding it; the generator's own lateness is reported
separately.  Closed loop (``run_closed``): one request at a time.
Everything runs on one asyncio loop in one thread.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field

#: Share of a stream's requests that repeat a question sent earlier in it.
REPEAT_SHARE = 0.25


def build_stream(questions: list[tuple[str, str]], seed: int) -> list[tuple[str, str]]:
    """A seeded shuffle of every ``(domain, question)`` plus exact repeats.

    Every question is sent once, in a seeded order; ``REPEAT_SHARE`` of the
    final stream are repeats of a question already sent earlier in it, so
    the result cache is used but most requests still miss it.
    """
    rng = random.Random(f"perfbench-stream:{seed}")
    order = list(questions)
    rng.shuffle(order)
    n_repeats = round(len(order) * REPEAT_SHARE / (1.0 - REPEAT_SHARE))
    # Repeat slots never come first: a repeat needs an earlier original.
    total = len(order) + n_repeats
    repeat_slots = set(rng.sample(range(1, total), n_repeats))
    stream: list[tuple[str, str]] = []
    originals = iter(order)
    for slot in range(total):
        if slot in repeat_slots:
            stream.append(rng.choice(stream))
        else:
            stream.append(next(originals))
    return stream


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class StepResult:
    """What one rate step of the open-loop generator observed."""

    rate: float
    results: list = field(default_factory=list)  # ServeResult per request
    latency_s: list[float] = field(default_factory=list)  # due -> answer
    late_s: list[float] = field(default_factory=list)  # due -> actual send
    #: Requests sent but not yet answered when the last one was due.
    backlog_end: int = 0


async def run_step(server, stream: list[tuple[str, str]], rate: float) -> StepResult:
    """Offer ``stream`` to ``server`` at ``rate`` requests/s, open loop."""
    loop = asyncio.get_running_loop()
    step = StepResult(rate=rate)
    latency = [0.0] * len(stream)
    results: list = [None] * len(stream)

    async def one(index: int, domain: str, question: str, due: float) -> None:
        results[index] = await server.submit(question, domain)
        latency[index] = loop.time() - due

    start = loop.time() + 0.01
    tasks = []
    for index, (domain, question) in enumerate(stream):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        step.late_s.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.ensure_future(one(index, domain, question, due)))
    await asyncio.sleep(0)  # let the last request reach the server
    step.backlog_end = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    step.results = results
    step.latency_s = latency
    return step


async def run_closed(server, stream: list[tuple[str, str]]) -> StepResult:
    """Send ``stream`` to ``server`` one request at a time, each after the
    previous answer: nothing queues and every batch holds one request, so
    the work done does not depend on timing.  Latency is from each send."""
    loop = asyncio.get_running_loop()
    step = StepResult(rate=0.0)
    for domain, question in stream:
        sent = loop.time()
        step.results.append(await server.submit(question, domain))
        step.latency_s.append(loop.time() - sent)
    return step
