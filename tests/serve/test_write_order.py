"""The per-connection write lock: oldest request first, work-conserving.

``OldestFirstLock`` orders the frames that streams sharing one
connection write.  A stream whose next frame is ready keeps the lock
ahead of younger waiters; a stream that yields between frames (waiting
on a render) lets them write meanwhile; a reply that belongs to no
request goes first.  No clock: every step is a loop turn.
"""

import asyncio

from repro.serve.server import OldestFirstLock


async def _writer(lock, order, frames, log, *, ready=True):
    """Write ``frames`` frames; each write yields once (a drain).  With
    ``ready`` false the stream also yields between frames."""
    for index in range(frames):
        await lock.acquire(order)
        try:
            log.append((order, index))
            await asyncio.sleep(0)
        finally:
            lock.release()
        if not ready:
            await asyncio.sleep(0)


def _run(*writers):
    log = []

    async def main():
        lock = OldestFirstLock()
        await asyncio.gather(
            *(_writer(lock, *args, log, **kw) for args, kw in writers)
        )
        assert not lock.locked()

    asyncio.run(main())
    return log


def test_ready_streams_write_oldest_first():
    log = _run(((0, 4), {}), ((1, 3), {}), ((2, 2), {}))
    assert log == (
        [(0, i) for i in range(4)]
        + [(1, i) for i in range(3)]
        + [(2, i) for i in range(2)]
    )


def test_a_stream_between_frames_holds_nothing():
    """Work-conserving: the older stream yields after each frame, so the
    younger one writes in its gaps instead of waiting for it to end."""
    log = _run(((0, 3), {"ready": False}), ((1, 3), {}))
    assert [order for order, _ in log] == [0, 1, 0, 1, 0, 1]


def test_an_older_stream_overtakes_a_younger_one_waiting_before_it():
    """A younger stream that queued first still yields to an older one
    that becomes ready while it waits."""
    log = []

    async def main():
        lock = OldestFirstLock()
        await lock.acquire(5)  # a stray holder
        younger = asyncio.ensure_future(_writer(lock, 2, 2, log))
        await asyncio.sleep(0)
        older = asyncio.ensure_future(_writer(lock, 1, 2, log))
        await asyncio.sleep(0)
        lock.release()
        await asyncio.gather(younger, older)

    asyncio.run(main())
    assert log == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_reply_of_no_request_goes_first():
    log = []

    async def main():
        lock = OldestFirstLock()
        await lock.acquire(0)
        stream = asyncio.ensure_future(_writer(lock, 1, 2, log))
        reply = asyncio.ensure_future(_writer(lock, -1, 1, log))
        await asyncio.sleep(0)
        lock.release()
        await asyncio.gather(stream, reply)

    asyncio.run(main())
    assert log[0] == (-1, 0)


def test_cancelled_waiter_passes_the_lock_on():
    """A waiter woken and then cancelled before it runs must not strand
    the next one."""
    log = []

    async def main():
        lock = OldestFirstLock()
        await lock.acquire(0)
        first = asyncio.ensure_future(lock.acquire(1))
        second = asyncio.ensure_future(_writer(lock, 2, 1, log))
        await asyncio.sleep(0)
        lock.release()  # wakes ``first``
        first.cancel()
        await asyncio.gather(first, return_exceptions=True)
        await asyncio.wait_for(second, 1)  # a hang fails, no timing assert
        assert not lock.locked()

    asyncio.run(main())
    assert log == [(2, 0)]
