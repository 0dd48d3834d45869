import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import nsassim.nse as nse


class CountingWorker:
    """Stands in for nse._worker(): a one-thread pool that counts its submissions.

    Each may start after a delay, so a caller that does not wait for it
    returns while it still runs.
    """

    def __init__(self, delay=0.0):
        self.pool = ThreadPoolExecutor(1)
        self.delay = delay
        self.futures = []

    def submit(self, fn, *args):
        def delayed():
            time.sleep(self.delay)
            return fn(*args)

        future = self.pool.submit(delayed)
        self.futures.append(future)
        return future


@pytest.fixture
def level_blocks(monkeypatch):
    """use(cores, tile=None, delay=0.0): the level work's core count, tile size and worker.

    With cores=2 every grid whose control reaches nse._SPLIT_SIZE runs its
    level tiles on two threads, whatever the machine; tile None keeps
    nse._TILE_NODES.  Returns the CountingWorker, which starts each of its
    submissions after delay seconds.
    """
    workers, default_tile = [], nse._TILE_NODES

    def use(cores, tile=None, delay=0.0):
        worker = CountingWorker(delay)
        workers.append(worker)
        monkeypatch.setattr(nse, "_worker", lambda: worker)
        monkeypatch.setattr(nse, "_cores", lambda: cores)
        monkeypatch.setattr(nse, "_TILE_NODES", default_tile if tile is None else tile)
        return worker

    yield use
    for worker in workers:
        worker.pool.shutdown()
