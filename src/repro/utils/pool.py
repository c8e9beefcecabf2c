"""Process-pool worker lifetime: a worker never outlives its pool's owner."""

from __future__ import annotations

import os
import threading
import time

#: seconds between a pool worker's checks that its parent is still alive.
PARENT_POLL_S = 0.5


def exit_with_parent() -> None:
    """End this pool worker once the process that started it is gone.

    A forked ``ProcessPoolExecutor`` worker inherits the write end of the
    pool's call-queue pipe, so when the pool's owner dies (an injected
    crash, ``kill -9``) no worker ever reads EOF: idle workers block on the
    pipe or its lock forever.  An orphan is re-parented, so a daemon thread
    that sees :func:`os.getppid` change exits the worker.  Call it from the
    pool initializer.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()
