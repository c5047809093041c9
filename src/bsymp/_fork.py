"""Work run in a forked child, beside this process, on the second processor.

`Fork(work)` is a context manager; `Fork(None)` starts no child.  Entering
it forks a child that calls work() and writes the bytes it returns, an
iterable of bytes objects, to a pipe, then leaves through os._exit: it
runs no atexit handler and flushes no file or stdio buffer it inherited,
so nothing this process had buffered is written twice.  An exception in
the child leaves with status 1.  Several may be open at once: a flow
enters one per finished block of steps on its `contextlib.ExitStack`, verify
one for its first sections and one for coupling-identity, and each child
works on the snapshot of memory it was forked with.  `forked` tells
whether there is a child.

`read()` hands over the child's bytes as they arrive, and b"" at their
end.  The child writes only after work() has returned, so the caller
judges completeness from the bytes alone (verify: every double came;
write_csv: whole lines) and finishes what did not come itself, on its one
fallback path.  That path also covers there being no child: os.fork is
missing (looked up on entry), or os.pipe or os.fork refused, and read()
gives b"", as it does after the block was left.
Leaving the block kills (SIGKILL) and reaps the child, done or not, so no
process outlives it, whether the block raised or a KeyboardInterrupt
arrived.

The child calls gc.freeze() before work(): every object it inherited moves
to the collector's permanent generation, so its collections traverse only
what the child allocates.  Nothing is lost: the child leaves through
os._exit, which finalizes nothing, so an inherited cycle that stays
uncollected only keeps pages it still shares with this process.  A
collection that walked the inherited heap would write each object's GC
header and so copy every page that holds one.  This process's collector
is untouched.
"""

from __future__ import annotations

import gc
import os
from typing import Callable, Iterable


class Fork:
    def __init__(self, work: Callable[[], Iterable[bytes]] | None):
        self._work = work
        self._pid: int | None = None
        self._pipe = None

    def __enter__(self) -> Fork:
        if self._work is None or not hasattr(os, "fork"):
            return self
        try:
            r, w = os.pipe()
        except OSError:  # no descriptor left: the caller does the work
            return self
        try:
            pid = os.fork()
        except OSError:  # refused, as at a process limit: the caller does the work
            os.close(r)
            os.close(w)
            return self
        if pid == 0:
            status = 1
            try:
                gc.freeze()
                os.close(r)
                with os.fdopen(w, "wb") as out:
                    out.writelines(self._work())
                status = 0
            finally:
                os._exit(status)
        self._pid = pid
        os.close(w)
        self._pipe = os.fdopen(r, "rb")
        return self

    @property
    def forked(self) -> bool:
        """Whether a child was forked, until the block is left."""
        return self._pid is not None

    def read(self, size: int = -1) -> bytes:
        """Up to size of the child's bytes, all of them by default; b"" at
        their end, and without a child."""
        return b"" if self._pipe is None else self._pipe.read(size)

    def __exit__(self, *exc) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid is not None:
            import signal  # only here: `import bsymp.cli` does not load it
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
