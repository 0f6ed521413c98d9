"""Run one ``iofootprint`` command, stamping when the CLI has been imported.

Usage: ``python launch.py <iofootprint arguments>`` with file descriptor 3
open for writing. The ``CLOCK_MONOTONIC`` times just before and just after
``import iofootprint.cli`` are written to fd 3, the command then runs
exactly as the ``iofootprint`` entry point runs it, and at exit the peak
resident set size of this process (``VmHWM``, in KiB) follows on fd 3.

The peak comes from ``/proc`` rather than from ``wait4``: a process
started by ``posix_spawn`` or ``vfork`` shares its parent's memory until
``exec``, and the kernel counts the parent's peak in the child's
``ru_maxrss``.
"""

import atexit
import os
import time

STAMPS = 3


def _report_peak() -> None:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(STAMPS, f"{peak}\n".encode())
    os.close(STAMPS)


before = time.monotonic()
import iofootprint.cli  # noqa: E402

after = time.monotonic()
os.write(STAMPS, f"{before!r} {after!r}\n".encode())
atexit.register(_report_peak)
iofootprint.cli.main()
