"""Run ``python -m bananagv ARGS`` in this process, then report its peak RSS.

Usage: ``python3 perfbench/child.py FD ARGS...``.  At exit, this process's
own peak resident set size (``VmHWM`` of ``/proc/self/status``, in kB) is
written to the inherited file descriptor FD.

The parent cannot take this from ``ru_maxrss`` of the reaped child: Linux
carries the parent's peak over into the child at exec, so every child would
read at least the benchmark's own size.
"""
import atexit
import os
import runpy
import sys


def _report_peak(fd: int):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                os.write(fd, line.split()[1].encode())
    os.close(fd)


atexit.register(_report_peak, int(sys.argv[1]))
sys.argv = ["bananagv", *sys.argv[2:]]
runpy.run_module("bananagv", run_name="__main__", alter_sys=True)
