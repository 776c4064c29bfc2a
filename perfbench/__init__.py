"""perfbench: the repo's benchmark. One command, two clocks.

End-to-end and per-layer numbers for the ``steady``, ``scale``,
``partitioned`` and ``chaos`` workloads, measured from outside the
unmodified platform. See README.md.
"""
