"""End-to-end and per-layer benchmark of the ``iofootprint`` command line.

Run it from the repository root::

    python3 perfbench/run.py --workload read --seed 1 --seconds 25 --trace 0

``--trace 0`` drives the CLI as one subprocess per operation and reports
the end-to-end metrics; ``--trace 1`` runs the same operations in-process
with spans around each layer's public functions and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
