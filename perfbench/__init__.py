"""The repository benchmark: host time per scenario cell, split by layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload of scenario cells (one scenario under one controller) in
a closed loop, checks every cell's output, and prints one JSON result line.
``BENCHMARK.json`` at the repository root declares the workloads and
metrics; :mod:`perfbench.workloads` builds the cells and their output
checks, and :mod:`perfbench.tracing` holds the traced run's spans.
"""
