"""The performance ledger: whole-scenario workloads, end-to-end metrics and
per-layer attribution from a traced run.  See ``README.md`` in this package.

Entry points::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src:. python -m benchmarks.ledger --seed 3
    PYTHONPATH=src:. python -m benchmarks.ledger compare A.json B.json
    PYTHONPATH=src:. python -m benchmarks.ledger record FIRST_SEED LAST_SEED
"""
