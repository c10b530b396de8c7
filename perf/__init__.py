"""The statement-latency benchmark of record (see perf/README.md).

``python3 perf/run.py`` is the one command; BENCHMARK.json at the
repository root is the contract it is run under.
"""

# The seed whose result digests are committed under perf/expected/.
DEFAULT_SEED = 1
