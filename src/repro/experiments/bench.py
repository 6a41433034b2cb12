"""The ``RunSummary`` fields that pin a run's outcome.

The repository's one benchmark is ``benchmarks/e2e``: end-to-end host
time and peak memory of ``build_network`` + ``Network.run`` in fresh
processes, with self time by layer from a separate profiled pass (see
``benchmarks/e2e/README.md``). It checks every run's outcome against
its committed ``expected.json`` through the fields below, and so do
the golden determinism pins (``tests/integration/test_determinism.py``).
All of them are deterministic given the seed.
"""

#: RunSummary fields captured per run; all deterministic given the seed.
METRIC_FIELDS = (
    "delivery_ratio",
    "avg_delay_s",
    "max_delay_s",
    "avg_drop_ratio",
    "avg_retx_ratio",
    "avg_txoh_ratio",
    "mrts_len_avg",
    "mrts_len_max",
    "abort_avg",
    "n_generated",
    "total_deliveries",
    "total_drops",
    "total_retransmissions",
)
