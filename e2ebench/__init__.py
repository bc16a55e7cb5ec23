"""End-to-end SpMV benchmark: caller-side latency on four closed-loop
workloads plus a per-layer ledger.

Run ``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  The benchmark measures every layer from outside:
it calls the public entry points of ``repro`` and wraps the tuner and the
AMG SpMV engine with forwarding proxies in the traced run only.
"""
