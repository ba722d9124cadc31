"""End-to-end decision-cycle benchmark with per-layer attribution.

One command runs five workloads over seeded synthetic traces, prints
every end-to-end metric by name and unit, and verifies the outputs; a
traced run repeats the workloads with timing proxies around each
layer's public calls.  See ``README.md`` in this directory.
"""
