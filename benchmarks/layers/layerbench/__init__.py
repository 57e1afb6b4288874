"""Layered benchmark harness: four workloads, one ladder from tree op to
folded delta.  See ``benchmarks/layers/README.md``."""

WORKLOADS = ("tree_event", "hash_frame", "durable_shard2", "serve_open")
