"""Layered benchmark: SA, label-and-train and service workloads with a span tracer."""
