"""balance-lab benchmark: workloads, correctness gates and layer tracing."""
