"""End-to-end audit benchmark: gateway workloads, a traced per-layer pass and
a comparator.  Run ``python3 auditbench/run.py --help``; see README.md.
"""

#: pool worker threads of every gateway the benchmark stands up
WORKERS = 2
