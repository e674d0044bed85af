"""The paper's primary contribution: TRIM, TRIM-B, and the ASTI loop.

- ``trim``    — Algorithm 2: truncated influence maximization of a
  single node via mRR sets with the OPIM-C-style doubling/stop rule.
- ``trim_b``  — Algorithm 3: size-b batch via greedy max coverage,
  approximation ρ_b(1−1/e)(1−ε) with ρ_b = 1−(1−1/b)^b. At b = 1 it is
  TRIM: both run the one loop ``trim.doubling_round`` and return a
  ``TrimResult``.
- ``asti``    — Algorithm 1: the adaptive select/observe/update policy.
"""
from repro.core.trim import TrimResult, trim
from repro.core.trim_b import trim_b
from repro.core.asti import AstiResult, asti

__all__ = ["TrimResult", "trim", "trim_b", "AstiResult", "asti"]
