"""Distributed computation of link-based network metrics.

Weighted-average-consensus pipelines that let every node of an undirected
graph compute edge-averaged quantities (total variation, arbitrary
polynomial functions of pair-wise attributes) using only neighbor-local
exchanges, plus spectral convergence analysis and a centralized reference
implementation for verification. Import each name from its module.
"""
