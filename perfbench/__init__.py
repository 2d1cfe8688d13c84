"""Layered benchmark for graph-inertia; see README.md in this directory."""
