"""Slow reference solvers that tests check the fast backends against."""
