"""Closed-loop benchmark of the session fabric (see ``perfbench/run.py``)."""
