"""End-to-end benchmark of the broker overlay (see ``perfbench/run.py``)."""
