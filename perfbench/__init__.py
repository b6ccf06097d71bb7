"""The simulator benchmark (see run.py)."""
