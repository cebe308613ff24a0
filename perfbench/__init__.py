"""Benchmark of the ocsim simulator; run `python3 perfbench/run.py --help`."""
