"""Prints the seconds a fresh interpreter spends importing genbound and
loading each given config and building its datasets.

Usage: python3 bench/setup_probe.py [CONFIG ...]   (run.py starts it)
"""

import sys
import time

start = time.perf_counter()
import genbound  # noqa: E402,F401
from genbound.cli import build_datasets, load_config  # noqa: E402

for path in sys.argv[1:]:
    build_datasets(load_config(path))
print(time.perf_counter() - start)
