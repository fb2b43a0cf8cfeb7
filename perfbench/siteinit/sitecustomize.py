"""Installs the benchmark's tracing in shard-worker subprocesses.

The benchmark puts this directory on ``PYTHONPATH`` only for traced or
injected runs; Python imports ``sitecustomize`` at start-up, and this one
installs the wrappers its parent exported through the environment.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402

tracing.install_from_env()
