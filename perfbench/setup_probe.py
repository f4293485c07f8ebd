"""Prints the seconds this fresh interpreter takes to import the
classifier's command line module, which imports the whole package, then
the speed probe's times before and after it."""

import time

from clock import calibrate

before = calibrate()
start = time.perf_counter()
import arnoldnf.cli  # noqa: E402,F401

elapsed = time.perf_counter() - start
print(elapsed, before, calibrate())
