"""Fixed reference work that gauges the host's speed during a run.

Pure-Python ``Fraction`` sums and dict updates, the same kinds of work
as the correlation engine and the bracket evaluation, in a fresh
interpreter like every CLI command.  It imports nothing from the
repository, so no change to the program moves its time.
"""

from fractions import Fraction

total = Fraction(0)
for i in range(1, 6000):
    total += Fraction(i, i + 1)
counts: dict[int, int] = {}
for i in range(300_000):
    key = (i * 7919) % 100_003
    counts[key] = counts.get(key, 0) + 1
