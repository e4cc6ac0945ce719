"""Float totals that come out the same on every supported Python.

Python 3.12 made the builtin ``sum()`` add floats with compensated
(Neumaier) summation, so the same floats can total differently in the
last digits on 3.11 and on 3.12, and every figure row, anchor and
manifest counter built from such a total would differ with the
interpreter.  The package adds its float totals with :func:`left_sum`
instead: one rounded addition per item, left to right, which is what
``sum()`` did through 3.11.  ``math.fsum`` would also agree across
versions, but it rounds once at the end and so changes the committed
outputs.
"""

from __future__ import annotations

from functools import reduce
from operator import add


def left_sum(values):
    """``values`` added one at a time, left to right, starting from 0.

    What ``sum(values)`` returns through Python 3.11, on every version:
    ``left_sum([1e16, 1.0, -1e16])`` is ``0.0``, where 3.12's ``sum``
    gives ``1.0``.  Ints stay ints, as with ``sum``.
    """
    return reduce(add, values, 0)
