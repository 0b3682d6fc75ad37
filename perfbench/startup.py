"""Time ``import wallnorm`` in a fresh interpreter, paced.

    PYTHONPATH=src python3 perfbench/startup.py

Prints the paced seconds the import takes, timed by ``pace.Pacer``.  The
interpreter's own start-up, before this script runs, is not timed: no code
of the program runs in it, and it spreads more than the import.  What
``pace`` itself imports (``fractions``, ``signal``) is not timed either.
"""

import pace

_, _, paced = pace.Pacer().measure(lambda: __import__("wallnorm"))
print(paced)
