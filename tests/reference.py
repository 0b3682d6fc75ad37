"""Reference implementations the tests compare the package against.

They are the plain forms of computations the package does faster, kept
only to check that the faster form gives identical results.
"""

from __future__ import annotations


def dp_tables(single, radius):
    """Fixpoint of M(c) = min(single(c), M(c1) + M(c - c1)) over the box.

    The tuple-keyed Gauss-Seidel sweep that ``oracle._dp_tables`` must
    reproduce exactly: the same values and the same decomposition choices.
    """
    classes = sorted(single)
    rank = len(classes[0])
    zero = (0,) * rank
    m = {c: single[c][0] for c in classes}
    m[zero] = 0
    choice = {}
    changed = True
    while changed:
        changed = False
        order = sorted(classes, key=lambda c: m[c])
        for c in classes:
            bound = m[c]
            for c1 in order:
                v1 = m[c1]
                if v1 + 1 >= bound:
                    break
                if c1 == zero:
                    continue
                c2 = tuple(a - b for a, b in zip(c, c1))
                if any(abs(x) > radius for x in c2):
                    continue
                v2 = m[c2]
                if v1 + v2 < bound:
                    bound = v1 + v2
                    m[c] = bound
                    choice[c] = (c1, c2)
                    changed = True
    return m, choice
