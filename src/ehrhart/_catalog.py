"""The vertex lists of the named fixture polytopes.

Kept apart from :mod:`ehrhart.generators`, so that naming one entry on the
command line builds that one hull and imports nothing else.  A fractional
coordinate is a "p/q" string, which the command line parses as a file's.
:func:`ehrhart.generators.catalog` builds them all.
"""

VERTICES = {
    "square2": [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    "diamond2": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "halfdiamond2": [("1/2", 0), ("-1/2", 0), (0, "1/2"), (0, "-1/2")],
    "seg_m1_2": [(-1,), (2,)],
    "seg_mhalf_1": [("-1/2",), (1,)],
    "seg_mhalf_third": [("-1/2",), ("1/3",)],
    "seg_m23_1": [("-2/3",), (1,)],
    "cube3": [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    "octa3": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
}

