"""Hand-built tagged trees reproducing the published worked examples.

Each entry is (name, tree, expected minimum cover cost).  Node ids are
arbitrary; structure and tags follow the drawings.
"""

from conftest import bt

# -- tag-mate examples (cost 3, 3, 3, 4) -------------------------------------

MATE_I = bt(
    {0: "b", 1: "b", 2: "bA", 3: "g", 4: "b", 5: "b", 6: "b", 7: "b", 8: "bAB"},
    [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (3, 6), (6, 7), (6, 8)],
)

MATE_II = bt(
    {0: "b", 1: "b", 2: "bA", 3: "gAB", 4: "b", 5: "b", 6: "b", 7: "b"},
    [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (3, 6), (6, 7)],
)

MATE_III = bt(
    {0: "bAB", 1: "b", 2: "bA", 3: "g", 4: "b", 5: "b", 6: "b", 7: "b"},
    [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (3, 6), (6, 7)],
)

MATE_IV = bt(
    {0: "b", 1: "bAB", 2: "bA", 3: "g", 4: "b", 5: "b", 6: "b", 7: "b"},
    [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (3, 6), (6, 7)],
)

# -- solo-leaf examples (cost 5, 3, 5) ----------------------------------------

SOLO_I = bt(
    {
        0: "g",
        1: "b", 2: "bA",
        3: "b", 4: "bB",
        5: "b", 6: "b",
        7: "b", 8: "b", 9: "b",
    },
    [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8), (7, 9)],
)

SOLO_II = bt(
    {0: "b", 1: "b", 2: "b", 3: "b", 4: "b", 5: "bA"},
    [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)],
)

SOLO_III = bt(
    {
        0: "b",
        1: "b", 2: "b",
        3: "b", 4: "bA", 5: "bA", 6: "b", 7: "b",
        8: "b", 9: "b", 10: "b", 11: "b", 12: "bB",
    },
    [
        (0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (3, 6), (6, 7),
        (0, 8), (8, 9), (9, 10), (8, 11), (11, 12),
    ],
)

# -- the four topologies of the two-against-two composition (2, 3, 3, 4) ------

L2200_COROOTED = bt(
    {0: "g", 1: "b", 2: "bA", 3: "b", 4: "bA", 5: "b", 6: "bB", 7: "b", 8: "bB"},
    [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)],
)

L2200_SHORTLINK = bt(
    {
        0: "b",
        1: "g", 2: "b", 3: "bA", 4: "b", 5: "bA",
        6: "g", 7: "b", 8: "bB", 9: "b", 10: "bB",
    },
    [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (6, 7), (7, 8), (6, 9), (9, 10)],
)

L2200_MATE = bt(
    {
        0: "b", 1: "g", 2: "b", 3: "bA", 4: "b", 5: "bA",
        6: "bA", 7: "g", 8: "b", 9: "bB", 10: "b", 11: "bB",
    },
    [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9), (7, 10), (10, 11)],
)

L2200_LONGLINK = bt(
    {
        0: "b", 1: "g", 2: "b", 3: "bA", 4: "b", 5: "bA",
        6: "b", 7: "g", 8: "b", 9: "bB", 10: "b", 11: "bB",
    },
    [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9), (7, 10), (10, 11)],
)

# -- the one-one-three composition and its reductions (5; 5, 5, 6) ------------

L1130_NONREDUCIBLE = bt(
    {
        0: "b",
        1: "g", 2: "b", 3: "b", 4: "bA", 5: "b", 6: "bB",
        7: "g", 8: "b", 9: "b", 10: "b", 11: "b",
    },
    [(0, 1), (1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (0, 7), (7, 8), (8, 9), (7, 10), (10, 11)],
)

L1130_RED_I = bt(
    {0: "g", 1: "b", 2: "b", 3: "b", 4: "bB", 5: "bA", 6: "b", 7: "b", 8: "b", 9: "b"},
    [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (0, 6), (6, 7), (0, 8), (8, 9)],
)

L1130_RED_II = bt(
    {
        0: "bA",
        1: "g", 2: "b", 3: "bA", 4: "b", 5: "bB",
        6: "g", 7: "b", 8: "b", 9: "b", 10: "b", 11: "b",
    },
    [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (6, 7), (6, 8), (8, 9), (6, 10), (10, 11)],
)

L1130_RED_III = bt(
    {
        0: "b",
        1: "g", 2: "b", 3: "b", 4: "b", 5: "bA", 6: "b", 7: "bB",
        8: "g", 9: "b", 10: "b", 11: "b", 12: "b",
    },
    [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (0, 8), (8, 9), (9, 10), (8, 11), (11, 12)],
)

# -- safe and unsafe reductions around a solo leaf (4; 3) ----------------------

REDUCTION1_I = bt(
    {0: "g", 1: "bA", 2: "b", 3: "b", 4: "b", 5: "b", 6: "b", 7: "bA", 8: "b"},
    [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7), (0, 8)],
)

REDUCTION1_II = bt(
    {0: "g", 1: "bA", 2: "b", 3: "bB", 4: "b", 5: "bB", 6: "b", 7: "bA", 8: "bB"},
    [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7), (0, 8)],
)

# -- essential-leaf examples ---------------------------------------------------

DESTROY_SOLO_I = bt(
    {
        0: "b", 1: "b",
        2: "b", 3: "b", 4: "b", 5: "bA",
        6: "b", 7: "b", 8: "b", 9: "bA",
        10: "b", 11: "b", 12: "b", 13: "bA", 14: "b", 15: "b",
    },
    [
        (0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9),
        (0, 10), (10, 11), (11, 12), (12, 13), (11, 14), (14, 15),
    ],
)

DESTROY_SOLO_II = bt(
    {
        0: "b", 1: "b",
        2: "b", 3: "b", 4: "b", 5: "bA",
        6: "b", 7: "b", 8: "b", 9: "bA",
        10: "b", 11: "b", 12: "b", 13: "bA", 14: "b", 15: "bAB",
    },
    [
        (0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9),
        (0, 10), (10, 11), (11, 12), (12, 13), (11, 14), (14, 15),
    ],
)

RED3TO1_I = bt(
    {
        0: "b", 1: "b", 2: "bA", 3: "bB",
        4: "b", 5: "b", 6: "b", 7: "bA", 8: "b", 9: "b", 10: "bA",
    },
    [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (5, 6), (6, 7), (4, 8), (8, 9), (9, 10)],
)

RED3TO1_II = bt(
    {
        0: "b", 1: "b", 2: "bA", 3: "b", 4: "bB",
        5: "b", 6: "b", 7: "b", 8: "bA", 9: "b", 10: "b", 11: "bA",
    },
    [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8), (5, 9), (9, 10), (10, 11)],
)

RED3TO1_III = bt(
    {
        0: "b", 1: "b", 2: "bA", 3: "b", 4: "b",
        5: "b", 6: "b", 7: "b", 8: "bB", 9: "b", 10: "bA",
        11: "b", 12: "b", 13: "bA", 14: "bB",
    },
    [
        (0, 1), (1, 2), (1, 3), (3, 4), (0, 5),
        (5, 6), (6, 7), (7, 8), (6, 9), (9, 10),
        (5, 11), (11, 12), (12, 13), (12, 14),
    ],
)

# -- non-reducible and reducible topologies of composition (2, 2, 2, 3) --------

L2223_NR_I = bt(
    {
        0: "b",
        1: "b", 2: "g", 3: "bA", 4: "bA",
        5: "b", 6: "b", 7: "b", 8: "b",
        9: "b", 10: "g", 11: "bB", 12: "bB",
        13: "g", 14: "bAB", 15: "bAB", 16: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (2, 4),
        (0, 5), (5, 6), (0, 7), (7, 8),
        (0, 9), (9, 10), (10, 11), (10, 12),
        (0, 13), (13, 14), (13, 15), (13, 16),
    ],
)

L2223_NR_II = bt(
    {
        0: "b", 1: "g", 2: "bA", 3: "bA",
        4: "b", 5: "b", 6: "b", 7: "b", 8: "b",
        9: "b", 10: "b", 11: "g", 12: "bB", 13: "bB",
        14: "g", 15: "bAB", 16: "bAB", 17: "bAB",
    },
    [
        (0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7), (5, 8),
        (0, 9), (9, 10), (10, 11), (11, 12), (11, 13), (9, 14), (14, 15), (14, 16), (14, 17),
    ],
)

L2223_NR_III = bt(
    {
        0: "b",
        1: "b", 2: "g", 3: "bA", 4: "bA",
        5: "bB", 6: "g", 7: "b", 8: "b", 9: "b", 10: "b",
        11: "b", 12: "g", 13: "bB", 14: "bB",
        15: "g", 16: "bAB", 17: "bAB", 18: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (2, 4),
        (0, 5), (5, 6), (6, 7), (7, 8), (6, 9), (9, 10),
        (0, 11), (11, 12), (12, 13), (12, 14),
        (0, 15), (15, 16), (15, 17), (15, 18),
    ],
)

L2223_R_I = bt(
    {
        0: "g",
        1: "b", 2: "g", 3: "b", 4: "b",
        5: "b", 6: "bA", 7: "b", 8: "bA",
        9: "b", 10: "g", 11: "bB", 12: "bB",
        13: "b", 14: "g", 15: "bAB", 16: "bAB", 17: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (2, 4),
        (0, 5), (5, 6), (0, 7), (7, 8),
        (0, 9), (9, 10), (10, 11), (10, 12),
        (0, 13), (13, 14), (14, 15), (14, 16), (14, 17),
    ],
)

L2223_R_II = bt(
    {
        0: "b",
        1: "g", 2: "b", 3: "g", 4: "b", 5: "bB", 6: "b", 7: "bB",
        8: "b", 9: "bA", 10: "b", 11: "bA",
        12: "g", 13: "b", 14: "b", 15: "b", 16: "b",
        17: "b", 18: "g", 19: "b", 20: "bAB", 21: "b", 22: "bAB", 23: "b", 24: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7),
        (1, 8), (8, 9), (1, 10), (10, 11),
        (0, 12), (12, 13), (13, 14), (12, 15), (15, 16),
        (12, 17), (17, 18), (18, 19), (19, 20), (18, 21), (21, 22), (18, 23), (23, 24),
    ],
)

L2223_R_III = bt(
    {
        0: "g",
        1: "bB", 2: "g", 3: "b", 4: "b", 5: "b", 6: "b",
        7: "b", 8: "bA", 9: "b", 10: "bA",
        11: "b", 12: "g", 13: "bB", 14: "bB",
        15: "b", 16: "g", 17: "bAB", 18: "bAB", 19: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6),
        (0, 7), (7, 8), (0, 9), (9, 10),
        (0, 11), (11, 12), (12, 13), (12, 14),
        (0, 15), (15, 16), (16, 17), (16, 18), (16, 19),
    ],
)

L2223_R_IV = bt(
    {
        0: "g",
        1: "bB", 2: "g", 3: "bA", 4: "bA",
        5: "b", 6: "b", 7: "b", 8: "b",
        9: "b", 10: "g", 11: "bB", 12: "bB",
        13: "b", 14: "g", 15: "bAB", 16: "bAB", 17: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (2, 4),
        (0, 5), (5, 6), (0, 7), (7, 8),
        (0, 9), (9, 10), (10, 11), (10, 12),
        (0, 13), (13, 14), (14, 15), (14, 16), (14, 17),
    ],
)

L2223_R_V = bt(
    {
        0: "g",
        1: "b", 2: "g", 3: "bA", 4: "bA",
        5: "b", 6: "g", 7: "b", 8: "b", 9: "b", 10: "b",
        11: "b", 12: "g", 13: "bB", 14: "bB",
        15: "b", 16: "g", 17: "bAB", 18: "bAB", 19: "bAB",
    },
    [
        (0, 1), (1, 2), (2, 3), (2, 4),
        (0, 5), (5, 6), (6, 7), (7, 8), (6, 9), (9, 10),
        (0, 11), (11, 12), (12, 13), (12, 14),
        (0, 15), (15, 16), (16, 17), (16, 18), (16, 19),
    ],
)

# -- residual trees on which the printed topology predicates missed ----------
# Minimized from the random residual trees of seed 2024, 60 per composition,
# on which no case whose predicate held bound below the catch-all while
# another case's witness bound at the optimum.  The two (2, 1, 2, 0) trees
# of that run minimize to the same tree; the (2, 2, 2, 3) tree reduces into
# a (2, 2, 2, 1) tree of the same kind.

MISSED_2120 = bt(
    {0: "b", 1: "b", 2: "b", 3: "bB", 4: "b", 5: "b", 6: "b", 7: "bA", 8: "bA", 9: "bB"},
    [(0, 1), (0, 2), (0, 9), (1, 7), (1, 8), (2, 3), (2, 5), (3, 4), (5, 6)],
)

MISSED_2221 = bt(
    {
        0: "b", 1: "b", 2: "b", 3: "b", 4: "bB", 5: "b", 6: "b",
        7: "bA", 8: "bB", 9: "bAB", 10: "bA", 11: "b", 12: "b",
    },
    [
        (0, 1), (0, 2), (0, 3), (0, 9), (1, 7), (1, 10),
        (2, 4), (2, 8), (3, 5), (3, 11), (5, 6), (11, 12),
    ],
)

MISSED_2223 = bt(
    {
        0: "b", 1: "b", 2: "b", 3: "b", 4: "b", 5: "b", 6: "b", 7: "bA",
        8: "bAB", 9: "bAB", 10: "b", 11: "b", 12: "bB", 13: "bA", 14: "bAB", 15: "bB",
    },
    [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 7), (1, 13), (2, 8), (2, 9),
        (2, 14), (3, 12), (3, 15), (4, 5), (4, 10), (5, 6), (10, 11),
    ],
)

PREDICATE_MISSES = [
    ("missed-2120", MISSED_2120, 4),
    ("missed-2221", MISSED_2221, 5),
    ("missed-2223", MISSED_2223, 6),
]

FIGURE_TREES = [
    ("mate-i", MATE_I, 3),
    ("mate-ii", MATE_II, 3),
    ("mate-iii", MATE_III, 3),
    ("mate-iv", MATE_IV, 4),
    ("solo-i", SOLO_I, 5),
    ("solo-ii", SOLO_II, 3),
    ("solo-iii", SOLO_III, 5),
    ("2200-corooted", L2200_COROOTED, 2),
    ("2200-shortlink", L2200_SHORTLINK, 3),
    ("2200-mate", L2200_MATE, 3),
    ("2200-longlink", L2200_LONGLINK, 4),
    ("1130-nonreducible", L1130_NONREDUCIBLE, 5),
    ("1130-reducible-i", L1130_RED_I, 5),
    ("1130-reducible-ii", L1130_RED_II, 5),
    ("1130-reducible-iii", L1130_RED_III, 6),
    ("reduction1-i", REDUCTION1_I, 4),
    ("reduction1-ii", REDUCTION1_II, 3),
    ("destroy-solo-i", DESTROY_SOLO_I, 4),
    ("destroy-solo-ii", DESTROY_SOLO_II, 3),
    ("red3to1-i", RED3TO1_I, 3),
    ("red3to1-ii", RED3TO1_II, 3),
    ("red3to1-iii", RED3TO1_III, 4),
    ("2223-nr-i", L2223_NR_I, 6),
    ("2223-nr-ii", L2223_NR_II, 6),
    ("2223-nr-iii", L2223_NR_III, 6),
    ("2223-r-i", L2223_R_I, 6),
    ("2223-r-ii", L2223_R_II, 6),
    ("2223-r-iii", L2223_R_III, 6),
    ("2223-r-iv", L2223_R_IV, 6),
    ("2223-r-v", L2223_R_V, 7),
]

# The big worked reduction example: four A-, three B-, five clean and five
# AB-leaves, reduced at cost 7 to composition (2, 1, 1, 3).
REDUCTION3 = bt(
    {
        # first fragment: the AB side
        0: "g", 1: "bAB", 2: "b", 3: "g", 4: "b", 5: "bAB", 6: "b", 7: "bAB",
        8: "b", 9: "bAB", 10: "bAB",
        # middle fragment: the B side
        11: "b", 12: "b", 13: "b", 14: "b", 15: "bB", 16: "g", 17: "bB",
        18: "b", 19: "bB",
        # third fragment: A plus clean
        20: "g", 21: "b", 22: "b", 23: "g", 24: "bA", 25: "bA", 26: "g",
        27: "bA", 28: "bA",
        29: "b", 30: "b", 31: "b", 32: "b", 33: "b",
        34: "b", 35: "g", 36: "b", 37: "b", 38: "b", 39: "b", 40: "b",
    },
    [
        (0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7), (3, 8), (8, 9), (0, 10),
        (11, 12), (12, 13), (13, 14), (14, 15), (13, 16), (16, 17), (16, 18), (18, 19),
        (20, 21), (21, 22), (22, 23), (23, 24), (23, 25), (22, 26), (26, 27), (26, 28),
        (20, 29), (29, 30), (30, 31), (29, 32), (32, 33),
        (20, 34), (34, 35), (35, 36), (36, 37), (35, 38), (38, 39), (38, 40),
        (0, 11), (11, 20),
    ],
)

# -- residual rows that random residual trees do not choose ------------------
# Criterion 2's trees (seed 2024) never choose these five rows.  On each tree
# below its row is the only one that binds at the optimum 4; without it the
# lookup returns a valid cover of cost 5.

PIN_1121_S2 = bt(
    {0: "b", 1: "b", 2: "b", 3: "b", 4: "b", 5: "b", 6: "b", 7: "bAB", 8: "bB", 9: "bA"},
    [(0, 1), (0, 5), (0, 9), (1, 2), (2, 3), (2, 4), (5, 6), (6, 7), (6, 8)],
)

PIN_2211_SMA = bt(
    {
        0: "b", 1: "b", 2: "b", 3: "bA", 4: "bA", 5: "b",
        6: "bA", 7: "bB", 8: "bB", 9: "b", 10: "bAB",
    },
    [(0, 1), (0, 5), (0, 9), (0, 10), (1, 2), (2, 3), (2, 4), (5, 6), (6, 7), (6, 8)],
)

PIN_2211_SMB = PIN_2211_SMA.with_swapped_tags()

PIN_2120_M3 = bt(
    {0: "bB", 1: "b", 2: "bAB", 3: "bA", 4: "bA", 5: "b", 6: "b", 7: "b", 8: "bB"},
    [(0, 1), (0, 3), (0, 4), (1, 2), (2, 5), (2, 6), (2, 8), (6, 7)],
)

PIN_1022_MB = bt(
    {0: "bB", 1: "b", 2: "b", 3: "b", 4: "b", 5: "b", 6: "b", 7: "bAB", 8: "bAB", 9: "bA"},
    [(0, 1), (0, 2), (1, 7), (1, 8), (1, 9), (2, 3), (2, 5), (3, 4), (5, 6)],
)

# (composition, row label, tree); the optimum of each tree is 4
PINNED_ROWS = [
    ((1, 1, 2, 1), "S2", PIN_1121_S2),
    ((2, 2, 1, 1), "SMa", PIN_2211_SMA),
    ((2, 2, 1, 1), "SMb", PIN_2211_SMB),
    ((2, 1, 2, 0), "M3", PIN_2120_M3),
    ((1, 0, 2, 2), "Mb", PIN_1022_MB),
]

# -- kept leaf counts ----------------------------------------------------------
# Each tree needs a count the keep rule (`reduction.kept_count`) reads from
# the residual table: shrinking that class to its fewest leaves first gives a
# worse tau*.  Criterion 2's draws (one Random(2024), 200 draws per
# composition in known_compositions() order, counted from 0).
#
# Composition (2, 0, 2, 3), optimum 5: with two A and two clean leaves the
# three AB leaves go to the residual lookup.  Shrinking them to one first
# gives tau* 6.  Draw 20 of this composition.

AB_GATE_2023 = bt(
    {
        0: "b", 1: "b", 2: "b", 3: "b", 4: "b", 5: "bA", 6: "b", 7: "bB", 8: "b", 9: "b",
        10: "b", 11: "bA", 12: "b", 13: "bAB", 14: "b", 15: "bAB", 16: "b", 17: "b",
        18: "b", 19: "bAB", 20: "b", 21: "bA",
    },
    [
        (0, 2), (0, 5), (0, 7), (1, 3), (1, 11), (1, 20), (2, 3), (4, 5), (4, 12), (4, 14),
        (4, 18), (6, 7), (6, 8), (6, 16), (8, 9), (9, 10), (12, 13), (14, 15), (16, 17),
        (18, 19), (20, 21),
    ],
)

# Composition (2, 2, 0, 4), optimum 4: with two A, two B and no clean leaf
# the four AB leaves go to the residual lookup.  Shrinking them to two first
# gives tau* 5.  Draw 1 of this composition.

KEEP_AB4_2204 = bt(
    {
        0: "b", 1: "bB", 2: "b", 3: "b", 4: "b", 5: "b", 6: "bAB", 7: "b", 8: "bA", 9: "b",
        10: "bA", 11: "b", 12: "bAB", 13: "b", 14: "bB", 15: "b", 16: "bAB", 17: "bAB",
        18: "b", 19: "bAB", 20: "b", 21: "bAB", 22: "bB", 23: "bA", 24: "gAB",
    },
    [
        (0, 2), (0, 5), (0, 7), (1, 3), (1, 9), (1, 23), (2, 3), (4, 5), (4, 15), (4, 17),
        (4, 18), (4, 24), (6, 8), (6, 13), (6, 20), (7, 8), (9, 10), (11, 12), (11, 24),
        (13, 14), (15, 16), (18, 19), (20, 21), (21, 22),
    ],
)

# Composition (1, 1, 3, 0), optimum 5: with one A, one B and no AB leaf the
# three clean leaves go to the residual lookup.  Shrinking them to one first
# gives tau* 6.  Draw 37 of this composition.

KEEP_C3_1130 = bt(
    {
        0: "b", 1: "b", 2: "b", 3: "b", 4: "bA", 5: "b", 6: "b", 7: "b", 8: "b", 9: "bB",
        10: "b", 11: "b",
    },
    [(0, 1), (0, 2), (1, 5), (1, 7), (1, 10), (2, 3), (2, 8), (3, 4), (5, 6), (8, 9), (10, 11)],
)

# -- lookup exit at the leaf bound ---------------------------------------------
# Composition (1, 1, 3, 0), optimum 5: one A, one B and no AB leaf, so the
# leaf bound is 3 + 1 plus the parity term.  Case S binds at that bound, and
# the lookup stops before its reduce case >>.  Criterion 2's draw 0 of this
# composition (seed 2024).

FLOOR_1130 = bt(
    {
        0: "b", 1: "bA", 2: "b", 3: "b", 4: "b", 5: "b", 6: "b", 7: "bB", 8: "b", 9: "b",
        10: "b", 11: "bA",
    },
    [(0, 1), (0, 10), (1, 2), (2, 3), (2, 5), (2, 6), (2, 8), (3, 4), (6, 7), (8, 9), (10, 11)],
)

# -- reducer re-run off the table ----------------------------------------------
# Composition (0, 0, 3, 2), leaf bound 4, optimum 5.  Under the solo
# hypothesis that keeps clean leaf 1, the three-to-one step spends 5..7 and
# node 2, holding the AB leaf 3, becomes an AB leaf: (0, 0, 1, 3) is outside
# the tables, so the reducer runs its phases again one level deeper.  The
# cheapest cover still comes from the hypothesis with no solo leaf.  The
# 8,605th draw of random_tagged_tree(random.Random(1), 20, 20).

RERUN_0032 = bt(
    {0: "bB", 1: "b", 2: "b", 3: "bAB", 4: "b", 5: "b", 6: "gAB", 7: "b", 9: "bAB", 11: "bAB"},
    [(0, 1), (0, 2), (0, 4), (2, 3), (3, 5), (3, 7), (4, 6), (6, 9), (6, 11)],
)
