"""The named fixture zoo, seeded random families, and the graph on which
the checked height bound fails.

They live outside ``conftest.py`` so that test modules can import them by a
name no other test directory's ``conftest`` shadows.
"""

import random

from shatterlab import SetSystem, generate


def random_system(universe_size, max_sets, seed):
    rng = random.Random(seed)
    count = rng.randint(1, max_sets)
    masks = tuple(rng.randrange(1 << universe_size) for _ in range(count))
    return SetSystem(universe_size, masks, name=f"random({universe_size},{seed})")


def fixture_zoo():
    return [
        generate("powerset", 3),
        generate("powerset", 4),
        generate("singletons_with_empty", 5),
        generate("thresholds", 4),
        generate("thresholds", 6),
        generate("intervals", 4),
        generate("intervals", 5),
        generate("all_subsets_of_size_at_most", 5, 2),
        generate("all_subsets_of_size_at_most", 6, 1),
        SetSystem(3, (), name="empty_family"),
        SetSystem(4, (0b1010,), name="one_set"),
    ]


# A valid 10-vertex graph on which the checked height bound fails (ROADMAP
# item 8): its built type tree has height h = 4 and its tree rank is t = 2,
# so (h - 1)^t = 9 < n (t - 2)! = 10, while sum_{i <= t} C(h, i) = 11 >= n.
# Its tree-rank search stores 16 memo states.
HEIGHT_BOUND_COUNTEREXAMPLE = {
    "vertices": 10,
    "edges": [[0, 2], [0, 8], [0, 9], [1, 5], [1, 6], [1, 8], [3, 4], [4, 6],
              [5, 7], [5, 9], [7, 8]]}
