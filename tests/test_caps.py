"""The one cap rule at every site that applies it: a size equal to the
limit passes, one above it raises ResourceCapError carrying the limit,
whether the limit is an explicit ``cap`` or the module default."""

from fractions import Fraction

import pytest

from shatterlab import (ProbSpace, ResourceCapError, SetSystem, banned_count,
                        banseq, dims, generate, min_subcube_hitting, op_rank,
                        op_shatter, parity_problem, random_problem, run_vc_theorem,
                        random_graph, run_weak_law, setsystem, solutions, thicketvc,
                        tree_rank, typetree, vc_dimension, vc_shatter_function)
from shatterlab.dims import random_element_tree

ONE_SET = SetSystem(5, (1,))
# Built here, under the module default, so that a lowered default trips
# the capped call and not random_problem's own table cap.
RANDOM_5_1 = random_problem(5, 1, 2, 0)
RANDOM_4_2 = random_problem(4, 2, 2, 0)

# (module, name of its default limit, call(cap), size the call is capped on)
SITES = {
    "vc_dimension": (dims, "DEFAULT_VC_CAP",
                     lambda cap: vc_dimension(ONE_SET, cap=cap), 5),
    "vc_shatter_function": (dims, "DEFAULT_VC_CAP",
                            lambda cap: vc_shatter_function(ONE_SET, 2, cap=cap), 5),
    "op_rank": (dims, "DEFAULT_OP_CAP", lambda cap: op_rank(ONE_SET, 1, cap=cap), 5),
    "op_shatter": (dims, "DEFAULT_OP_CAP",
                   lambda cap: op_shatter(ONE_SET, 1, 2, cap=cap), 5),
    # j^n = 2^5 sequences of a filled table
    "solutions": (banseq, "DEFAULT_ENUM_CAP",
                  lambda cap: solutions(RANDOM_5_1, cap=cap), 32),
    # C(5,1) * 2^5 entries of an unfilled table, filled to count
    "fill": (banseq, "DEFAULT_ENUM_CAP",
             lambda cap: banned_count(parity_problem(5), cap=cap), 160),
    # C(5,2) * 2^5 table entries
    "check_table_cap": (banseq, "DEFAULT_ENUM_CAP",
                        lambda cap: banseq.check_table_cap(5, 2, 2, cap=cap), 320),
    # C(4,1) * 2^4 entries of an unfilled table
    "to_json_dict": (banseq, "DEFAULT_ENUM_CAP",
                     lambda cap: parity_problem(4).to_json_dict(cap=cap), 64),
    # C(5,2) * 2^2 rows of one flag per pattern
    "from_vc": (banseq, "DEFAULT_ENUM_CAP",
                lambda cap: banseq.from_vc(generate("thresholds", 5), 2, cap=cap), 40),
    # C(3,1) * 2^3 entries of the leaf table
    "from_element_tree": (banseq, "DEFAULT_ENUM_CAP",
                          lambda cap: banseq.from_element_tree(
                              random_element_tree(3, 1, 3, 0), SetSystem(3, (1,)), 1,
                              cap=cap), 24),
    # output tables C(3,1) * 2^3 and C(3,2) * 2^3; the source holds 2^4 sequences
    "reduce_hat": (banseq, "DEFAULT_ENUM_CAP",
                   lambda cap: banseq.reduce_hat(RANDOM_4_2, cap=cap), 24),
    "reduce_prime": (banseq, "DEFAULT_ENUM_CAP",
                     lambda cap: banseq.reduce_prime(RANDOM_4_2, cap=cap), 24),
    # C(5,2) * 2^5 entries drawn at once
    "random_problem": (banseq, "DEFAULT_ENUM_CAP",
                       lambda cap: random_problem(5, 2, 2, 0, cap=cap), 320),
    "min_subcube_hitting": (banseq, "DEFAULT_HITTING_CAP",
                            lambda cap: min_subcube_hitting(4, 2, cap=cap), 4),
    # 7 trials of one set
    "run_weak_law": (thicketvc, "DEFAULT_MC_CAP",
                     lambda cap: run_weak_law(ProbSpace.uniform(2), {0}, 3, Fraction(1, 2),
                                              7, 0, cap=cap), 7),
    # 5 trials x the 4 sets of thresholds:3
    "run_vc_theorem": (thicketvc, "DEFAULT_MC_CAP",
                       lambda cap: run_vc_theorem(ProbSpace.uniform(3),
                                                  generate("thresholds", 3), 3,
                                                  Fraction(1, 4), 5, 0, cap=cap), 20),
    # an empty family still holds one entry per trial
    "run_vc_theorem_no_sets": (thicketvc, "DEFAULT_MC_CAP",
                               lambda cap: run_vc_theorem(ProbSpace.uniform(3),
                                                          SetSystem(3, ()), 3,
                                                          Fraction(1, 4), 5, 0, cap=cap), 5),
    # memo states of the exact search on a 16-vertex graph of rank 3
    "tree_rank": (typetree, "DEFAULT_RANK_CAP",
                  lambda cap: tree_rank(random_graph(16, 0.3, 0), cap=cap), 108),
    "powerset": (setsystem, "DEFAULT_GENERATOR_CAP",
                 lambda cap: generate("powerset", 4, cap=cap), 4),
    "all_subsets_of_size_at_most": (
        setsystem, "DEFAULT_GENERATOR_CAP",
        lambda cap: generate("all_subsets_of_size_at_most", 4, 2, cap=cap), 4),
}


@pytest.mark.parametrize("explicit", [True, False], ids=["cap", "default"])
@pytest.mark.parametrize("site", SITES)
def test_cap_boundary(monkeypatch, site, explicit):
    module, default, call, size = SITES[site]

    def call_with_limit(limit):
        if explicit:
            return call(limit)
        monkeypatch.setattr(module, default, limit)
        return call(None)

    call_with_limit(size)
    with pytest.raises(ResourceCapError) as info:
        call_with_limit(size - 1)
    assert info.value.cap == size - 1
