"""A standing catalogue of mutants of src/apaths, each with the test that
kills it.

A mutant is one exact replacement in the source of one function. For each
entry, tests/test_mutants.py rebuilds the function from inspect.getsource
with the replacement made, patches the mutated code into the live function,
and runs the killer in-process: the killer must pass on the real code and
fail on the mutant. If the snippet no longer occurs exactly once, that test
fails and names the mutant, so a rewrite re-expresses its mutants here.

List only mutants that a test kills; an equivalent mutant has no killer.
A killer is named "module::function" or "module::Class::method", with the
test module as imported from tests/. It takes no fixtures, so it runs by a
plain call; a parametrized killer gets one case's values as args.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    function: str  # "module:function" or "module:Class.method", e.g. "apaths.search:_terminal_path_dfs"
    snippet: str  # occurs exactly once in the function's source
    replacement: str
    killer: str
    args: tuple = ()


MUTANTS = (
    # The one check of a length bound, in the engine.
    Mutant(
        "bound-accepts-lo-0",
        "apaths.search:_terminal_path_dfs",
        '_need_int("ell", lo, 1)',
        '_need_int("ell", lo, 0)',
        "test_search::TestFindInRange::test_rejects_zero_lo",
    ),
    Mutant(
        "bound-refuses-hi-equal-to-lo",
        "apaths.search:_terminal_path_dfs",
        '_need_int("cap", cap, lo)',
        '_need_int("cap", cap, lo + 1)',
        "test_search::TestFindInRange::test_k4_single_edges",
    ),
    Mutant(
        "bound-takes-a-float-ell",
        "apaths.search:_terminal_path_dfs",
        '_need_int("ell", lo, 1)',
        "pass",
        "test_search::test_a_non_int_argument_is_refused_before_any_node",
        ("shortest", 2.5),
    ),
    # The one check of a size, and of a vertex id.
    Mutant(
        "int-check-takes-a-bool",
        "apaths.graph:_need_int",
        "if type(value) is not int:",
        "if not isinstance(value, int):",
        "test_search::test_a_non_int_argument_is_refused_before_any_node",
        ("ball-cover-radius", True),
    ),
    Mutant(
        "graph-takes-a-float-size",
        "apaths.graph:Graph.__init__",
        '_need_int("n", n, 0)',
        "pass",
        "test_generators::test_a_size_that_is_not_an_int_is_refused",
        ("Graph", True),
    ),
    Mutant(
        "caterpillar-takes-one-leg",
        "apaths.generators:caterpillar_instance",
        '_need_int("legs", legs, 2)',
        "pass",
        "test_generators::test_a_size_below_its_least_value_is_refused",
        ("caterpillar_instance",),
    ),
    Mutant(
        "vertex-set-takes-a-float-id",
        "apaths.graph:vertex_mask",
        "type(v) is not int or ",
        "",
        "test_graph::TestGraphConstruction::test_a_vertex_set_is_a_mask_or_int_ids",
        ([0, True],),
    ),
    Mutant(
        "path-takes-a-float-id",
        "apaths.graph:path_mask",
        "type(v) is not int or ",
        "",
        "test_graph::TestComponentsAndPaths::test_invalid_sequences",
    ),
    # The liveness bound of the engine's branch points.
    Mutant(
        "region-bound-without-its-target-test",
        "apaths.search:_live_extensions",
        " or not free & targets:",
        ":",
        "test_search::TestLiveExtensions::test_a_free_region_without_a_target_kills_every_child_unflooded",
        (2, None),
    ),
    Mutant(
        "region-bound-without-its-size-test",
        "apaths.search:_live_extensions",
        "free.bit_count() < need - 1 or ",
        "",
        "test_search::TestLiveExtensions::test_a_small_free_region_kills_every_child_unflooded",
        (None,),
    ),
    Mutant(
        "flood-stops-without-a-target",
        "apaths.search:_live_extensions",
        "while not (reach & targets and reach.bit_count() >= need - 1):",
        "while not (reach.bit_count() >= need - 1):",
        "test_search::TestLiveExtensions::test_a_sibling_with_a_seed_in_a_flood_that_met_the_bound_is_live",
    ),
    Mutant(
        "spent-components-not-unioned",
        "apaths.search:_live_extensions",
        "region |= comp",
        "region = comp",
        "test_search::TestLiveExtensions::test_spent_components_count_together",
    ),
    Mutant(
        "seed-in-a-met-flood-is-dead",
        "apaths.search:_live_extensions",
        "if seeds & good:\n            continue",
        "if seeds & good:\n            live ^= low\n            continue",
        "test_search::TestLiveExtensions::test_a_sibling_with_a_seed_in_a_flood_that_met_the_bound_is_live",
    ),
    # The engine's free set: V minus the path and N(path - tip). The root
    # leaves it, and each child starts from free ^ ext, without the tip's
    # neighbours.
    Mutant(
        "root-left-free",
        "apaths.search:_terminal_path_dfs",
        "free = everything ^ root",
        "free = everything",
        "test_search::TestMinimalPaths::test_a_root_stops_at_its_first_splitting_terminal",
    ),
    Mutant(
        "children-keep-the-tips-neighbours",
        "apaths.search:_terminal_path_dfs",
        "after = free ^ ext",
        "after = free",
        "test_search::TestShortestLongInducedApath::test_triangle_ell_two_none",
    ),
    # The engine's minimal-path cap, on which every oracle rests: a terminal
    # at index f >= 1 caps every path through it at f if f >= lo (rule a: a
    # longer path is not minimal from its root), else at f + lo - 1 (rule b:
    # a longer path is not minimal from its far end).
    Mutant(
        "rule-b-one-vertex-short",
        "apaths.search:_terminal_path_dfs",
        "plen + lo - 1",
        "plen + lo - 2",
        "test_search::TestMinimalPaths::test_an_early_terminal_is_allowed",
    ),
    Mutant(
        "rule-b-one-vertex-long",
        "apaths.search:_terminal_path_dfs",
        "plen + lo - 1",
        "plen + lo",
        "test_search::TestMinimalPaths::test_an_early_terminal_is_allowed",
    ),
    Mutant(
        "rule-b-dropped",
        "apaths.search:_terminal_path_dfs",
        "else plen + lo - 1",
        "else len(adj)",
        "test_search::TestMinimalPaths::test_an_early_terminal_is_allowed",
    ),
    Mutant(
        "rule-a-at-any-length",
        "apaths.search:_terminal_path_dfs",
        "own = plen if plen >= lo",
        "own = plen if plen >= 1",
        "test_search::TestMinimalPaths::test_all_terminals_leave_paths_of_length_ell",
        (2,),
    ),
    Mutant(
        "cap-not-inherited",
        "apaths.search:_terminal_path_dfs",
        "term_cap = caps[plen - 1]",
        "term_cap = len(adj)",
        "test_search::TestMinimalPaths::test_an_early_terminal_is_allowed",
    ),
    # The engine's local node count: it overdraws on the same node as
    # _Budget.spend, and is settled into the shared budget on every exit.
    Mutant(
        "countdown-overdraws-one-node-late",
        "apaths.search:_terminal_path_dfs",
        "if left < 0:",
        "if left < -1:",
        "test_verify::TestVerifyBudget::test_empty_cover_is_one_search",
    ),
    Mutant(
        "countdown-never-settled",
        "apaths.search:_terminal_path_dfs",
        "budget.remaining = left",
        "pass",
        "test_search::TestBudget::test_engine_settles_its_count_into_the_shared_budget",
    ),
    # The oracles' one pipeline: the minimal paths, the paths that meet each
    # vertex's ball, grown one round at a time from the paths through it,
    # and one OR of those per path.
    Mutant(
        "witness-over-every-path",
        "apaths.search:_path_masks",
        "minimal=True",
        "minimal=False",
        "test_search_differential::TestOraclesAgainstReference::test_witness_is_the_first_family_over_the_minimal_paths",
    ),
    Mutant(
        "through-keeps-only-the-last-path",
        "apaths.search:_path_masks",
        "near[v] |= bit",
        "near[v] = bit",
        "test_search::TestCoverOracle::test_complete_radius_zero",
        (5,),
    ),
    Mutant(
        "meeting-balls-one-round-short",
        "apaths.search:_path_masks",
        "range(min(r, g.n))",
        "range(min(r, g.n) - 1)",
        "test_search::TestPerVertexMasks::test_one_joining_edge_is_incompatible_only_when_anti_complete",
    ),
    Mutant(
        "rounds-capped-too-low",
        "apaths.search:_path_masks",
        "min(r, g.n)",
        "min(r, g.n // 2)",
        "test_search::TestPerVertexMasks::test_a_radius_above_n_reaches_the_whole_component",
    ),
    Mutant(
        "compatibility-ors-only-the-last-vertex",
        "apaths.search:_compatibility",
        "hit |= near[v]",
        "hit = near[v]",
        "test_search::TestPerVertexMasks::test_one_joining_edge_is_incompatible_only_when_anti_complete",
    ),
    Mutant(
        "anti-complete-at-radius-0",
        "apaths.search:max_anticomplete_packing_with_witness",
        "cap, 1, budget",
        "cap, 0, budget",
        "test_search::TestPerVertexMasks::test_one_joining_edge_is_incompatible_only_when_anti_complete",
    ),
    Mutant(
        "cover-one-radius-too-far",
        "apaths.search:oracle_min_ball_cover",
        "_path_masks(g, terminals, ell, b, r)",
        "_path_masks(g, terminals, ell, b, r + 1)",
        "test_search::TestCoverOracle::test_complete_radius_zero",
        (5,),
    ),
    # The one check of a packing, which verify_packing and
    # extract_frame_paths both run: a pair touches iff a path is invalid or
    # path j meets path i's closed neighbourhood.
    Mutant(
        "pairs-skip-the-next-path",
        "apaths.graph:_packing_checks",
        "range(i + 1,",
        "range(i + 2,",
        "test_verify::TestVerifyPacking::test_shared_vertex_pair_fails_named",
    ),
    Mutant(
        "pairs-test-overlap-only",
        "apaths.graph:_packing_checks",
        "closed[i] & masks[j]",
        "masks[i] & masks[j]",
        "test_verify::TestVerifyPacking::test_paths_joined_by_one_edge_fail_named",
    ),
    Mutant(
        "pairs-let-an-invalid-path-pass",
        "apaths.graph:_packing_checks",
        "not (masks[i] and masks[j]) or ",
        "",
        "test_verify::TestVerifyPacking::test_out_of_range_id_fails_without_raising",
        ([(0, 1), (2, 4)],),
    ),
    Mutant(
        "endpoints-read-the-first-only",
        "apaths.graph:_packing_checks",
        "for v in (q[0], q[-1])",
        "for v in (q[0],)",
        "test_verify::TestVerifyPacking::test_endpoint_outside_terminals_fails",
    ),
    Mutant(
        "length-needs-more-than-ell",
        "apaths.graph:_packing_checks",
        "len(q) - 1 >= ell",
        "len(q) - 1 > ell",
        "test_verify::TestVerifyPacking::test_solver_output_passes",
    ),
    Mutant(
        "packing-reads-a-non-sequence",
        "apaths.graph:_packing_checks",
        "q = _as_path(p)",
        "q = tuple(p)",
        "test_verify::TestVerifyPacking::test_an_entry_that_is_no_sequence_is_no_path",
        (5,),
    ),
    # A path is a tuple, list or range (graph._as_path): anything else is no path.
    Mutant(
        "path-mask-reads-any-iterable",
        "apaths.graph:path_mask",
        "isinstance(p, (tuple, list, range))",
        "True",
        "test_graph::TestComponentsAndPaths::test_invalid_sequences",
    ),
    Mutant(
        "lift-zips-a-non-sequence",
        "apaths.solver:lift_path",
        "q = _as_path(p_h)",
        "q = p_h",
        "test_solver::TestReduceAndLift::test_lift_refuses_what_is_no_sequence",
        (5,),
    ),
    # A frame's ell and a cover's radii are ints, checked before use.
    Mutant(
        "frame-takes-any-ell",
        "apaths.frame:_check_inside_host",
        'viol = [] if type(fr.ell) is int and fr.ell >= 1 else [Violation("ell", fr.ell, "ell is no int >= 1")]',
        "viol = []",
        "test_frame::TestValidateFrame::test_an_ell_that_is_no_int_from_one_is_a_violation",
        (2.5,),
    ),
    Mutant(
        "radii-take-a-float",
        "apaths.verify:verify_certificate",
        " and type(cert.r1) is type(cert.r2) is int",
        "",
        "test_verify::TestVerifyCover::test_radii_that_are_no_ints_or_wrong_fail",
        (1.0, 4),
    ),
    # Mask walks clear the top bit, so members come out in decreasing order
    # until the one reverse.
    Mutant(
        "members-in-decreasing-order",
        "apaths.graph:mask_members",
        "    out.reverse()\n",
        "",
        "test_graph::TestMaskKernels::test_kernels_agree_on_fixed_masks",
        (375,),
    ),
    # The extension search starts from the rim, N(F) - F, outside Y~; a step
    # carries the rim forward, so no search reads all of F.
    Mutant(
        "rim-not-carried",
        "apaths.frame:_grown",
        "        rim=(fr.rim | mask_neighbors(adj, on_p ^ 1 << x)) & ~f,\n",
        "",
        "test_frame::TestExtendFrame::test_an_extension_search_reads_adjacency_in_proportion_to_its_path",
        (0,),
    ),
    Mutant(
        "rim-search-from-y-tilde",
        "apaths.frame:find_extension",
        "fr.rim & outside",
        "fr.rim",
        "test_frame_differential::test_extension_search_from_the_rim_is_the_search_from_abar",
    ),
    # The frame checker's mask tests on T's radius-2 balls B(v): A8 asks
    # for a hub in B(v) & B(u) at each non-tree F edge vu with an end in
    # region, and A9 that an outside vertex's F neighbours above first lie
    # in B(first).
    Mutant(
        "a8-without-the-lower-ball",
        "apaths.frame:_axiom_violations",
        "mask_ball(tree, 1 << v, -1, 2) & ",
        "",
        "test_frame_differential::test_mutated_frames_agree",
        (28,),
    ),
    Mutant(
        "a8-without-the-upper-ball",
        "apaths.frame:_axiom_violations",
        " & mask_ball(tree, 1 << u, -1, 2)",
        "",
        "test_frame_differential::test_mutated_frames_agree",
        (28,),
    ),
    Mutant(
        "a8-needs-the-lower-end-in-region",
        "apaths.frame:_axiom_violations",
        "else region",
        "else 0",
        "test_frame::TestValidateFrame::test_a8_names_a_chord_with_either_end_in_region",
    ),
    Mutant(
        "a9-skips-the-next-id",
        "apaths.frame:_axiom_violations",
        "-(2 << first)",
        "-(4 << first)",
        "test_frame::TestValidateFrame::test_an_outside_vertex_sees_tree_distant_consecutive_ids",
    ),
    # The shortest search and the solver's one pass per level, which every
    # length query runs.
    Mutant(
        "find-passes-no-cap",
        "apaths.search:find_induced_apath_in_range",
        "b, hi)",
        "b)",
        "test_search::TestFindInRange::test_a_path_beyond_hi_is_no_answer",
    ),
    Mutant(
        "find-without-hi-stops-at-lo",
        "apaths.search:find_induced_apath_in_range",
        "g.n if hi is None",
        "lo if hi is None",
        "test_search::TestLengthCap::test_find_with_no_upper_bound_stops_at_its_first_path",
    ),
    Mutant(
        "has-long-stops-at-ell",
        "apaths.search:has_long_induced_apath",
        "ell, g.n, b)",
        "ell, ell, b)",
        "test_search::TestLengthCap::test_has_long_stops_at_its_first_path",
    ),
    Mutant(
        "pass-stops-at-its-first-emit",
        "apaths.search:_shortest_path_until",
        "if len(best[0]) - 1 <= stop:",
        "if best:",
        "test_search::TestLengthCap::test_shortest_search_keeps_a_path_at_the_cap",
    ),
    Mutant(
        "pass-cap-never-shrinks",
        "apaths.search:_shortest_path_until",
        "return len(best[0]) - 2",
        "return None",
        "test_search::TestLengthCap::test_shortest_search_keeps_a_path_at_the_cap",
    ),
    Mutant(
        "pass-peels-a-path-of-length-2-ell",
        "apaths.solver:solve",
        "stop = ell if k == 1 else 2 * ell - 1",
        "stop = ell if k == 1 else 2 * ell",
        "test_solver::TestFrameStop::test_inner_level_stops_at_its_own_k",
    ),
    # The solver's loop and its fold over the cut levels.
    Mutant(
        "packing-fold-runs-forward",
        "apaths.solver:solve",
        "for _, cut in reversed(cuts):",
        "for _, cut in cuts:",
        "test_solver::TestLoopMatchesRecursion::test_many_peels",
        (150,),
    ),
    Mutant(
        "peel-appended",
        "apaths.solver:solve",
        "packed = (cut,) + packed",
        "packed = packed + (cut,)",
        "test_solver::TestSolveTraces::test_two_disjoint_edges_pack",
    ),
    Mutant(
        "radius-0-peel",
        "apaths.solver:solve",
        "keep = ~mask_ball(adj, to_mask(path), -1, 1)",
        "keep = ~mask_ball(adj, to_mask(path), -1, 0)",
        "test_solver::TestSolveTraces::test_k5_cover_is_one_edge",
    ),
)
