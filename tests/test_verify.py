from dataclasses import replace
from unittest import mock

import pytest

import apaths.verify as verify
from apaths import (
    BudgetExceededError,
    Check,
    Cover,
    Graph,
    GraphError,
    Report,
    SolveParams,
    ball,
    build_maximal_frame,
    caterpillar_instance,
    complete_instance,
    extract_frame_paths,
    solve,
    verify_certificate,
    verify_cover,
    verify_packing,
    verify_tightness_claims,
)
from apaths.graph import to_mask
from test_solver import calls_of


class TestVerifyPacking:
    def test_solver_output_passes(self):
        g = Graph(4, [(0, 1), (2, 3)])
        params = SolveParams(2, 1)
        cert = solve(g, {0, 1, 2, 3}, params)
        assert verify_certificate(g, {0, 1, 2, 3}, params, cert).passed

    def test_shared_vertex_pair_fails_named(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        report = verify_packing(
            g, {0, 1, 2, 3, 4}, SolveParams(2, 1), [(0, 1), (1, 2)]
        )
        assert not report.passed
        assert {c.name: c.witness for c in report.failures()} == {"pairs.anti_complete": [[0, 1]]}

    def test_paths_joined_by_one_edge_fail_named(self):
        # Disjoint, each a valid path, but 1-2 joins them: only the pair fails.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        report = verify_packing(g, {0, 1, 2, 3}, SolveParams(2, 1), [(0, 1), (2, 3)])
        assert {c.name: c.witness for c in report.failures()} == {"pairs.anti_complete": [[0, 1]]}

    def test_touching_pairs_are_listed_in_order(self):
        # On the path 0..10: paths 0 and 2 share vertex 1, paths 1 and 3 are
        # joined by 5-6, path 4 lies at distance 2 from path 3, and path 5
        # is no path, so it touches every other.
        g = Graph(11, [(i, i + 1) for i in range(10)])
        paths = [(0, 1), (4, 5), (2, 1), (6, 7), (9, 10), (3, 5)]
        report = verify_packing(g, range(11), SolveParams(6, 1), paths)
        failed = {c.name: c.witness for c in report.failures()}
        assert failed.keys() == {"path[5].valid", "path[5].induced", "pairs.anti_complete"}
        assert failed["pairs.anti_complete"] == [[0, 2], [0, 5], [1, 3], [1, 5], [2, 5], [3, 5], [4, 5]]

    @pytest.mark.parametrize("k", [0, 1, 2, 900])
    def test_report_holds_four_checks_per_path_and_two_more(self, k):
        # k paths (2v, 2v + 1) on a matching of 1,200 edges: a count, four
        # checks per path and one anti-completeness check, whatever k.
        g = Graph(2400, [(v, v + 1) for v in range(0, 2400, 2)])
        paths = [(2 * v, 2 * v + 1) for v in range(k)]
        report = verify_packing(g, range(2400), SolveParams(k, 1), paths)
        assert report.passed and len(report.checks) == 4 * k + 2
        assert report.checks[-1] == Check("pairs.anti_complete", True, [])
        assert not any(c.name.startswith("pair[") for c in report.checks)

    def test_chorded_path_fails_induced(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        report = verify_packing(g, {0, 2}, SolveParams(1, 2), [(0, 1, 2)])
        assert any(c.name == "path[0].induced" for c in report.failures())

    def test_wrong_count_fails(self):
        g = Graph(2, [(0, 1)])
        report = verify_packing(g, {0, 1}, SolveParams(2, 1), [(0, 1)])
        assert any(c.name == "count" for c in report.failures())

    def test_endpoint_outside_terminals_fails(self):
        g = Graph(3, [(0, 1), (1, 2)])
        report = verify_packing(g, {0, 1}, SolveParams(1, 2), [(0, 1, 2)])
        assert any("endpoints" in c.name for c in report.failures())

    def test_short_path_fails_length(self):
        g = Graph(2, [(0, 1)])
        report = verify_packing(g, {0, 1}, SolveParams(1, 3), [(0, 1)])
        assert any(c.name == "path[0].length" for c in report.failures())

    def test_empty_path_fails_valid(self):
        g = Graph(2, [(0, 1)])
        report = verify_packing(g, {0, 1}, SolveParams(1, 1), [()])
        assert any(c.name == "path[0].valid" for c in report.failures())

    @pytest.mark.parametrize(
        "paths",
        [
            [(0, -1)], [(0, 4)], [(0, 1), (2, -1)], [(0, 1), (2, 4)],
            [(0, 1.0)], [(True, 0)], [(0, 1), (2, "3")], [(0, 1), (None, 3)],
        ],
    )
    def test_out_of_range_id_fails_without_raising(self, paths):
        # An id outside 0..n-1, or one that is no int, fails the checks of
        # its own path, puts every pair its path is in among the touching
        # pairs, and is never looked up in the terminal mask.
        g = Graph(4, [(0, 1), (2, 3)])
        report = verify_packing(g, {0, 1, 2, 3}, SolveParams(len(paths), 1), paths)
        last = len(paths) - 1
        failed = {c.name: c.witness for c in report.failures()}
        assert {f"path[{last}].valid", f"path[{last}].endpoints_in_terminals"} <= failed.keys()
        assert failed.get("pairs.anti_complete") == ([[0, 1]] if last == 1 else None)
        assert all(name.startswith(f"path[{last}]") or name == "pairs.anti_complete" for name in failed)

    @pytest.mark.parametrize("entry", [5, None, {0, 1}, {0}, frozenset({2, 3}), iter([0, 1]), {0: 1}])
    def test_an_entry_that_is_no_sequence_is_no_path(self, entry):
        # A path is a tuple, list or range; anything else fails the four
        # checks of its own path and touches every other path, and the
        # call does not raise.
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        report = verify_packing(g, range(6), SolveParams(3, 1), [(0, 1), entry, [4, 5]])
        failed = {c.name: c.witness for c in report.failures()}
        assert failed == {
            "path[1].valid": entry,
            "path[1].induced": entry,
            "path[1].endpoints_in_terminals": (),
            "path[1].length": -1,
            "pairs.anti_complete": [[0, 1], [1, 2]],
        }

    def test_a_list_or_range_is_a_path(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        report = verify_packing(g, range(6), SolveParams(3, 1), [(0, 1), [2, 3], range(4, 6)])
        assert report.passed
        assert [c.witness for c in report.checks if c.name.endswith(".valid")] == [(0, 1), (2, 3), (4, 5)]

    def test_verify_and_extraction_run_the_one_packing_check_once(self):
        # verify_packing and extract_frame_paths share graph._packing_checks:
        # each call runs it once, on its own ends and ell.
        g, a = caterpillar_instance(4, 0)
        fr = build_maximal_frame(g, a, 3)
        with calls_of("_packing_checks", ("apaths.frame", "apaths.verify")) as calls:
            paths = extract_frame_paths(fr)
        assert [(h, ends, ell, sorted(out)) for h, ends, ell, out in calls] == [(g, fr.a_f, 3, paths)]
        with calls_of("_packing_checks", ("apaths.frame", "apaths.verify")) as calls:
            assert verify_packing(g, a, SolveParams(len(paths), 3), paths).passed
        assert calls == [(g, to_mask(a), 3, paths)]


class TestVerifyCover:
    @pytest.mark.parametrize(
        "z1, z2, failed",
        [
            ([99], [], {"z1.in_graph": [99]}),
            ([0], [-1, 4, 2], {"z2.in_graph": [-1, 4]}),
            ([5, 99], [7], {"z1.in_graph": [5, 99], "z2.in_graph": [7]}),
            (1 << 4, 0, {"z1.in_graph": 1 << 4}),
            (0, -1, {"z2.in_graph": -1}),
            ([1.0], [], {"z1.in_graph": [1.0]}),
            ([0], [None, 9, True, -1], {"z2.in_graph": [-1, 9, None, True]}),
            (True, 3.0, {"z1.in_graph": True, "z2.in_graph": 3.0}),
            (None, "ab", {"z1.in_graph": None, "z2.in_graph": ["a", "b"]}),
        ],
    )
    def test_out_of_range_id_fails_without_raising(self, z1, z2, failed):
        # A set naming an id outside 0..n-1 or one that is no int fails one
        # check, with those ids (the ints sorted first), the mask or the set
        # itself as witness, and no removal is searched.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with mock.patch.object(verify, "find_induced_apath_in_range") as search:
            report = verify_cover(g, {0, 3}, SolveParams(2, 1), z1, z2)
        assert not search.called and not report.passed
        assert {c.name: c.witness for c in report.failures()} == failed
        assert [c.name for c in report.checks] == [
            f"{name}.in_graph" if f"{name}.in_graph" in failed else f"{name}.size" for name in ("z1", "z2")
        ]

    @pytest.mark.parametrize(
        "z1, z2, failed",
        [
            ([0, 99, 98], [], {"z1.in_graph": [98, 99]}),
            ([], [7, 1, -1], {"z2.in_graph": [-1, 7]}),
            ([1, 2], [1], {}),
        ],
    )
    def test_one_shot_iterable_names_every_id_outside(self, z1, z2, failed):
        # Each set comes as an iterator, which can be read only once; the
        # witness names the ids after the first bad one too, and a cover
        # inside the graph passes.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        report = verify_cover(g, {0, 3}, SolveParams(2, 1), iter(z1), iter(z2))
        assert {c.name: c.witness for c in report.failures()} == failed

    def test_out_of_range_terminal_still_raises(self):
        # The terminals come from the instance, not the certificate.
        with pytest.raises(GraphError, match="vertex 9"):
            verify_cover(Graph(4, [(0, 1)]), {0, 9}, SolveParams(2, 1), [], [])

    def test_empty_cover_on_pathfree_graph(self):
        g = Graph(3, [])
        report = verify_cover(g, {0, 1}, SolveParams(2, 1), set(), set())
        assert report.passed

    def test_k5_edge_cover(self):
        g, a = complete_instance(5)
        report = verify_cover(g, a, SolveParams(2, 1), {0, 1}, {0, 1})
        assert report.passed

    def test_empty_z_on_live_graph_fails_with_witness(self):
        g = Graph(2, [(0, 1)])
        report = verify_cover(g, {0, 1}, SolveParams(2, 1), set(), set())
        bad = [c for c in report.failures() if c.name.endswith("path_free")]
        assert bad and all(c.witness == (0, 1) for c in bad)

    def test_oversized_z1_fails_bound(self):
        g, a = complete_instance(6)
        # k=2 leaves plenty of room for six vertices in z1
        assert verify_cover(g, a, SolveParams(2, 1), set(range(6)), {0}).passed
        # k=1 allows none at all
        report = verify_cover(g, a, SolveParams(1, 1), {0}, set())
        assert any(c.name == "z1.size" for c in report.failures())

    @pytest.mark.parametrize("r1, r2", [(1.0, 4), (True, 4), (1, 4.0), (0, 4)])
    def test_radii_that_are_no_ints_or_wrong_fail(self, r1, r2):
        # cover_radius() is 4 at ell 1; an equal float or bool is no radius.
        g, a = complete_instance(5)
        params = SolveParams(2, 1)
        cert = Cover(frozenset({0, 1}), frozenset({0, 1}), r1=r1, r2=r2)
        assert params.cover_radius() == 4
        assert {c.name: c.witness for c in verify_certificate(g, a, params, cert).failures()} == {"radii": (r1, r2)}

    def test_wrong_radius_fails(self):
        g, a = complete_instance(5)
        params = SolveParams(2, 1)
        cert = Cover(frozenset({0, 1}), frozenset({0, 1}), r1=1, r2=7)
        report = verify_certificate(g, a, params, cert)
        assert any(c.name == "radii" for c in report.failures())


    def test_removal_witness_speaks_host_ids(self):
        # z1 = {1} removes 0, 1 and 2; the surviving A-path is 3-4.
        g = Graph(5, [(i, i + 1) for i in range(4)])
        report = verify_cover(g, {0, 3, 4}, SolveParams(2, 1), {1}, set())
        failed = {c.name: c.witness for c in report.failures()}
        assert failed["z1.removal.path_free"] == (3, 4)


class TestVerifyBudget:
    """One budget bounds the distinct removal searches of a cover together."""

    # 5x5 grid, corner terminals: the longest induced corner path has
    # length 16, so at ell 17 every search exhausts, in 539 nodes each.
    GRID = Graph(
        25,
        [(5 * r + c, 5 * r + c + 1) for r in range(5) for c in range(4)]
        + [(5 * r + c, 5 * r + c + 5) for r in range(4) for c in range(5)],
    )
    CORNERS = {0, 4, 20, 24}

    # The grid plus a terminal-free path 25..65 to place a cover on: z1 = {25}
    # and z2 = {65} remove {25, 26} and 47..65 (radius 18 at ell 17), which
    # meet nowhere, so the three removed sets are pairwise distinct. None of
    # them touches the grid, so each search still spends 539 nodes.
    GRID_AND_PATH = Graph(66, list(GRID.edges()) + [(v, v + 1) for v in range(25, 65)])

    def test_empty_cover_is_one_search(self):
        # The empty cover removes the empty set in all three checks.
        params = SolveParams(2, 17, node_budget=1000)
        cert = solve(self.GRID, self.CORNERS, params)
        assert cert == Cover(frozenset(), frozenset(), 1, 18)
        report = verify_certificate(self.GRID, self.CORNERS, replace(params, node_budget=539), cert)
        assert report.passed and len(report.checks) == 6
        with pytest.raises(BudgetExceededError, match="verify_cover"):
            verify_certificate(self.GRID, self.CORNERS, replace(params, node_budget=538), cert)

    def test_params_budget_bounds_the_verifier(self):
        # No second budget: the params' node_budget is the verifier's.
        params = SolveParams(2, 17, node_budget=538)
        with pytest.raises(BudgetExceededError, match="verify_cover"):
            verify_cover(self.GRID, self.CORNERS, params, set(), set())

    def test_searches_share_one_budget(self):
        g, params = self.GRID_AND_PATH, SolveParams(2, 17)
        b1, b2 = ball(g, {25}, 1), ball(g, {65}, params.cover_radius())
        assert len({b1 & b2, b1, b2}) == 3
        assert verify_cover(g, self.CORNERS, replace(params, node_budget=3 * 539), {25}, {65}).passed
        with pytest.raises(BudgetExceededError):
            verify_cover(g, self.CORNERS, replace(params, node_budget=3 * 539 - 1), {25}, {65})
        # Each search fits in 1000 nodes; the three together do not.
        with pytest.raises(BudgetExceededError, match="verify_cover"):
            verify_cover(g, self.CORNERS, replace(params, node_budget=1000), {25}, {65})

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget):
        # The verifier takes its budget from SolveParams, which refuses it.
        with pytest.raises(ValueError, match="need node budget >= 1"):
            SolveParams(2, 17, node_budget=budget)


class TestRemovalSearches:
    """verify_cover searches each distinct removed set once, within one call."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """The arguments of every removal search verify_cover makes."""
        calls = []
        search = verify.find_induced_apath_in_range
        monkeypatch.setattr(
            verify, "find_induced_apath_in_range", lambda *args: calls.append(args) or search(*args)
        )
        return calls

    @staticmethod
    def verify_on_path(z1, z2):
        # Path 0..11 at ell 2, so the cover radius is 4: z1 = z2 = {5} removes
        # {4, 5, 6} inside 1..9, and z1 = {2}, z2 = {9} removes {1, 2, 3},
        # 5..11 and, where they meet, nothing.
        g = Graph(12, [(i, i + 1) for i in range(11)])
        return verify_cover(g, {0, 5, 11}, SolveParams(2, 2), z1, z2)

    @pytest.mark.parametrize(
        "z1,z2,count",
        [(set(), set(), 1), ({5}, {5}, 2), ({5}, set(), 2), (set(), {5}, 2), ({2}, {9}, 3)],
    )
    def test_one_search_per_distinct_set(self, searches, z1, z2, count):
        report = self.verify_on_path(z1, z2)
        assert len(searches) == count
        assert len(report.checks) == 5

    def test_empty_cover_searches_g_itself(self, searches, monkeypatch):
        # The empty cover removes nothing, so no subgraph is built: the one
        # search runs on g, with all of its terminals.
        cuts = []
        kept_subgraph = verify._kept_subgraph
        monkeypatch.setattr(verify, "_kept_subgraph", lambda *args: cuts.append(args) or kept_subgraph(*args))
        g = Graph(4, [(0, 1), (2, 3)])
        assert verify_cover(g, {0, 2}, SolveParams(2, 1), set(), set()).passed
        assert cuts == []
        assert len(searches) == 1 and searches[0][0] is g and searches[0][1] == 0b101

    def test_nothing_is_kept_across_calls(self, searches):
        # Each call builds a fresh Graph equal by value to the last one, so
        # a memo across calls would make a later call search less.
        for z1, z2, count in [({2}, {9}, 3), ({2}, {9}, 3), (set(), set(), 1), (set(), set(), 1)]:
            searches.clear()
            self.verify_on_path(z1, z2)
            assert len(searches) == count


class TestCheck:
    """A check is an immutable value: a name, a verdict and an optional witness."""

    def test_witness_defaults_to_none(self):
        assert Check("count", True).witness is None
        assert Check("count", True) == Check("count", True, None)

    def test_text_names_the_verdict(self):
        assert str(Check("count", True, (2, 2))) == "count: ok"
        assert str(Check("count", False)) == "count: FAIL"
        assert str(Check("count", False, (1, 2))) == "count: FAIL witness=(1, 2)"

    def test_equality_is_by_value(self):
        assert Check("count", True, (2, 2)) == Check("count", True, (2, 2))
        assert Check("count", True) != Check("count", False)
        assert Check("count", False, (1, 2)) != Check("count", False, (2, 1))
        assert Report("cover", [Check("count", True)]) == Report("cover", [Check("count", True)])
        assert Report("cover", [Check("count", True)]) != Report("cover", [Check("count", False)])

    def test_is_immutable(self):
        check = Check("count", True)
        with pytest.raises(AttributeError):
            check.ok = False


class TestTightness:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_family(self, n):
        assert verify_tightness_claims("complete", n).passed

    @pytest.mark.parametrize("k,r", [(2, 1), (2, 2)])
    def test_subdivided_family(self, k, r):
        assert verify_tightness_claims("subdivided", k, r).passed

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_complete_family_needs_two_vertices(self, n):
        # checked before K_n is built, so n = -1 is not a GraphError
        with pytest.raises(ValueError, match="need n >= 2"):
            verify_tightness_claims("complete", n)

    @pytest.mark.parametrize(
        "kind, n_or_k, r",
        [("complete", 3.0, 0), ("complete", True, 0), ("complete", 3, 1.5),
         ("subdivided", 2.0, 1), ("subdivided", 2, 1.0), ("subdivided", 2, True)],
    )
    def test_a_size_or_radius_that_is_no_int_is_refused(self, kind, n_or_k, r):
        # 3.0 reached range() as a size; a bool is no size or radius.
        with pytest.raises(ValueError, match="need an int "):
            verify_tightness_claims(kind, n_or_k, r)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_tightness_claims("moebius", 3)

    def test_report_shape(self):
        report = verify_tightness_claims("complete", 4)
        doc = report.to_dict()
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "max_anticomplete_packing",
            "min_radius0_cover",
        }
