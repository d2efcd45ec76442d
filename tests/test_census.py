"""Exhaustive small-graph catalogue and the implication survey built on it."""

import hashlib
import logging
import os

import pytest

from graphcollapse import census
from graphcollapse.canon import _masks_from_form, _search, canonical_form, graph_from_canonical
from graphcollapse.census import (
    _extend_level,
    Census,
    CensusConfig,
    CensusEntry,
    KNOWN_CONNECTED_COUNTS,
    MAX_CENSUS_N,
    build_census,
    check_conjecture,
    classify_graph,
    deletion_order_gap,
    format_level,
    generate_connected,
    parse_level,
)
from graphcollapse.errors import GraphFormatError, InputError, InternalInconsistencyError
from graphcollapse.factories import complete, cycle, octahedron, path
from graphcollapse.graphs import _component_masks

from helpers import (
    brute_canonical_key,
    connected_count_brute,
    gstar,
    reference_deletion_order_gap,
    reference_levels,
)


class TestGeneration:
    def test_counts_match_brute_force(self, census7):
        for n in range(1, 7):
            assert census7.counts()[n] == connected_count_brute(n)

    def test_level_seven_matches_published_count(self, census7):
        assert census7.counts()[7] == 853

    def test_known_count_table(self):
        assert [KNOWN_CONNECTED_COUNTS[n] for n in range(1, 8)] == [
            1, 1, 2, 6, 21, 112, 853,
        ]

    def test_forms_are_distinct_connected_and_sized(self, census7):
        for n, entries in census7.levels.items():
            forms = [e.form for e in entries]
            assert len(set(forms)) == len(forms)
            for e in entries[:20]:
                assert e.vertex_count == n
                g = graph_from_canonical(e.form)
                assert g.n == n
                assert len(g.connected_components()) == 1

    def test_levels_equal_deduplicated_generation_through_seven(self, census7):
        reference = reference_levels(7)
        for n in range(1, 8):
            assert [bytes(e.form) for e in census7.levels[n]] == [bytes(f) for f in reference[n]]

    def test_levels_are_the_known_classes_by_brute_force_through_six(self, census7):
        # names each class by the permutation-minimum encoding, not by
        # the package's own canonical form
        for n in range(1, 7):
            graphs = [graph_from_canonical(e.form) for e in census7.levels[n]]
            assert all(g.n == n and len(g.connected_components()) == 1 for g in graphs)
            keys = {brute_canonical_key(g) for g in graphs}
            assert len(keys) == len(graphs) == KNOWN_CONNECTED_COUNTS[n]

    def test_level_eight_matches_pinned_digest(self):
        # sha256 of the sorted hex forms, one per line: no reference
        # generation is cheap enough to check this level form by form
        forms = generate_connected(8)[8]
        assert len(forms) == KNOWN_CONNECTED_COUNTS[8] == 11117
        digest = hashlib.sha256("\n".join(sorted(f.hex() for f in forms)).encode()).hexdigest()
        assert digest == "b4a32a57082a54a7783c46acc456b61d8753c0fecaf1c57ef46018aceeec6bd2"

    def test_a_repeated_child_is_an_internal_error(self):
        parents = generate_connected(4)[4]
        with pytest.raises(InternalInconsistencyError, match="twice"):
            _extend_level(census._searched(parents + parents[:1]))

    def test_carried_parents_match_a_fresh_search_through_seven(self):
        level = census._level(1, ())
        for n in range(2, 8):
            level = census._level(n, level)
            for form, masks, gens in level:
                assert masks == _masks_from_form(form)
                every = range(1, 1 << n)
                fresh = [[p[v] for v in range(n)] for p in _search(masks)[2]]
                assert census._subset_orbit_representatives(n, gens, every) == census._subset_orbit_representatives(
                    n, fresh, every
                )

    def test_a_last_level_carries_its_masks_without_generators(self):
        level = census._level(1, ())
        for n in range(2, 7):
            parents, level = level, census._level(n, level)
            assert census._level(n, parents, last=True) == [(form, masks, ()) for form, masks, _ in level]

    def test_degree_bound_skips_no_subset_that_can_win(self):
        skipped = 0
        for forms in generate_connected(6).values():
            for form in forms:
                adj = _masks_from_form(form)
                k = len(adj)
                cuts = [_component_masks(adj, (1 << k) - 1 ^ 1 << v) for v in range(k)]
                deg = [m.bit_count() for m in adj]
                kept = set(census._candidate_subsets(deg, cuts))
                for s in range(1, 1 << k):
                    if s not in kept:
                        skipped += 1
                        assert census._rivals(adj, deg, cuts, s) is None
        # 2,967 of the 7,815 subsets of these parents are skipped.
        assert skipped == 2967

    def test_generate_connected_alone(self):
        levels = generate_connected(5)
        assert {n: len(v) for n, v in levels.items()} == {
            1: 1, 2: 1, 3: 2, 4: 6, 5: 21,
        }


class TestClassification:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(1), (True, True)),
            (complete(4), (True, True)),
            (path(5), (True, True)),
            (gstar(), (True, True)),
            (cycle(4), (False, False)),
            (octahedron(), (False, False)),
        ],
    )
    def test_known_graphs(self, g, expected):
        assert classify_graph(g) == expected

    def test_replay_rejects_a_witness_that_stops_short(self, monkeypatch):
        lift = census._lift

        def dropped(*args):
            pairs, point = lift(*args)
            return pairs[:-1], point

        monkeypatch.setattr(census, "_lift", dropped)
        with pytest.raises(InternalInconsistencyError, match="did not reach a point"):
            classify_graph(gstar())

    def test_replay_rejects_a_pair_that_is_not_free(self, monkeypatch):
        lift = census._lift

        def swapped(*args):
            pairs, point = lift(*args)
            # vertex 0 of K4 lies in three edges, so (0, 01) is not free
            return ((0b1, 0b11),) + pairs[1:], point

        monkeypatch.setattr(census, "_lift", swapped)
        with pytest.raises(InternalInconsistencyError, match="not a free pair"):
            classify_graph(complete(4))

    def test_replay_rejects_a_pair_that_is_not_elementary(self, monkeypatch):
        # (0, 012) is the free pair at vertex 0 of a triangle, but it
        # removes four faces, not two
        monkeypatch.setattr(census, "_lift", lambda *args: (((0b1, 0b111),), 0b100))
        with pytest.raises(InternalInconsistencyError, match="not elementary"):
            classify_graph(complete(3))

    def test_positive_entries_verified_collapsible(self, census7):
        for e in census7.entries():
            if e.in_strong:
                assert e.collapsible is True

    def test_no_undecided_entries(self, census7):
        assert all(e.collapsible is not None for e in census7.entries())


class TestConjectureReport:
    def test_holds_through_seven(self, census7):
        rep = check_conjecture(census7)
        assert rep.holds
        text = rep.to_text()
        assert "graphs 996" in text
        assert "violations 0" in text
        assert "undecided 0" in text
        assert "collapsible-but-not-positive 0" in text
        assert "implication holds: yes" in text

    def test_total_graph_count(self, census7):
        assert census7.total == 996

    def test_no_order_dependence_up_to_five(self):
        cen = build_census(CensusConfig(max_n=5))
        assert deletion_order_gap(cen) == ()

    def test_order_gap_equals_the_plain_search_through_seven(self, census7):
        assert deletion_order_gap(census7) == reference_deletion_order_gap(census7) == ()

    def test_order_gap_searches_no_graph_through_eight(self, census8, monkeypatch):
        # every graph the deletion test rejects through n=8 has Euler
        # characteristic other than 1 or a nonzero reduced Betti number
        searched = []
        monkeypatch.setattr(census, "is_strong_contractible_any_order", lambda g: searched.append(g) or True)
        assert deletion_order_gap(census8) == ()
        assert searched == []

    def test_order_gap_reads_the_graph_not_the_stored_flags(self, monkeypatch):
        # a tree marked rejected, and not collapsible, passes the gate and
        # lands in the gap; a 4-cycle marked collapsible never reaches the
        # search
        searched = []
        search = census.is_strong_contractible_any_order
        monkeypatch.setattr(census, "is_strong_contractible_any_order", lambda g: searched.append(g) or search(g))
        tree, square = canonical_form(path(4)), canonical_form(cycle(4))
        cen = Census({4: (CensusEntry(tree, 4, False, False), CensusEntry(square, 4, False, True))})
        assert deletion_order_gap(cen) == (tree.hex(),)
        assert searched == [graph_from_canonical(tree)]


class TestPersistenceOfLevels:
    def test_save_load_roundtrip(self, tmp_path, census7):
        small = Census({n: census7.levels[n] for n in range(1, 5)})
        small.save(tmp_path)
        assert (tmp_path / "census_n4.txt").exists()
        again = Census.load(tmp_path)
        assert again.levels == small.levels

    def test_build_resumes_from_saved_levels(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="graphcollapse")
        build_census(CensusConfig(max_n=4), out_dir=tmp_path)
        assert any("pass the deletion test" in line for line in caplog.messages)
        caplog.clear()
        resumed = build_census(CensusConfig(max_n=4), out_dir=tmp_path)
        assert len(caplog.messages) == 4
        assert all("loaded" in line for line in caplog.messages)
        assert resumed.counts() == {1: 1, 2: 1, 3: 2, 4: 6}

    def test_resume_rejects_a_level_with_the_wrong_count(self, tmp_path):
        build_census(CensusConfig(max_n=4), out_dir=tmp_path)
        level = tmp_path / "census_n4.txt"
        header, *body = level.read_text().splitlines()
        level.write_text("\n".join(["census 4 5"] + body[:5]) + "\n")
        assert parse_level(level.read_text())[0] == 4
        with pytest.raises(GraphFormatError, match="level 4 has 5 graphs, not the 6 connected ones"):
            build_census(CensusConfig(max_n=5), out_dir=tmp_path)

    def test_load_rejects_a_level_under_another_level_name(self, tmp_path):
        (tmp_path / "census_n5.txt").write_text(format_level(3, build_census(CensusConfig(max_n=3)).levels[3]))
        with pytest.raises(GraphFormatError, match="census_n5.txt:1: expected level 5, found 3"):
            Census.load(tmp_path)

    def test_wrong_count_names_the_header_line_after_a_note(self, tmp_path):
        build_census(CensusConfig(max_n=3), out_dir=tmp_path)
        level = tmp_path / "census_n3.txt"
        header, *body = level.read_text().splitlines()
        level.write_text("\n".join(["# note", "census 3 1", body[0]]) + "\n")
        with pytest.raises(GraphFormatError, match="census_n3.txt:2: level 3 has 1 graphs, not the 2 connected ones"):
            build_census(CensusConfig(max_n=4), out_dir=tmp_path)

    def test_level_name_mismatch_names_the_header_line_after_a_note(self, tmp_path):
        text = format_level(3, build_census(CensusConfig(max_n=3)).levels[3])
        (tmp_path / "census_n5.txt").write_text("# note\n" + text)
        with pytest.raises(GraphFormatError, match="census_n5.txt:2: expected level 5, found 3"):
            Census.load(tmp_path)

    def test_resume_rejects_a_non_canonical_parent_form(self, tmp_path):
        # 0003a0 is the path 0-2-1, a valid encoding of P3 whose
        # canonical form is 000360: the triangle's line now names P3
        # twice, in two different bytes.
        build_census(CensusConfig(max_n=3), out_dir=tmp_path)
        level = tmp_path / "census_n3.txt"
        level.write_text(level.read_text().replace("0003e0", "0003a0"))
        with pytest.raises(InputError, match="form 0003a0 is not canonical: its graph's form is 000360"):
            build_census(CensusConfig(max_n=4), out_dir=tmp_path)
        assert not (tmp_path / "census_n4.txt").exists()

    def test_format_parse_roundtrip(self, census7):
        text = format_level(5, census7.levels[5])
        n, entries = parse_level(text)
        assert n == 5
        assert entries == census7.levels[5]

    def test_undecided_flag_roundtrips(self):
        e = CensusEntry(canonical_form(path(3)), 3, False, None)
        text = format_level(3, (e,))
        assert " ?" in text
        assert parse_level(text)[1] == (e,)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("nope 3 1\nff 1 1\n", "expected header"),
            ("census 3\n", "expected header"),
            ("census 3 1\n000360 5 1\n", "bad flag"),
            ("census 3 2\n000360 1 1\n", "header says 2 entries"),
            ("census 3 2\n000360 1 1\n000360 1 1\n", "<census>:3: canonical form 000360 is repeated"),
        ],
    )
    def test_malformed_levels(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_level(text)


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ValueError, match="max_n"):
            build_census(CensusConfig(max_n=0))
        with pytest.raises(ValueError, match="max_n"):
            build_census(CensusConfig(max_n=MAX_CENSUS_N + 1))
        with pytest.raises(ValueError, match="collapse_budget"):
            build_census(CensusConfig(max_n=2, collapse_budget=0))

    def test_jobs_above_cpu_count_rejected(self):
        with pytest.raises(ValueError, match="CPU count"):
            CensusConfig(jobs=(os.cpu_count() or 1) + 1)

    def test_parallel_build_matches_serial(self):
        serial = build_census(CensusConfig(max_n=5))
        parallel = build_census(CensusConfig(max_n=5, jobs=2))
        assert serial.levels == parallel.levels
