"""End-to-end command line behaviour, run in process through main()."""

import os

import pytest

from graphcollapse import CanonicalForm, cli, graph_from_canonical
from graphcollapse.cli import main
from graphcollapse.contract import ReductionTrace
from graphcollapse.factories import complete, cycle, path
from graphcollapse.graphs import load_graph, to_edge_list_text

from helpers import SIX_POINT_ROWS, gstar, rp2_subdivision


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(to_edge_list_text(g))
    return str(p)


def write_text(tmp_path, text, name):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SQUARE_POINTS = "0 0\n1 0\n1 1\n0 1\n"


class TestCheck:
    def test_positive(self, tmp_path, capsys):
        assert main(["check", write_graph(tmp_path, path(4))]) == 0
        assert capsys.readouterr().out == "IS: yes\n"

    def test_negative(self, tmp_path, capsys):
        assert main(["check", write_graph(tmp_path, cycle(4))]) == 0
        assert capsys.readouterr().out == "IS: no\n"

    def test_any_order(self, tmp_path, capsys):
        assert main(
            ["check", "--any-order", write_graph(tmp_path, path(4))]
        ) == 0
        assert capsys.readouterr().out == "IS: yes\n"

    def test_any_order_on_a_long_path(self, tmp_path, capsys):
        assert main(["check", "--any-order", write_graph(tmp_path, path(1200))]) == 0
        assert capsys.readouterr().out == "IS: yes\n"

    def test_with_collapse_settled_by_homology_within_any_budget(self, tmp_path, capsys):
        # Euler characteristic 1 and a nonzero reduced Betti number: no
        # search, so a budget of 1 does not run out
        g = graph_from_canonical(CanonicalForm.from_hex("0008021edfe0"))
        assert main(["check", "--with-collapse", "--budget", "1", write_graph(tmp_path, g)]) == 0
        assert capsys.readouterr().out == "IS: no\nC: no\n"
        assert main(["collapse", "--budget", "1", write_graph(tmp_path, g)]) == 0
        assert capsys.readouterr().out == "collapsible: no\n"

    def test_with_collapse(self, tmp_path, capsys):
        assert main(
            ["check", "--with-collapse", write_graph(tmp_path, complete(4))]
        ) == 0
        assert capsys.readouterr().out == "IS: yes\nC: yes\n"

    def test_collapse_budget_exhausted(self, tmp_path, capsys):
        rc = main(
            [
                "check", "--with-collapse", "--budget", "2",
                write_graph(tmp_path, gstar()),
            ]
        )
        assert rc == 4
        assert capsys.readouterr().out == "IS: yes\nC: unknown\n"


class TestReduce:
    def test_reduces_to_point(self, tmp_path, capsys):
        assert main(["reduce", write_graph(tmp_path, path(4))]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "1 0"

    def test_trace_file_replays(self, tmp_path, capsys):
        g = gstar()
        src = write_graph(tmp_path, g)
        trace_path = tmp_path / "trace.txt"
        assert main(["reduce", "--trace", str(trace_path), src]) == 0
        capsys.readouterr()
        trace = ReductionTrace.from_text(trace_path.read_text(), g)
        assert trace.replay(g).n == 1

    def test_unusable_trace_path_prints_nothing(self, tmp_path, capsys):
        assert main(["reduce", "--trace", str(tmp_path), write_graph(tmp_path, path(3))]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_stuck_graph_returned_unchanged(self, tmp_path, capsys):
        assert main(["reduce", write_graph(tmp_path, cycle(4))]) == 0
        out = capsys.readouterr().out
        reduced = load_graph_text(out)
        assert reduced.n == 4 and reduced.m == 4

    def test_edge_extended(self, tmp_path, capsys):
        # C4 is stuck for both the vertex and the edge passes
        assert main(
            ["reduce", "--edges", write_graph(tmp_path, cycle(4))]
        ) == 0
        reduced = load_graph_text(capsys.readouterr().out)
        assert reduced == cycle(4)


def load_graph_text(text):
    import tempfile, os

    fd, name = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        return load_graph(name)
    finally:
        os.unlink(name)


class TestCollapse:
    def test_positive_with_witness(self, tmp_path, capsys):
        wit = tmp_path / "wit.txt"
        rc = main(
            ["collapse", "--witness", str(wit), write_graph(tmp_path, complete(4))]
        )
        assert rc == 0
        assert capsys.readouterr().out == "collapsible: yes\n"
        lines = wit.read_text().splitlines()
        assert len(lines) == 7
        assert all(" < " in line for line in lines)

    def test_unusable_witness_path_prints_nothing(self, tmp_path, capsys):
        assert main(["collapse", "--witness", str(tmp_path), write_graph(tmp_path, complete(4))]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_negative(self, tmp_path, capsys):
        assert main(["collapse", write_graph(tmp_path, cycle(4))]) == 0
        assert capsys.readouterr().out == "collapsible: no\n"

    def test_negative_writes_no_witness(self, tmp_path, capsys):
        wit = tmp_path / "wit.txt"
        assert main(["collapse", "--witness", str(wit), write_graph(tmp_path, cycle(4))]) == 0
        assert capsys.readouterr().out == "collapsible: no\n"
        assert not wit.exists()

    def test_budget_exhausted(self, tmp_path, capsys):
        rc = main(
            ["collapse", "--budget", "2", write_graph(tmp_path, gstar())]
        )
        assert rc == 4
        assert capsys.readouterr().out == "collapsible: unknown\n"


class TestHomology:
    def test_default_mod_two(self, tmp_path, capsys):
        assert main(["homology", write_graph(tmp_path, cycle(4))]) == 0
        assert capsys.readouterr().out == "H_0 1\nH_1 1\n"

    def test_integers(self, tmp_path, capsys):
        assert main(
            ["homology", "--integers", write_graph(tmp_path, cycle(6))]
        ) == 0
        assert capsys.readouterr().out == "H_0 1\nH_1 1\n"

    def test_integers_with_torsion(self, tmp_path, capsys):
        assert main(
            ["homology", "--integers", write_graph(tmp_path, rp2_subdivision())]
        ) == 0
        assert capsys.readouterr().out == "H_0 1\nH_1 0 [2]\nH_2 0\n"

    def test_odd_prime(self, tmp_path, capsys):
        assert main(
            ["homology", "--mod", "3", write_graph(tmp_path, complete(4))]
        ) == 0
        assert capsys.readouterr().out == "H_0 1\nH_1 0\nH_2 0\nH_3 0\n"

    def test_composite_modulus_rejected(self, tmp_path, capsys):
        rc = main(["homology", "--mod", "4", write_graph(tmp_path, cycle(4))])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_mod_and_integers_are_exclusive(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(4))
        # --mod 2 is the default modulus, which argparse would let through
        # had the option kept it as its default.
        for argv in (["--integers", "--mod", "4"], ["--mod", "2", "--integers"]):
            with pytest.raises(SystemExit) as exc:
                main(["homology", *argv, path])
            assert exc.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err

    def test_max_dim(self, tmp_path, capsys):
        assert main(
            ["homology", "--max-dim", "1", write_graph(tmp_path, complete(4))]
        ) == 0
        assert capsys.readouterr().out == "H_0 1\nH_1 0\n"


class TestVr:
    def test_points_to_csv(self, tmp_path, capsys):
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        assert main(["vr", "--points", pts]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "dim,birth_index,death_index,birth_eps,death_eps"
        assert "1,1,2,1,2" in lines

    def test_oracle_match(self, tmp_path, capsys):
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        assert main(["vr", "--points", pts, "--oracle"]) == 0
        assert capsys.readouterr().out.endswith("oracle: MATCH\n")

    def test_matrix_input(self, tmp_path, capsys):
        rows = "\n".join(" ".join(r) for r in SIX_POINT_ROWS)
        mat = write_text(tmp_path, rows + "\n", "mat.txt")
        assert main(["vr", "--matrix", mat, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("oracle: MATCH\n")
        assert any(line.startswith("1,2,4,") for line in out.splitlines())

    def test_explicit_thresholds(self, tmp_path, capsys):
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        assert main(["vr", "--points", pts, "--thresholds", "1,2"]) == 0
        out1 = capsys.readouterr().out
        assert main(["vr", "--points", pts, "--thresholds", "0,1,2"]) == 0
        assert capsys.readouterr().out == out1

    def test_bad_threshold_list(self, tmp_path, capsys):
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        rc = main(["vr", "--points", pts, "--thresholds", "zz"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", ","])
    def test_empty_threshold_list(self, tmp_path, capsys, text):
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        assert main(["vr", "--points", pts, "--thresholds", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threshold list is empty\n"

    def test_malformed_points(self, tmp_path, capsys):
        bad = write_text(tmp_path, "0 0\nx y\n", "bad.txt")
        rc = main(["vr", "--points", bad])
        assert rc == 3
        assert "bad coordinate" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        main(["vr", "--points", pts, "--oracle"])
        first = capsys.readouterr().out
        main(["vr", "--points", pts, "--oracle"])
        assert capsys.readouterr().out == first


class TestCensusCommand:
    def test_small_run(self, capsys):
        assert main(["census", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "n 4 6" in out
        assert "implication holds: yes" in out

    def test_check_order(self, capsys):
        assert main(["census", "--max-n", "4", "--check-order"]) == 0
        assert "order-gap 0" in capsys.readouterr().out

    def test_progress_lines_on_stderr(self, capsys):
        for _ in range(2):
            assert main(["census", "--max-n", "3"]) == 0
            assert capsys.readouterr().err == (
                "level 1: 1 graphs, 1 pass the deletion test\n"
                "level 2: 1 graphs, 1 pass the deletion test\n"
                "level 3: 2 graphs, 2 pass the deletion test\n"
            )

    def test_out_dir(self, tmp_path, capsys):
        assert main(["census", "--max-n", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "census_n3.txt").exists()

    def test_bad_max_n(self, capsys):
        rc = main(["census", "--max-n", "0"])
        assert rc == 3
        assert "max_n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,fragment",
        [
            (lambda lines: lines[:2] + lines[1:], ":3: canonical form 000360 is repeated"),
            (lambda lines: lines[:-1], ":1: level 3 has 1 graphs, not the 2 connected ones"),
            # the triangle's line becomes a second, non-canonical encoding of P3
            (
                lambda lines: [ln.replace("0003e0", "0003a0") for ln in lines],
                "error: form 0003a0 is not canonical: its graph's form is 000360",
            ),
        ],
        ids=["repeated-form", "missing-form", "non-canonical-form"],
    )
    def test_resuming_from_a_damaged_level_is_malformed_input(self, tmp_path, capsys, edit, fragment):
        assert main(["census", "--max-n", "3", "--out", str(tmp_path)]) == 0
        level = tmp_path / "census_n3.txt"
        header, *body = edit(level.read_text().splitlines())
        level.write_text("\n".join([f"census 3 {len(body)}"] + body) + "\n")
        capsys.readouterr()
        assert main(["census", "--max-n", "4", "--out", str(tmp_path)]) == 3
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "census_n4.txt").exists()

    def test_parallel_run_prints_the_serial_output(self, capsys):
        assert main(["census", "--max-n", "5", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["census", "--max-n", "5", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert "n 5 21" in serial


class TestErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_vr_needs_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vr"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["census"]])
    def test_jobs_above_cpu_count_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--jobs", str((os.cpu_count() or 1) + 1)])
        assert exc.value.code == 2
        assert "CPU count" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", ["check", "collapse", "census"])
    def test_budget_below_one_is_malformed_input(self, tmp_path, capsys, command, budget):
        graph = write_graph(tmp_path, gstar())
        args = {
            "check": ["check", "--with-collapse", graph],
            "collapse": ["collapse", graph],
            "census": ["census", "--max-n", "3"],
        }[command]
        assert main(args + ["--budget", budget]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: collapse_budget must be positive, got {budget}\n"

    def test_missing_file(self, capsys):
        rc = main(["check", "/nonexistent/graph.txt"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["homology_dir", "vr_points_dir", "census_out_file", "reduce_trace_dir"])
    def test_unusable_path_is_malformed_input(self, tmp_path, capsys, case):
        graph = write_graph(tmp_path, path(3))
        args = {
            "homology_dir": ["homology", str(tmp_path)],
            "vr_points_dir": ["vr", "--points", str(tmp_path)],
            "census_out_file": ["census", "--max-n", "3", "--out", graph],
            "reduce_trace_dir": ["reduce", "--trace", str(tmp_path), graph],
        }[case]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_broken_pipe_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise BrokenPipeError("stdout closed")

        monkeypatch.setattr(cli, "homology", broken)
        with pytest.raises(BrokenPipeError):
            main(["homology", write_graph(tmp_path, path(3))])

    def test_internal_value_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "barcode", broken)
        pts = write_text(tmp_path, SQUARE_POINTS, "pts.txt")
        with pytest.raises(ValueError, match="internal"):
            main(["vr", "--points", pts])

    def test_malformed_graph(self, tmp_path, capsys):
        bad = write_text(tmp_path, "2 1\n0 0\n", "bad.txt")
        rc = main(["check", bad])
        assert rc == 3
        assert "error:" in capsys.readouterr().err
