import io
import json
import os
import random
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs, hypercube, outcome, subdivided_k33, three_long_runs

import neartree
from neartree.errors import InputError, ParseError, SizeCapError
from neartree.families import (
    UNIVERSAL,
    FunctionFamily,
    build_interval_splitter,
    coloring_family,
    verify_family,
)
from neartree.graph import (
    Graph,
    Instance,
    biconnected_blocks,
    complete_graph,
    cycle_graph,
    path_graph,
)
from neartree.harness import (
    RunConfig,
    _certifies_no,
    gen_hardness_gadget,
    gen_random_instance,
    main,
    parse_edge_set,
    parse_family,
    parse_graph,
    parse_trace,
    parse_witness,
    run,
    serialize_edge_set,
    serialize_family,
    serialize_graph,
    serialize_trace,
    serialize_witness,
)
from neartree.kernel import (
    CommonNbrContract,
    KernelTrace,
    LongPathContract,
    TwinDelete,
    kernelize,
)
from neartree.oracle import exact_decide, exact_opt
from neartree.witness import WitnessStructure, verify_witness


class TestGraphFormat:
    def test_p3(self):
        g = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
        assert g == path_graph([1, 2, 3])

    def test_comments_and_blanks(self):
        g = parse_graph("c hello\n\np 2 1\nc mid\ne 1 2\n")
        assert g.m == 1

    def test_round_trip_small(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                back = parse_graph(serialize_graph(g))
                assert back == g  # atlas ids are already 1..n

    def test_dangling_endpoint(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p 3 1\ne 1 5\n")
        assert "line 2" in str(err.value)

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p 3 2\ne 1 2\ne 2 1\n")
        assert "line 3" in str(err.value)

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p 3 2\ne 1 2\n")

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_graph("p 3 1\nedge 1 2\n")

    @pytest.mark.parametrize("text, message, line", [
        ("p 2 0\np 2 0\n", "duplicate header", 2),
        ("p 2\n", "header must be 'p <n> <m>'", 1),
        ("c x\np 2 0 0\n", "header must be 'p <n> <m>'", 2),
        ("p 2 x 1\n", "header must be 'p <n> <m>'", 1),
        ("p two 0\n", "header counts must be integers", 1),
        ("p 2 1.0\n", "header counts must be integers", 1),
        ("p -1 0\n", "header counts must be nonnegative", 1),
        ("p 2 -1\n", "header counts must be nonnegative", 1),
        ("e 1 2\np 2 1\n", "edge before header", 1),
        ("p 2 1\ne 1\n", "edge line must be 'e <u> <v>'", 2),
        ("p 2 1\ne 1 2 3\n", "edge line must be 'e <u> <v>'", 2),
        ("p 2 1\ne x\n", "edge line must be 'e <u> <v>'", 2),
        ("p 2 1\ne 1 x\n", "edge endpoints must be integers", 2),
        ("p 3 1\ne x 9\n", "edge endpoints must be integers", 2),
        ("p 3 1\ne 1 5\n", "endpoint outside 1..3", 2),
        ("p 3 1\n\ne 0 1\n", "endpoint outside 1..3", 3),
        ("p 3 1\ne 4 4\n", "endpoint outside 1..3", 2),
        ("p 2 1\ne 1 1\n", "self-loop", 2),
        ("p 3 2\ne 1 2\ne 1 2\n", "duplicate edge (1, 2)", 3),
        ("p 3 2\ne 3 2\ne 2 3\n", "duplicate edge (2, 3)", 3),
        ("p 3 1\nedge 1 2\n", "unknown line kind 'edge'", 2),
        ("p 3 0\nx\n", "unknown line kind 'x'", 2),
        ("P 3 0\n", "unknown line kind 'P'", 1),
        ("", "missing 'p' header", 1),
        ("c only a comment\n\n", "missing 'p' header", 1),
        ("p 3 2\ne 1 2\n", "header announced 2 edges, found 1", 1),
        ("c\np 3 0\ne 1 2\n", "header announced 0 edges, found 1", 1),
    ])
    def test_every_parse_error_names_its_line(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize("text", [
        "p 3 2\r\ne 1 2\r\ne 2 3\r\n",
        "p\t3\t2\ne\t1 2\n\te 2\t3",
        "  c indented comment\np 3 2\n   c\ne 1 2\ne 3 2\n",
        "cfoo\np 3 2\ncomment: e 1 3\ne 1 2\ne 2 3\n",
        "\n\n  \np 3 2\n\ne 1 2\n \t \ne 2 3\n\n",
    ])
    def test_spacing_and_comments_parse(self, text):
        assert parse_graph(text) == path_graph([1, 2, 3])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_round_trip_random(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    g = Graph.build(range(1, n + 1), chosen)
    assert parse_graph(serialize_graph(g)) == g


TRACE_HEAD = "instance k 1 ell 0\n"


class TestOtherFormats:
    def test_witness_round_trip(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        assert parse_witness(serialize_witness(w)).bags == w.bags

    def test_edge_set_round_trip(self):
        edges = frozenset({(1, 2), (3, 4)})
        assert parse_edge_set(serialize_edge_set(edges)) == edges

    def test_family_round_trip(self):
        fam = build_interval_splitter(5, 2, 2)
        header, body = serialize_family(fam).split("\n", 1)
        # a bare "c" line is a comment here, as in every other format
        for text in (serialize_family(fam), f"c\n{header}\nc\n{body}"):
            back = parse_family(text)
            assert back.functions == fam.functions
            assert (back.n, back.q, back.kind, back.k) == (fam.n, fam.q, fam.kind, fam.k)

    def test_trace_round_trip(self):
        inst = Instance(cycle_graph(range(1, 11)), 1, 0)
        every_kind = KernelTrace((LongPathContract(((1, 2), (3, 4))),
                                  TwinDelete(5, frozenset({1, 3})),
                                  CommonNbrContract(((1, 6), (1, 7)), 2)), None)
        for red, trace in (kernelize(inst, 2.0), (inst, every_kind)):
            text = serialize_trace(inst, red, trace)
            k0, ell0, back = parse_trace(text)
            assert (k0, ell0) == (1, 0)
            assert back.steps == trace.steps
            assert back.resolved == trace.resolved

    @pytest.mark.parametrize("parse, text, message, line", [
        (parse_witness, "1 2\n3 x\n", "bag lines hold integers", 2),
        (parse_witness, "c\n1 2 1\n", "vertex 1 named twice in one bag", 2),
        (parse_witness, "", "empty witness", 1),
        (parse_witness, "c only a comment\n\n", "empty witness", 1),
        (parse_edge_set, "e 1 2\ne 1\n", "edge lines are 'e <u> <v>' or '<u> <v>'", 2),
        (parse_edge_set, "1 2 3\n", "edge lines are 'e <u> <v>' or '<u> <v>'", 1),
        (parse_edge_set, "e\n", "edge lines are 'e <u> <v>' or '<u> <v>'", 1),
        (parse_edge_set, "1 2\n\ne x 2\n", "edge endpoints must be integers", 3),
        (parse_edge_set, "e 1 2\ne 3 3\n", "self-loop", 2),
        (parse_edge_set, "4 4\n", "self-loop", 1),
        (parse_family, "family 2 2 interval 1\nfamily 2 2 interval 1\n", "duplicate family header", 2),
        (parse_family, "family 2 2 interval\n", "header must be 'family <n> <q> <kind> <k>'", 1),
        (parse_family, "c\nfamily 2 2 interval 1 0\n", "header must be 'family <n> <q> <kind> <k>'", 2),
        (parse_family, "family 2 x interval 1\n", "family header fields must be numeric", 1),
        (parse_family, "family 2 2 interval k\n", "family header fields must be numeric", 1),
        (parse_family, "1 2\nfamily 2 2 interval 1\n", "function line before family header", 1),
        (parse_family, "family 2 2 interval 1\n1 x\n", "function lines hold integers", 2),
        (parse_family, "family 2 2 interval 1\n1 2\n1 2 1\n", "function length differs from n=2", 3),
        (parse_family, "c only a comment\n", "missing family header", 1),
        (parse_family, "family -1 2 universal 0\n", "family header counts must be nonnegative", 1),
        (parse_family, "family 3 -2 universal 1\n", "family header counts must be nonnegative", 1),
        (parse_family, "family 3 2 universal -1\n1 2 1\n", "family header counts must be nonnegative", 1),
        (parse_family, "family 2 2 interval 1\n1 3\n", "color outside 1..2", 2),
        (parse_family, "family 2 2 interval 1\n1 2\n0 1\n", "color outside 1..2", 3),
        (parse_trace, "instance k 1\n", "instance line must be 'instance k <k> ell <ell>'", 1),
        (parse_trace, "instance x 1 ell 0\n", "instance line must be 'instance k <k> ell <ell>'", 1),
        (parse_trace, "instance k 1 ell x\n", "instance budgets must be integers", 1),
        (parse_trace, TRACE_HEAD + "resolved maybe\n", "resolved line must be 'resolved none|yes|no'", 2),
        (parse_trace, TRACE_HEAD + "resolved\n", "resolved line must be 'resolved none|yes|no'", 2),
        (parse_trace, TRACE_HEAD + "step twin\n", "twin step must be 'step twin <v> <neighbors>'", 2),
        (parse_trace, TRACE_HEAD + "step twin x 1\n", "twin step vertices must be integers", 2),
        (parse_trace, TRACE_HEAD + "step commonnbr\n",
         "commonnbr step must be 'step commonnbr <d> u1 v1 ...'", 2),
        (parse_trace, TRACE_HEAD + "step commonnbr 2 1 x\n",
         "contraction step fields must be integers", 2),
        (parse_trace, TRACE_HEAD + "step longpath 1 2 3\n", "contracted edges come as vertex pairs", 2),
        (parse_trace, TRACE_HEAD + "step longpath 3 3\n", "self-loop", 2),
        (parse_trace, TRACE_HEAD + "step commonnbr 2 1 2 4 4\n", "self-loop", 2),
        (parse_trace, TRACE_HEAD + "step\n", "unknown trace line 'step'", 2),
        (parse_trace, TRACE_HEAD + "step fold 1 2\n", "unknown trace line 'step fold'", 2),
        (parse_trace, "resolved none\n", "trace missing instance line", 1),
    ])
    def test_every_parse_error_names_its_line(self, parse, text, message, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)

    def test_trace_step_with_an_unpaired_vertex(self):
        with pytest.raises(ParseError):
            parse_trace("instance k 1 ell 0\nstep longpath 1 2 3\n")
        # missing or non-integer fields and an unknown resolution are parse errors too
        for bad in ("instance k 1", "instance k 1 ell x", "step twin", "step twin x 1 2",
                    "step commonnbr", "step commonnbr 2 1 x", "step", "resolved maybe",
                    "resolved"):
            with pytest.raises(ParseError):
                parse_trace(f"instance k 1 ell 0\n{bad}\n")


class TestGadget:
    def test_vertex_and_degree_law(self):
        for g in connected_graphs(4):
            for k in (1, 2):
                for ell in (1, 2):
                    inst = gen_hardness_gadget(g, k, ell)
                    assert inst.graph.n == g.n + ell * (k + 2)
                    anchor = min(g.vertices)
                    assert inst.graph.degree(anchor) == g.degree(anchor) + 2 * ell

    def test_p3_shapes(self):
        inst = gen_hardness_gadget(path_graph([1, 2, 3]), 1, 2)
        assert inst.graph.n == 9
        inst = gen_hardness_gadget(path_graph([1, 2, 3]), 1, 1)
        assert inst.graph.n == 6

    def test_spec_worked_example(self, oracle_cache):
        c4 = cycle_graph([1, 2, 3, 4])
        gadget = gen_hardness_gadget(c4, 2, 1)
        assert oracle_cache.decide(c4, 2, 0) == exact_decide(gadget) == True  # noqa: E712

    def test_tree_yes_transfers_forward(self, oracle_cache):
        # a tree-contraction solution of the base is verbatim a solution of
        # the gadget instance; this direction is airtight
        for g in connected_graphs(4):
            for k in (1, 2):
                for ell in (1, 2):
                    if not oracle_cache.decide(g, k, 0):
                        continue
                    gadget = gen_hardness_gadget(g, k, ell)
                    if gadget.graph.m > 24:
                        continue
                    assert exact_decide(gadget)

    def test_actual_decision_relation(self, oracle_cache):
        # the gadget decision against ground truth: yes iff the base
        # tree-contracts within k
        for n in (3, 4, 5):
            for g in connected_graphs(n):
                for k in (1, 2):
                    for ell in (1, 2):
                        gadget = gen_hardness_gadget(g, k, ell)
                        if gadget.graph.m > 24:
                            continue
                        want = oracle_cache.decide(g, k, 0)
                        assert exact_decide(gadget) == want, (sorted(g.edges), k, ell)

    def test_k0_rejected(self):
        with pytest.raises(Exception):
            gen_hardness_gadget(path_graph([1, 2, 3]), 0, 1)


class TestRandomInstances:
    def test_complete_at_p1(self):
        inst = gen_random_instance(5, 1.0, 1, 0, 3)
        assert inst.graph == complete_graph(range(1, 6))

    def test_k2(self):
        inst = gen_random_instance(2, 1.0, 0, 0, 3)
        assert inst.graph.m == 1

    def test_seed_determinism(self):
        a = gen_random_instance(9, 0.3, 1, 1, 77)
        b = gen_random_instance(9, 0.3, 1, 1, 77)
        assert a.graph == b.graph


class TestCli:
    def _write_c4(self, tmp_path):
        p = tmp_path / "c4.graph"
        p.write_text(serialize_graph(cycle_graph([1, 2, 3, 4])))
        return p

    def test_exact_yes(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        out = tmp_path / "witness.txt"
        code = main(["--mode", "exact", "--k", "2", "--ell", "0",
                     "--in", str(g), "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "result decision=yes cost=2 mode=exact" in printed
        assert parse_witness(out.read_text()).cost() == 2

    def test_kernel_refuses_an_alpha_that_is_not_a_finite_number_above_one(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        for alpha in ("nan", "inf", "-inf", "1"):
            assert main(["--mode", "kernel", f"--alpha={alpha}", "--k", "1", "--in", str(g)]) == 2
            assert capsys.readouterr() == ("", "error: the approximation factor must be finite "
                                               f"and exceed 1 (got {float(alpha)})\n"), alpha

    def test_rand_refuses_an_iteration_count_below_one(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        for iters in ("0", "-3"):
            assert main(["--mode", "rand", "--k", "1", "--iters", iters, "--in", str(g)]) == 2
            assert capsys.readouterr() == (
                "", f"error: random mode needs at least 1 coloring per block (got {iters})\n")

    def test_rand_default_count_survives_a_huge_k(self, tmp_path, capsys):
        # two K4s sharing vertex 4: the default count stops at 10 * q^n
        src = tmp_path / "two_k4.graph"
        src.write_text(serialize_graph(Graph.build(
            range(1, 8), list(complete_graph([1, 2, 3, 4]).edges)
            + list(complete_graph([4, 5, 6, 7]).edges))))
        assert main(["--mode", "rand", "--k", str(10**9), "--ell", "0", "--in", str(src)]) == 0
        assert "result decision=yes cost=4 mode=rand" in capsys.readouterr().out

    def test_kernel_refuses_a_lossy_rule_above_its_subset_cap(self, tmp_path, capsys):
        # 70 independent vertices, each on a cyclic window of 40 of 60 hubs:
        # at alpha 1.07 (d = 16) the rule would list 70 * C(40, 16) hub sets
        src = tmp_path / "windows.graph"
        src.write_text(serialize_graph(Graph.build(range(1, 131), {
            ((j + i) % 60 + 1, 61 + j) for j in range(70) for i in range(40)})))
        args = ["--mode", "kernel", "--k", "2", "--ell", "1", "--in", str(src)]
        start = time.perf_counter()
        assert main([*args, "--alpha", "1.07"]) == 2
        assert time.perf_counter() - start < 5
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the lossy rule at d=16 ")
        assert main([*args, "--alpha", "2"]) == 0
        assert capsys.readouterr().out == ("result decision=not-found cost=1 mode=kernel seed=0 "
                                           "reduced_n=128 reduced_k=1 resolved=none\n")

    def test_exhaustive_no(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        code = main(["--mode", "exhaustive", "--k", "1", "--ell", "0", "--in", str(g)])
        assert code == 1
        assert "result decision=no cost=2 mode=exhaustive" in capsys.readouterr().out

    def test_rand_miss_is_not_found(self, tmp_path, capsys):
        # C6 with chord 1-4 is a yes at k = 3 (exact mode finds cost 3), but
        # one coloring at seed 2 misses it: that is no certified no
        src = tmp_path / "c6_chord.graph"
        src.write_text(serialize_graph(Graph.build(
            range(1, 7), list(cycle_graph(range(1, 7)).edges) + [(1, 4)])))
        args = ["--k", "3", "--ell", "0", "--in", str(src)]
        assert main(["--mode", "exact", *args]) == 0
        assert "decision=yes cost=3" in capsys.readouterr().out
        assert main(["--mode", "rand", *args, "--iters", "1", "--seed", "2"]) == 1
        assert "result decision=not-found cost=4 mode=rand" in capsys.readouterr().out
        # rand mode ignores a family file, and its miss still certifies nothing
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(serialize_family(coloring_family(6, 3, 0)))
        assert main(["--mode", "rand", *args, "--iters", "1", "--seed", "2",
                     "--family-file", str(fam_file)]) == 1
        assert "result decision=not-found cost=4 mode=rand" in capsys.readouterr().out

    def test_rand_and_derand_agree(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        for mode in ("rand", "derand", "exhaustive", "exact"):
            code = main(["--mode", mode, "--k", "2", "--ell", "0",
                         "--in", str(g), "--seed", "5", "--iters", "300"])
            assert code == 0, mode
        capsys.readouterr()

    def test_verify_valid_and_invalid(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        w = tmp_path / "w.txt"
        w.write_text("1 2\n3\n4\n")
        assert main(["--mode", "verify", "--k", "1", "--ell", "1",
                     "--in", str(g), "--witness", str(w)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("1 3\n2\n4\n")
        code = main(["--mode", "verify", "--k", "1", "--ell", "1",
                     "--in", str(g), "--witness", str(bad)])
        assert code == 1
        assert "reason=disconnected-bag" in capsys.readouterr().out

    def test_exact_and_verify_check_k_and_ell_as_the_solving_modes_do(self, tmp_path, capsys):
        # a negative ell is an input error (exit 2) and a negative k a no
        src, w = tmp_path / "p3.graph", tmp_path / "w.txt"
        src.write_text(serialize_graph(path_graph([1, 2, 3])))
        w.write_text("1\n2\n3\n")
        for mode, extra in (("exact", []), ("verify", ["--witness", str(w)]),
                            ("exhaustive", []), ("derand", [])):
            assert main(["--mode", mode, "--k", "1", "--ell", "-1", "--in", str(src),
                         *extra]) == 2, mode
            assert capsys.readouterr() == ("", "error: excess allowance ell must be nonnegative\n")
        # a miss decided before any coloring is drawn is certified in rand mode too:
        # a negative k, a disconnected graph, and k = 0 above the allowance
        disconnected, triangle = tmp_path / "disconnected.graph", tmp_path / "triangle.graph"
        disconnected.write_text("p 4 1\ne 1 2\n")
        triangle.write_text(serialize_graph(cycle_graph([1, 2, 3])))
        for mode in ("exact", "exhaustive", "derand", "rand"):
            for graph, k, cost in ((src, -1, 0), (disconnected, 1, 2), (triangle, 0, 1)):
                assert main(["--mode", mode, "--k", str(k), "--ell", "0",
                             "--in", str(graph)]) == 1, (mode, graph.name)
                assert capsys.readouterr() == (
                    f"result decision=no cost={cost} mode={mode} seed=0\n", ""), (mode, graph.name)

    def test_kernel_then_lift(self, tmp_path, capsys):
        # C4 with a long tail: the tail shrinks, the C4 still needs 2 contractions
        from neartree.oracle import exact_opt

        tail = [(1, 5)] + [(i, i + 1) for i in range(5, 20)]
        g = Graph.build(range(1, 21),
                        [(1, 2), (2, 3), (3, 4), (1, 4)] + tail)
        big = tmp_path / "tailed.graph"
        big.write_text(serialize_graph(g))
        red = tmp_path / "reduced.graph"
        tr = tmp_path / "trace.txt"
        assert main(["--mode", "kernel", "--alpha", "2", "--k", "2", "--ell", "0",
                     "--in", str(big), "--out", str(red), "--trace", str(tr)]) == 0
        reduced = parse_graph(red.read_text())
        assert reduced.n < g.n
        f_red, size = exact_opt(reduced, 0, 2)
        assert size == 2
        sol = tmp_path / "sol.txt"
        sol.write_text(serialize_edge_set(f_red))
        code = main(["--mode", "lift", "--in", str(big), "--trace", str(tr),
                     "--sol", str(sol)])
        assert code == 0
        assert "decision=yes" in capsys.readouterr().out

    def _kernel_exact_lift(self, tmp_path, g, k, ell, solution=None):
        """kernel -> exact on the written reduced graph -> lift (to lifted.txt);
        returns the lift's exit code and the trace.  `solution` replaces exact's answer."""
        src, red, tr, sol = (tmp_path / f for f in ("g.graph", "red.graph", "tr.txt", "sol.txt"))
        src.write_text(serialize_graph(g))
        assert main(["--mode", "kernel", "--alpha", "2", "--k", str(k), "--ell", str(ell),
                     "--in", str(src), "--out", str(red), "--trace", str(tr)]) == 0
        if solution is None:  # the exact rules keep the budget
            solution, _ = exact_opt(parse_graph(red.read_text()), ell, k)
        sol.write_text(serialize_edge_set(solution))
        code = main(["--mode", "lift", "--in", str(src), "--trace", str(tr), "--sol", str(sol),
                     "--out", str(tmp_path / "lifted.txt")])
        return code, parse_trace(tr.read_text())[2]

    def test_kernel_exact_lift_through_several_runs(self, tmp_path, capsys):
        g = three_long_runs()
        code, trace = self._kernel_exact_lift(tmp_path, g, 2, 3)
        assert code == 0
        assert "result decision=yes cost=2 mode=lift" in capsys.readouterr().out
        assert len(trace.steps) == 1  # all three runs contract in one step

    def test_lift_rejects_ids_outside_the_reduced_graph(self, tmp_path, capsys):
        code, _ = self._kernel_exact_lift(tmp_path, three_long_runs(), 2, 3,
                                          solution={(1, 99)})
        assert code == 2
        assert "outside the reduced graph's 1..17" in capsys.readouterr().err

    def test_lift_says_no_to_an_edge_set_that_is_not_a_spanning_forest(self, tmp_path, capsys):
        # K3 at (2, 0): the kernel leaves it as it is, and all three edges
        # induce one bag of cost 2 <= k, but three edges are no solution
        k3 = cycle_graph([1, 2, 3])
        code, _ = self._kernel_exact_lift(tmp_path, k3, 2, 0, solution=k3.edges)
        assert code == 1
        assert capsys.readouterr().out.endswith("result decision=no cost=3 mode=lift seed=0\n")
        assert parse_edge_set((tmp_path / "lifted.txt").read_text()) == k3.edges

    def _lift_edited_k2_12_trace(self, tmp_path, capsys, edit) -> tuple[int, str, str]:
        """Kernel K2,12 (hubs 1 and 2) at (1, 0), which deletes four twins,
        then lift the empty solution through the edited trace."""
        src, tr, sol = tmp_path / "k2_12.graph", tmp_path / "tr.txt", tmp_path / "sol.txt"
        src.write_text(serialize_graph(Graph.build(range(1, 15), [
            (h, v) for h in (1, 2) for v in range(3, 15)])))
        assert main(["--mode", "kernel", "--k", "1", "--ell", "0", "--in", str(src),
                     "--out", str(tmp_path / "red.graph"), "--trace", str(tr)]) == 0
        assert tr.read_text().count("step twin") == 4
        tr.write_text(edit(tr.read_text()))
        sol.write_text("")
        capsys.readouterr()
        code = main(["--mode", "lift", "--in", str(src), "--trace", str(tr), "--sol", str(sol)])
        return (code, *capsys.readouterr())

    def test_lift_refuses_a_twin_step_with_other_neighbors(self, tmp_path, capsys):
        code, out, err = self._lift_edited_k2_12_trace(
            tmp_path, capsys, lambda text: text.replace(" 1 2\n", " 5\n"))
        assert code == 2 and out == ""
        assert err.startswith("error: trace mismatch: twin 14 ")

    def test_lift_refuses_a_commonnbr_step_that_is_not_a_star_of_d_edges(self, tmp_path, capsys):
        # d = 0 would raise the stage budget by one; d = 2 needs two edges
        for line in ("step commonnbr 0 1 3", "step commonnbr 2 1 3", "step commonnbr 2 1 3 2 4"):
            code, out, err = self._lift_edited_k2_12_trace(
                tmp_path, capsys, lambda text: text + line + "\n")
            assert code == 2 and out == "", line
            assert err.startswith("error: trace mismatch: commonnbr "), line

    def test_verify_refuses_a_vertex_named_twice_in_one_bag(self, tmp_path, capsys):
        # read as the bag {1, 2, 3}, this witness would be a yes of cost 2
        src, w = tmp_path / "c6.graph", tmp_path / "w.txt"
        src.write_text("p 6 7\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\ne 1 4\n")
        w.write_text("1 1 2 3\n4\n5\n6\n")
        assert main(["--mode", "verify", "--k", "2", "--ell", "1",
                     "--in", str(src), "--witness", str(w)]) == 2
        assert capsys.readouterr() == ("", "error: line 1: vertex 1 named twice in one bag\n")

    def test_a_shorter_output_over_a_longer_one_matches_a_fresh_run(self, tmp_path, capsys):
        # each output is rewritten in place: a file left longer by an earlier
        # run must end where the new text ends, byte for byte as a fresh file
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()
        c4 = self._write_c4(tmp_path)
        big = tmp_path / "big.graph"
        big.write_text(serialize_graph(self._tree_with_chorded_cycles()))
        assert main(["--mode", "exhaustive", "--k", "3", "--ell", "3", "--in", str(big),
                     "--out", str(reused / "w.txt")]) == 0
        assert self._kernel_exact_lift(reused, three_long_runs(), 2, 3)[0] == 0
        names = ("w.txt", "red.graph", "tr.txt", "lifted.txt")
        longer = {name: (reused / name).stat().st_size for name in names}
        for d in (reused, fresh):
            assert main(["--mode", "exhaustive", "--k", "2", "--ell", "0", "--in", str(c4),
                         "--out", str(d / "w.txt")]) == 0
            assert self._kernel_exact_lift(d, cycle_graph([1, 2, 3, 4]), 1, 1)[0] == 0
        for name in names:
            assert (reused / name).stat().st_size < longer[name], name
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        capsys.readouterr()

    def test_an_out_symlink_is_written_through(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        target, link, fresh = tmp_path / "target.txt", tmp_path / "link.txt", tmp_path / "fresh.txt"
        target.write_text("9 9 9\n" * 100)
        link.symlink_to(target)
        for out in (link, fresh):
            assert main(["--mode", "exact", "--k", "2", "--in", str(g), "--out", str(out)]) == 0
        assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
        capsys.readouterr()

    def test_an_existing_out_file_keeps_its_inode_and_mode(self, tmp_path, capsys):
        g, out = self._write_c4(tmp_path), tmp_path / "w.txt"
        out.write_text("9 9 9\n" * 100)
        out.chmod(0o600)
        before = out.stat()
        assert main(["--mode", "exact", "--k", "2", "--in", str(g), "--out", str(out)]) == 0
        after = out.stat()
        assert after.st_ino == before.st_ino and stat.S_IMODE(after.st_mode) == 0o600
        assert parse_witness(out.read_text()).cost() == 2
        capsys.readouterr()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_out_to_the_null_device(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        assert main(["--mode", "exact", "--k", "2", "--in", str(g), "--out", os.devnull]) == 0
        assert capsys.readouterr().out.startswith("result decision=yes ")

    def test_a_directory_as_out_is_an_error_without_a_result(self, tmp_path, capsys):
        g = self._write_c4(tmp_path)
        assert main(["--mode", "exact", "--k", "2", "--in", str(g), "--out", str(tmp_path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("error: [Errno ") and printed.err.count("\n") == 1

    def _kernel_inputs(self, tmp_path):
        """C4 with its kernel trace and a reduced solution on disk, for lift."""
        g, red, tr, sol = (tmp_path / f for f in ("c4.graph", "red.graph", "tr.txt", "sol.txt"))
        g.write_text(serialize_graph(cycle_graph([1, 2, 3, 4])))
        assert main(["--mode", "kernel", "--k", "2", "--in", str(g), "--out", str(red),
                     "--trace", str(tr)]) == 0
        sol.write_text(serialize_edge_set(exact_opt(parse_graph(red.read_text()), 0, 2)[0]))
        return g, tr, sol

    @pytest.mark.parametrize("mode, extra, flag", [
        ("exact", [], "--out"),
        ("rand", ["--iters", "50"], "--out"),
        ("exhaustive", [], "--out"),
        ("derand", [], "--out"),
        ("kernel", ["--trace", "tr2.txt"], "--out"),
        ("kernel", ["--out", "red2.graph"], "--trace"),
        ("lift", ["--trace", "tr.txt", "--sol", "sol.txt"], "--out"),
        ("family", ["--kind", "universal", "--n", "4", "--q", "4", "--fam-k", "4"], "--out"),
    ], ids=["exact", "rand", "exhaustive", "derand", "kernel-out", "kernel-trace", "lift", "family"])
    def test_dash_as_an_output_is_refused(self, mode, extra, flag, tmp_path, capsys, monkeypatch):
        # '-' reads stdin for every input; as an output it used to name a
        # file '-' in the working directory.  Each run is refused before it
        # reads or writes anything
        self._kernel_inputs(tmp_path)
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        argv = ["--mode", mode, "--k", "2", "--in", "c4.graph", *extra, flag, "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {flag} cannot be '-': outputs go to files, and '-' reads stdin\n")
        assert sorted(tmp_path.iterdir()) == before and not (tmp_path / "-").exists()

    def test_lift_still_reads_its_trace_from_stdin(self, tmp_path, capsys, monkeypatch):
        g, tr, sol = self._kernel_inputs(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(tr.read_text()))
        assert main(["--mode", "lift", "--in", str(g), "--trace", "-", "--sol", str(sol)]) == 0
        assert capsys.readouterr().out.startswith("result decision=yes cost=2 mode=lift")

    def test_lift_and_verify_need_their_input_files(self, tmp_path, capsys, monkeypatch):
        # an absent --trace, --sol or --witness is an error even with a valid
        # input on stdin: only an explicit '-' reads stdin for them
        g = self._write_c4(tmp_path)
        red, tr, w = tmp_path / "red.graph", tmp_path / "tr.txt", tmp_path / "w.txt"
        assert main(["--mode", "kernel", "--k", "2", "--in", str(g), "--out", str(red),
                     "--trace", str(tr)]) == 0
        assert main(["--mode", "exact", "--k", "2", "--in", str(g), "--out", str(w)]) == 0
        capsys.readouterr()
        sol = serialize_edge_set(exact_opt(parse_graph(red.read_text()), 0, 2)[0])
        witness = w.read_text()
        verify = ["--mode", "verify", "--k", "2", "--in", str(g)]
        for argv, stdin, flag in (
                (["--mode", "lift", "--in", str(g), "--trace", str(tr)], sol, "--sol"),
                (["--mode", "lift", "--in", str(g), "--sol", "-"], sol, "--trace"),
                (verify, witness, "--witness")):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv) == 2, flag
            assert capsys.readouterr() == (
                "", f"error: --mode {argv[1]} needs {flag} ('-' reads stdin)\n"), flag
        for argv, stdin in ((["--mode", "lift", "--in", str(g), "--trace", str(tr), "--sol", "-"], sol),
                            ([*verify, "--witness", "-"], witness),
                            (["--mode", "exact", "--k", "2"], g.read_text())):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv) == 0, argv
            assert capsys.readouterr().out.startswith("result decision=yes cost=2 "), argv

    def test_two_inputs_on_stdin_are_refused(self, tmp_path, capsys, monkeypatch):
        # the graph (--in unset or '-') and a second input cannot share
        # stdin: the second would read it empty, and lift would then print
        # a no for a solution never given
        g = self._write_c4(tmp_path)
        tr, fam = tmp_path / "tr.txt", tmp_path / "fam.txt"
        assert main(["--mode", "kernel", "--k", "2", "--in", str(g), "--out", str(tmp_path / "red"),
                     "--trace", str(tr)]) == 0
        assert main(["--mode", "family", "--kind", "universal", "--n", "4", "--q", "4",
                     "--fam-k", "4", "--out", str(fam)]) == 0
        capsys.readouterr()
        for argv, flags in (
                (["--mode", "lift", "--trace", str(tr), "--sol", "-"], "--in and --sol"),
                (["--mode", "lift", "--in", "-", "--trace", str(tr), "--sol", "-"], "--in and --sol"),
                (["--mode", "lift", "--in", str(g), "--trace", "-", "--sol", "-"], "--trace and --sol"),
                (["--mode", "verify", "--k", "2", "--witness", "-"], "--in and --witness"),
                (["--mode", "derand", "--k", "2", "--family-file", "-"], "--in and --family-file")):
            monkeypatch.setattr("sys.stdin", io.StringIO(g.read_text()))
            assert main(argv) == 2, argv
            assert capsys.readouterr() == (
                "", f"error: --mode {argv[1]}: only one input can read stdin, not {flags}\n"), argv
        # one input on stdin, the others from files: decided as before
        for argv, stdin in ((["--mode", "lift", "--in", str(g), "--trace", str(tr), "--sol", "-"],
                             "e 1 2\ne 2 3\n"),
                            (["--mode", "derand", "--k", "2", "--in", str(g), "--family-file", "-"],
                             fam.read_text()),
                            (["--mode", "derand", "--k", "2", "--family-file", str(fam)], g.read_text())):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv) == 0, argv
            assert capsys.readouterr().out.startswith("result decision=yes cost=2 "), argv

    def test_kernel_above_the_size_bound_stays_undecided(self, tmp_path, capsys):
        # a complete binary tree on 600 vertices plus the edge 2-3 is a yes at
        # k = 1, but no rule removes its leaves, so the kernel keeps 600 > 244
        # = size_bound(1, 0, 2) vertices: that must not read as a no
        tree = [(i, c) for i in range(1, 301) for c in (2 * i, 2 * i + 1) if c <= 600]
        src, red, tr, sol = (tmp_path / f for f in ("g.graph", "red.graph", "tr.txt", "sol.txt"))
        src.write_text(serialize_graph(Graph.build(range(1, 601), tree + [(2, 3)])))
        assert main(["--mode", "kernel", "--k", "1", "--ell", "0", "--in", str(src),
                     "--out", str(red), "--trace", str(tr)]) == 0
        line = capsys.readouterr().out
        assert "resolved=none" in line and "reduced_n=600" in line
        assert line.startswith("result decision=not-found cost=1 mode=kernel")
        assert main(["--mode", "exhaustive", "--k", "1", "--ell", "0", "--in", str(red)]) == 0
        listing = capsys.readouterr().out.split("edges=")[1].split()[0]
        sol.write_text(serialize_edge_set(tuple(map(int, p.split("-"))) for p in listing.split(",")))
        assert main(["--mode", "lift", "--in", str(src), "--trace", str(tr), "--sol", str(sol)]) == 0
        assert "result decision=yes cost=1 mode=lift" in capsys.readouterr().out

    def test_kernel_writes_reduced_instance_and_trace(self, tmp_path, capsys):
        left = [1, 2]
        right = list(range(3, 13))
        g = Graph.build(left + right, [(u, v) for u in left for v in right])
        src = tmp_path / "b210.graph"
        src.write_text(serialize_graph(g))
        red = tmp_path / "red.graph"
        tr = tmp_path / "tr.txt"
        assert main(["--mode", "kernel", "--alpha", "2", "--k", "1", "--ell", "0",
                     "--in", str(src), "--out", str(red), "--trace", str(tr)]) == 0
        assert parse_graph(red.read_text()).n < g.n
        k0, ell0, trace = parse_trace(tr.read_text())
        assert (k0, ell0) == (1, 0) and trace.steps
        capsys.readouterr()

    def test_family_build_and_verify(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.txt"
        assert main(["--mode", "family", "--kind", "interval",
                     "--n", "6", "--fam-k", "2", "--q", "2",
                     "--out", str(fam_file)]) == 0
        assert main(["--mode", "family", "--family-file", str(fam_file)]) == 0
        capsys.readouterr()

    def test_family_file_with_out_is_refused(self, tmp_path, capsys):
        fam_file, out = tmp_path / "fam.txt", tmp_path / "new.txt"
        fam_file.write_text(serialize_family(build_interval_splitter(5, 2, 2)))
        for builder in ([], ["--kind", "interval", "--n", "5", "--q", "2", "--fam-k", "2"]):
            assert main(["--mode", "family", "--family-file", str(fam_file),
                         "--out", str(out), *builder]) == 2, builder
            printed = capsys.readouterr()
            assert printed.out == "", builder
            assert printed.err.count("\n") == 1 and printed.err.startswith("error: "), builder
            assert "--family-file" in printed.err and "--out" in printed.err, builder
            assert not out.exists(), builder

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("p 2 1\ne 1 5\n")
        code = main(["--mode", "exact", "--k", "1", "--in", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unexpected_exception_exits_2(self, monkeypatch, capsys):
        import neartree.harness as harness

        def crash(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "run", crash)
        assert main(["--mode", "exact", "--k", "1"]) == 2
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_long_pendant_path_is_decided(self, tmp_path, capsys):
        # K5 with a 600-vertex pendant path, deeper than the default recursion
        # limit; derand builds its family over the 5-vertex block
        path = [(v, v + 1) for v in range(5, 605)]
        g = Graph.build(range(1, 606), list(complete_graph(range(1, 6)).edges) + path)
        src = tmp_path / "k5_tail.graph"
        src.write_text(serialize_graph(g))
        out = tmp_path / "witness.txt"
        for mode in ("exhaustive", "derand"):
            code = main(["--mode", mode, "--k", "3", "--ell", "1",
                         "--in", str(src), "--out", str(out)])
            assert code == 0, mode
            assert "decision=yes" in capsys.readouterr().out
            assert verify_witness(g, parse_witness(out.read_text()), 1, 3).valid

    def _write_two_c5(self, tmp_path):
        g = Graph.build(range(1, 10), list(cycle_graph([1, 2, 3, 4, 5]).edges)
                        + list(cycle_graph([1, 6, 7, 8, 9]).edges))
        p = tmp_path / "two_c5.graph"
        p.write_text(serialize_graph(g))
        return g, p

    def test_derand_family_spans_the_largest_block(self, tmp_path, capsys):
        # two C5 sharing a vertex: the family covers 5 vertices, not all 9
        g, src = self._write_two_c5(tmp_path)
        out = tmp_path / "witness.txt"
        for k, ell in ((1, 2), (3, 1)):
            code = main(["--mode", "derand", "--k", str(k), "--ell", str(ell),
                         "--in", str(src), "--out", str(out)])
            assert code == 0, (k, ell)
            assert "decision=yes" in capsys.readouterr().out
            assert verify_witness(g, parse_witness(out.read_text()), ell, k).valid

    def test_family_file_applies_by_rank_within_each_block(self, tmp_path, capsys):
        # two C5 sharing vertex 1, with chords 1-3 and 1-7: every vertex of
        # each 5-vertex block lies on a triangle or 4-cycle, so each block
        # needs a family over 5 positions
        g = Graph.build(range(1, 10), list(cycle_graph([1, 2, 3, 4, 5]).edges)
                        + list(cycle_graph([1, 6, 7, 8, 9]).edges) + [(1, 3), (1, 7)])
        src = tmp_path / "two_c5_chords.graph"
        src.write_text(serialize_graph(g))
        fam_file = tmp_path / "fam.txt"
        out = tmp_path / "witness.txt"
        args = ["--mode", "derand", "--k", "3", "--ell", "1", "--in", str(src),
                "--family-file", str(fam_file), "--out", str(out)]
        fam_file.write_text(serialize_family(coloring_family(5, 3, 1)))
        assert main(args) == 0
        assert "decision=yes" in capsys.readouterr().out
        assert verify_witness(g, parse_witness(out.read_text()), 1, 3).valid
        fam_file.write_text(serialize_family(coloring_family(4, 3, 1)))
        assert main(args) == 2
        assert "smaller than a block of 5 vertices" in capsys.readouterr().err

    def _write_c6_chord(self, tmp_path):
        p = tmp_path / "c6_chord.graph"
        p.write_text(serialize_graph(Graph.build(
            range(1, 7), list(cycle_graph(range(1, 7)).edges) + [(1, 4)])))
        return p

    def test_unverified_family_file_miss_is_not_found(self, tmp_path, capsys):
        # C6 with chord 1-4 is a yes at k = 3 (exact mode finds cost 3); a
        # one-function family misses it, so its miss certifies nothing
        args = ["--mode", "derand", "--k", "3", "--ell", "0",
                "--in", str(self._write_c6_chord(tmp_path))]
        fam_file = tmp_path / "fam.txt"
        for header in ("family 6 2 splitter 3", "family 6 2 universal 6"):
            fam_file.write_text(f"{header}\n1 2 1 2 1 2\n")
            assert main([*args, "--family-file", str(fam_file)]) == 1, header
            assert "result decision=not-found cost=4 mode=derand" in capsys.readouterr().out

    def test_verified_family_file_miss_is_a_no(self, tmp_path, capsys):
        # C7 needs 5 contractions; the greedy family for 6-subsets of 7
        # positions verifies, so its miss is a certified no
        src = tmp_path / "c7.graph"
        src.write_text(serialize_graph(cycle_graph(range(1, 8))))
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(serialize_family(coloring_family(7, 1, 0)))
        assert main(["--mode", "derand", "--k", "1", "--ell", "0", "--in", str(src),
                     "--family-file", str(fam_file)]) == 1
        assert "result decision=no cost=2 mode=derand" in capsys.readouterr().out

    def test_derand_matches_the_oracle_on_random_graphs(self, tmp_path, capsys):
        # derand takes the partition scan of every block; at (1, 0) a block
        # of more than 6 vertices is also decided with the greedy family for
        # it from a family file
        src, out, fam_file = tmp_path / "g.graph", tmp_path / "witness.txt", tmp_path / "fam.txt"
        family_legs = 0
        for n in range(4, 9):
            for seed in range(6):
                g = gen_random_instance(n, 0.45, 0, 0, seed=100 * n + seed).graph
                largest = max((b.n for b in biconnected_blocks(g)[0]), default=1)
                src.write_text(serialize_graph(g))
                for k in (1, 2):
                    for ell in (0, 1):
                        want = exact_decide(Instance(g, k, ell))
                        args = ["--mode", "derand", "--k", str(k), "--ell", str(ell),
                                "--in", str(src), "--out", str(out), "--seed", str(seed)]
                        legs = [args]
                        if (k, ell) == (1, 0) and largest > 6:
                            fam_file.write_text(serialize_family(
                                coloring_family(largest, 1, 0, seed=seed)))
                            legs.append([*args, "--family-file", str(fam_file)])
                            family_legs += 1
                        for leg in legs:
                            code = main(leg)
                            printed = capsys.readouterr().out
                            case = (sorted(g.edges), k, ell, leg[-1])
                            assert code == (0 if want else 1), case
                            assert ("decision=yes" if want else "decision=no ") in printed, case
                            if want:
                                assert verify_witness(
                                    g, parse_witness(out.read_text()), ell, k).valid, case
        assert family_legs > 0

    def test_rand_matches_the_oracle_on_random_graphs(self, tmp_path, capsys):
        # the graphs of the derand oracle test: a yes must verify and agree
        # with the oracle, a miss certifies nothing and must never read as a no
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        found = set()
        for n in range(4, 9):
            for seed in range(6):
                g = gen_random_instance(n, 0.45, 0, 0, seed=100 * n + seed).graph
                src.write_text(serialize_graph(g))
                for k in (1, 2):
                    for ell in (0, 1):
                        want = exact_decide(Instance(g, k, ell))
                        code = main(["--mode", "rand", "--k", str(k), "--ell", str(ell),
                                     "--in", str(src), "--out", str(out),
                                     "--seed", str(seed), "--iters", "30"])
                        printed = capsys.readouterr().out
                        case = (sorted(g.edges), k, ell)
                        assert "decision=no " not in printed, case
                        if code == 0:
                            assert want and "decision=yes" in printed, case
                            assert verify_witness(g, parse_witness(out.read_text()), ell, k).valid
                        else:
                            assert code == 1 and "decision=not-found" in printed, case
                        found.add((want, code))
        assert found == {(True, 0), (True, 1), (False, 1)}  # some yes instances are missed

    @staticmethod
    def _count_family_builds(monkeypatch) -> list:
        """Record every universal family a solve asks `families` for."""
        builds = []

        def counted(n, k, ell, seed=0):
            builds.append((n, k, ell, seed))
            return coloring_family(n, k, ell, seed=seed)

        monkeypatch.setattr(neartree.families, "coloring_family", counted)
        return builds

    def test_derand_decides_a_block_above_the_exhaustive_cap(self, tmp_path, capsys, monkeypatch):
        # C14 with chord 1-8 (girth 8) and the wheel of a hub and a 10-cycle:
        # one block of more than 10 vertices each.  At k = 3 no cycle of
        # C14's is short enough to lower its excess, so it is decided with no
        # scan; all 11 of the wheel's vertices lie on triangles, so derand
        # scans them, with no universal family built for either
        builds = self._count_family_builds(monkeypatch)
        c14_chord = Graph.build(range(1, 15), list(cycle_graph(range(1, 15)).edges) + [(1, 8)])
        wheel = Graph.build(range(1, 12), list(cycle_graph(range(2, 12)).edges)
                            + [(1, v) for v in range(2, 12)])
        src = tmp_path / "g.graph"
        for g, k in ((c14_chord, 3), (wheel, 2)):
            src.write_text(serialize_graph(g))
            assert not exact_decide(Instance(g, k, 0))
            assert main(["--mode", "derand", "--k", str(k), "--ell", "0", "--in", str(src)]) == 1
            captured = capsys.readouterr()
            assert f"result decision=no cost={k + 1} mode=derand" in captured.out
            assert captured.err == ""
            assert builds == [], g.n

    def test_derand_decides_early_exits_without_a_family(self, tmp_path, capsys):
        # C12 and C11 are already within excess ell, and at k <= 0 nothing is
        # scanned: derand answers each as exhaustive mode does
        c12_chord = Graph.build(range(1, 13), list(cycle_graph(range(1, 13)).edges) + [(1, 7)])
        yes = "result decision=yes cost=0 mode=derand seed=0 edges=none\n"
        src = tmp_path / "g.graph"
        for g, k, ell, code, line in (
                (cycle_graph(range(1, 13)), 1, 1, 0, yes),
                (cycle_graph(range(1, 12)), 2, 1, 0, yes),
                (c12_chord, 0, 1, 1, "result decision=no cost=1 mode=derand seed=0\n"),
                (c12_chord, -1, 0, 1, "result decision=no cost=0 mode=derand seed=0\n")):
            src.write_text(serialize_graph(g))
            assert main(["--mode", "derand", "--k", str(k), "--ell", str(ell),
                         "--in", str(src)]) == code, (g.n, k, ell)
            assert capsys.readouterr() == (line, ""), (g.n, k, ell)

    def test_derand_scans_blocks_within_the_cap_without_a_family(self, tmp_path, capsys,
                                                                  monkeypatch):
        # with every family build refused, derand still decides these: it
        # scans each block, and (a diamond beside a C12 at k = ell = 1)
        # decides the C12 before any scan
        def refuse(*args, **kwargs):
            raise AssertionError("derand built a family")

        monkeypatch.setattr(neartree.families, "build_universal_greedy", refuse)
        k27_hub = Graph.build(range(1, 10), [(1, 2)] + [(h, v) for h in (1, 2) for v in range(3, 10)])
        c9_chord = Graph.build(range(1, 10), list(cycle_graph(range(1, 10)).edges) + [(1, 5)])
        diamond_c12 = Graph.build(range(1, 16), list(cycle_graph([1, 2, 3, 4]).edges) + [(1, 3)]
                                  + list(cycle_graph([1, *range(5, 16)]).edges))
        src = tmp_path / "g.graph"
        for g, k, ell, code, line in (
                (k27_hub, 1, 0, 0, "result decision=yes cost=1 mode=derand seed=0 edges=1-2"),
                (c9_chord, 1, 0, 1, "result decision=no cost=2 mode=derand seed=0"),
                (c9_chord, 0, 1, 1, "result decision=no cost=1 mode=derand seed=0"),
                (diamond_c12, 1, 1, 0, "result decision=yes cost=1 mode=derand seed=0 edges=1-3")):
            src.write_text(serialize_graph(g))
            assert main(["--mode", "derand", "--k", str(k), "--ell", str(ell),
                         "--in", str(src)]) == code, (g.n, k, ell)
            assert capsys.readouterr() == (line + "\n", ""), (g.n, k, ell)

    def test_every_mode_follows_the_shape_not_the_ids(self, tmp_path, capsys):
        # every vertex here has its own degree and neighbour degrees, so each
        # scanning mode decides each relabelled copy the same way: the same
        # decision and cost and, for a yes, the image of the same witness.
        # The one 8-vertex block takes the partition scan at every budget in
        # derand and exhaustive mode, and a fixed count of seeded draws in rand
        edges = [(1, 2), (1, 3), (1, 4), (1, 8), (2, 3), (2, 5), (2, 6), (4, 8),
                 (5, 6), (5, 7), (6, 9), (8, 9)]
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        budgets = ((1, 0), (2, 0), (3, 0), (2, 2), (3, 1), (4, 0))
        for mode in ("derand", "exhaustive", "rand"):
            for k, ell in budgets:
                seen = set()
                for perm_seed in range(6):
                    ids = list(range(1, 10))
                    random.Random(perm_seed).shuffle(ids)
                    back = {new: old for old, new in enumerate(ids, start=1)}
                    src.write_text(serialize_graph(Graph.build(
                        range(1, 10), [(ids[u - 1], ids[v - 1]) for u, v in edges])))
                    code = main(["--mode", mode, "--k", str(k), "--ell", str(ell),
                                 "--in", str(src), "--out", str(out),
                                 "--seed", "3", "--iters", "12"])
                    bags = ()
                    if code == 0:
                        bags = tuple(sorted(tuple(sorted(back[v] for v in bag))
                                            for bag in parse_witness(out.read_text()).bags))
                        out.unlink()
                    line = capsys.readouterr().out.split(" edges=")[0]  # edges in the copy's ids
                    seen.add((code, line, bags))
                assert len(seen) == 1, (mode, k, ell, seen)
                if mode != "rand":
                    assert next(iter(seen))[0] == (1 if (k, ell) in ((1, 0), (2, 0)) else 0)

    @staticmethod
    def _exhaustive_and_derand(src, out, k: int, ell: int, capsys) -> list[tuple]:
        """(exit code, result line with mode= left out, witness) per mode."""
        printed = []
        for mode in ("exhaustive", "derand"):
            code = main(["--mode", mode, "--k", str(k), "--ell", str(ell),
                         "--in", str(src), "--out", str(out)])
            witness = out.read_text() if code == 0 else None
            if code == 0:
                out.unlink()
            printed.append((code, capsys.readouterr().out.replace(f" mode={mode} ", " "), witness))
        return printed

    def test_exhaustive_and_derand_print_the_same_answer(self, tmp_path, capsys):
        # both modes run the same scan on the same shape order, so they print
        # the same line (mode= aside) and witness
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        yes = 0
        for seed in range(16):
            n = 5 + seed % 5
            src.write_text(serialize_graph(gen_random_instance(n, 0.4, 0, 0, seed=seed).graph))
            for k in range(4):
                for ell in range(3):
                    printed = self._exhaustive_and_derand(src, out, k, ell, capsys)
                    assert printed[0] == printed[1], (seed, k, ell, printed)
                    yes += printed[0][0] == 0
        assert yes > 0

    def test_chorded_cycles_above_the_cap_match_the_oracle(self, tmp_path, capsys):
        # C11-C14 with 1-3 seeded chords, K2,9 with its hub edge and the
        # wheel of a hub and a 10-cycle: one block of more than 10 vertices
        # each, the last two with all 11 on triangles.  Exhaustive and derand
        # mode print the same line (mode= aside) and witness, and the oracle
        # agrees with their decision
        graphs = []
        for n in range(11, 15):
            for copy in range(2):
                rng = random.Random(f"chorded/{n}/{copy}")
                edges = set(cycle_graph(range(1, n + 1)).edges)
                while len(edges) < n + 1 + copy + n % 2:
                    edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
                graphs.append(Graph.build(range(1, n + 1), edges))
        graphs.append(Graph.build(range(1, 12), [(1, 2)] + [(h, v) for h in (1, 2)
                                                             for v in range(3, 12)]))
        graphs.append(Graph.build(range(1, 12), list(cycle_graph(range(2, 12)).edges)
                                  + [(1, v) for v in range(2, 12)]))
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        decided = set()
        for g in graphs:
            src.write_text(serialize_graph(g))
            for k in (1, 2):
                for ell in (0, 1):
                    printed = self._exhaustive_and_derand(src, out, k, ell, capsys)
                    case = (sorted(g.edges), k, ell)
                    assert printed[0] == printed[1], (case, printed)
                    assert printed[0][0] == (0 if exact_decide(Instance(g, k, ell)) else 1), case
                    decided.add(printed[0][0])
        assert decided == {0, 1}

    def test_exhaustive_and_derand_agree_above_the_cap(self, tmp_path, capsys, monkeypatch):
        # one block with 11 vertices on triangles each, which both modes
        # scan with no universal family: K2,9 with its hub edge is a yes at
        # (1, 0), the wheel of a hub and a 10-cycle a certified no at (2, 0).
        # Both print the same line (mode= aside) and witness, and --seed
        # changes neither
        builds = self._count_family_builds(monkeypatch)
        k29_hub = Graph.build(range(1, 12), [(1, 2)] + [(h, v) for h in (1, 2) for v in range(3, 12)])
        wheel = Graph.build(range(1, 12), list(cycle_graph(range(2, 12)).edges)
                            + [(1, v) for v in range(2, 12)])
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        for g, k, code, line in ((k29_hub, 1, 0, "result decision=yes cost=1 edges=1-2\n"),
                                 (wheel, 2, 1, "result decision=no cost=3\n")):
            src.write_text(serialize_graph(g))
            witnesses = set()
            for mode in ("exhaustive", "derand"):
                for seed in ("0", "7"):
                    assert main(["--mode", mode, "--k", str(k), "--ell", "0", "--in", str(src),
                                 "--out", str(out), "--seed", seed]) == code, (g.n, mode, seed)
                    printed = capsys.readouterr()
                    assert printed.err == "" and builds == [], (g.n, mode, seed)
                    assert printed.out.replace(f" mode={mode} seed={seed}", "") == line
                    if code == 0:
                        witnesses.add(out.read_text())
                        out.unlink()
                    assert not out.exists()
            assert len(witnesses) == (1 if code == 0 else 0), witnesses

    @staticmethod
    def _tree_with_chorded_cycles() -> Graph:
        """A 2,000-vertex random tree carrying a 6-, a 7- and an 8-cycle, each
        with a chord that cuts off a triangle (excess 2 per block)."""
        rng = random.Random(2000)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, 2001)]
        n = 2000
        for anchor, size in ((300, 6), (1200, 7), (1900, 8)):
            ring = [anchor, *range(n + 1, n + size)]
            n += size - 1
            edges += [*zip(ring, ring[1:] + ring[:1]), (ring[0], ring[2])]
        return Graph.build(range(1, n + 1), edges)

    def test_large_tree_with_chorded_cycles(self, tmp_path, capsys):
        # a contraction lowers the excess by the common neighbours of its
        # ends, so only a triangle edge helps: excess 6 -> 3 takes one per block
        g = self._tree_with_chorded_cycles()
        src, out = tmp_path / "big.graph", tmp_path / "witness.txt"
        src.write_text(serialize_graph(g))
        for mode in ("exhaustive", "derand"):
            for k, code, word in ((3, 0, "yes"), (2, 1, "no")):
                start = time.perf_counter()
                assert main(["--mode", mode, "--k", str(k), "--ell", "3",
                             "--in", str(src), "--out", str(out)]) == code, (mode, k)
                assert time.perf_counter() - start < 10, (mode, k)
                line = capsys.readouterr().out
                assert line.startswith(f"result decision={word} cost=3 mode={mode}"), line
                if code == 0:
                    assert verify_witness(g, parse_witness(out.read_text()), 3, 3).valid
                    out.unlink()

    @staticmethod
    def _child_env() -> dict:
        """The child finds the package where this test imported it from,
        installed or not."""
        package_root = str(Path(neartree.__file__).parents[1])
        return {**os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                             os.environ.get("PYTHONPATH")]))}

    def test_module_entrypoint(self, tmp_path):
        g = self._write_c4(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "neartree.harness", "--mode", "exact",
             "--k", "0", "--ell", "1", "--in", str(g)],
            capture_output=True, text=True, env=self._child_env())
        assert proc.returncode == 0
        assert "decision=yes" in proc.stdout

    def test_modes_that_build_no_universal_family_import_no_numpy(self, tmp_path, capsys):
        # numpy serves only building and verifying universal families, so a
        # child running every other solving and checking mode never loads it
        g, red, trace, sol, w = (str(tmp_path / f) for f in
                                 ("g.graph", "red.graph", "trace.txt", "sol.txt", "w.txt"))
        (tmp_path / "g.graph").write_text(serialize_graph(Graph.build(
            range(1, 7), list(cycle_graph(range(1, 7)).edges) + [(1, 4)])))
        budget = ["--k", "2", "--ell", "1"]
        assert main(["--mode", "kernel", *budget, "--in", g, "--out", red, "--trace", trace]) == 0
        assert main(["--mode", "exact", *budget, "--in", red]) == 0
        listing = capsys.readouterr().out.split("edges=")[-1].strip()
        (tmp_path / "sol.txt").write_text("".join(f"e {e.replace('-', ' ')}\n"
                                                  for e in listing.split(",") if e != "none"))
        runs = [["--mode", "exhaustive", *budget, "--in", g, "--out", w],
                ["--mode", "derand", *budget, "--in", g],
                ["--mode", "kernel", *budget, "--in", g, "--out", red, "--trace", trace],
                ["--mode", "exact", *budget, "--in", red],
                ["--mode", "lift", "--in", g, "--trace", trace, "--sol", sol],
                ["--mode", "verify", *budget, "--in", g, "--witness", w]]
        script = ("import json, sys, neartree, neartree.harness as harness\n"
                  "codes = [harness.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "print(codes, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              capture_output=True, text=True, env=self._child_env())
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False", proc.stdout + proc.stderr

    def test_no_solving_mode_hangs_on_a_long_chorded_cycle(self, tmp_path, capsys):
        # C30 with chords 1-4, 8-23 and 12-27 at (k, ell) = (2, 1): one
        # 30-vertex block, of which only the 4-cycle 1-2-3-4 is short enough
        # to matter, so the scanning modes answer and exhaustive and derand
        # mode agree.  K2,9 with its hub edge has all 11 vertices on
        # triangles: random mode's default would be 10 * 4^11 colorings, so
        # it is refused, while exhaustive and derand mode scan it.  The
        # 5-cube at (5, 30) passes the scan's work cap.  Each mode answers or
        # exits 2
        c30 = Graph.build(range(1, 31), list(cycle_graph(range(1, 31)).edges)
                          + [(1, 4), (8, 23), (12, 27)])
        k29_hub = Graph.build(range(1, 12), [(1, 2)] + [(h, v) for h in (1, 2) for v in range(3, 12)])
        every = ("exact", "rand", "exhaustive", "derand", "kernel")
        errors, decisions = {}, {}
        for name, g, k, ell, modes in (("c30", c30, 2, 1, every), ("k29", k29_hub, 2, 1, every),
                                       ("q5", hypercube(5), 5, 30, ("exhaustive", "derand"))):
            src = tmp_path / f"{name}.graph"
            src.write_text(serialize_graph(g))
            for mode in modes:
                proc = subprocess.run(
                    [sys.executable, "-m", "neartree.harness", "--mode", mode,
                     "--k", str(k), "--ell", str(ell), "--in", str(src)],
                    capture_output=True, text=True, env=self._child_env(), timeout=10)
                if proc.returncode == 2:
                    assert proc.stdout == "" and proc.stderr.startswith("error: "), (
                        name, mode, proc.stderr)
                    errors[name, mode] = proc.stderr
                else:
                    assert proc.stdout.startswith("result decision="), (name, mode, proc.stdout)
                    decisions[name, mode] = proc.stdout.split()[1]
        assert decisions["c30", "exhaustive"] == decisions["c30", "derand"]
        assert "give --iters" in errors["k29", "rand"]
        # K2,9 has 19 edges, so the oracle decides it too
        assert decisions["k29", "exhaustive"] == decisions["k29", "derand"] == decisions["k29", "exact"]
        # the work cap refuses the 5-cube: one error line that names the block
        for mode in ("exhaustive", "derand"):
            err = errors["q5", mode]
            assert err.count("\n") == 1 and "Traceback" not in err, mode
            assert err.startswith("error: a block of 32 vertices on short cycles passes the "
                                  "exhaustive scan's work cap of 1048576 "), (mode, err)
        # an explicit count is never capped
        assert main(["--mode", "rand", "--k", "2", "--ell", "1", "--in", str(tmp_path / "k29.graph"),
                     "--iters", "5"]) == 0
        assert capsys.readouterr().out.startswith("result decision=yes")

    def test_the_scan_work_cap_is_an_error_exit(self, tmp_path, capsys):
        # the 5-cube at (5, 30): all 32 vertices lie on 4-cycles, and the
        # scan passes its work cap, so each complete mode exits 2 with one
        # error line and writes no witness
        src, out = tmp_path / "q5.graph", tmp_path / "witness.txt"
        src.write_text(serialize_graph(hypercube(5)))
        for mode in ("exhaustive", "derand"):
            assert main(["--mode", mode, "--k", "5", "--ell", "30", "--in", str(src),
                         "--out", str(out)]) == 2, mode
            printed = capsys.readouterr()
            assert printed.out == "" and not out.exists(), mode
            assert printed.err == ("error: a block of 32 vertices on short cycles passes the "
                                   "exhaustive scan's work cap of 1048576 parts and partitions\n")

    def test_blocks_above_the_caps_are_decided_by_the_floor(self, tmp_path):
        # K3,3 with every edge subdivided twice (girth 12) and C2000 with chord
        # 1-1000 (girth 1000): one large block each, with no cycle short
        # enough for k = 1 to lower its excess.  Each mode decides
        # without a scan, quickly on C2000 only if the cycle search is bounded
        c2000 = Graph.build(range(1, 2001), list(cycle_graph(range(1, 2001)).edges) + [(1, 1000)])
        for name, g in (("k33", subdivided_k33()), ("c2000", c2000)):
            src = tmp_path / f"{name}.graph"
            src.write_text(serialize_graph(g))
            for mode, decision in (("exhaustive", "no"), ("derand", "no"), ("rand", "not-found")):
                proc = subprocess.run(
                    [sys.executable, "-m", "neartree.harness", "--mode", mode,
                     "--k", "1", "--ell", "1", "--in", str(src)],
                    capture_output=True, text=True, env=self._child_env(), timeout=5)
                assert proc.returncode == 1, (name, mode, proc.stderr)
                assert proc.stdout.startswith(f"result decision={decision} "), (name, mode)

    def test_a_chain_of_1000_triangles_is_decided_quickly(self, tmp_path):
        # triangle i on 2i - 1, 2i and 2i + 1: 1,000 blocks at (1, 999), a yes
        # of cost 1, decided in time linear in the blocks times ell
        edges = [e for i in range(1, 1001) for e in ((2 * i - 1, 2 * i), (2 * i, 2 * i + 1),
                                                     (2 * i - 1, 2 * i + 1))]
        src = tmp_path / "chain.graph"
        src.write_text(serialize_graph(Graph.build(range(1, 2002), edges)))
        proc = subprocess.run(
            [sys.executable, "-m", "neartree.harness", "--mode", "exhaustive",
             "--k", "1", "--ell", "999", "--in", str(src)],
            capture_output=True, text=True, env=self._child_env(), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("result decision=yes cost=1 ")

    def test_a_failed_certificate_is_an_error_under_python_O(self, tmp_path, capsys):
        # C5 at k = 3 is a yes in every solving mode; with every witness
        # rejected, the yes must not print, asserts stripped or not
        g = tmp_path / "c5.graph"
        g.write_text(serialize_graph(cycle_graph(range(1, 6))))
        script = ("import sys, neartree.harness as harness, neartree.witness as witness\n"
                  "witness.check_edges = lambda g, es, k, ell: ('quotient-outside-class', {})\n"
                  "sys.exit(harness.main(sys.argv[1:]))")
        for mode in ("exact", "exhaustive", "derand", "rand"):
            args = ["--mode", mode, "--k", "3", "--ell", "0", "--iters", "200", "--in", str(g)]
            assert main(args) == 0, mode
            assert "result decision=yes" in capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-O", "-c", script, *args],
                                  capture_output=True, text=True, env=self._child_env())
            assert proc.returncode == 2, (mode, proc.stdout, proc.stderr)
            assert "result" not in proc.stdout, mode
            assert "InternalError" in proc.stderr, mode


# a universal family for 10 of 20 positions: verifying it passes the cap
BIG_UNIVERSAL = FunctionFamily(20, 2, UNIVERSAL, 10, ((1,) * 20,))


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: gen_hardness_gadget(Graph.build([1, 2, 3], [(1, 2)]), 1, 1),
                 (InputError, "gadget base must be connected"), id="gadget-disconnected"),
    pytest.param(lambda: gen_hardness_gadget(path_graph([1, 2]), 1, 0),
                 (InputError, "gadget needs ell >= 1"), id="gadget-ell0"),
    pytest.param(lambda: gen_random_instance(5, 0, 1, 0, 0),
                 (InputError, "edge probability must be in (0, 1]"), id="random-p0"),
    pytest.param(lambda: gen_random_instance(65, 0.5, 1, 0, 0),
                 (InputError, "n must be in 1..64"), id="random-n65"),
    pytest.param(lambda: verify_family(BIG_UNIVERSAL),
                 (SizeCapError, "verification space 189190144 exceeds the cap 4000000"), id="verify-cap"),
    # so a miss over it certifies nothing: derand prints not-found
    pytest.param(lambda: _certifies_no(BIG_UNIVERSAL, cycle_graph(range(1, 5)), 1, 0), False,
                 id="certifies-no-past-the-cap"),
    pytest.param(lambda: run(RunConfig(mode="family", kind="nosuch")),
                 (InputError, "unknown family kind 'nosuch'"), id="unknown-family-kind"),
    pytest.param(lambda: run(RunConfig(mode="nosuch")), (InputError, "unknown mode 'nosuch'"),
                 id="unknown-mode"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
