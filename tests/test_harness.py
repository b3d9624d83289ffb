import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs, three_long_runs

import neartree
from neartree.errors import ParseError
from neartree.families import build_interval_splitter, coloring_family
from neartree.graph import (
    Graph,
    Instance,
    biconnected_blocks,
    complete_graph,
    cycle_graph,
    path_graph,
)
from neartree.harness import (
    gen_hardness_gadget,
    gen_random_instance,
    main,
    parse_edge_set,
    parse_family,
    parse_graph,
    parse_trace,
    parse_witness,
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


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_round_trip_random(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    g = Graph.build(range(1, n + 1), chosen)
    assert parse_graph(serialize_graph(g)) == g


class TestOtherFormats:
    def test_witness_round_trip(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        assert parse_witness(serialize_witness(w)).bags == w.bags

    def test_edge_set_round_trip(self):
        edges = frozenset({(1, 2), (3, 4)})
        assert parse_edge_set(serialize_edge_set(edges)) == edges

    def test_family_round_trip(self):
        fam = build_interval_splitter(5, 2, 2)
        back = parse_family(serialize_family(fam))
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

    def test_trace_step_with_an_unpaired_vertex(self):
        with pytest.raises(ParseError):
            parse_trace("instance k 1 ell 0\nstep longpath 1 2 3\n")


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
        """kernel -> exact on the written reduced graph -> lift; returns the
        lift's exit code and the trace.  `solution` replaces exact's answer."""
        src, red, tr, sol = (tmp_path / f for f in ("g.graph", "red.graph", "tr.txt", "sol.txt"))
        src.write_text(serialize_graph(g))
        assert main(["--mode", "kernel", "--alpha", "2", "--k", str(k), "--ell", str(ell),
                     "--in", str(src), "--out", str(red), "--trace", str(tr)]) == 0
        if solution is None:  # the exact rules keep the budget
            solution, _ = exact_opt(parse_graph(red.read_text()), ell, k)
        sol.write_text(serialize_edge_set(solution))
        code = main(["--mode", "lift", "--in", str(src), "--trace", str(tr), "--sol", str(sol)])
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
        g, src = self._write_two_c5(tmp_path)
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
        # blocks within 6k + 8 ell take the partition scan, larger ones a
        # greedy family (k = 1, ell = 0 and a block of 7 or 8 vertices)
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        routes = set()
        for n in range(4, 9):
            for seed in range(6):
                g = gen_random_instance(n, 0.45, 0, 0, seed=100 * n + seed).graph
                largest = max(b.n for b in biconnected_blocks(g))
                src.write_text(serialize_graph(g))
                for k in (1, 2):
                    for ell in (0, 1):
                        routes.add(largest <= 6 * k + 8 * ell)
                        want = exact_decide(Instance(g, k, ell))
                        code = main(["--mode", "derand", "--k", str(k), "--ell", str(ell),
                                     "--in", str(src), "--out", str(out), "--seed", str(seed)])
                        printed = capsys.readouterr().out
                        case = (sorted(g.edges), k, ell)
                        assert code == (0 if want else 1), case
                        assert ("decision=yes" if want else "decision=no ") in printed, case
                        if want:
                            assert verify_witness(g, parse_witness(out.read_text()), ell, k).valid
        assert routes == {True, False}

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

    def test_derand_decides_a_block_above_the_exhaustive_cap(self, tmp_path, capsys):
        # C14 with chord 1-8: one 14-vertex block, more than the exhaustive
        # cap, so derand scans the full 2^14 table instead
        g = Graph.build(range(1, 15), list(cycle_graph(range(1, 15)).edges) + [(1, 8)])
        src = tmp_path / "c14_chord.graph"
        src.write_text(serialize_graph(g))
        assert not exact_decide(Instance(g, 3, 0))
        assert main(["--mode", "derand", "--k", "3", "--ell", "0", "--in", str(src)]) == 1
        captured = capsys.readouterr()
        assert "result decision=no cost=4 mode=derand" in captured.out
        assert captured.err == ""

    def test_derand_follows_the_shape_not_the_ids(self, tmp_path, capsys):
        # every vertex here has its own degree and neighbour degrees, so
        # derand decides each relabelled copy the same way: the same decision
        # and cost and, for a yes, the image of the same witness; (1, 0) takes a
        # greedy family (one 8-vertex block), the others the partition scan
        edges = [(1, 2), (1, 3), (1, 4), (1, 8), (2, 3), (2, 5), (2, 6), (4, 8),
                 (5, 6), (5, 7), (6, 9), (8, 9)]
        src, out = tmp_path / "g.graph", tmp_path / "witness.txt"
        for k, ell in ((1, 0), (2, 0), (3, 0), (2, 2)):
            seen = set()
            for perm_seed in range(4):
                ids = list(range(1, 10))
                random.Random(perm_seed).shuffle(ids)
                back = {new: old for old, new in enumerate(ids, start=1)}
                src.write_text(serialize_graph(Graph.build(
                    range(1, 10), [(ids[u - 1], ids[v - 1]) for u, v in edges])))
                code = main(["--mode", "derand", "--k", str(k), "--ell", str(ell),
                             "--in", str(src), "--out", str(out)])
                bags = ()
                if code == 0:
                    bags = tuple(sorted(tuple(sorted(back[v] for v in bag))
                                        for bag in parse_witness(out.read_text()).bags))
                line = capsys.readouterr().out.split(" edges=")[0]  # edges in the copy's ids
                seen.add((code, line, bags))
            assert len(seen) == 1, (k, ell, seen)
            assert next(iter(seen))[0] == (1 if (k, ell) in ((1, 0), (2, 0)) else 0)

    def test_module_entrypoint(self, tmp_path):
        g = self._write_c4(tmp_path)
        # the child finds the package where this test imported it from,
        # installed or not
        package_root = str(Path(neartree.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                            os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "neartree.harness", "--mode", "exact",
             "--k", "0", "--ell", "1", "--in", str(g)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "decision=yes" in proc.stdout
