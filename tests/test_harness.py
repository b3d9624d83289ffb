import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs

import neartree
from neartree.errors import ParseError
from neartree.families import build_interval_splitter
from neartree.graph import Graph, Instance, complete_graph, cycle_graph, path_graph
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
from neartree.kernel import kernelize
from neartree.oracle import exact_decide
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
        red, trace = kernelize(inst, 2.0)
        text = serialize_trace(inst, red, trace)
        k0, ell0, back = parse_trace(text)
        assert (k0, ell0) == (1, 0)
        assert back.steps == trace.steps
        assert back.resolved == trace.resolved


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
        assert "decision=no" in capsys.readouterr().out

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
        # K5 with a 600-vertex pendant path, deeper than the default recursion limit
        path = [(v, v + 1) for v in range(5, 605)]
        g = Graph.build(range(1, 606), list(complete_graph(range(1, 6)).edges) + path)
        src = tmp_path / "k5_tail.graph"
        src.write_text(serialize_graph(g))
        out = tmp_path / "witness.txt"
        code = main(["--mode", "exhaustive", "--k", "3", "--ell", "1",
                     "--in", str(src), "--out", str(out)])
        assert code == 0
        assert "decision=yes" in capsys.readouterr().out
        assert verify_witness(g, parse_witness(out.read_text()), 1, 3).valid

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
