"""Tests of the benchmark itself: checker, failure counting, tracing, contract.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import env  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

mixdom = env.load_mixdom()
from mixdom import cli  # noqa: E402


@pytest.fixture
def session(tmp_path):
    s = workloads.Session(cli, tmp_path)
    yield s
    s.close()


def neighbourhoods(n, k):
    """Closed neighbourhood of each element, from the checker alone."""
    universe = set(range(5 * n))
    return [universe - set(checker.undominated(n, k, [e]).tolist()) for e in range(5 * n)]


@pytest.mark.parametrize("n,k", [(3, 1), (7, 2), (10, 3), (17, 4), (40, 7)])
def test_checker_neighbourhoods_have_seven_elements(n, k):
    assert all(len(nb) == 7 for nb in neighbourhoods(n, k))


@pytest.mark.parametrize("n,k", [(8, 1), (9, 2), (13, 3), (30, 5)])
def test_checker_agrees_with_package_verify(n, k):
    graph = mixdom.build(n, k)
    rng = random.Random(n * 10 + k)
    for _ in range(50):
        ids = rng.sample(range(5 * n), rng.randint(1, 2 * n))
        report = mixdom.verify(graph, mixdom.ElementSet(n, ids))
        assert checker.undominated(n, k, ids).tolist() == report.uncovered.ids().tolist()


def test_parse_label_matches_package_labels():
    graph = mixdom.build(11, 3)
    for eid in range(graph.num_elements):
        assert checker.parse_label(graph.label(eid), 11, 3) == eid
    with pytest.raises(ValueError):
        checker.parse_label("u3u5", 11, 3)


def test_parse_set_file_matches_package_writer():
    out = mixdom.construct_general(40, 5)
    text = mixdom.setfile.dumps(40, 5, "test", out.elements)
    n, k, size, ids = checker.parse_set_file(text)
    assert (n, k, size) == (40, 5, out.size)
    assert sorted(ids.tolist()) == out.elements.ids().tolist()


def test_optima_match_an_ilp_over_the_checker():
    optimize = pytest.importorskip("scipy.optimize")
    for (n, k), want in checker.OPTIMA.items():
        size = 5 * n
        cover = np.zeros((size, size))
        for e, nb in enumerate(neighbourhoods(n, k)):
            cover[e, list(nb)] = 1
        res = optimize.milp(np.ones(size), integrality=np.ones(size),
                            bounds=optimize.Bounds(0, 1),
                            constraints=optimize.LinearConstraint(cover, lb=1))
        assert res.success and round(res.fun) == want, (n, k)


def test_non_dominating_set_file_counts_as_failed(session, monkeypatch):
    """A construction that drops an element, and a verify that accepts
    anything: the checker still rejects both operations."""
    real_dumps = mixdom.setfile.dumps

    def dumps_missing_one(n, k, source, elements):
        lines = real_dumps(n, k, source, elements).splitlines()
        lines[0] = lines[0].replace(f"size={len(elements)}", f"size={len(elements) - 1}")
        return "\n".join(lines[:-1]) + "\n"

    real_verify = cli.verify_set

    def verify_says_yes(graph, members):
        report = real_verify(graph, members)
        return type(report)(True, mixdom.ElementSet(graph.n), report.rd_per_element,
                            7 * len(members) - 5 * graph.n)

    monkeypatch.setattr(mixdom.setfile, "dumps", dumps_missing_one)
    monkeypatch.setattr(cli, "verify_set", verify_says_yes)
    stats = workloads.RoundStats()
    session.run(("roundtrip", 300, 3), stats)
    assert (session.attempted, session.failed) == (2, 2)
    assert "undominated" in session.failures[0]
    assert "checker rejects" in session.failures[1]


def test_non_dominating_solve_witness_counts_as_failed(session, monkeypatch):
    real_solve = mixdom.solver.solve_exact

    def solve_with_bad_witness(graph, *args, **kwargs):
        result = real_solve(graph, *args, **kwargs)
        bad = mixdom.ElementSet(graph.n, range(result.optimum))
        return type(result)(result.optimum, bad, True, result.nodes_explored, result.elapsed)

    monkeypatch.setattr(mixdom.solver, "solve_exact", solve_with_bad_witness)
    stats = workloads.RoundStats()
    session.run(("solve", 8, 3), stats)
    session.run(("compare", 3, 8, 9), stats)
    assert (session.attempted, session.failed) == (2, 2)
    assert all("undominated" in f for f in session.failures)


def test_healthy_operations_pass(session):
    stats = workloads.RoundStats()
    for op in [("solve", 8, 3), ("compare", 3, 8, 9), ("table", "general", 7, 20),
               ("table", "eq1", 8, 40), ("roundtrip", 500, 1), ("roundtrip", 501, 6)]:
        session.run(op, stats)
    assert session.failed == 0, session.failures
    assert session.attempted == 8
    assert stats.instances == 1 + 2 + workloads.table_rows("general", 7, 20) + 33 + 2


def traced_round(session, tracer, ops):
    first = len(tracer.spans)
    tracer.install()
    session.tracer = tracer
    try:
        for op in ops:
            session.run(op, workloads.RoundStats())
    finally:
        tracer.restore()
        session.tracer = None
    return spans.layer_metrics(tracer.spans[first:], session.op_kinds, 2)


def test_trace_counts_repeat_and_restore_originals(session):
    originals = {name: getattr(cli, name) for name in ("build_graph", "verify_set", "compare_row")}
    tracer = spans.Tracer()
    ops = [("table", "general", 7, 30), ("solve", 9, 3), ("roundtrip", 400, 2)]
    first = traced_round(session, tracer, ops)
    second = traced_round(session, tracer, ops)
    assert {name: getattr(cli, name) for name in originals} == originals
    assert session.failed == 0, session.failures
    counts = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "B")]
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}
    rows = workloads.table_rows("general", 7, 30)
    assert first["constructions.construct_calls"] == rows + 1
    assert first["constructions.repairs"] > 0
    assert first["solver.nodes.solve"] > 0
    assert first["setfile.bytes"] > 0
    assert 0 < first["constructions.self_s"] < first["constructions.construct_s"]


def test_covered_merges_overlapping_children():
    assert spans.covered([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == pytest.approx(6)


def test_benchmark_json_matches_run():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
