import pytest

import mixdom as md
from mixdom import ElementSet, NoSolutionWithin, SolveBudget

from oracles import ref_min_dominating_size


def test_small_k1_optima_both_solvers():
    expected = {3: 3, 4: 4, 5: 4, 6: 5, 7: 6}
    for n, want in expected.items():
        g = md.build(n, 1)
        exact = md.solve_exact(g)
        exhaustive = md.solve_exhaustive(g, max_size=8)
        assert exact.proved and exact.optimum == want, n
        assert exhaustive.proved and exhaustive.optimum == want, n
        assert md.verify(g, exact.witness).is_dominating
        assert md.verify(g, exhaustive.witness).is_dominating
        assert len(exact.witness) == len(exhaustive.witness) == want


def test_p3_1_against_pure_combinatorial_oracle():
    assert ref_min_dominating_size(3, 1, 4) == 3
    assert md.solve_exact(md.build(3, 1)).optimum == 3


def test_exhaustive_witness_is_lexicographically_smallest():
    g = md.build(3, 1)
    res = md.solve_exhaustive(g, max_size=4)
    ids = sorted(res.witness)
    # no optimal set is lexicographically smaller: all 3-subsets before it fail
    import itertools

    for combo in itertools.combinations(range(15), 3):
        if list(combo) >= ids:
            break
        s = ElementSet(3, combo)
        assert not md.verify(g, s).is_dominating, combo


def test_solver_agrees_with_k1_formula_through_n14():
    for n in range(8, 15):
        res = md.solve_exact(md.build(n, 1))
        assert res.proved and res.optimum == md.gamma_k1(n).value, n


def test_solver_agrees_with_k2_formula():
    for n in range(5, 13):
        res = md.solve_exact(md.build(n, 2))
        assert res.proved and res.optimum == md.gamma_k2(n).value, n


def test_p9_2_value():
    res = md.solve_exact(md.build(9, 2))
    assert res.proved and res.optimum == 7 == md.gamma_k2(9).value


def test_oracle_agreement_small_universe():
    for n in range(3, 9):
        for k in range(1, (n - 1) // 2 + 1):
            g = md.build(n, k)
            a = md.solve_exact(g)
            b = md.solve_exhaustive(g, max_size=8)
            assert a.proved and b.proved
            assert a.optimum == b.optimum, (n, k)


def test_proved_optimum_bounds():
    for n, k in ((5, 1), (7, 2), (9, 3), (11, 4)):
        g = md.build(n, k)
        res = md.solve_exact(g)
        assert res.proved
        assert res.optimum >= md.naive_lower_bound(n)
        greedy = md.greedy_complete(g, ElementSet(n))
        assert res.optimum <= len(greedy)


# recorded node counts and sorted witnesses of the exact search; any change
# to the branching order, the forbids or the pruning moves them
SEARCH_ORDER = [
    ((9, 2), 1313, [0, 1, 5, 30, 34, 38, 42]),
    ((10, 3), 6724, [0, 1, 5, 6, 33, 38, 44, 49]),
    ((11, 1), 14897, [0, 1, 3, 18, 27, 30, 45, 48, 53]),
    ((12, 2), 102581, [0, 4, 8, 38, 42, 46, 49, 53, 57]),
]


@pytest.mark.parametrize("nk, nodes, witness", SEARCH_ORDER,
                         ids=[f"P({n},{k})" for (n, k), _, _ in SEARCH_ORDER])
def test_search_order_pinned(nk, nodes, witness):
    res = md.solve_exact(md.build(*nk))
    assert res.proved
    assert res.nodes_explored == nodes
    assert sorted(res.witness) == witness


def test_witness_deterministic_across_runs():
    g = md.build(11, 2)
    a = md.solve_exact(g)
    b = md.solve_exact(g)
    assert sorted(a.witness) == sorted(b.witness)
    assert a.optimum == b.optimum == 9


def test_node_budget_exhaustion_gives_upper_bound():
    g = md.build(12, 1)
    res = md.solve_exact(g, SolveBudget(max_nodes=50))
    assert not res.proved
    assert res.optimum >= md.gamma_k1(12).value  # incumbent is only an upper bound
    assert md.verify(g, res.witness).is_dominating
    assert len(res.witness) == res.optimum


def test_time_budget_tiny():
    g = md.build(14, 1)
    res = md.solve_exact(g, SolveBudget(max_time=1e-9))
    assert md.verify(g, res.witness).is_dominating
    if not res.proved:
        assert res.optimum >= md.gamma_k1(14).value


def test_time_budget_is_kept():
    g = md.build(40, 1)
    res = md.solve_exact(g, SolveBudget(max_time=0.2))
    assert res.elapsed < 1.0
    assert not res.proved
    assert md.verify(g, res.witness).is_dominating


def test_budget_validation():
    with pytest.raises(ValueError):
        SolveBudget(max_nodes=0).validate()
    with pytest.raises(ValueError):
        SolveBudget(max_time=-1).validate()
    with pytest.raises(ValueError):
        SolveBudget(upper_bound_hint=0).validate()


def test_honest_hint_keeps_witness():
    g = md.build(10, 1)
    res = md.solve_exact(g, SolveBudget(upper_bound_hint=md.gamma_k1(10).value))
    assert res.proved and res.optimum == md.gamma_k1(10).value
    assert md.verify(g, res.witness).is_dominating
    assert len(res.witness) == res.optimum


def test_lying_hint_is_survived():
    g = md.build(10, 1)
    res = md.solve_exact(g, SolveBudget(upper_bound_hint=md.gamma_k1(10).value - 1))
    assert res.proved and res.optimum == md.gamma_k1(10).value
    assert md.verify(g, res.witness).is_dominating


# A hint below the optimum makes a first search with cutoff gamma; an optimal
# construction as the incumbent makes exactly that search and no other. At
# n=10 the root bound alone closes it, at n=11 it takes 6524 nodes.
@pytest.mark.parametrize("n", [10, 11])
def test_lying_hint_adds_one_search(n):
    g = md.build(n, 1)
    hint = md.gamma_k1(n).value - 1
    first = md.solve_exact(g, initial=md.construct_k1(n).elements)
    assert first.proved
    res = md.solve_exact(g, SolveBudget(upper_bound_hint=hint))
    assert res.nodes_explored == first.nodes_explored + md.solve_exact(g).nodes_explored


@pytest.mark.parametrize("n", [10, 11])
def test_lying_hint_out_of_nodes_keeps_the_incumbent(n):
    g = md.build(n, 1)
    hint = md.gamma_k1(n).value - 1
    first = md.solve_exact(g, initial=md.construct_k1(n).elements).nodes_explored
    res = md.solve_exact(g, SolveBudget(upper_bound_hint=hint, max_nodes=first + 100))
    assert not res.proved
    assert res.nodes_explored == first + 100  # the second search gets what the first left
    assert md.verify(g, res.witness).is_dominating
    assert res.optimum == len(res.witness) == len(md.greedy_complete(g, ElementSet(n)))


def test_initial_incumbent_from_construction():
    con = md.construct_k1(12)
    g = md.build(12, 1)
    res = md.solve_exact(g, initial=con.elements)
    assert res.proved and res.optimum == con.size  # construction is optimal here
    with pytest.raises(ValueError):
        md.solve_exact(g, initial=ElementSet(12, [0]))


def test_exhaustive_no_solution_within_cap():
    g = md.build(6, 1)
    with pytest.raises(NoSolutionWithin):
        md.solve_exhaustive(g, max_size=4)  # optimum is 5


def test_result_counters_populated():
    res = md.solve_exact(md.build(9, 1))
    assert res.nodes_explored > 0
    assert res.elapsed >= 0
