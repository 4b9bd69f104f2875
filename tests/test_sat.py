import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from threatfix import sat
from threatfix.sat import (
    SolverStack, _Cdcl, _luby, solve_clauses, weighted_bound_clauses,
)


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        k = rng.randint(1, width)
        lits = rng.sample(range(1, num_vars + 1), min(k, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    return clauses


def truth_table_sat(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = (False,) + bits
        if all(any(model[l] if l > 0 else not model[-l] for l in c)
               for c in clauses):
            return True
    return False


def check_model(clauses, model):
    return all(any(model[l] if l > 0 else not model[-l] for l in c)
               for c in clauses)


def test_verdicts_match_truth_table():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randint(1, 8)
        clauses = random_cnf(rng, n, rng.randint(1, 4 * n))
        verdict, model = solve_clauses(clauses, n)
        assert verdict in ("sat", "unsat")
        assert (verdict == "sat") == truth_table_sat(clauses, n)
        if model is not None:
            assert check_model(clauses, model)


def test_empty_formula_is_sat():
    verdict, model = solve_clauses([], 0)
    assert verdict == "sat"
    verdict, _ = solve_clauses([], 5)
    assert verdict == "sat"


def test_empty_clause_is_unsat():
    verdict, model = solve_clauses([[]], 3)
    assert verdict == "unsat" and model is None


def test_unit_chain():
    clauses = [[1], [-1, 2], [-2, 3], [-3, -4]]
    verdict, model = solve_clauses(clauses, 4)
    assert verdict == "sat"
    assert model[1] and model[2] and model[3] and not model[4]


def test_conflict_at_level_zero_is_counted():
    solver = _Cdcl(2, [[1], [-1, 2], [-1, -2]])
    assert solver.solve() == "unsat"
    assert solver.conflicts == 1


def test_pigeonhole_unsat():
    # 5 pigeons, 4 holes
    def var(p, h):
        return p * 4 + h + 1
    clauses = [[var(p, h) for h in range(4)] for p in range(5)]
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                clauses.append([-var(p1, h), -var(p2, h)])
    verdict, _ = solve_clauses(clauses, 20)
    assert verdict == "unsat"


def test_conflict_budget_reports_unknown():
    def var(p, h):
        return p * 4 + h + 1
    clauses = [[var(p, h) for h in range(4)] for p in range(5)]
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                clauses.append([-var(p1, h), -var(p2, h)])
    verdict, model = solve_clauses(clauses, 20, conflict_budget=1)
    assert verdict == "unknown" and model is None


def test_determinism():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 10)
        clauses = random_cnf(rng, n, 3 * n)
        first = solve_clauses(clauses, n, seed=3)
        second = solve_clauses(clauses, n, seed=3)
        assert first == second
        other_seed, _ = solve_clauses(clauses, n, seed=4)
        assert other_seed == first[0]    # verdict can't depend on the seed


def test_luby_prefix_frozen():
    assert [_luby(i) for i in range(1, 17)] == \
        [1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1, 1]
    values = {_luby(i) for i in range(1, 200)}
    assert all(v & (v - 1) == 0 for v in values)   # powers of two


# -- heap-ordered decisions -----------------------------------------------------


class LinearScanCdcl(_Cdcl):
    """Reference: decide by scanning every variable, dead ones included."""

    def _decide(self) -> int:
        best = 0
        best_act = -1.0
        for v in range(1, self.n + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        return best


def gapped_cnf(rng):
    """A random 3-CNF near the threshold over a sparse subset of 1..n."""
    n = rng.randint(8, 40)
    used = rng.sample(range(1, n + 1), rng.randint(4, min(n, 24)))
    clauses = []
    for _ in range(int(4.3 * len(used))):
        lits = rng.sample(used, min(3, len(used)))
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    return n, clauses


def run_both(n, clauses, seed, budget):
    got = _Cdcl(n, clauses, seed=seed, conflict_budget=budget)
    want = LinearScanCdcl(n, clauses, seed=seed, conflict_budget=budget)
    gv, wv = got.solve(), want.solve()
    assert (gv, got.model(), got.conflicts) == (wv, want.model(), want.conflicts)
    return gv, got


def assert_same_search(instances):
    verdicts = set()
    solvers = []
    for n, clauses in instances:
        for seed in (0, 3, 17):
            for budget in (None, 2):
                verdict, solver = run_both(n, clauses, seed, budget)
                verdicts.add(verdict)
                solvers.append(solver)
    # the sample reaches every verdict, and some runs search hard
    assert verdicts == {"sat", "unsat", "unknown"}
    assert max(s.conflicts for s in solvers) >= 20
    return solvers


def test_heap_decisions_match_linear_scan():
    rng = random.Random(41)
    assert_same_search([gapped_cnf(rng) for _ in range(120)])


def test_heap_decisions_match_linear_scan_across_rescales(monkeypatch):
    monkeypatch.setattr(sat, "_ACT_RESCALE", 4.0)
    rng = random.Random(43)
    solvers = assert_same_search([gapped_cnf(rng) for _ in range(60)])
    # var_inc only grows, except when a rescale scales it by 1e-100
    assert any(s.var_inc < 1.0 for s in solvers)


def pigeonhole(pigeons, holes, stride=1):
    """Pigeons into fewer holes; variables are spaced `stride` apart."""
    def var(p, h):
        return (p * holes + h) * stride + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return var(pigeons - 1, holes - 1), clauses


def test_decision_heap_stays_bounded_on_a_long_search():
    peak = 0

    class Watched(_Cdcl):
        def _decide(self):
            nonlocal peak
            peak = max(peak, len(self.heap))
            return super()._decide()

    n, clauses = pigeonhole(7, 6, stride=2)
    solver = Watched(n, clauses)
    assert solver.solve() == "unsat"
    assert solver.conflicts > 500
    assert 0 < peak <= sat._HEAP_SLACK * n


# -- weighted bound encoding ---------------------------------------------------


def bound_holds(terms, k, chosen):
    return sum(w for (lit, w), on in zip(terms, chosen) if on) <= k


@pytest.mark.parametrize("weights, k", [
    ([1, 1, 1], 1),
    ([2, 3, 4], 4),
    ([5, 1, 1], 2),
    ([1, 2, 3, 4], 5),
    ([7], 6),
    ([2, 2], 0),
])
def test_weighted_bound_exact(weights, k):
    terms = [(i + 1, w) for i, w in enumerate(weights)]
    n = len(terms)
    clauses, top = weighted_bound_clauses(terms, k, n + 1)
    for chosen in itertools.product([False, True], repeat=n):
        units = [[lit if on else -lit] for (lit, _), on in zip(terms, chosen)]
        verdict, _ = solve_clauses(clauses + units, top - 1)
        assert (verdict == "sat") == bound_holds(terms, k, chosen), (chosen, k)


def test_weighted_bound_negative_k_is_contradiction():
    clauses, _ = weighted_bound_clauses([(1, 1)], -1, 2)
    assert [] in clauses


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
       st.integers(0, 8))
def test_weighted_bound_property(weights, k):
    terms = [(i + 1, w) for i, w in enumerate(weights)]
    n = len(terms)
    clauses, top = weighted_bound_clauses(terms, k, n + 1)
    for chosen in itertools.product([False, True], repeat=n):
        units = [[lit if on else -lit] for (lit, _), on in zip(terms, chosen)]
        verdict, _ = solve_clauses(clauses + units, top - 1)
        assert (verdict == "sat") == bound_holds(terms, k, chosen)


# -- solver stack ---------------------------------------------------------------


def brute_min_cost(hard, soft, num_vars):
    """Minimum violated-group weight over all assignments, None if hard unsat."""
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        model = (False,) + bits
        if not check_model(hard, model):
            continue
        cost = sum(w for group, w in soft
                   if any(not any(model[l] if l > 0 else not model[-l] for l in c)
                          for c in group))
        if best is None or cost < best:
            best = cost
    return best


def test_max_solve_matches_enumeration():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 7)
        hard = random_cnf(rng, n, rng.randint(0, 2 * n))
        soft = [(random_cnf(rng, n, rng.randint(1, 2)), rng.randint(1, 40))
                for _ in range(rng.randint(0, 5))]
        want = brute_min_cost(hard, soft, n)
        for seed in (0, 3, 17):
            models = []
            for _ in range(2):
                stack = SolverStack(seed=seed)
                stack.add(hard)
                for group, w in soft:
                    stack.add_soft(group, w)
                verdict, cost = stack.max_solve()
                if want is None:
                    assert verdict == "unsat" and cost is None
                    break
                assert verdict == "sat" and cost == want
                assert check_model(stack.hard, stack.model())
                models.append(stack.model())
            if models:
                assert models[0] == models[1]   # same seed, same model


def one_hot_repair(rng, cells, values, sign):
    """Exactly-one cells on their current value 0, with keep-away softs.

    Hard units move cells 0 and 1 to value 1, so the optimum changes those
    two cells and keeps every other cell where it is.  With sign -1 every
    literal is negated, so the keep-away softs are positive literals.
    """
    def var(c, v):
        return sign * (c * values + v + 1)
    stack = SolverStack()
    for c in range(cells):
        stack.add([[var(c, v) for v in range(values)]])
        stack.add([[-var(c, v), -var(c, u)]
                   for v in range(values) for u in range(v + 1, values)])
    stack.add([[var(0, 1)], [var(1, 1)]])
    weights = {}
    for c in range(cells):
        for v in range(1, values):
            weights[c, v] = rng.randint(1000, 3000)
            stack.add_soft([[-var(c, v)]], weights[c, v])
    return stack, weights[0, 1] + weights[1, 1]


@pytest.mark.parametrize("sign", [1, -1])
def test_soft_literals_are_decided_first(monkeypatch, sign):
    real = sat.solve_clauses
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        # the hard solve, then at most one SAT and one UNSAT step
        assert len(calls) <= 3
        return real(*args, **kwargs)

    monkeypatch.setattr(sat, "solve_clauses", counted)
    rng = random.Random(5)
    for _ in range(5):
        stack, want = one_hot_repair(rng, cells=4, values=3, sign=sign)
        calls.clear()
        assert stack.max_solve() == ("sat", want)


def test_max_solve_without_softs():
    stack = SolverStack()
    stack.add([[1, 2]])
    assert stack.max_solve() == ("sat", 0)


def test_max_solve_hard_unsat():
    stack = SolverStack()
    stack.add([[1], [-1]])
    stack.add_soft([[2]], 3)
    assert stack.max_solve() == ("unsat", None)
    with pytest.raises(RuntimeError):
        stack.model()


def test_push_pop_equals_flat_resolve():
    rng = random.Random(27)
    for _ in range(50):
        n = rng.randint(2, 8)
        stack = SolverStack()
        mirror_hard = []
        mirror_frames = []
        for _ in range(rng.randint(1, 8)):
            op = rng.random()
            if op < 0.3:
                stack.push()
                mirror_frames.append(len(mirror_hard))
            elif op < 0.45 and mirror_frames:
                stack.pop()
                del mirror_hard[mirror_frames.pop():]
            else:
                extra = random_cnf(rng, n, rng.randint(1, 3))
                stack.add(extra)
                mirror_hard.extend(extra)
            got = stack.solve()
            want, _ = solve_clauses(mirror_hard, n)
            # tautologies are filtered on add, so compare verdicts only
            assert got == want


def test_pop_empty_stack_raises():
    with pytest.raises(IndexError):
        SolverStack().pop()


def test_add_soft_rejects_nonpositive_cost():
    stack = SolverStack()
    with pytest.raises(ValueError):
        stack.add_soft([[1]], 0)
    with pytest.raises(ValueError):
        stack.add_soft([[1]], -2)


def test_tautologies_are_dropped():
    stack = SolverStack()
    stack.add([[1, -1]])
    assert stack.hard == []
    assert stack.solve() == "sat"
    # duplicates merge, literals sort by variable, and a dropped tautology
    # does not widen the variable range
    stack.add([[3, -2, 3], [2, 6, -2], [], [-4, 1, -4]])
    assert stack.hard == [[-2, 3], [], [1, -4]]
    assert stack.num_vars == 4

