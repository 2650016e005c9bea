"""Label enlargements: density criterion, universal density, product market,
generalized condition, insider impossibility, log-utility identity."""

import math
import random
from fractions import Fraction as F

import pytest

from deflator_lab.arbitrage import check_na1
from deflator_lab.deflator import construct_deflator
from deflator_lab.enlargement import (
    EnlargementSpec, GProcess, IncompleteMarketError, complete_market_measure,
    g_deflation_certificate, g_supermartingale_check, generalized_jacod_check,
    insider_example, jacod_check, log_utility_identity, multiply, replicate,
    universal_density,
)
from deflator_lab.filtered_space import (AdaptedProcess, EventTree, ProbMeasure,
                                         Strategy)
from deflator_lab.martingale import martingale_closure
from product_oracle import kernel, product_market
from treegen import (binomial_problem, random_measure, random_problem,
                     random_tree, straddling_prices)

SEED = 424_241


def two_coins():
    """Two fair coins; leaves ordered HH, HT, TH, TT."""
    tree = EventTree.uniform(2, 2)
    P = ProbMeasure({leaf: F(1, 4) for leaf in tree.leaves})
    return tree, P


def test_kernel_rows_sum_to_one():
    tree, P = two_coins()
    spec = EnlargementSpec(tree, P, {3: "a", 4: "b", 5: "a", 6: "b"})
    ker = kernel(spec)
    for v in tree.nodes:
        assert sum((ker.P_t[(v.id, lab)] for lab in spec.label_set), F(0)) == 1
    assert ker.P_L == {"a": F(1, 2), "b": F(1, 2)}


def test_jacod_density_for_independent_label():
    tree, P = two_coins()
    # label = second coin: independent of the time-1 information, so the
    # density is flat until the toss is revealed at the horizon
    spec = EnlargementSpec(tree, P, {3: "h", 4: "t", 5: "h", 6: "t"})
    report = jacod_check(spec)
    assert report.holds
    for v in tree.nodes_at(1):
        for lab in ("h", "t"):
            assert report.Y[(v, lab)] == 1
    assert report.reverse_by_time[0] and report.reverse_by_time[1]
    assert not report.reverse_by_time[2]      # the leaf rules the other label out
    assert not report.reverse_holds


def test_jacod_density_for_revealed_label():
    tree, P = two_coins()
    # label = first coin: revealed at time 1
    spec = EnlargementSpec(tree, P, {3: "h", 4: "h", 5: "t", 6: "t"})
    report = jacod_check(spec)
    assert report.holds and not report.reverse_holds
    assert report.Y[(1, "h")] == 2 and report.Y[(1, "t")] == 0
    assert report.Y[(2, "t")] == 2 and report.Y[(2, "h")] == 0
    # at time 0 the kernel equals the marginal whatever the label is
    assert report.Y[(0, "h")] == 1 and report.Y[(0, "t")] == 1


def test_universal_density_trivial_for_uninformative_label():
    tree, P = two_coins()
    spec = EnlargementSpec(tree, P, {leaf: "c" for leaf in tree.leaves})
    Z = universal_density(spec)
    assert all(Z.at(v.id, "c") == 1 for v in tree.nodes)
    report = jacod_check(spec)
    assert report.reverse_holds and report.equivalent


def test_universal_density_flat_until_independent_coin_lands():
    tree, P = two_coins()
    spec = EnlargementSpec(tree, P, {3: "h", 4: "t", 5: "h", 6: "t"})
    Z = universal_density(spec)
    for v in (0, 1, 2):
        for lab in ("h", "t"):
            assert Z.at(v, lab) == 1
    for leaf in tree.leaves:
        assert Z.at(leaf, spec.labels[leaf]) == F(1, 2)   # realized slice
        other = "t" if spec.labels[leaf] == "h" else "h"
        assert Z.at(leaf, other) == 0                     # dead slice


def test_universal_density_halves_on_revealed_coin():
    tree, P = two_coins()
    spec = EnlargementSpec(tree, P, {3: "h", 4: "h", 5: "t", 6: "t"})
    Z = universal_density(spec)
    assert Z.at(1, "h") == F(1, 2) and Z.at(2, "t") == F(1, 2)
    # E[Z_1 | time-0 slice] = 1/2 < Z_0 = 1: a strict supermartingale
    slices = spec.slice_masses("h")
    lhs = sum((slices[c] * Z.at(c, "h") for c in tree.children_of(0)), F(0))
    assert lhs / slices[0] == F(1, 2) < Z.at(0, "h") == 1
    # and Z * M stays a slice supermartingale for leaf-indicator martingales
    for leaf in tree.leaves:
        ind = AdaptedProcess.of_scalars(
            {x: F(1) if x == leaf else F(0) for x in tree.leaves})
        M = martingale_closure(tree, P, ind)
        assert g_supermartingale_check(spec, Z, M) == []


def random_labels(rng, tree, n_labels=None):
    labs = "abc"[:n_labels or rng.randint(1, 3)]
    return {leaf: rng.choice(labs) for leaf in tree.leaves}


def test_jacod_and_universal_density_match_the_kernel_oracle():
    """`jacod_check` and `universal_density` read the slice pair tables; the
    oracle divides `Fraction` slice masses: Y = P_t / P_L, the reverse
    relation fails at a time where some P_t vanishes, and the universal
    density is 1 / Y where Y > 0, else 0.  Random trees have one-child
    atoms, and most labellings leave dead slices."""
    rng = random.Random(SEED + 7)
    dead = 0
    for _ in range(60):
        tree = random_tree(rng, max_steps=4)
        P = random_measure(rng, tree)
        spec = EnlargementSpec(tree, P, random_labels(rng, tree,
                                                      rng.randint(2, 3)))
        ker = kernel(spec)
        want_y = {(v, lab): p / ker.P_L[lab]
                  for (v, lab), p in ker.P_t.items()}
        report = jacod_check(spec)
        assert report.Y == want_y
        assert list(report.Y) == list(want_y)
        assert all(type(y) is F for y in report.Y.values())
        assert report.reverse_by_time == {
            t: all(ker.P_t[(v, lab)] > 0 for v in tree.nodes_at(t)
                   for lab in spec.label_set)
            for t in range(tree.horizon + 1)}
        assert report.holds
        assert report.reverse_holds == report.equivalent == all(
            report.reverse_by_time.values())
        Z = universal_density(spec)
        assert Z.values == {key: 1 / y if y else F(0)
                            for key, y in want_y.items()}
        dead += any(y == 0 for y in want_y.values())
    assert dead > 40


def random_supermartingale(rng, tree, P):
    """Backward build: conditional expectation of the next layer plus a
    nonnegative bump makes each step an exact supermartingale inequality."""
    masses = P.node_masses(tree)
    values = {leaf: F(rng.randint(0, 9), rng.randint(1, 3))
              for leaf in tree.leaves}
    for v in sorted(tree.non_leaf_nodes(), key=lambda nd: -nd.time):
        cond = sum((masses[c] * values[c] for c in v.children), F(0)) / masses[v.id]
        values[v.id] = cond + F(rng.randint(0, 3), 4)
    return AdaptedProcess.of_scalars(values)


def test_universal_density_deflates_random_supermartingales():
    rng = random.Random(SEED)
    for _ in range(25):
        tree = random_tree(rng, max_steps=3)
        P = random_measure(rng, tree)
        spec = EnlargementSpec(tree, P, random_labels(rng, tree))
        Z = universal_density(spec)
        for _ in range(8):
            M = random_supermartingale(rng, tree, P)
            violations = g_supermartingale_check(spec, Z, M)
            assert violations == [], violations


def test_na1_transfers_to_the_product_market():
    rng = random.Random(SEED + 1)
    preserved = 0
    for _ in range(40):
        problem = random_problem(rng, max_steps=3)
        base = check_na1(problem)
        spec = EnlargementSpec(problem.tree, problem.P,
                               random_labels(rng, problem.tree))
        enlarged = check_na1(product_market(spec, problem.S).problem())
        if base.na1_holds:
            assert enlarged.na1_holds, "insider gained unbounded profit"
            # the program decomposes per label copy under the decoupled
            # weights, so the optimal values agree exactly
            assert enlarged.optimal_value == base.optimal_value
            preserved += 1
    assert preserved > 5


def test_product_market_shifts_structure_and_decouples():
    problem = binomial_problem(steps=1)
    spec = EnlargementSpec(problem.tree, problem.P, {1: "u", 2: "d"})
    pm = product_market(spec, problem.S)
    assert pm.tree.horizon == 2
    assert len(pm.tree.leaves) == 4                  # two slices x two leaves
    assert pm.S[pm.node_of[(1, "u")]] == problem.S[1]
    assert pm.S[0] == problem.S[0]
    assert pm.Q.mass(pm.node_of[(1, "d")]) == F(1, 4)  # decoupled slice mass
    assert pm.Q.strictly_positive


def test_generalized_condition_passes_for_initial_enlargements():
    rng = random.Random(SEED + 2)
    for _ in range(10):
        tree = random_tree(rng, max_steps=3)
        P = random_measure(rng, tree)
        labels = random_labels(rng, tree)
        layers = []
        for t in range(tree.horizon + 1):
            cells = []
            for v in tree.nodes_at(t):
                for lab in sorted(set(labels.values())):
                    cell = frozenset(x for x in tree.leaves_below(v)
                                     if labels[x] == lab)
                    if cell:
                        cells.append(cell)
            layers.append(cells)
        report = generalized_jacod_check(tree, P, layers)
        assert report.holds


def test_generalized_condition_trivial_for_no_enlargement():
    rng = random.Random(SEED + 3)
    tree = random_tree(rng, max_steps=3)
    P = random_measure(rng, tree)
    layers = [[frozenset(tree.leaves_below(v)) for v in tree.nodes_at(t)]
              for t in range(tree.horizon + 1)]
    report = generalized_jacod_check(tree, P, layers)
    assert report.holds and report.reverse_holds


def test_generalized_condition_reverse_fails_on_dying_cell():
    # three leaves x, y, z; the cell {z} is charged at time 0 but vanishes
    # under the time-1 atom {x}: the reverse relation pinpoints it
    tree = EventTree.from_branching([[2], [1, 2]])
    x, y, z = tree.leaves
    P = ProbMeasure({x: F(1, 2), y: F(1, 4), z: F(1, 4)})
    layers = [
        [frozenset({x, y}), frozenset({z})],
        [frozenset({x}), frozenset({y}), frozenset({z})],
        [frozenset({x}), frozenset({y}), frozenset({z})],
    ]
    report = generalized_jacod_check(tree, P, layers)
    assert report.holds                      # the forward relation cannot fail
    assert not report.reverse_holds
    assert any(cell == frozenset({z}) for (_, _, _, cell) in report.reverse_failures)


def test_generalized_condition_validates_the_measure():
    tree = EventTree.uniform(2, 2)
    P = ProbMeasure({3: F(1, 2), 4: F(1, 2)})
    layers = [[frozenset(tree.leaves_below(v)) for v in tree.nodes_at(t)]
              for t in range(3)]
    with pytest.raises(ValueError, match="exactly the leaves"):
        generalized_jacod_check(tree, P, layers)


def test_generalized_condition_validates_nesting():
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(1, 2), 2: F(1, 2)})
    with pytest.raises(ValueError, match="partition"):
        generalized_jacod_check(tree, P, [[frozenset({1})], [frozenset({1, 2})]])


# -- insider example -------------------------------------------------------------


def test_complete_market_measure_binomial():
    problem = binomial_problem(steps=1)
    market = complete_market_measure(problem.tree, problem.S)
    assert market.q_leaf == {1: F(1, 3), 2: F(2, 3)}
    # deeper, each leaf's weight is the product of the steps on its path
    problem = binomial_problem(steps=3)
    tree = problem.tree
    market = complete_market_measure(tree, problem.S)
    assert market.q_leaf == {
        leaf: math.prod((market.q_step[v] for v in tree.path(leaf)[1:]),
                        start=F(1))
        for leaf in tree.leaves}


def test_incomplete_market_is_refused():
    tree = EventTree.uniform(1, 3)
    P = ProbMeasure({leaf: F(1, 3) for leaf in tree.leaves})
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2), 2: F(1), 3: F(1, 2)})
    with pytest.raises(IncompleteMarketError):
        complete_market_measure(tree, S)


@pytest.mark.parametrize("children, message", [
    ([F(2), F(2)], "linearly dependent"),
    ([F(2)], "no one-step pricing weights"),
    ([F(2), F(3)], "not strictly positive"),
])
def test_complete_market_measure_names_the_failure(children, message):
    tree = EventTree.uniform(1, len(children))
    S = AdaptedProcess.of_scalars({0: F(1), **dict(enumerate(children, 1))})
    with pytest.raises(IncompleteMarketError, match=message):
        complete_market_measure(tree, S)


def test_replication_of_terminal_event():
    problem = binomial_problem(steps=2)
    market = complete_market_measure(problem.tree, problem.S)
    payoff = {leaf: F(1) if problem.S.at(leaf) >= 2 else F(0)
              for leaf in problem.tree.leaves}
    value, hedge = replicate(problem.tree, problem.S, market, payoff)
    # replication is exact along every edge
    for v in problem.tree.nodes:
        if problem.tree.parent_of(v.id) is None:
            continue
        p = problem.tree.parent_of(v.id)
        gain = hedge.at(p) * (problem.S.at(v.id) - problem.S.at(p))
        assert value.at(v.id) == value.at(p) + gain


def test_insider_example_one_step():
    problem = binomial_problem(steps=1)
    spec = EnlargementSpec(problem.tree, problem.P, {1: "u", 2: "d"})
    report = insider_example(spec, problem.S, {"u"})
    assert report.emm_infeasible
    assert report.na1_product.na1_holds
    assert report.deflator_violations == []
    assert report.contradiction_certified
    # the insider pockets q*(up) = 1/3 on the down slice from zero wealth
    assert report.arbitrage_gain[(2, "d")] == F(1, 3)
    assert report.arbitrage_gain[(1, "u")] == 0


def test_insider_example_two_step_threshold_event():
    problem = binomial_problem(steps=2)
    labels = {leaf: ("hi" if problem.S.at(leaf) >= 2 else "lo")
              for leaf in problem.tree.leaves}
    spec = EnlargementSpec(problem.tree, problem.P, labels)
    report = insider_example(spec, problem.S, {"hi"})
    assert report.emm_infeasible
    assert report.na1_product.na1_holds
    assert report.deflator_violations == []
    q_hi = report.value_process.at(0)
    for leaf in problem.tree.leaves:
        lab = labels[leaf]
        expected = F(0) if lab == "hi" else q_hi
        assert report.arbitrage_gain[(leaf, lab)] == expected


def test_slice_certificate_refuses_a_float_density():
    problem = binomial_problem(steps=1)
    spec = EnlargementSpec(problem.tree, problem.P, {1: "u", 2: "d"})
    Zg = multiply(spec, universal_density(spec),
                  construct_deflator(problem).Z)
    assert g_deflation_certificate(spec, problem.S, Zg) == []
    Zg.values[(1, "u")] = float(Zg.at(1, "u"))
    with pytest.raises(TypeError, match="not an exact rational"):
        g_deflation_certificate(spec, problem.S, Zg)


def test_equivalent_slice_measure_program_both_verdicts():
    from lp_oracle import _equivalent_slice_measure_program

    # In a complete market every non-constant label is fatal: even a parity
    # label pins the last move once the first is seen, so no weights with a
    # positive floor exist and the optimum is 0 -- that is the impossibility
    # phenomenon itself.
    problem = binomial_problem(steps=2, p_up=F(1, 3))
    labels = {3: "e", 4: "o", 5: "o", 6: "e"}
    spec = EnlargementSpec(problem.tree, problem.P, labels)
    res = _equivalent_slice_measure_program(spec, problem.S)
    assert res.status == "optimal" and res.value == 0

    # Incomplete markets can absorb a label: separating the flat branch of a
    # trinomial from the straddling pair leaves both slices priceable, so the
    # program is feasible with strictly positive weights.
    tree = EventTree.uniform(1, 3)
    P = ProbMeasure({1: F(1, 3), 2: F(1, 3), 3: F(1, 3)})
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2), 2: F(1), 3: F(1, 2)})
    spec2 = EnlargementSpec(tree, P, {1: "move", 2: "flat", 3: "move"})
    res2 = _equivalent_slice_measure_program(spec2, S)
    assert res2.status == "optimal" and res2.value > 0


def test_arbitrage_certificate_agrees_with_the_slice_measure_program():
    """On complete binary markets with 2-3 labels and a random event, the
    insider's arbitrage certifies the missing martingale measure exactly when
    the whole-tree program over slice measures finds none."""
    from lp_oracle import _equivalent_slice_measure_program

    rng = random.Random(SEED)
    for trial in range(120):
        tree = EventTree.uniform(rng.randint(2, 3), 2)
        P = random_measure(rng, tree)
        S = straddling_prices(rng, tree)
        names = [f"L{i}" for i in range(rng.randint(2, 3))]
        leaves = list(tree.leaves)
        rng.shuffle(leaves)
        labels = {leaf: names[i] if i < len(names) else rng.choice(names)
                  for i, leaf in enumerate(leaves)}
        event = set(rng.sample(names, rng.randint(1, len(names) - 1)))
        spec = EnlargementSpec(tree, P, labels)
        res = _equivalent_slice_measure_program(spec, S)
        no_emm = res.status == "infeasible" or (res.status == "optimal"
                                                and res.value <= 0)
        assert insider_example(spec, S, event).emm_infeasible == no_emm, trial


def test_a_zero_hedge_certifies_nothing(monkeypatch, tmp_path, capsys):
    """Without the hedge the insider's strategy gains nothing anywhere, so
    nothing certifies the missing martingale measure, and the CLI reports a
    failed verdict instead of crashing."""
    import deflator_lab.enlargement as enlargement
    from deflator_lab.cli import run
    from deflator_lab.scenarios import write_scenario

    real_replicate = enlargement.replicate

    def zero_hedge(tree, S, market, payoff):
        value, hedge = real_replicate(tree, S, market, payoff)
        return value, Strategy.constant(tree, 0, hedge.dim)

    monkeypatch.setattr(enlargement, "replicate", zero_hedge)
    problem = binomial_problem(steps=2)
    labels = {leaf: ("hi" if problem.S.at(leaf) >= 2 else "lo")
              for leaf in problem.tree.leaves}
    spec = EnlargementSpec(problem.tree, problem.P, labels)
    report = insider_example(spec, problem.S, {"hi"})
    assert report.emm_infeasible is False
    assert report.contradiction_certified is False

    write_scenario("insider-binomial", str(tmp_path))
    assert run(["enlarge", "insider", "--tree", str(tmp_path / "tree.json"),
                "--label-map", str(tmp_path / "labels.json"), "--event", "u",
                "--out", str(tmp_path / "r.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_insider_example_rejects_constant_label():
    problem = binomial_problem(steps=1)
    spec = EnlargementSpec(problem.tree, problem.P, {1: "u", 2: "u"})
    with pytest.raises(ValueError, match="strictly"):
        insider_example(spec, problem.S, {"u"})


# -- log utility ------------------------------------------------------------------


def grid_log_utility(spec: EnlargementSpec, S, labelled: bool,
                     points: int = 4001) -> float:
    """Independent oracle: per-atom golden/grid search of the growth DP.

    The wealth fraction f at an atom must keep 1 + f dS >= 0 on every
    structural child (dead slices included); the conditional weights use the
    slice measure when labelled, the base measure otherwise.
    """
    import numpy as np
    from scipy.optimize import minimize_scalar

    tree = spec.tree

    def dp(weights: dict[int, F]) -> float:
        values: dict[int, float] = {leaf: 0.0 for leaf in tree.leaves}
        for v in sorted(tree.non_leaf_nodes(), key=lambda nd: -nd.time):
            total = sum((weights[c] for c in v.children), F(0))
            ds = {c: float(S.at(c) - S.at(v.id)) for c in v.children}
            lo, hi = -1e9, 1e9
            for c, d in ds.items():
                if d > 0:
                    lo = max(lo, -1.0 / d)
                elif d < 0:
                    hi = min(hi, -1.0 / d)

            def neg(f: float) -> float:
                out = 0.0
                for c in v.children:
                    w = float(weights[c] / total) if total else 0.0
                    if w == 0.0:
                        continue
                    arg = 1.0 + f * ds[c]
                    if arg <= 0.0:
                        return 1e18
                    out += w * (math.log(arg) + values[c])
                return -out

            grid = np.linspace(lo, hi, points)
            best = min(grid, key=neg)
            span = (hi - lo) / (points - 1)
            res = minimize_scalar(neg, bounds=(max(lo, best - span),
                                               min(hi, best + span)),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            values[v.id] = -min(neg(best), res.fun)
        return values[tree.root]

    if not labelled:
        masses = spec.P.node_masses(tree)
        return dp({v.id: masses[v.id] for v in tree.nodes})
    out = 0.0
    for lab in spec.label_set:
        slices = spec.slice_masses(lab)
        if slices[tree.root] == 0:
            continue
        out += float(slices[tree.root]) * dp({v.id: slices[v.id]
                                              for v in tree.nodes})
    return out


def test_log_utility_identity_one_step():
    problem = binomial_problem(steps=1)
    spec = EnlargementSpec(problem.tree, problem.P, {1: "u", 2: "d"})
    report = log_utility_identity(spec, problem.S)
    u_f = 0.5 * math.log(F(1, 2) / F(1, 3)) + 0.5 * math.log(F(1, 2) / F(2, 3))
    assert abs(report.u_base - u_f) < 1e-12
    assert abs(report.mutual_information - math.log(2)) < 1e-12
    assert abs(report.u_insider - (u_f + math.log(2))) < 1e-9


def test_log_utility_identity_constant_label_adds_nothing():
    problem = binomial_problem(steps=2)
    labels = {leaf: "c" for leaf in problem.tree.leaves}
    spec = EnlargementSpec(problem.tree, problem.P, labels)
    report = log_utility_identity(spec, problem.S)
    assert abs(report.mutual_information) < 1e-12
    assert abs(report.u_insider - report.u_base) < 1e-9


def test_log_utility_identity_parity_label():
    problem = binomial_problem(steps=2)
    labels = {3: "e", 4: "o", 5: "o", 6: "e"}   # parity of the two moves
    spec = EnlargementSpec(problem.tree, problem.P, labels)
    report = log_utility_identity(spec, problem.S)
    assert abs(report.mutual_information - math.log(2)) < 1e-12
    assert abs(report.identity_gap) < 1e-9


def test_log_utility_matches_grid_oracle():
    for steps, labels in ((1, {1: "u", 2: "d"}), (2, None)):
        problem = binomial_problem(steps=steps)
        if labels is None:
            labels = {leaf: ("hi" if problem.S.at(leaf) >= 2 else "lo")
                      for leaf in problem.tree.leaves}
        spec = EnlargementSpec(problem.tree, problem.P, labels)
        report = log_utility_identity(spec, problem.S)
        oracle_f = grid_log_utility(spec, problem.S, labelled=False)
        oracle_g = grid_log_utility(spec, problem.S, labelled=True)
        assert abs(report.u_base - oracle_f) < 1e-4
        assert abs(report.u_insider - oracle_g) < 1e-4
