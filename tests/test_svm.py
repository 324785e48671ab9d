from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from usvpipe import svm
from usvpipe.seeding import rng_for
from usvpipe.svm import (BinarySvm, COST_GRID, OvoModel, SOLVER_GAP,
                         SOLVER_MAX_EPOCHS, fit_standardiser,
                         inverse_frequency_weights, nested_select, predict,
                         read_model, train_binary, write_model,
                         _predict_standardised)

from conftest import train_weighted, weighted_primal


def separable_level_pair(seed: int, n: int = 46):
    """A separable pair shaped like two contexts of the synthetic corpus.

    The classes' pitch levels sit 1.2 apart with 0.025 of jitter, the max
    and min features follow the level within 0.01, the spread and slope
    features are unit noise, and every column appears twice, as the
    all-frame and voiced-frame features of pure tones do.  A handful of
    rows hold the margin, and they are strongly coupled.
    """
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    level = 0.6 * y + 0.025 * rng.standard_normal(n)
    cols = [level, rng.standard_normal(n),
            level + 0.01 * rng.standard_normal(n),
            level + 0.01 * rng.standard_normal(n), rng.standard_normal(n)]
    return np.column_stack(cols + cols), y


def pair_machines(X, y, cost):
    """One machine per label pair, unit class weights, each pair on its own
    rows."""
    y = np.asarray(y, dtype=object)
    machines = []
    for pair in combinations(sorted(set(y)), 2):
        mask = np.isin(y, pair)
        machines.append(train_weighted(X[mask], np.where(y[mask] == pair[0], 1.0, -1.0),
                                       cost, pair=pair))
    return tuple(machines)


class TestSolver:
    def test_separable_blobs_perfect_training_accuracy(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(-2, 0.3, (40, 2)), rng.normal(2, 0.3, (40, 2))])
        y = np.concatenate([-np.ones(40), np.ones(40)])
        m = train_binary(X, y, cost=10.0)
        assert np.all(np.sign(X @ m.weights + m.bias) == y)

    def test_deterministic_for_same_inputs(self):
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(30, 3)), np.sign(rng.normal(size=30))
        y[y == 0] = 1.0
        m1 = train_binary(X, y, cost=0.5)
        m2 = train_binary(X, y, cost=0.5)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes must be present"):
            train_binary(np.ones((4, 2)), np.ones(4), cost=1.0)

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(6, 60))
            X = rng.normal(size=(n, int(rng.integers(1, 6))))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            if len(set(y)) < 2:
                continue
            m = train_binary(X, y, cost=float(rng.choice(COST_GRID)))
            h = np.array(m.objective_history)
            assert np.all(np.diff(h) <= 1e-9)

    def test_capped_solve_reports_not_converged(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 0] + rng.normal(size=40) > 0, 1.0, -1.0)
        with monkeypatch.context() as patch:
            patch.setattr(svm, "SOLVER_MAX_EPOCHS", 1)
            m = train_binary(X, y, cost=1.0)
        assert len(m.objective_history) == 2
        assert m.converged is False
        assert m.gap > SOLVER_GAP
        done = train_binary(X, y, cost=1.0)
        assert done.converged is True
        assert 0.0 <= done.gap <= SOLVER_GAP

    def test_non_finite_features_rejected(self):
        X = np.array([[0.0], [1.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            train_binary(X, np.array([-1.0, 1.0, 1.0]), cost=1.0)

    def test_separable_pair_with_few_support_vectors_meets_the_gap_early(self):
        """Coordinate steps crawl along the few strongly coupled margin rows
        of such a pair; the interior-point steps move all rows together."""
        for seed in (5, 6, 7):
            X, y = separable_level_pair(seed)
            m = train_binary(X, y, 1.0)
            margins = y * (X @ m.weights + m.bias)
            assert np.sum(margins < 1.01) <= 6
            assert m.converged is True
            assert m.gap <= SOLVER_GAP
            assert len(m.objective_history) - 1 <= 20  # iterations

    def test_duplicated_free_rows_match_the_weighted_problem(self):
        """Both copies of a margin row are free at the optimum, so Z Z^T is
        singular; the Newton system I + Z^T D^-1 Z is not, and the
        duplicated problem reaches the weighted one's optimum."""
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-1.5, 1, (6, 2)), rng.normal(1.5, 1, (6, 2))])
        y = np.concatenate([-np.ones(6), np.ones(6)])
        doubled = train_binary(np.vstack([X, X]), np.concatenate([y, y]), 0.5)
        weighted = train_weighted(X, y, 0.5, weight_pos=2.0, weight_neg=2.0)
        assert doubled.converged is True
        assert np.abs(doubled.weights - weighted.weights).max() < 1e-3
        assert abs(doubled.bias - weighted.bias) < 1e-3
        assert np.all(np.diff(doubled.objective_history) <= 0.0)

    def test_overlapping_probe_meets_the_gap_before_the_cap(self):
        """The n = 4 000, cost-1 problem of the benchmark's SVM probe: two
        overlapping classes whose means are 0.5 standard deviations apart."""
        rng = rng_for(7, 1)
        y = np.where(rng.random(4000) < 0.5, 1.0, -1.0)
        X = rng.standard_normal((4000, 10)) + 0.25 * y[:, None]
        m = train_binary(X, y, 1.0)
        assert m.converged is True
        assert len(m.objective_history) - 1 < SOLVER_MAX_EPOCHS

    def test_primal_matches_box_constrained_dual_oracle(self):
        """Problems of a validation batch's size, checked against the
        dual optimum found by L-BFGS-B (an independent solver).  Weak
        duality bounds the primal below by any feasible dual value, and a
        converged machine's primal is within SOLVER_GAP of the optimum."""
        rng = np.random.default_rng(30)
        for trial in range(20):
            n = int(rng.integers(40, 81))
            X = rng.normal(size=(n, 10))
            y = np.where(X @ rng.normal(size=10) + rng.normal(0, 1.5, n) > 0,
                         1.0, -1.0)
            cost = float(rng.choice([0.1, 0.5, 1.0]))
            wp, wn = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
            m = train_weighted(X, y, cost, weight_pos=wp, weight_neg=wn)
            assert m.converged
            box = cost * np.where(y > 0, wp, wn)
            Xy = np.hstack([X, np.ones((n, 1))]) * y[:, None]
            Q = Xy @ Xy.T

            def negative_dual(alpha):
                Qa = Q @ alpha
                return 0.5 * alpha @ Qa - alpha.sum(), Qa - 1.0

            res = minimize(negative_dual, np.zeros(n), jac=True,
                           method="L-BFGS-B", bounds=list(zip(np.zeros(n), box)),
                           options={"maxiter": 10_000, "ftol": 1e-15,
                                    "gtol": 1e-12})
            dual = -res.fun
            primal = weighted_primal(m.weights, m.bias, X, y, box)
            assert primal * (1 - SOLVER_GAP) <= dual + 1e-9 * abs(dual), \
                (trial, primal, dual)
            assert primal <= dual * (1 + 1e-3), (trial, primal, dual)
            assert primal >= dual - 1e-9 * abs(dual), (trial, primal, dual)

    @pytest.mark.parametrize("batch_bytes", [svm._BATCH_BYTES, 1])
    def test_each_pair_of_a_batch_equals_its_one_pair_solve(self, monkeypatch,
                                                            batch_bytes):
        """55 pairs of unequal sizes, padded into one batch (or one chunk per
        pair), against each pair solved alone."""
        monkeypatch.setattr(svm, "_BATCH_BYTES", batch_bytes)
        rng = np.random.default_rng(32)
        labels = [f"c{i:02d}" for i in range(11)]
        y = np.repeat(labels, rng.integers(8, 30, 11))
        X = rng.normal(size=(len(y), 10)) + 0.4 * rng.normal(size=(11, 10))[
            np.searchsorted(labels, y)]
        weights = inverse_frequency_weights(list(y))
        pairs = list(combinations(labels, 2))
        problems = []
        for pos, neg in pairs:
            mask = (y == pos) | (y == neg)
            problems.append((X[mask], np.where(y[mask] == pos, 1.0, -1.0),
                             weights[pos], weights[neg]))
        batch = svm._train_pairs([svm._pair_problem(*p) for p in problems],
                                 pairs, 0.5)
        assert len(batch) == 55
        for pair, machine, problem in zip(pairs, batch, problems):
            X_pair, y_pair, weight_pos, weight_neg = problem
            alone = train_weighted(X_pair, y_pair, 0.5, weight_pos, weight_neg, pair)
            assert (machine.class_pos, machine.class_neg) == pair
            v = np.append(machine.weights, machine.bias)
            v_alone = np.append(alone.weights, alone.bias)
            assert np.abs(v - v_alone).max() <= 1e-9 * np.abs(v_alone).max()
            assert machine.objective_history == pytest.approx(
                alone.objective_history, rel=1e-9)
            assert machine.converged and alone.converged


class TestStandardiser:
    def test_mean_one_std_one(self):
        X = np.array([[0.0] * 10, [2.0] * 10])
        s = fit_standardiser(X)
        np.testing.assert_array_equal(s.mean, np.ones(10))
        np.testing.assert_array_equal(s.std, np.ones(10))

    def test_single_vector_keeps_divisor_one(self):
        s = fit_standardiser(np.array([[3.0, 5.0]]))
        np.testing.assert_array_equal(s.std, np.ones(2))

    def test_self_transform_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(7)
        X = rng.normal(3, 5, size=(50, 4))
        Xs = fit_standardiser(X).transform(X)
        np.testing.assert_allclose(Xs.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(Xs.std(axis=0), 1, atol=1e-12)


class TestInverseFrequencyWeights:
    def test_formula(self):
        y = ["a"] * 6 + ["b"] * 3 + ["c"] * 1
        w = inverse_frequency_weights(y)
        assert w["a"] == pytest.approx(10 / (3 * 6))
        assert w["b"] == pytest.approx(10 / (3 * 3))
        assert w["c"] == pytest.approx(10 / (3 * 1))


def toy_machine(ci, cj, w, b):
    return BinarySvm(class_pos=ci, class_neg=cj, weights=np.array(w), bias=b,
                     cost=1.0)


class TestVoting:
    def test_two_votes_beat_any_rival(self):
        # (A,B) and (A,C) vote A regardless of (B,C)
        machines = [toy_machine("A", "B", [1.0], 0.5),   # d=1.5 > 0 -> A
                    toy_machine("A", "C", [1.0], 0.5),   # A
                    toy_machine("B", "C", [1.0], -2.0)]  # d=-1 -> C
        out = _predict_standardised(machines, ("A", "B", "C"), np.array([[1.0]]))
        assert out == ["A"]

    def test_three_way_tie_resolved_by_decision_strength(self):
        # each class gets exactly one vote; C's vote is the strongest
        machines = [toy_machine("A", "B", [0.0], 0.1),    # A, |d|=0.1
                    toy_machine("A", "C", [0.0], -5.0),   # C, |d|=5.0
                    toy_machine("B", "C", [0.0], 0.2)]    # B, |d|=0.2
        out = _predict_standardised(machines, ("A", "B", "C"), np.array([[0.0]]))
        assert out == ["C"]

    def test_remaining_tie_goes_to_lower_class_index(self):
        machines = [toy_machine("A", "B", [0.0], 1.0),    # A, 1.0
                    toy_machine("A", "C", [0.0], -1.0),   # C, 1.0
                    toy_machine("B", "C", [0.0], 1.0)]    # B, 1.0
        out = _predict_standardised(machines, ("A", "B", "C"), np.array([[0.0]]))
        assert out == ["A"]

    def test_zero_decision_votes_lower_class(self):
        machines = [toy_machine("A", "B", [0.0], 0.0)]
        out = _predict_standardised(machines, ("A", "B"), np.array([[3.0]]))
        assert out == ["A"]

    def test_vectorised_tie_break_equals_the_per_row_rule(self):
        """Decisions on a few integer levels force vote ties and, among the
        tied classes, strength ties."""
        rng = np.random.default_rng(33)
        labels = ("a", "b", "c", "d", "e")
        index = {lab: i for i, lab in enumerate(labels)}
        X = np.array([[i, j] for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])
        rows = np.arange(len(X))
        vote_ties = strength_ties = 0
        for _trial in range(20):
            machines = [toy_machine(pos, neg, rng.integers(-1, 2, 2).astype(float),
                                    float(rng.integers(-1, 2)))
                        for pos, neg in combinations(labels, 2)]
            votes = np.zeros((len(X), len(labels)), dtype=int)
            strength = np.zeros((len(X), len(labels)))
            for m in machines:
                d = X @ m.weights + m.bias
                winner = np.where(d >= 0.0, index[m.class_pos], index[m.class_neg])
                votes[rows, winner] += 1
                strength[rows, winner] += np.abs(d)
            expected = []
            for row_votes, row_strength in zip(votes, strength):
                tied = np.flatnonzero(row_votes == row_votes.max())
                vote_ties += len(tied) > 1
                s = row_strength[tied]
                tied = tied[np.flatnonzero(s == s.max())]
                strength_ties += len(tied) > 1
                expected.append(labels[tied[0]])
            assert _predict_standardised(machines, labels, X) == expected
        assert vote_ties > 20 and strength_ties > 10

    def test_stacked_vote_equals_the_per_machine_loop(self):
        """The per-machine loop the vote used to run is the reference.  Float
        weights make each strength a sum that rounds; zeroed rows decide by
        the biases, +-0.5 and +-0.25, which forces vote and strength ties."""
        def loop_vote(machines, labels, X):
            index = {lab: i for i, lab in enumerate(labels)}
            votes = np.zeros((len(X), len(labels)), dtype=np.int32)
            strength = np.zeros((len(X), len(labels)))
            for m in machines:
                d = X @ m.weights + m.bias
                pos = d >= 0.0
                i, j = index[m.class_pos], index[m.class_neg]
                votes[pos, i] += 1
                votes[~pos, j] += 1
                strength[pos, i] += np.abs(d[pos])
                strength[~pos, j] += np.abs(d[~pos])
            tied = votes == votes.max(axis=1, keepdims=True)
            best = np.where(tied, strength, -1.0)
            strength_tied = (best == best.max(axis=1, keepdims=True)).sum(axis=1) > 1
            return ([labels[i] for i in best.argmax(axis=1)],
                    int((tied.sum(axis=1) > 1).sum()), int(strength_tied.sum()))

        rng = np.random.default_rng(29)
        vote_ties = strength_ties = 0
        for _trial in range(30):
            labels = tuple(f"c{i}" for i in range(rng.integers(2, 8)))
            machines = [toy_machine(pos, neg, rng.normal(size=3),
                                    float(rng.choice([-0.5, -0.25, 0.25, 0.5])))
                        for pos, neg in combinations(labels, 2)]
            X = rng.normal(size=(40, 3))
            X[rng.random(40) < 0.3] = 0.0
            expected, votes_tied, strengths_tied = loop_vote(machines, labels, X)
            assert _predict_standardised(machines, labels, X) == expected
            vote_ties += votes_tied
            strength_ties += strengths_tied
        assert vote_ties >= 20 and strength_ties >= 10

    def test_vote_count_bound(self):
        rng = np.random.default_rng(11)
        labels = sorted(f"c{i:02d}" for i in range(11))
        y = np.repeat(labels, 12)
        X = rng.normal(size=(len(y), 4)) + np.repeat(np.arange(11), 12)[:, None]
        machines = pair_machines(X, y, 1.0)
        assert len(machines) == 55  # K(K-1)/2 for K = 11
        # winner's vote count is at least the ceiling of the average (55/11)
        index = {lab: i for i, lab in enumerate(labels)}
        probe = rng.normal(size=(40, 4)) + rng.integers(0, 11, 40)[:, None]
        votes = np.zeros((40, 11), dtype=int)
        for m in machines:
            d = probe @ m.weights + m.bias
            votes[d >= 0, index[m.class_pos]] += 1
            votes[d < 0, index[m.class_neg]] += 1
        assert np.all(votes.sum(axis=1) == 55)
        winners = _predict_standardised(machines, labels, probe)
        for row, winner in zip(votes, winners):
            assert row[index[winner]] >= int(np.ceil(55 / 11))
            assert row[index[winner]] == row.max()


class TestOvoAndSelection:
    def make_blobs(self, rng, n_per_class=30, spread=0.25):
        centres = {"a": (-2, 0), "b": (2, 0), "c": (0, 2.5)}
        X, y = [], []
        for lab, c in centres.items():
            X.append(rng.normal(c, spread, size=(n_per_class, 2)))
            y += [lab] * n_per_class
        return np.vstack(X), np.array(y, dtype=object)

    def test_deep_interior_point_predicted_correctly(self):
        rng = np.random.default_rng(12)
        X, y = self.make_blobs(rng)
        std = fit_standardiser(X)
        machines = pair_machines(std.transform(X), y, 5.0)
        model = OvoModel(labels=("a", "b", "c"), standardiser=std, cost=5.0,
                         machines=machines)
        assert predict(model, np.array([[-2.0, 0.0]])) == ["a"]
        assert predict(model, np.array([[0.0, 2.5]])) == ["c"]

    def test_single_cost_grid_degenerates_to_plain_training(self, monkeypatch):
        monkeypatch.setattr(svm, "COST_GRID", (0.1,))
        rng = np.random.default_rng(13)
        X, y = self.make_blobs(rng)
        idx = rng.permutation(len(y))
        train, val = idx[:60], idx[60:]
        model, diag = nested_select(X, y, train, val)
        assert model.cost == 0.1
        assert diag["chosen_costs"] == 0.1
        assert list(diag["validation_uar"]) == ["0.1"]
        assert diag["capped_machines"] == 0
        assert 0.0 <= diag["max_relative_gap"] <= SOLVER_GAP
        assert diag["solver_epochs"] >= 6  # 3 pairs, validation and refit

    def test_tie_resolves_to_smaller_cost(self, monkeypatch):
        monkeypatch.setattr(svm, "COST_GRID", (0.5, 0.1, 1.0))
        rng = np.random.default_rng(14)
        X, y = self.make_blobs(rng, spread=0.05)  # every cost gets UAR 1.0
        idx = rng.permutation(len(y))
        model, diag = nested_select(X, y, idx[:60], idx[60:])
        scores = diag["validation_uar"]
        assert scores["0.1"] == scores["0.5"] == scores["1"] == 1.0
        assert model.cost == 0.1

    def test_selection_is_argmax_of_measured_validation_uar(self):
        rng = np.random.default_rng(15)
        X, y = self.make_blobs(rng, spread=1.4)  # noisy, selection non-trivial
        idx = rng.permutation(len(y))
        model, diag = nested_select(X, y, idx[:60], idx[60:])
        scores = diag["validation_uar"]
        best = max(scores.values())
        assert scores[format(model.cost, "g")] == best
        assert model.cost == min(float(c) for c, s in scores.items() if s == best)

    def test_scale_equivariance_via_standardisation(self, monkeypatch):
        monkeypatch.setattr(svm, "COST_GRID", (1.0,))
        rng = np.random.default_rng(16)
        X, y = self.make_blobs(rng)
        idx = rng.permutation(len(y))
        train, val = idx[:60], idx[60:]
        model1, _ = nested_select(X, y, train, val)
        scale = np.array([3.0, 0.2])
        shift = np.array([7.0, -4.0])
        model2, _ = nested_select(X * scale + shift, y, train, val)
        probe = rng.normal(0, 2, size=(25, 2))
        assert predict(model1, probe) == predict(model2, probe * scale + shift)


def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    X = np.vstack([rng.normal(-1, 0.3, (20, 10)), rng.normal(1, 0.3, (20, 10))])
    y = np.array(["neg"] * 20 + ["pos"] * 20, dtype=object)
    model, _ = nested_select(X, y, np.arange(0, 40, 2), np.arange(1, 40, 2))
    std = model.standardiser
    path = tmp_path / "model.csv"
    write_model(path, model, comment="test model")
    back = read_model(path)
    assert back.labels == model.labels
    assert back.cost == model.cost
    np.testing.assert_array_equal(back.standardiser.mean, std.mean)
    np.testing.assert_array_equal(back.machines[0].weights,
                                  model.machines[0].weights)
    probe = rng.normal(size=(10, 10))
    assert predict(back, probe) == predict(model, probe)
    # model files keep no gap, and a machine read back counts as converged
    assert all(m.converged is True and np.isnan(m.gap) for m in back.machines)


@pytest.fixture
def model_lines(tmp_path):
    """A three-label model file's lines, and the path to write edits to."""
    rng = np.random.default_rng(21)
    labels = ("a", "b", "c")
    X = np.vstack([rng.normal(3 * i, 0.5, (10, 4)) for i in range(3)])
    y = np.repeat(labels, 10).astype(object)
    model, _ = nested_select(X, y, np.arange(0, 30, 2), np.arange(1, 30, 2))
    path = tmp_path / "model.csv"
    write_model(path, model, comment="test model")
    return path.read_text().splitlines(keepends=True), path


NOT_A_PAIR = "is not a pair of two labels, or is listed twice"


def refusal(path, lines) -> str:
    """read_model's refusal of lines written to path."""
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as refused:
        read_model(path)
    return str(refused.value)


def edited(lines, row, field, text):
    """lines with field `field` of the first row starting `row,` set to text,
    appended when field is one past the row's end, or deleted when text is None."""
    at = next(i for i, line in enumerate(lines) if line.startswith(row + ","))
    fields = lines[at].rstrip("\n").split(",")
    fields[field:field + 1] = [] if text is None else [text]
    return lines[:at] + [",".join(fields) + "\n"] + lines[at + 1:]


@pytest.mark.parametrize("row", ["mean", "std"])
def test_read_model_refuses_a_missing_standardiser_row(model_lines, row):
    lines, path = model_lines
    assert refusal(path, [l for l in lines if not l.startswith(row + ",")]) == (
        f"{path}: incomplete model file, no {row}")


def test_read_model_reads_a_file_with_a_zero_variance_row_as_before(model_lines):
    lines, path = model_lines
    before = read_model(path)
    std_row = next(i for i, line in enumerate(lines) if line.startswith("std,"))
    width = lines[std_row].count(",")
    lines.insert(std_row + 1, "zero_variance" + ",0" * width + "\n")
    path.write_text("".join(lines))
    after = read_model(path)
    assert (after.labels, after.cost) == (before.labels, before.cost)
    for field in ("mean", "std"):
        np.testing.assert_array_equal(getattr(after.standardiser, field),
                                      getattr(before.standardiser, field))
    assert [(m.class_pos, m.class_neg, m.bias, m.weights.tolist())
            for m in after.machines] == [
        (m.class_pos, m.class_neg, m.bias, m.weights.tolist()) for m in before.machines]


def test_read_model_refuses_mean_and_std_rows_of_unequal_length(model_lines):
    lines, path = model_lines
    assert refusal(path, edited(lines, "std", 4, None)) == (
        f"{path}: the mean and std rows differ in length")


def test_read_model_refuses_a_number_that_does_not_parse(model_lines):
    lines, path = model_lines
    assert refusal(path, edited(lines, "mean", 1, "abc")) == (
        f"{path}: mean row: 'abc' is not a finite number")


# (row, the field index in it, the text put there, the error's end); field 3
# of a machine row is its bias, field 4 its first weight
@pytest.mark.parametrize("row, field, text, error", [
    ("cost", 1, "nan", "cost row: 'nan' is not a finite number"),
    ("mean", 2, "inf", "mean row: 'inf' is not a finite number"),
    ("std", 1, "nan", "std row: 'nan' is not a finite number"),
    ("machine", 3, "-inf", "machine 0 row: '-inf' is not a finite number"),
    ("machine", 4, "nan", "machine 0 row: 'nan' is not a finite number"),
    ("std", 1, "0", "std row: '0' is not above 0"),
    ("std", 3, "-0.5", "std row: '-0.5' is not above 0"),
], ids=["cost", "mean", "std", "bias", "weight", "zero_std", "negative_std"])
def test_read_model_refuses_a_number_predict_cannot_use(model_lines, row, field,
                                                        text, error):
    lines, path = model_lines
    assert refusal(path, edited(lines, row, field, text)) == f"{path}: {error}"


# (row, the field index in it, the text put there, the error's end); the
# machine rows are a,b then a,c then b,c
@pytest.mark.parametrize("row, field, text, error", [
    ("std", 0, "mean", "mean row: listed twice"),
    ("cost", 2, "99", "cost row: 2 numbers, expected 1"),
    ("cost", 1, "0", "cost row: '0' is not above 0"),
    ("labels", 2, "a", "labels row: a label is listed twice"),
    ("machine,a,b", 2, "a", "machine 0 row: a vs a " + NOT_A_PAIR),
    ("machine,b,c", 1, "a", "machine 2 row: a vs c " + NOT_A_PAIR),
], ids=["second_mean", "extra_cost", "zero_cost", "repeated_label", "same_label_twice",
        "repeated_pair"])
def test_read_model_refuses_a_row_predict_would_misuse(model_lines, row, field, text,
                                                       error):
    lines, path = model_lines
    assert refusal(path, edited(lines, row, field, text)) == f"{path}: {error}"


def test_read_model_refuses_a_file_cut_mid_row(model_lines):
    lines, path = model_lines
    cut = lines[-1][:[i for i, ch in enumerate(lines[-1]) if ch == ","][5]]
    assert refusal(path, lines[:-1] + [cut]) == (
        f"{path}: machine 2 row: 2 weights, the standardiser 4 features")


def test_read_model_refuses_a_blank_line(model_lines):
    lines, path = model_lines
    labels_row = next(i for i, line in enumerate(lines) if line.startswith("labels,"))
    lines.insert(labels_row + 1, "\n")
    assert refusal(path, lines) == f"{path}:{labels_row + 2}: blank line"


def test_read_model_refuses_a_machine_with_an_unknown_label(model_lines):
    lines, path = model_lines
    assert refusal(path, edited(lines, "machine,b,c", 2, "z")) == (
        f"{path}: machine 2 row: b vs z " + NOT_A_PAIR)


def test_read_model_refuses_a_missing_machine(model_lines):
    lines, path = model_lines
    assert refusal(path, lines[:-1]) == f"{path}: 2 machines for 3 labels, expected 3"
