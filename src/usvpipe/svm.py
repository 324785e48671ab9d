"""Class-weighted one-vs-one linear SVM with an in-repo solver.

The binary machines minimise 0.5*||v||^2 + sum_i U_i * max(0, 1 - y_i v.x_i)
where x carries an appended constant-1 feature, so the bias lives inside v
(and inside the regulariser).  U_i is the cost parameter scaled by the
inverse class frequency of sample i.  The solver is coordinate ascent on
the dual with a per-sample box [0, U_i] and shrinking (Hsieh et al., ICML
2008, "A Dual Coordinate Descent Method for Large-scale Linear SVM",
section 3.2).  An epoch is one pass over the active rows in a seeded
shuffle.  A row at alpha = 0 whose gradient is above the previous epoch's
largest projected gradient, or at alpha = U_i with a gradient below the
most negative one, leaves the active set.  A full pass over every row,
with nothing shrunk, comes first and comes again when the active rows'
largest |projected gradient| falls below tol or below a tenth of the one
measured on the last full pass; the second trigger brings back rows that
were shrunk too early.  The solver stops only after a full pass whose
largest |projected gradient| is below tol, and the machine records whether
it got there before the epoch cap.  After every epoch the primal objective
of the current iterate is evaluated and the best iterate seen so far
becomes the solution estimate (the best-primal incumbent).  The exposed
objective history is the incumbent's, so it is non-increasing, and the
returned machine is never worse than the final dual iterate.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .artifacts import read_table, write_table
from .evaluation import uar_from_labels
from .exceptions import SingleClassDataError
from .seeding import rng_for

COST_GRID = (0.0001, 0.001, 0.005, 0.05, 0.1, 0.5, 1.0)
SOLVER_TOL = 1e-4
SOLVER_MAX_EPOCHS = 2000


def _entropy(seed) -> tuple[int, ...]:
    """Normalise int-or-tuple seeds so child streams can be derived."""
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def _as_rng(seed) -> np.random.Generator:
    return rng_for(*_entropy(seed))


@dataclass(frozen=True)
class Standardiser:
    """Per-feature mean/std of the development set (population std).

    Features with zero variance keep divisor 1 and are flagged in
    zero_variance so downstream reporting can surface them.
    """

    mean: np.ndarray
    std: np.ndarray
    zero_variance: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def fit_standardiser(X: np.ndarray) -> Standardiser:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty feature matrix")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    zero = std == 0.0
    return Standardiser(mean=mean, std=np.where(zero, 1.0, std), zero_variance=zero)


def inverse_frequency_weights(y: Sequence[str]) -> dict[str, float]:
    """weight(k) = N / (K * n_k) over the development labels."""
    counts = Counter(y)
    n, k = len(y), len(counts)
    return {lab: n / (k * c) for lab, c in counts.items()}


@dataclass(frozen=True)
class BinarySvm:
    """One pairwise machine; decision d(x) = w.x + b in standardised space.

    d > 0 votes class_pos, d < 0 votes class_neg, d = 0 votes class_pos
    (the alphabetically lower class of the pair).  converged is False when
    the solver stopped at its epoch cap; model files do not record it, so a
    machine read back from one says True.
    """

    class_pos: str
    class_neg: str
    weights: np.ndarray
    bias: float
    cost: float
    objective_history: tuple = field(default=(), repr=False, compare=False)
    converged: bool = field(default=True, repr=False, compare=False)


def _primal_objective(v: np.ndarray, Xy: np.ndarray, box: np.ndarray) -> float:
    slack = 1.0 - Xy.dot(v)
    return 0.5 * float(v.dot(v)) + float(box.dot(np.maximum(slack, 0.0, out=slack)))


def _solve_dual(Xa: np.ndarray, y: np.ndarray, box: np.ndarray,
                rng: np.random.Generator, tol: float, max_epochs: int,
                ) -> tuple[np.ndarray, tuple[float, ...], bool]:
    """Dual coordinate ascent with shrinking.

    Returns the best-primal iterate, its history (one entry per epoch) and
    whether a full pass over every row met tol before max_epochs ran out.
    """
    n = Xa.shape[0]
    Xy = Xa * y[:, None]
    # Row views bound once for BLAS ddot/daxpy, whose call cost on rows
    # this short is about a third of ndarray.dot's and v += c * row's.
    rows = list(Xy)
    qdiag = np.einsum("ij,ij->i", Xy, Xy).tolist()  # >= 1: the bias feature
    upper = box.tolist()
    v = np.zeros(Xa.shape[1])
    alpha = [0.0] * n
    best_obj = _primal_objective(v, Xy, box)
    best_v = v.copy()
    history = [best_obj]
    everyone = list(range(n))
    active = everyone
    full_pass, converged = True, False
    full_violation = shrink_hi = np.inf
    shrink_lo = -np.inf
    for _ in range(max_epochs):
        pg_hi = pg_lo = 0.0  # largest and most negative projected gradient
        kept = []
        order = list(active)
        rng.shuffle(order)  # the same draws and order as rng.permutation
        for i in order:
            g = ddot(rows[i], v) - 1.0
            a = alpha[i]
            # Where the projected gradient is 0 the row is idle at a bound;
            # it stays active unless its gradient is past the threshold.
            if a <= 0.0:
                if g >= 0.0:
                    if g <= shrink_hi:
                        kept.append(i)
                    continue
            elif a >= upper[i]:
                if g <= 0.0:
                    if g >= shrink_lo:
                        kept.append(i)
                    continue
            kept.append(i)
            if g > pg_hi:
                pg_hi = g
            elif g < pg_lo:
                pg_lo = g
            new_a = a - g / qdiag[i]
            if new_a < 0.0:
                new_a = 0.0
            elif new_a > upper[i]:
                new_a = upper[i]
            if new_a != a:
                v = daxpy(rows[i], v, a=new_a - a)  # in place
                alpha[i] = new_a
        obj = _primal_objective(v, Xy, box)
        if obj < best_obj:
            best_obj = obj
            best_v = v.copy()
        history.append(best_obj)
        violation = max(pg_hi, -pg_lo)
        if full_pass:
            if violation < tol:
                converged = True
                break
            full_violation = violation
            full_pass = False
        elif violation < tol or violation < 0.1 * full_violation:
            full_pass = True
        if full_pass:
            active, shrink_hi, shrink_lo = everyone, np.inf, -np.inf
        else:
            active = sorted(kept)  # the order depends on the set and rng only
            shrink_hi = pg_hi if pg_hi > 0.0 else np.inf
            shrink_lo = pg_lo if pg_lo < 0.0 else -np.inf
    return best_v, tuple(history), converged


def train_binary(X: np.ndarray, y: np.ndarray, cost: float,
                 weight_pos: float = 1.0, weight_neg: float = 1.0,
                 seed=0, class_pair: tuple[str, str] = ("+1", "-1"),
                 tol: float = SOLVER_TOL,
                 max_epochs: int = SOLVER_MAX_EPOCHS) -> BinarySvm:
    """Train one weighted hinge-loss machine on +/-1 labels.

    Deterministic for fixed inputs and seed; convergence when the largest
    |projected dual gradient| over a full pass drops below tol.  converged
    is False when max_epochs ran out first.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64)
    if not ((y > 0).any() and (y < 0).any()):
        raise SingleClassDataError("both classes must be present")
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    box = cost * np.where(y > 0, weight_pos, weight_neg)
    v, history, converged = _solve_dual(Xa, y, box, _as_rng(seed), tol,
                                        max_epochs)
    return BinarySvm(class_pos=class_pair[0], class_neg=class_pair[1],
                     weights=v[:-1], bias=float(v[-1]), cost=cost,
                     objective_history=history, converged=converged)


@dataclass(frozen=True)
class OvoModel:
    """K*(K-1)/2 pairwise machines plus the standardiser fitted on full dev."""

    labels: tuple[str, ...]
    standardiser: Standardiser
    cost: float
    machines: tuple[BinarySvm, ...]


def fit_ovo(X_std: np.ndarray, y: Sequence[str], cost: float,
            class_weights: dict[str, float], seed=0) -> tuple[BinarySvm, ...]:
    """One machine per unordered label pair, trained on standardised features."""
    y = np.asarray(y, dtype=object)
    labels = sorted(set(y))
    machines = []
    for pair_index, (lab_i, lab_j) in enumerate(combinations(labels, 2)):
        mask = (y == lab_i) | (y == lab_j)
        ysub = np.where(y[mask] == lab_i, 1.0, -1.0)
        child_seed = _entropy(seed) + (pair_index,)
        machines.append(train_binary(
            X_std[mask], ysub, cost,
            weight_pos=class_weights[lab_i], weight_neg=class_weights[lab_j],
            seed=child_seed, class_pair=(lab_i, lab_j)))
    return tuple(machines)


def _predict_standardised(machines: Sequence[BinarySvm], labels: Sequence[str],
                          X_std: np.ndarray) -> list[str]:
    """Majority vote; ties go to the larger sum of |decision| collected by the
    tied class's winning machines, then to the lower class index."""
    X_std = np.atleast_2d(X_std)
    n, k = X_std.shape[0], len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    votes = np.zeros((n, k), dtype=np.int32)
    strength = np.zeros((n, k))
    for m in machines:
        d = X_std @ m.weights + m.bias
        pos = d >= 0.0
        i, j = index[m.class_pos], index[m.class_neg]
        votes[pos, i] += 1
        votes[~pos, j] += 1
        strength[pos, i] += np.abs(d[pos])
        strength[~pos, j] += np.abs(d[~pos])
    out = []
    for r in range(n):
        tied = np.flatnonzero(votes[r] == votes[r].max())
        if len(tied) > 1:
            s = strength[r, tied]
            tied = tied[np.flatnonzero(s == s.max())]
        out.append(labels[tied[0]])
    return out


def predict(model: OvoModel, X_raw: np.ndarray) -> list[str]:
    """Standardise raw feature rows and run the one-vs-one vote."""
    return _predict_standardised(model.machines, model.labels,
                                 model.standardiser.transform(np.atleast_2d(X_raw)))


def nested_select(X_dev: np.ndarray, y_dev: Sequence[str],
                  train_idx: np.ndarray, val_idx: np.ndarray,
                  grid: Sequence[float] = COST_GRID, seed=0,
                  ) -> tuple[OvoModel, dict]:
    """Pick the cost by validation UAR, then retrain on the full dev set.

    The standardiser and the class weights come from the full development
    set and are reused in both stages.  Ties in validation UAR resolve to
    the smaller cost.  The diagnostics count the machines of both stages
    that stopped at the epoch cap without reaching tol.
    """
    X_dev = np.asarray(X_dev, dtype=np.float64)
    y_dev = np.asarray(y_dev, dtype=object)
    standardiser = fit_standardiser(X_dev)
    X_std = standardiser.transform(X_dev)
    weights = inverse_frequency_weights(list(y_dev))
    labels = tuple(sorted(set(y_dev)))
    base = _entropy(seed)

    y_val = list(y_dev[val_idx])
    best_cost, best_uar = None, -1.0
    validation_uar: dict[float, float] = {}
    capped = 0
    for grid_index, cost in enumerate(sorted(grid)):
        machines = fit_ovo(X_std[train_idx], list(y_dev[train_idx]), cost,
                           weights, seed=base + (1, grid_index))
        capped += sum(not m.converged for m in machines)
        score = uar_from_labels(
            y_val, _predict_standardised(machines, labels, X_std[val_idx]))
        validation_uar[cost] = score
        if score > best_uar:
            best_uar, best_cost = score, cost
    final = fit_ovo(X_std, list(y_dev), best_cost, weights, seed=base + (2,))
    capped += sum(not m.converged for m in final)
    model = OvoModel(labels=labels, standardiser=standardiser,
                     cost=best_cost, machines=final)
    return model, {"chosen_cost": best_cost, "validation_uar": validation_uar,
                   "capped_machines": capped}


def write_model(path: str | Path, model: OvoModel,
                comment: str | None = None) -> None:
    """CSV-like model dump: the chosen cost in the header's place, standardiser
    stats, then one row per machine (so rows vary in width and have no header)."""
    write_table(path, ("cost", repr(float(model.cost))), [
        ["labels"] + list(model.labels),
        ["mean"] + [repr(float(v)) for v in model.standardiser.mean],
        ["std"] + [repr(float(v)) for v in model.standardiser.std],
        ["zero_variance"] + [str(int(v)) for v in model.standardiser.zero_variance],
    ] + [["machine", m.class_pos, m.class_neg, repr(float(m.bias))]
         + [repr(float(w)) for w in m.weights] for m in model.machines], comment)


def read_model(path: str | Path) -> OvoModel:
    rows: dict[str, list[str]] = {}
    machine_rows = []
    for row in read_table(path):
        if row[0] == "machine":
            machine_rows.append(row)
        else:
            rows[row[0]] = row[1:]
    if "cost" not in rows or "labels" not in rows:
        raise ValueError(f"{path}: incomplete model file")
    cost = float(rows["cost"][0])
    standardiser = Standardiser(
        mean=np.array([float(v) for v in rows["mean"]]),
        std=np.array([float(v) for v in rows["std"]]),
        zero_variance=np.array([v == "1" for v in rows["zero_variance"]]))
    machines = tuple(BinarySvm(class_pos=row[1], class_neg=row[2],
                               weights=np.array([float(v) for v in row[4:]]),
                               bias=float(row[3]), cost=cost)
                     for row in machine_rows)
    return OvoModel(labels=tuple(rows["labels"]), standardiser=standardiser,
                    cost=cost, machines=machines)
