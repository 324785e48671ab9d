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
most negative one, leaves the active set.  A full pass over every row
comes first and comes again when the active rows' largest |projected
gradient| falls below a tenth of the one measured on the last full pass,
which brings back rows that were shrunk too early.  After each epoch on
the shrunk active set, when the free rows F (0 < alpha_i < U_i) number at
least one and at most the feature count plus the bias column, a Newton
step on their face solves (X_F X_F^T) delta = -g_F by least squares and
moves alpha_F as far along delta as the box allows, up to the full step.
Single-coordinate steps crawl where a few free rows are strongly coupled,
as on separable pairs with a handful of support vectors; the face step
reaches the face's optimum in one move unless a row meets its bound first,
and it never lowers the dual.  After every epoch the best-primal iterate so
far (the incumbent) becomes the solution estimate, so the exposed objective
history is non-increasing.  The solver stops once the relative duality gap
(incumbent primal - dual) / incumbent primal, with the dual
sum(alpha) - 0.5*||v||^2 of the current iterate (Hsieh et al.,
section 2), is at most SOLVER_GAP.  By weak duality the gap bounds the
incumbent's relative suboptimality over every row, shrunk or not (the gap
as a stopping certificate: Shalev-Shwartz & Zhang, JMLR 2013).  A machine
is converged exactly when its final gap met SOLVER_GAP within SOLVER_MAX_EPOCHS.

A solve may start from any feasible dual vector instead of alpha = 0.
nested_select trains each class pair's costs in rising order, each one
started from the previous cost's final alpha: the box only grows along the
path, so that alpha stays feasible (warm starts along the regularisation
path: Chu et al., KDD 2015).  The refit at the chosen cost starts from that
cost's alpha on the train rows and 0 on the val rows.  The caller's map
decides whether the pairs run in this process or in workers.
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
SOLVER_GAP = 1e-4  # relative duality gap that certifies a machine
SOLVER_MAX_EPOCHS = 2000


def _entropy(seed) -> tuple[int, ...]:
    """Normalise int-or-tuple seeds so child streams can be derived."""
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


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
    (the alphabetically lower class of the pair).  gap is the last relative
    duality gap the solver measured, and dual the solver's final alpha, a
    feasible start for a solve whose box is at least as large.  Model files
    record neither, so a machine read back from one has gap NaN and dual None.
    """

    class_pos: str
    class_neg: str
    weights: np.ndarray
    bias: float
    cost: float
    objective_history: tuple = field(default=(), repr=False, compare=False)
    gap: float = field(default=float("nan"), repr=False, compare=False)
    dual: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        """False when the solver reached SOLVER_MAX_EPOCHS before the gap met
        SOLVER_GAP; True for a machine read back from a model file."""
        return not self.gap > SOLVER_GAP


def _primal_objective(v: np.ndarray, Xy: np.ndarray, box: np.ndarray,
                      ) -> tuple[float, float]:
    """The primal objective at v, and ||v||^2 for the dual."""
    vv = float(v.dot(v))
    slack = 1.0 - Xy.dot(v)
    return 0.5 * vv + float(box.dot(np.maximum(slack, 0.0, out=slack))), vv


def _face_step(Xy: np.ndarray, box: np.ndarray, v: np.ndarray,
               alpha: list, free: list) -> float:
    """Newton step on the free rows F, truncated to their box.

    Solves (X_F X_F^T) delta = -g_F by least squares, so duplicated or
    collinear free rows are safe, and moves alpha_F by t * delta with the
    largest t <= 1 that stays in the box.  With Q = X_F X_F^T the dual rises
    by (t - t^2/2) * g_F^T Q^+ g_F >= 0 along this direction.  Updates v
    and alpha in place and returns the change of sum(alpha).
    """
    XF = Xy[free]
    a = np.array([alpha[i] for i in free])
    upper = box[free]
    delta = np.linalg.lstsq(XF @ XF.T, 1.0 - XF.dot(v), rcond=None)[0]
    # |delta| over the room towards the bound it heads for; free rows lie
    # strictly inside their box, so every room is positive.
    reach = np.abs(delta) / np.where(delta < 0.0, a, upper - a)
    block = int(reach.argmax())
    if reach[block] <= 1.0:
        new = np.clip(a + delta, 0.0, upper)
    else:  # t = 1 / reach[block] < 1: the blocking row lands on its bound
        new = np.clip(a + delta / reach[block], 0.0, upper)
        new[block] = 0.0 if delta[block] < 0.0 else upper[block]
    step = new - a
    v += XF.T.dot(step)
    for i, value in zip(free, new.tolist()):
        alpha[i] = value
    return float(step.sum())


def _solve_dual(Xa: np.ndarray, y: np.ndarray, box: np.ndarray,
                rng: np.random.Generator, start: np.ndarray,
                ) -> tuple[np.ndarray, tuple[float, ...], float, np.ndarray]:
    """Dual coordinate ascent with shrinking and a Newton step on the free face,
    from the feasible dual vector start.

    An epoch is one coordinate sweep over the active rows; after a sweep of
    the shrunk set (not a full pass) that left between 1 and Xa.shape[1]
    rows strictly inside their box, _face_step moves those rows together.
    The dual rises under both moves, so the incumbent, the gap stop and
    the epoch cap need no change for the face step.

    Returns the best-primal iterate, its history (the start, then one entry
    per epoch), the last relative duality gap measured (at most SOLVER_GAP
    unless SOLVER_MAX_EPOCHS ran out first) and the final alpha.  The first
    epoch is a full pass whatever the start's gap.
    """
    n, dim = Xa.shape
    Xy = Xa * y[:, None]
    # Row views bound once for BLAS ddot/daxpy, whose call cost on rows
    # this short is about a third of ndarray.dot's and v += c * row's.
    rows = list(Xy)
    qdiag = np.einsum("ij,ij->i", Xy, Xy).tolist()  # >= 1: the bias feature
    upper = box.tolist()
    v = Xy.T.dot(start)
    alpha = start.tolist()
    alpha_sum = float(start.sum())
    best_obj, vv = _primal_objective(v, Xy, box)
    best_v = v.copy()
    history = [best_obj]
    gap = (best_obj - (alpha_sum - 0.5 * vv)) / best_obj
    everyone = list(range(n))
    active = everyone
    full_pass = True
    full_violation = shrink_hi = np.inf
    shrink_lo = -np.inf
    for _ in range(SOLVER_MAX_EPOCHS):
        pg_hi = pg_lo = 0.0  # largest and most negative projected gradient
        kept, free = [], []
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
            elif 0.0 < new_a < upper[i]:
                free.append(i)  # a row is visited once, so it ends free
            if new_a != a:
                v = daxpy(rows[i], v, a=new_a - a)  # in place
                alpha[i] = new_a
                alpha_sum += new_a - a
        if not full_pass and 0 < len(free) <= dim:
            alpha_sum += _face_step(Xy, box, v, alpha, free)
        obj, vv = _primal_objective(v, Xy, box)
        if obj < best_obj:
            best_obj = obj
            best_v = v.copy()
        history.append(best_obj)
        gap = (best_obj - (alpha_sum - 0.5 * vv)) / best_obj
        if gap <= SOLVER_GAP:
            break
        violation = max(pg_hi, -pg_lo)
        if full_pass:
            full_violation = violation
            full_pass = False
        elif violation < 0.1 * full_violation:
            full_pass = True
        if full_pass:
            active, shrink_hi, shrink_lo = everyone, np.inf, -np.inf
        else:
            active = sorted(kept)  # the order depends on the set and rng only
            shrink_hi = pg_hi if pg_hi > 0.0 else np.inf
            shrink_lo = pg_lo if pg_lo < 0.0 else -np.inf
    return best_v, tuple(history), gap, np.array(alpha)


def train_binary(X: np.ndarray, y: np.ndarray, cost: float,
                 weight_pos: float = 1.0, weight_neg: float = 1.0,
                 seed=0, class_pair: tuple[str, str] = ("+1", "-1"),
                 start: np.ndarray | None = None) -> BinarySvm:
    """Train one weighted hinge-loss machine on +/-1 labels.

    The solver starts from the dual vector start, one entry per row inside
    the row's box [0, cost * class weight], or from alpha = 0 when start is
    None.  Deterministic for fixed inputs, start and seed; converged is False
    when SOLVER_MAX_EPOCHS ran out before the relative duality gap met
    SOLVER_GAP.  A non-finite feature, whose NaN gap would read as
    converged, and a start of the wrong length or outside the box are a
    ValueError.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not ((y > 0).any() and (y < 0).any()):
        raise SingleClassDataError("both classes must be present")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite numbers")
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    box = cost * np.where(y > 0, weight_pos, weight_neg)
    if start is None:
        start = np.zeros(len(y))
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != y.shape:
            raise ValueError(f"the dual start has shape {start.shape}, "
                             f"the labels {y.shape}")
        if not ((start >= 0.0) & (start <= box)).all():
            raise ValueError("the dual start leaves the box [0, cost * weight]")
    v, history, gap, alpha = _solve_dual(Xa, y, box, rng_for(*_entropy(seed)),
                                         start)
    return BinarySvm(class_pos=class_pair[0], class_neg=class_pair[1],
                     weights=v[:-1], bias=float(v[-1]), cost=cost,
                     objective_history=history, gap=gap, dual=alpha)


@dataclass(frozen=True)
class OvoModel:
    """K*(K-1)/2 pairwise machines plus the standardiser fitted on full dev."""

    labels: tuple[str, ...]
    standardiser: Standardiser
    cost: float
    machines: tuple[BinarySvm, ...]


def _cost_path(task: tuple) -> list[BinarySvm]:
    """Train one class pair at each of the task's costs, in order, each solve
    started from the previous one's final alpha (the first from the task's
    start).  The costs must not fall, so that every start stays inside its
    box.  Module-level, so a process pool can send it by name."""
    X, y, costs, weight_pos, weight_neg, seeds, pair, start = task
    machines = []
    for cost, seed in zip(costs, seeds):
        machine = train_binary(X, y, cost, weight_pos, weight_neg, seed, pair,
                               start)
        machines.append(machine)
        start = machine.dual
    return machines


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
                  train_idx: np.ndarray, val_idx: np.ndarray, seed=0,
                  map_paths=map) -> tuple[OvoModel, dict]:
    """Pick the cost from COST_GRID by validation UAR, then retrain on the
    full dev set.

    Each class pair's machines on the train rows form one warm-started path
    over sorted(COST_GRID); the refit at the chosen cost starts from that
    cost's alpha on the train rows and 0 on the val rows.  map_paths maps
    _cost_path over the pairs' tasks and must return the results in order:
    the built-in map, or a process pool's.  The standardiser and the class
    weights come from the full development set and are reused in both
    stages.  Ties in validation UAR resolve to the smaller cost.  The
    diagnostics carry report.json's provenance keys and JSON-ready values:
    chosen_costs, validation_uar keyed by format(cost, "g"), and over the
    machines of both stages capped_machines (stopped at the epoch cap short
    of the duality gap), max_relative_gap and solver_epochs (the epoch sum).
    """
    X_dev = np.asarray(X_dev, dtype=np.float64)
    y_dev = np.asarray(y_dev, dtype=object)
    standardiser = fit_standardiser(X_dev)
    X_std = standardiser.transform(X_dev)
    weights = inverse_frequency_weights(list(y_dev))
    labels = tuple(sorted(set(y_dev)))
    pairs = list(combinations(labels, 2))
    base = _entropy(seed)
    costs = sorted(COST_GRID)

    def pair_rows(y, pair):
        mask = (y == pair[0]) | (y == pair[1])
        return mask, np.where(y[mask] == pair[0], 1.0, -1.0)

    X_train, y_train = X_std[train_idx], y_dev[train_idx]
    train_masks, tasks = [], []
    for pair_index, pair in enumerate(pairs):
        mask, ysub = pair_rows(y_train, pair)
        train_masks.append(mask)
        tasks.append((X_train[mask], ysub, costs, weights[pair[0]],
                      weights[pair[1]],
                      [base + (1, grid_index, pair_index)
                       for grid_index in range(len(costs))], pair, None))
    paths = list(map_paths(_cost_path, tasks))
    trained = [m for path in paths for m in path]

    y_val = list(y_dev[val_idx])
    best_index, best_uar = None, -1.0
    validation_uar: dict[str, float] = {}
    for grid_index, cost in enumerate(costs):
        machines = [path[grid_index] for path in paths]
        score = uar_from_labels(
            y_val, _predict_standardised(machines, labels, X_std[val_idx]))
        validation_uar[format(cost, "g")] = score
        if score > best_uar:
            best_uar, best_index = score, grid_index
    best_cost = costs[best_index]

    refits = []
    for pair_index, (pair, path, train_mask) in enumerate(
            zip(pairs, paths, train_masks)):
        alpha = np.zeros(len(y_dev))
        alpha[train_idx[train_mask]] = path[best_index].dual
        mask, ysub = pair_rows(y_dev, pair)
        refits.append((X_std[mask], ysub, [best_cost], weights[pair[0]],
                       weights[pair[1]], [base + (2, pair_index)], pair,
                       alpha[mask]))
    final = tuple(m for path in map_paths(_cost_path, refits) for m in path)
    trained += final
    model = OvoModel(labels=labels, standardiser=standardiser,
                     cost=best_cost, machines=final)
    return model, {"chosen_costs": best_cost, "validation_uar": validation_uar,
                   "capped_machines": sum(not m.converged for m in trained),
                   "max_relative_gap": max(m.gap for m in trained),
                   "solver_epochs": sum(len(m.objective_history) - 1
                                        for m in trained)}


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
    """Read back a write_model file.

    ValueError names the path when a row is missing or empty, a number does
    not parse, a machine's weight count differs from the standardiser's, a
    machine names a label not in labels, or the K labels do not come with
    K*(K-1)/2 machines.
    """
    rows: dict[str, list[str]] = {}
    machine_rows = []
    for row in read_table(path):
        if row[0] == "machine":
            machine_rows.append(row[1:])
        else:
            rows[row[0]] = row[1:]
    missing = [key for key in ("cost", "labels", "mean", "std", "zero_variance")
               if not rows.get(key)]
    if missing:
        raise ValueError(f"{path}: incomplete model file, no {', '.join(missing)}")
    labels = tuple(rows["labels"])
    width = len(rows["mean"])
    if len(rows["std"]) != width or len(rows["zero_variance"]) != width:
        raise ValueError(f"{path}: the mean, std and zero_variance rows differ "
                         "in length")
    pairs = len(labels) * (len(labels) - 1) // 2
    if len(machine_rows) != pairs:
        raise ValueError(f"{path}: {len(machine_rows)} machines for "
                         f"{len(labels)} labels, expected {pairs}")
    for number, row in enumerate(machine_rows):
        if len(row) != 3 + width:
            raise ValueError(f"{path}: machine {number} has {len(row) - 3} "
                             f"weights, the standardiser {width} features")
        if row[0] not in labels or row[1] not in labels:
            raise ValueError(f"{path}: machine {number} ({row[0]} vs {row[1]}) "
                             "names a label not in labels")

    def floats(values: list[str]) -> np.ndarray:
        try:
            return np.array([float(v) for v in values])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    cost = float(floats(rows["cost"])[0])
    standardiser = Standardiser(
        mean=floats(rows["mean"]), std=floats(rows["std"]),
        zero_variance=np.array([v == "1" for v in rows["zero_variance"]]))
    machines = []
    for class_pos, class_neg, *numbers in machine_rows:
        values = floats(numbers)
        machines.append(BinarySvm(class_pos=class_pos, class_neg=class_neg,
                                  weights=values[1:], bias=float(values[0]),
                                  cost=cost))
    return OvoModel(labels=labels, standardiser=standardiser,
                    cost=cost, machines=tuple(machines))
