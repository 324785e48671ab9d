"""Class-weighted one-vs-one linear SVM with an in-repo batched solver.

The binary machines minimise 0.5*||v||^2 + sum_i U_i * max(0, 1 - y_i v.x_i)
where x carries an appended constant-1 feature, so the bias lives inside v
(and inside the regulariser).  U_i is the cost parameter scaled by the
inverse class frequency of sample i.  With the rows z_i = y_i x_i stacked
in Z, the dual is max sum(alpha) - 0.5*||Z^T alpha||^2 over the box
0 <= alpha_i <= U_i, and v = Z^T alpha.

The solver is a primal-dual interior-point method on that dual with
Mehrotra's predictor-corrector steps (Mehrotra, SIAM J. Optim. 2:575,
1992), in the form Ferris and Munson give for linear SVMs ("Interior-point
methods for massive support vector machines", SIAM J. Optim. 13:783,
2002).  Its variables are alpha, the upper slack s = U - alpha, and the
multipliers lambda of alpha >= 0 and mu of s >= 0, all strictly positive.
s is a variable of its own: recomputed as U - alpha it rounds to 0 at
small costs and the Newton system turns singular.  Each Newton step
solves (Z Z^T + D) d = r with the diagonal D = lambda/alpha + mu/s, which
Sherman-Morrison-Woodbury turns into one solve with the symmetric positive
definite (d+1) x (d+1) matrix I + Z^T D^-1 Z.  So all class pairs of one
fold and cost are solved together: their Z^T are stacked in a zero-padded
(pairs, d+1, rows) array, each iteration is a few numpy calls over the
whole batch, and padded rows are masked out of the sums and step lengths.

After every iteration the best primal objective so far at v = Z^T alpha
(the incumbent) becomes the solution estimate, so the objective history
is non-increasing.  A pair leaves the batch at the first iteration where
the relative duality gap (incumbent primal - dual) / incumbent primal is
at most SOLVER_GAP.  By weak duality the gap bounds the incumbent's
relative suboptimality (the gap as a stopping certificate: Shalev-Shwartz
& Zhang, JMLR 2013), and iterating past it only drives alpha and the
multipliers towards 0 and the system towards singular.  A machine is
converged exactly when its final gap met SOLVER_GAP within
SOLVER_MAX_EPOCHS iterations.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import finite, positive, read_table, write_table
from .evaluation import uar_from_labels

COST_GRID = (0.0001, 0.001, 0.005, 0.05, 0.1, 0.5, 1.0)
SOLVER_GAP = 1e-4  # relative duality gap that certifies a machine
# Interior-point iterations per machine.  The machines of the acceptance
# corpus take 3-17 and those of the x36 overlap-train corpus (34 455
# utterances) 3-28; the cap is over three times that, so it stops only a
# solve that has stalled.
SOLVER_MAX_EPOCHS = 100
# Bytes of the stacked rows one batch holds.  Above it the pairs are solved
# in chunks, so the solver's working arrays, a few times this size, stay
# the same for any corpus size and close to the CPU caches: on the x36
# corpus (2-CPU host) train-eval took 15-16 s with 512 KiB and 36 s with
# 16 MiB.  The acceptance corpus's 55 refits (about 340 KB) are one batch.
_BATCH_BYTES = 1 << 19
# Each step goes this fraction of the way to the nearest bound.
_TO_BOUNDARY = 0.99


@dataclass(frozen=True)
class Standardiser:
    """Per-feature mean/std of the development set (population std); a
    feature with zero variance keeps divisor 1."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def fit_standardiser(X: np.ndarray) -> Standardiser:
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    return Standardiser(mean=mean, std=np.where(std == 0.0, 1.0, std))


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
    duality gap the solver measured.  Model files do not record it, so a
    machine read back from one has gap NaN.
    """

    class_pos: str
    class_neg: str
    weights: np.ndarray
    bias: float
    cost: float
    objective_history: tuple = field(default=(), repr=False, compare=False)
    gap: float = field(default=float("nan"), repr=False, compare=False)

    @property
    def converged(self) -> bool:
        """False when the solver reached SOLVER_MAX_EPOCHS before the gap met
        SOLVER_GAP; True for a machine read back from a model file."""
        return not self.gap > SOLVER_GAP


def _pair_problem(X: np.ndarray, y: np.ndarray, weight_pos: float,
                  weight_neg: float) -> tuple[np.ndarray, np.ndarray]:
    """Z^T, whose columns are the rows z_i = y_i [x_i, 1] of one pair, and
    each row's class weight.  A single class and a non-finite feature,
    whose NaN gap would read as converged, are errors."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not ((y > 0).any() and (y < 0).any()):
        raise ValueError("both classes must be present")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite numbers")
    return (np.vstack([X.T, np.ones(len(y))]) * y,
            np.where(y > 0, weight_pos, weight_neg))


def _solve_batch(Zt: np.ndarray, box: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the duals of the stacked pairs Zt (pairs, d+1, rows) with boxes
    box (pairs, rows); a pair's padded rows are 0 in both.

    Returns each pair's incumbent v, its objective history as a row of a
    (pairs, SOLVER_MAX_EPOCHS + 1) array (the start, then one entry per
    iteration; the entries past its iteration count are unset), its
    iteration count and its last relative duality gap.
    """
    pairs, dim, _rows = Zt.shape
    diagonal = np.arange(dim)
    real = (box > 0.0).astype(np.float64)
    products = 2.0 * real.sum(axis=1)  # complementarity products per pair
    # The start: alpha and s at half the box, and multipliers of 1 plus the
    # part of the hinge that zeroes the stationarity residual
    # Z Z^T alpha - 1 - lambda + mu.  Padded rows sit at 1, and their
    # directions are 0, so they never move.
    alpha = np.where(box > 0.0, 0.5 * box, 1.0)
    slack = alpha.copy()
    v = (Zt @ alpha[..., None])[..., 0]  # the padded columns of Zt are 0
    hinge = real * (1.0 - (v[:, None, :] @ Zt)[:, 0])
    lam = np.maximum(-hinge, 0.0) + 1.0
    mu = np.maximum(hinge, 0.0) + 1.0
    solution = np.empty((pairs, dim))
    history = np.empty((pairs, SOLVER_MAX_EPOCHS + 1))
    iterations = np.empty(pairs, dtype=np.int64)
    gaps = np.empty(pairs)
    live = np.arange(pairs)
    best, best_v = np.full(pairs, np.inf), np.empty((pairs, dim))
    for iteration in range(SOLVER_MAX_EPOCHS + 1):
        v = (Zt @ alpha[..., None])[..., 0]
        loss = 1.0 - (v[:, None, :] @ Zt)[:, 0]  # 1 - Z v
        vv = np.einsum("pm,pm->p", v, v)
        primal = 0.5 * vv + np.einsum("pn,pn->p", box, np.maximum(loss, 0.0))
        better = primal < best
        best = np.where(better, primal, best)
        best_v = np.where(better[:, None], v, best_v)
        history[live, iteration] = best
        gap = (best - np.einsum("pn,pn->p", real, alpha) + 0.5 * vv) / best
        done = (gap <= SOLVER_GAP) | (iteration == SOLVER_MAX_EPOCHS)
        if done.any():
            solution[live[done]] = best_v[done]
            iterations[live[done]] = iteration
            gaps[live[done]] = gap[done]
            if done.all():
                break
            keep = ~done
            live = live[keep]
            (Zt, box, real, products, alpha, slack, lam, mu, loss, best,
             best_v) = (a[keep] for a in (Zt, box, real, products, alpha,
                                          slack, lam, mu, loss, best, best_v))

        # Newton steps on the KKT system: the stationarity residual above is
        # 0, alpha * lambda = s * mu = a target, and alpha + s = U, which
        # holds because s moves by -d_alpha.  Eliminating the multipliers
        # leaves (Z Z^T + D) d_alpha = D (D^-1 (1 - Z v) + terms of the
        # targets), solved through I + Z^T D^-1 Z.
        inv_alpha, inv_slack = 1.0 / alpha, 1.0 / slack
        lam_alpha, mu_slack = lam * inv_alpha, mu * inv_slack
        d_inv = real / (lam_alpha + mu_slack)
        Zt_d = Zt * d_inv[:, None, :]
        system = Zt_d @ np.swapaxes(Zt, 1, 2)
        system[:, diagonal, diagonal] += 1.0

        def direction(rhs, target_lam=0.0, target_mu=0.0):
            """The step towards alpha * lambda = target_lam and s * mu =
            target_mu, and the reciprocal of the largest step length that
            keeps alpha, s, lambda and mu positive."""
            rhs = d_inv * rhs
            w = np.linalg.solve(system, Zt @ rhs[..., None])
            d_alpha = rhs - d_inv * (np.swapaxes(w, 1, 2) @ Zt)[:, 0]
            d_lam = real * (target_lam * inv_alpha - lam_alpha * d_alpha - lam)
            d_mu = real * (target_mu * inv_slack + mu_slack * d_alpha - mu)
            reach = np.maximum(
                np.maximum(-(d_alpha * inv_alpha).min(axis=1),
                           (d_alpha * inv_slack).max(axis=1)),
                -np.minimum((d_lam / lam).min(axis=1), (d_mu / mu).min(axis=1)))
            return d_alpha, d_lam, d_mu, reach

        # Predictor: the affine step to complementarity 0.  The mean
        # complementarity it would reach, (1 - t) tau + t^2 d_alpha .
        # (d_lambda - d_mu) / (2 rows), sets the centring target.
        d_alpha, d_lam, d_mu, reach = direction(loss)
        step = 1.0 / np.maximum(reach, 1.0)
        tau = np.einsum("pn,pn->p", real, alpha * lam + slack * mu) / products
        tau_affine = ((1.0 - step) * tau + step * step * np.einsum(
            "pn,pn->p", d_alpha, d_lam - d_mu) / products)
        centre = ((tau_affine / tau) ** 3 * tau)[:, None]
        # Corrector: centred, less the predictor's second-order term.
        target_lam = centre - d_alpha * d_lam
        target_mu = centre + d_alpha * d_mu
        d_alpha, d_lam, d_mu, reach = direction(
            loss + target_lam * inv_alpha - target_mu * inv_slack,
            target_lam, target_mu)
        step = (_TO_BOUNDARY / np.maximum(reach, _TO_BOUNDARY))[:, None]
        alpha = alpha + step * d_alpha
        slack = slack - step * d_alpha
        lam = lam + step * d_lam
        mu = mu + step * d_mu
    return solution, history, iterations, gaps


def _train_pairs(problems: Sequence[tuple[np.ndarray, np.ndarray]],
                 pairs: Sequence[tuple[str, str]], cost: float,
                 ) -> list[BinarySvm]:
    """One machine per _pair_problem at cost, in order.  The pairs are solved
    together, largest first, in chunks of at most _BATCH_BYTES of stacked
    rows, each padded to its own largest pair."""
    dim = problems[0][0].shape[0]
    order = sorted(range(len(problems)), key=lambda i: -len(problems[i][1]))
    machines: list[BinarySvm | None] = [None] * len(problems)
    while order:
        rows = len(problems[order[0]][1])
        count = max(1, _BATCH_BYTES // (rows * dim * 8))
        part, order = order[:count], order[count:]
        Zt = np.zeros((len(part), dim, rows))
        box = np.zeros((len(part), rows))
        for index, i in enumerate(part):
            Zt_pair, weights = problems[i]
            Zt[index, :, :len(weights)] = Zt_pair
            box[index, :len(weights)] = cost * weights
        for i, v, history, iterations, gap in zip(part, *_solve_batch(Zt, box)):
            machines[i] = BinarySvm(
                class_pos=pairs[i][0], class_neg=pairs[i][1], weights=v[:-1],
                bias=float(v[-1]), cost=cost,
                objective_history=tuple(history[:iterations + 1].tolist()),
                gap=float(gap))
    return machines


def train_binary(X: np.ndarray, y: np.ndarray, cost: float) -> BinarySvm:
    """One machine with unit class weights on +/-1 labels, solved as a batch
    of one pair ("+1", "-1").  A single class or a non-finite feature is a
    ValueError."""
    return _train_pairs([_pair_problem(X, y, 1.0, 1.0)], [("+1", "-1")], cost)[0]


@dataclass(frozen=True)
class OvoModel:
    """K*(K-1)/2 pairwise machines plus the standardiser fitted on full dev."""

    labels: tuple[str, ...]
    standardiser: Standardiser
    cost: float
    machines: tuple[BinarySvm, ...]


def _predict_standardised(machines: Sequence[BinarySvm], labels: Sequence[str],
                          X_std: np.ndarray) -> list[str]:
    """Majority vote; ties go to the larger sum of |decision| collected by the
    tied class's winning machines, then to the lower class index."""
    X_std = np.atleast_2d(X_std)
    n, k = X_std.shape[0], len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    decision = np.empty((n, len(machines)))
    for c, m in enumerate(machines):
        decision[:, c] = X_std @ m.weights + m.bias
    pos = np.array([index[m.class_pos] for m in machines], dtype=np.intp)
    neg = np.array([index[m.class_neg] for m in machines], dtype=np.intp)
    winner = np.where(decision >= 0.0, pos, neg)
    # One (row, class) cell per (row, machine), row-major: bincount adds each
    # cell's weights in input order, so a class's strength sums its machines
    # in machine order, as += per machine would.
    cells = (np.arange(n)[:, None] * k + winner).ravel()
    votes = np.bincount(cells, minlength=n * k).reshape(n, k)
    strength = np.bincount(cells, weights=np.abs(decision).ravel(),
                           minlength=n * k).reshape(n, k)
    # strength over the max-vote classes only; argmax takes the first of
    # equal maxima, which is the lower class index
    tied = votes == votes.max(axis=1, keepdims=True)
    return [labels[i] for i in np.where(tied, strength, -1.0).argmax(axis=1)]


def predict(model: OvoModel, X_raw: np.ndarray) -> list[str]:
    """Standardise raw feature rows and run the one-vs-one vote."""
    return _predict_standardised(model.machines, model.labels,
                                 model.standardiser.transform(np.atleast_2d(X_raw)))


def nested_select(X_dev: np.ndarray, y_dev: Sequence[str],
                  train_idx: np.ndarray, val_idx: np.ndarray,
                  ) -> tuple[OvoModel, dict]:
    """Pick the cost from COST_GRID by validation UAR, then retrain on the
    full dev set.

    The class pairs' machines on the train rows are solved as one batch per
    cost, and the refit at the chosen cost as one more.  The standardiser
    and the class weights come from the full development set and are reused
    in both stages.  Ties in validation UAR resolve to the smaller cost.
    The diagnostics carry report.json's provenance keys and JSON-ready
    values: chosen_costs, validation_uar keyed by format(cost, "g"), and
    over the machines of both stages capped_machines (stopped at the
    iteration cap short of the duality gap), max_relative_gap and
    solver_epochs (the interior-point iteration sum).
    """
    X_dev = np.asarray(X_dev, dtype=np.float64)
    y_dev = np.asarray(y_dev, dtype=object)
    standardiser = fit_standardiser(X_dev)
    X_std = standardiser.transform(X_dev)
    weights = inverse_frequency_weights(list(y_dev))
    labels = tuple(sorted(set(y_dev)))
    pairs = list(combinations(labels, 2))

    def problems(rows):
        X, y = X_std[rows], y_dev[rows]
        masks = [(y == pos) | (y == neg) for pos, neg in pairs]
        return [_pair_problem(X[mask], np.where(y[mask] == pos, 1.0, -1.0),
                              weights[pos], weights[neg])
                for (pos, neg), mask in zip(pairs, masks)]

    train = problems(train_idx)
    y_val = list(y_dev[val_idx])
    trained: list[BinarySvm] = []
    best_cost, best_uar = None, -1.0
    validation_uar: dict[str, float] = {}
    for cost in sorted(COST_GRID):
        machines = _train_pairs(train, pairs, cost)
        trained += machines
        score = uar_from_labels(
            y_val, _predict_standardised(machines, labels, X_std[val_idx]))
        validation_uar[format(cost, "g")] = score
        if score > best_uar:
            best_uar, best_cost = score, cost

    final = _train_pairs(problems(np.arange(len(y_dev))), pairs, best_cost)
    trained += final
    model = OvoModel(labels=labels, standardiser=standardiser,
                     cost=best_cost, machines=tuple(final))
    return model, {"chosen_costs": best_cost, "validation_uar": validation_uar,
                   "capped_machines": sum(not m.converged for m in trained),
                   "max_relative_gap": max(m.gap for m in trained),
                   "solver_epochs": sum(len(m.objective_history) - 1
                                        for m in trained)}


def write_model(path: str | Path, model: OvoModel,
                comment: str | None) -> None:
    """CSV-like model dump: the chosen cost in the header's place, standardiser
    stats, then one row per machine (so rows vary in width and have no header)."""
    write_table(path, ("cost", repr(float(model.cost))), [
        ["labels"] + list(model.labels),
        ["mean"] + [repr(float(v)) for v in model.standardiser.mean],
        ["std"] + [repr(float(v)) for v in model.standardiser.std],
    ] + [["machine", m.class_pos, m.class_neg, repr(float(m.bias))]
         + [repr(float(w)) for w in m.weights] for m in model.machines], comment)


def read_model(path: str | Path) -> OvoModel:
    """Read back a write_model file.

    ValueError names the path and the row when a row is missing, empty or
    repeated, the cost row holds more than one number, a label repeats, the
    mean, std and machine rows differ in width, or the machines are not the
    K*(K-1)/2 pairs of labels, each once; and when a number is not finite,
    or the cost or a std is not above 0.  A blank line is a ValueError
    naming path:line.  Rows of other names, such as the zero_variance row
    of older files, are ignored.
    """
    rows: dict[str, list[str]] = {}
    machine_rows = []
    for key, *cells in read_table(path):
        if key == "machine":
            machine_rows.append(cells)
        elif key in rows:
            raise ValueError(f"{path}: {key} row: listed twice")
        else:
            rows[key] = cells
    missing = [key for key in ("cost", "labels", "mean", "std") if not rows.get(key)]
    if missing:
        raise ValueError(f"{path}: incomplete model file, no {', '.join(missing)}")

    def parsed(row: str, parse, texts: list[str]) -> np.ndarray:
        values = []
        for text in texts:
            try:
                values.append(parse(text))
            except ValueError as exc:
                raise ValueError(f"{path}: {row} row: {text!r} {exc}") from None
        return np.array(values)

    if len(rows["cost"]) != 1:
        raise ValueError(f"{path}: cost row: {len(rows['cost'])} numbers, expected 1")
    cost = float(parsed("cost", positive, rows["cost"])[0])
    labels = tuple(rows["labels"])
    if len(set(labels)) != len(labels):
        raise ValueError(f"{path}: labels row: a label is listed twice")
    standardiser = Standardiser(mean=parsed("mean", finite, rows["mean"]),
                                std=parsed("std", positive, rows["std"]))
    width = len(standardiser.mean)
    if len(standardiser.std) != width:
        raise ValueError(f"{path}: the mean and std rows differ in length")
    pairs = {frozenset(pair) for pair in combinations(labels, 2)}
    if len(machine_rows) != len(pairs):
        raise ValueError(f"{path}: {len(machine_rows)} machines for "
                         f"{len(labels)} labels, expected {len(pairs)}")
    machines = []
    for number, cells in enumerate(machine_rows):
        row = f"machine {number}"
        if len(cells) != 3 + width:
            raise ValueError(f"{path}: {row} row: {len(cells) - 3} weights, the "
                             f"standardiser {width} features")
        class_pos, class_neg, *texts = cells
        try:
            pairs.remove(frozenset((class_pos, class_neg)))
        except KeyError:
            raise ValueError(f"{path}: {row} row: {class_pos} vs {class_neg} is not a "
                             "pair of two labels, or is listed twice") from None
        values = parsed(row, finite, texts)
        machines.append(BinarySvm(class_pos=class_pos, class_neg=class_neg,
                                  weights=values[1:], bias=float(values[0]),
                                  cost=cost))
    return OvoModel(labels=labels, standardiser=standardiser,
                    cost=cost, machines=tuple(machines))
