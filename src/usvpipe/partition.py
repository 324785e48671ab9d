"""Subject-independent 3-fold plans with stratified inner train/validation
splits, and the rules a plan must meet to be trained and tested on.

A plan maps each utterance id of the feature table (pitch.FeatureRecord) to
its role in folds 0, 1 and 2, as folds.csv holds.  Emitters (not utterances)
are assigned to three groups so that no individual appears in both the
development and test side of any fold.  Exact joint balancing of labels and
sizes is NP-hard, so the assignment is a greedy heuristic: emitters in
descending utterance count, each placed in the group minimising L1 label
divergence from the global distribution plus a group-size penalty.  Everything
is deterministic given the seed, which only breaks exact ties.  fold_sides
checks every rule of a plan: partition runs it before it writes folds.csv,
train-eval after it reads it.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path

from .artifacts import plain_name, read_table, write_table
from .pitch import FeatureRecord
from .seeding import rng_for

FOLD_COUNT = 3
FOLDS = tuple(str(fold) for fold in range(FOLD_COUNT))  # as folds.csv spells them

ROLE_TEST = "test"
ROLE_TRAIN = "train"
ROLE_VAL = "val"
FOLD_CSV_COLUMNS = {"utterance_id": plain_name, "fold": FOLDS,
                    "role": (ROLE_TEST, ROLE_TRAIN, ROLE_VAL)}


def make_folds(cohort: list[FeatureRecord], seed: int) -> dict[str, int]:
    """Each utterance's test fold: greedy emitter-to-group assignment, and
    fold f tests on group f.

    Each group is scored by the L1 divergence of its label distribution from
    the global one (an empty group's distribution is the zero vector, giving
    divergence 1) plus a size penalty |group size - N/3| / N.  While some
    group is empty, an emitter goes to one of the empty groups, so every fold
    tests at least one utterance; after that it may go to any group.  Among
    those it goes to the group where placing it most lowers the summed score
    of the whole plan, i.e. the group with the smallest marginal score
    change; group-local scores degenerate into one giant group when single
    emitters have lumpy label histograms.  Ties (exact float equality) are
    broken by the seeded generator.
    """
    by_emitter: dict[str, list[FeatureRecord]] = defaultdict(list)
    for utt in cohort:
        by_emitter[utt.emitter_id].append(utt)
    if len(by_emitter) < FOLD_COUNT:
        raise ValueError(f"{len(by_emitter)} emitters, need at least {FOLD_COUNT}")

    total = len(cohort)
    global_counts = Counter(utt.context for utt in cohort)
    target_size = total / FOLD_COUNT
    global_dist = {lab: c / total for lab, c in global_counts.items()}

    order = sorted(by_emitter, key=lambda e: (-len(by_emitter[e]), e))
    group_counts = [Counter() for _ in range(FOLD_COUNT)]
    group_sizes = [0] * FOLD_COUNT
    emitter_groups: dict[str, int] = {}
    rng = rng_for(seed)

    def group_score(counts: Counter, size: int) -> float:
        if size == 0:
            divergence = 1.0
        else:
            divergence = sum(abs(counts[lab] / size - p)
                             for lab, p in global_dist.items())
        return divergence + abs(size - target_size) / total

    for emitter in order:
        emitter_counts = Counter(utt.context for utt in by_emitter[emitter])
        n_emitter = len(by_emitter[emitter])
        groups = ([g for g in range(FOLD_COUNT) if group_sizes[g] == 0]
                  or range(FOLD_COUNT))
        objectives = {g: group_score(group_counts[g] + emitter_counts,
                                     group_sizes[g] + n_emitter)
                      - group_score(group_counts[g], group_sizes[g]) for g in groups}
        best = min(objectives.values())
        candidates = [g for g, obj in objectives.items() if obj == best]
        choice = candidates[0] if len(candidates) == 1 else \
            candidates[int(rng.integers(len(candidates)))]
        emitter_groups[emitter] = choice
        group_counts[choice].update(emitter_counts)
        group_sizes[choice] += n_emitter

    return {utt.utterance_id: emitter_groups[utt.emitter_id] for utt in cohort}


def split_dev(test_fold: dict[str, int], fold: int, cohort: list[FeatureRecord],
              seed: int) -> dict[str, str]:
    """Stratified 70/30 train/validation split of one fold's development set.

    Per label, round(0.3 * n) utterances go to validation, drawn uniformly
    at random under the seed; a label with a single development utterance
    stays in train.  Identity is deliberately ignored here.
    """
    by_label: dict[str, list[str]] = defaultdict(list)
    for utt in cohort:
        if test_fold[utt.utterance_id] != fold:
            by_label[utt.context].append(utt.utterance_id)

    rng = rng_for(seed, fold)
    roles: dict[str, str] = {}
    for label in sorted(by_label):
        ids = sorted(by_label[label])
        n = len(ids)
        n_val = (3 * n + 5) // 10  # round(0.3 n) in exact integer arithmetic
        perm = rng.permutation(n)
        chosen = set(perm[:n_val].tolist())
        for i, uid in enumerate(ids):
            roles[uid] = ROLE_VAL if i in chosen else ROLE_TRAIN
    return roles


def build_plan(cohort: list[FeatureRecord], seed: int) -> dict[str, tuple[str, ...]]:
    """make_folds plus the inner split of every fold's development set."""
    test_fold = make_folds(cohort, seed)
    dev_roles = [split_dev(test_fold, fold, cohort, seed) for fold in range(FOLD_COUNT)]
    return {uid: tuple(ROLE_TEST if fold == tested else dev_roles[fold][uid]
                       for fold in range(FOLD_COUNT))
            for uid, tested in test_fold.items()}


def write_fold_plan(path: str | Path, plan: dict[str, tuple[str, ...]],
                    comment: str | None) -> None:
    """Serialise as utterance_id,fold,role rows, sorted for byte stability."""
    write_table(path, tuple(FOLD_CSV_COLUMNS),
                ((uid, fold, role) for uid in sorted(plan)
                 for fold, role in enumerate(plan[uid])), comment)


def read_fold_plan(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read back a plan written by write_fold_plan: read_table under
    FOLD_CSV_COLUMNS.  Raises ValueError naming the file and the utterance
    unless every utterance has one role in each of the FOLD_COUNT folds and
    exactly one test fold.  fold_sides checks the folds themselves.
    """
    plan = defaultdict(list)
    for uid, fold, role in read_table(path, FOLD_CSV_COLUMNS):
        plan[uid].append((fold, role))
    for uid, pairs in plan.items():
        folds, roles = zip(*sorted(pairs))
        if folds != FOLDS or roles.count(ROLE_TEST) != 1:
            found = ", ".join(f"fold {fold} {role}" for fold, role in sorted(pairs))
            raise ValueError(f"{path}: utterance {uid} has {found}; each utterance needs "
                             f"one role in each of folds {', '.join(FOLDS)} and exactly "
                             f"one {ROLE_TEST} role")
        plan[uid] = roles
    return dict(plan)


def fold_sides(plan: dict[str, tuple[str, ...]], records: list[FeatureRecord],
               features_path: Path, folds_path: Path) -> list[tuple[list, ...]]:
    """Each fold's (train, val, test) records, in utterance-id order.

    Raises ValueError unless the plan and the records list the same
    utterances, and then, fold by fold, unless the fold tests one or more
    utterances, no tested emitter is in its development set, and that set
    holds two or more contexts, a val utterance and each val context in train.
    """
    by_id = {r.utterance_id: r for r in records}
    featured, planned = by_id.keys(), plan.keys()
    problems = [(uid, "has no row in folds.csv") for uid in featured - planned]
    problems += [(uid, "has no row in features.csv") for uid in planned - featured]
    if problems:
        uid, reason = min(problems)
        raise ValueError(f"{features_path} and {folds_path} must list the same "
                         f"utterances once each: utterance {uid} {reason}")
    sides = []
    for fold in range(FOLD_COUNT):
        side = {ROLE_TRAIN: [], ROLE_VAL: [], ROLE_TEST: []}
        for uid in sorted(plan):
            side[plan[uid][fold]].append(by_id[uid])
        train, val, test = side[ROLE_TRAIN], side[ROLE_VAL], side[ROLE_TEST]
        if not test:
            raise ValueError(f"{folds_path}: no utterance is tested in fold {fold}; "
                             f"each of the {FOLD_COUNT} folds must test one or more")
        dev = train + val
        shared = sorted({r.emitter_id for r in test} & {r.emitter_id for r in dev})
        if shared:
            raise ValueError(f"{folds_path}: emitter {shared[0]} is in both the test "
                             f"and the development set of fold {fold}; folds must be "
                             "emitter-disjoint")
        contexts = sorted({r.context for r in dev})
        if len(contexts) < 2:
            raise ValueError(f"{folds_path}: the development set of fold {fold} "
                             f"holds only context {', '.join(contexts)}; training "
                             "needs two or more")
        if not val:
            raise ValueError(f"{folds_path}: the development set of fold {fold} holds "
                             "no val utterance; cost selection needs one or more")
        untrained = sorted({r.context for r in val} - {r.context for r in train})
        if untrained:
            raise ValueError(f"{folds_path}: the development set of fold {fold} holds "
                             f"context {', '.join(untrained)} in val but not in train; "
                             "cost selection needs each val context in train")
        sides.append((train, val, test))
    return sides
