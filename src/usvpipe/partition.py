"""Subject-independent 3-fold plans with stratified inner train/validation splits.

Emitters (not utterances) are assigned to three groups so that no
individual appears in both the development and test side of any fold.
Exact joint balancing of labels and sizes is NP-hard, so the assignment is
a greedy heuristic: emitters in descending utterance count, each placed in
the group minimising L1 label divergence from the global distribution plus
a group-size penalty.  Everything is deterministic given the seed, which is
consumed only to break exact ties.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .artifacts import read_table, write_table
from .corpus import Utterance
from .exceptions import TooFewEmittersError
from .seeding import rng_for

FOLD_COUNT = 3
VALIDATION_FRACTION = 0.3

ROLE_TEST = "test"
ROLE_TRAIN = "train"
ROLE_VAL = "val"
FOLD_CSV_HEADER = ("utterance_id", "fold", "role")


@dataclass(frozen=True)
class FoldPlan:
    """Each utterance's role in folds 0, 1 and 2: test in exactly one, train
    or val in the others.  Row for row what folds.csv holds."""

    roles: dict[str, tuple[str, ...]]

    def fold_membership(self, fold: int) -> tuple[list[str], list[str], list[str]]:
        """Sorted (train, val, test) utterance ids for one fold."""
        members: dict[str, list[str]] = {ROLE_TRAIN: [], ROLE_VAL: [], ROLE_TEST: []}
        for uid in sorted(self.roles):
            members[self.roles[uid][fold]].append(uid)
        return members[ROLE_TRAIN], members[ROLE_VAL], members[ROLE_TEST]


def make_folds(cohort: list[Utterance], seed: int) -> dict[str, int]:
    """Each utterance's test fold: greedy emitter-to-group assignment, and
    fold f tests on group f.

    Each group is scored by the L1 divergence of its label distribution from
    the global one (an empty group's distribution is the zero vector, giving
    divergence 1) plus a size penalty |group size - N/3| / N; an emitter goes
    to the group where placing it most lowers the summed score of the whole
    plan, i.e. the group with the smallest marginal score change.  Scoring
    the marginal rather than the resulting group alone is what keeps empty
    groups attractive until every fold has its share; group-local scores
    degenerate into one giant group when single emitters have lumpy label
    histograms.  Ties (exact float equality) are broken by the seeded
    generator.
    """
    by_emitter: dict[str, list[Utterance]] = defaultdict(list)
    for utt in cohort:
        by_emitter[utt.emitter_id].append(utt)
    if len(by_emitter) < FOLD_COUNT:
        raise TooFewEmittersError(
            f"{len(by_emitter)} emitters, need at least {FOLD_COUNT}")

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
        objectives = []
        for g in range(FOLD_COUNT):
            merged = group_counts[g] + emitter_counts
            objectives.append(group_score(merged, group_sizes[g] + n_emitter)
                              - group_score(group_counts[g], group_sizes[g]))
        best = min(objectives)
        candidates = [g for g, obj in enumerate(objectives) if obj == best]
        choice = candidates[0] if len(candidates) == 1 else \
            candidates[int(rng.integers(len(candidates)))]
        emitter_groups[emitter] = choice
        group_counts[choice].update(emitter_counts)
        group_sizes[choice] += n_emitter

    return {utt.id: emitter_groups[utt.emitter_id] for utt in cohort}


def split_dev(test_fold: dict[str, int], fold: int, cohort: list[Utterance],
              seed: int) -> dict[str, str]:
    """Stratified 70/30 train/validation split of one fold's development set.

    Per label, round(0.3 * n) utterances go to validation, drawn uniformly
    at random under the seed; a label with a single development utterance
    stays in train.  Identity is deliberately ignored here.
    """
    if not 0 <= fold < FOLD_COUNT:
        raise ValueError(f"fold index {fold} out of range")
    by_label: dict[str, list[str]] = defaultdict(list)
    for utt in cohort:
        if test_fold[utt.id] != fold:
            by_label[utt.context].append(utt.id)

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


def build_plan(cohort: list[Utterance], seed: int) -> FoldPlan:
    """make_folds plus the inner split of every fold's development set."""
    test_fold = make_folds(cohort, seed)
    dev_roles = [split_dev(test_fold, fold, cohort, seed) for fold in range(FOLD_COUNT)]
    return FoldPlan({uid: tuple(ROLE_TEST if fold == tested else dev_roles[fold][uid]
                                for fold in range(FOLD_COUNT))
                     for uid, tested in test_fold.items()})


def write_fold_plan(path: str | Path, plan: FoldPlan,
                    comment: str | None = None) -> None:
    """Serialise as utterance_id,fold,role rows, sorted for byte stability."""
    write_table(path, FOLD_CSV_HEADER,
                ((uid, fold, role) for uid in sorted(plan.roles)
                 for fold, role in enumerate(plan.roles[uid])), comment)


def read_fold_plan(path: str | Path) -> FoldPlan:
    """Read back a plan written by write_fold_plan.

    Raises ValueError naming the file and the utterance unless every
    utterance has one known role in each of the FOLD_COUNT folds and exactly
    one test fold.
    """
    cells: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for uid, fold, role in read_table(path, FOLD_CSV_HEADER):
        cells[uid].append((fold, role))
    folds = [str(fold) for fold in range(FOLD_COUNT)]
    roles = {}
    for uid, pairs in cells.items():
        pairs.sort()
        uid_roles = tuple(role for _, role in pairs)
        if ([fold for fold, _ in pairs] != folds or uid_roles.count(ROLE_TEST) != 1
                or not set(uid_roles) <= {ROLE_TEST, ROLE_TRAIN, ROLE_VAL}):
            found = ", ".join(f"fold {fold} {role}" for fold, role in pairs)
            raise ValueError(
                f"{path}: utterance {uid} has {found}; each utterance needs one "
                f"role of {ROLE_TEST}/{ROLE_TRAIN}/{ROLE_VAL} in each of folds "
                f"{', '.join(folds)} and exactly one {ROLE_TEST} role")
        roles[uid] = uid_roles
    return FoldPlan(roles)
