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
from dataclasses import dataclass, field
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


@dataclass
class FoldPlan:
    """Per-utterance roles: test in exactly one fold, train/val in the others."""

    fold_count: int
    seed: int | None
    test_fold: dict[str, int]
    emitter_groups: dict[str, int]
    dev_roles: dict[int, dict[str, str]] = field(default_factory=dict)

    def role(self, fold: int, utterance_id: str) -> str:
        if self.test_fold[utterance_id] == fold:
            return ROLE_TEST
        return self.dev_roles[fold][utterance_id]

    def fold_membership(self, fold: int) -> tuple[list[str], list[str], list[str]]:
        """Sorted (train, val, test) utterance ids for one fold."""
        train, val, test = [], [], []
        for uid in sorted(self.test_fold):
            role = self.role(fold, uid)
            {ROLE_TRAIN: train, ROLE_VAL: val, ROLE_TEST: test}[role].append(uid)
        return train, val, test


def make_folds(cohort: list[Utterance], seed: int) -> FoldPlan:
    """Greedy emitter-to-group assignment; fold f tests on group f.

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

    test_fold = {utt.id: emitter_groups[utt.emitter_id] for utt in cohort}
    return FoldPlan(fold_count=FOLD_COUNT, seed=seed, test_fold=test_fold,
                    emitter_groups=emitter_groups)


def split_dev(plan: FoldPlan, fold: int, cohort: list[Utterance],
              seed: int) -> dict[str, str]:
    """Stratified 70/30 train/validation split of one fold's development set.

    Per label, round(0.3 * n) utterances go to validation, drawn uniformly
    at random under the seed; a label with a single development utterance
    stays in train.  Identity is deliberately ignored here.
    """
    if not 0 <= fold < plan.fold_count:
        raise ValueError(f"fold index {fold} out of range")
    by_label: dict[str, list[str]] = defaultdict(list)
    for utt in cohort:
        if plan.test_fold[utt.id] != fold:
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
    plan.dev_roles[fold] = roles
    return roles


def build_plan(cohort: list[Utterance], seed: int) -> FoldPlan:
    """make_folds plus the inner split of every fold's development set."""
    plan = make_folds(cohort, seed)
    for fold in range(plan.fold_count):
        split_dev(plan, fold, cohort, seed)
    return plan


def write_fold_plan(path: str | Path, plan: FoldPlan,
                    comment: str | None = None) -> None:
    """Serialise as utterance_id,fold,role rows, sorted for byte stability."""
    for fold in range(plan.fold_count):
        if fold not in plan.dev_roles:
            raise ValueError(f"fold {fold} has no train/validation split yet")
    write_table(path, FOLD_CSV_HEADER,
                ((uid, fold, plan.role(fold, uid))
                 for uid in sorted(plan.test_fold)
                 for fold in range(plan.fold_count)), comment)


def read_fold_plan(path: str | Path) -> FoldPlan:
    """Read back a plan written by write_fold_plan."""
    test_fold: dict[str, int] = {}
    dev_roles: dict[int, dict[str, str]] = defaultdict(dict)
    max_fold = -1
    for uid, fold_text, role in read_table(path, FOLD_CSV_HEADER):
        fold = int(fold_text)
        max_fold = max(max_fold, fold)
        if role == ROLE_TEST:
            test_fold[uid] = fold
        elif role in (ROLE_TRAIN, ROLE_VAL):
            dev_roles[fold][uid] = role
        else:
            raise ValueError(f"{path}: unknown role '{role}'")
    return FoldPlan(fold_count=max_fold + 1, seed=None, test_fold=test_fold,
                    emitter_groups={}, dev_roles=dict(dev_roles))
