from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.partition import (build_plan, make_folds, read_fold_plan,
                               split_dev, write_fold_plan)
from usvpipe.pitch import FeatureRecord, FeatureVector


def record(uid, emitter, context):
    """A feature-table record; the plan never reads the features."""
    return FeatureRecord(utterance_id=uid, emitter_id=emitter, context=context,
                         duration_s=0.5, features=FeatureVector(*[0.0] * 10))


def make_cohort(n_emitters, per_class, labels=CONTEXT_LABELS):
    """Round-robin cohort mirroring the synthetic corpus layout."""
    cohort = []
    counter = 0
    for label in sorted(labels):
        for _ in range(per_class):
            cohort.append(record(f"u{counter:05d}",
                                 f"bat{counter % n_emitters:02d}", label))
            counter += 1
    return cohort


class TestMakeFolds:
    def test_three_identical_emitters_one_per_group(self):
        cohort = []
        for i, emitter in enumerate(("ba", "bb", "bc")):
            for j, label in enumerate(("feeding", "fighting")):
                for k in range(4):
                    cohort.append(record(f"u{i}{j}{k}", emitter, label))
        test_fold = make_folds(cohort, seed=1)
        groups = {u.emitter_id: test_fold[u.utterance_id] for u in cohort}
        assert sorted(groups.values()) == [0, 1, 2]
        # each fold's test distribution equals the global one exactly
        for fold in range(3):
            test = [u for u in cohort if test_fold[u.utterance_id] == fold]
            counts = Counter(u.context for u in test)
            assert counts["feeding"] == counts["fighting"] == 4

    def test_two_emitters_rejected(self):
        cohort = make_cohort(2, 6, labels=("feeding", "fighting"))
        with pytest.raises(ValueError, match="2 emitters, need at least 3"):
            make_folds(cohort, seed=0)

    def test_every_utterance_tested_exactly_once(self):
        cohort = make_cohort(12, 20)
        test_fold = make_folds(cohort, seed=3)
        assert set(test_fold) == {u.utterance_id for u in cohort}
        assert set(test_fold.values()) <= {0, 1, 2}

    def test_emitter_disjointness(self):
        cohort = make_cohort(9, 15)
        test_fold = make_folds(cohort, seed=5)
        emitter = {u.utterance_id: u.emitter_id for u in cohort}
        for fold in range(3):
            test_emitters = {emitter[uid] for uid, f in test_fold.items() if f == fold}
            dev_emitters = {emitter[uid] for uid, f in test_fold.items() if f != fold}
            assert not test_emitters & dev_emitters

    def test_thirty_emitters_l1_divergence_under_0_05(self):
        cohort = make_cohort(30, 44)  # 11 labels x 44 = 484 utterances
        test_fold = make_folds(cohort, seed=7)
        total = len(cohort)
        global_counts = Counter(u.context for u in cohort)
        for fold in range(3):
            test = [u for u in cohort if test_fold[u.utterance_id] == fold]
            counts = Counter(u.context for u in test)
            l1 = sum(abs(counts[lab] / len(test) - global_counts[lab] / total)
                     for lab in global_counts)
            assert l1 < 0.05

    def test_no_group_left_empty_with_lumpy_emitters(self):
        # emitters whose label histograms differ a lot
        cohort = []
        uid = 0
        for e, label_pool in enumerate([("feeding",), ("fighting",),
                                        ("feeding", "fighting"),
                                        ("isolation",), ("isolation", "feeding"),
                                        ("fighting", "isolation")]):
            for i in range(10):
                cohort.append(record(f"u{uid:04d}", f"e{e}",
                                     label_pool[i % len(label_pool)]))
                uid += 1
        sizes = Counter(make_folds(cohort, seed=2).values())
        assert all(sizes[g] > 0 for g in range(3))


@settings(max_examples=200, deadline=None)
@given(emitters=st.lists(st.lists(st.sampled_from(CONTEXT_LABELS), min_size=1,
                                  max_size=6), min_size=3, max_size=14),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_fold_tests_an_utterance_of_any_cohort_of_3_or_more_emitters(
        emitters, seed):
    cohort = [record(f"u{e:02d}{i}", f"bat{e:02d}", context)
              for e, contexts in enumerate(emitters)
              for i, context in enumerate(contexts)]
    plan = build_plan(cohort, seed)
    emitter = {r.utterance_id: r.emitter_id for r in cohort}
    for fold in range(3):
        tested = {emitter[uid] for uid, roles in plan.items() if roles[fold] == "test"}
        developed = {emitter[uid] for uid, roles in plan.items() if roles[fold] != "test"}
        assert tested and not tested & developed


class TestSplitDev:
    def test_thirty_percent_of_ten(self):
        cohort = make_cohort(5, 10, labels=("feeding",))  # 10 dev per fold? no:
        test_fold = make_folds(cohort, seed=0)
        roles = split_dev(test_fold, 0, cohort, seed=0)
        dev = [uid for uid, f in test_fold.items() if f != 0]
        n_val = sum(1 for uid in dev if roles[uid] == "val")
        assert abs(n_val - 0.3 * len(dev)) <= 0.5 + 1e-9  # round(0.3 n)

    def test_single_dev_utterance_goes_to_train(self):
        cohort = make_cohort(4, 1, labels=("feeding", "fighting", "grooming"))
        test_fold = make_folds(cohort, seed=0)
        for fold in range(3):
            roles = split_dev(test_fold, fold, cohort, seed=0)
            label_dev = Counter()
            for u in cohort:
                if test_fold[u.utterance_id] != fold:
                    label_dev[u.context] += 1
            for u in cohort:
                if test_fold[u.utterance_id] != fold and label_dev[u.context] == 1:
                    assert roles[u.utterance_id] == "train"

    def test_same_seed_reproduces_assignment(self):
        cohort = make_cohort(6, 12)
        test_fold = make_folds(cohort, seed=4)
        r1 = split_dev(test_fold, 1, cohort, seed=9)
        r2 = split_dev(test_fold, 1, cohort, seed=9)
        assert r1 == r2

    def test_stratification_bound_per_label(self):
        cohort = make_cohort(12, 50)
        plan = build_plan(cohort, seed=6)
        by_label_fold = {}
        for u in cohort:
            for fold, role in enumerate(plan[u.utterance_id]):
                if role == "test":
                    continue
                key = (fold, u.context)
                dev, val = by_label_fold.get(key, (0, 0))
                by_label_fold[key] = (dev + 1, val + (role == "val"))
        for (fold, label), (dev, val) in by_label_fold.items():
            assert abs(val / dev - 0.3) <= 1.0 / dev + 1e-12


class TestFoldPlanCsv:
    def test_roundtrip_and_determinism(self, tmp_path):
        cohort = make_cohort(6, 8)
        plan1 = build_plan(cohort, seed=11)
        plan2 = build_plan(cohort, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_fold_plan(p1, plan1, comment="seed=11")
        write_fold_plan(p2, plan2, comment="seed=11")
        assert p1.read_bytes() == p2.read_bytes()

        assert read_fold_plan(p1) == plan1

    def test_different_seed_changes_inner_split(self, tmp_path):
        cohort = make_cohort(6, 30)
        plan1 = build_plan(cohort, seed=1)
        plan2 = build_plan(cohort, seed=2)
        assert plan1 != plan2

    # (u1's rows, after u0's three on lines 2-4, and the refusal after the path)
    NEEDS = ("; each utterance needs one role in each of folds 0, 1, 2 and exactly "
             "one test role")
    ROW_CASES = [
        (["u1,0,test", "u1,1,train"],
         ": utterance u1 has fold 0 test, fold 1 train" + NEEDS),
        (["u1,0,test", "u1,1,train", "u1,1,val"],
         ": utterance u1 has fold 0 test, fold 1 train, fold 1 val" + NEEDS),
        (["u1,0,test", "u1,1,train", "u1,3,val"], ":7: fold '3' is not one of 0, 1, 2"),
        (["u1,0,test", "u1,1,test", "u1,2,val"],
         ": utterance u1 has fold 0 test, fold 1 test, fold 2 val" + NEEDS),
        (["u1,0,train", "u1,1,val", "u1,2,train"],
         ": utterance u1 has fold 0 train, fold 1 val, fold 2 train" + NEEDS),
        (["u1,0,test", "u1,1,train", "u1,2,holdout"],
         ":7: role 'holdout' is not one of test, train, val"),
        ([",0,test"], ":5: utterance_id '' is blank"),
        (["../u1,0,test"], ":5: utterance_id '../u1' is not a plain file name"),
        (["u1,01,test"], ":5: fold '01' is not one of 0, 1, 2"),
    ]

    @pytest.mark.parametrize("rows, complaint", ROW_CASES,
                             ids=[f"rows{i}" for i in range(len(ROW_CASES))])
    def test_read_rejects_an_utterance_without_one_role_per_fold(self, tmp_path,
                                                                 rows, complaint):
        path = tmp_path / "folds.csv"
        path.write_text("\n".join(["utterance_id,fold,role", "u0,0,train",
                                    "u0,1,test", "u0,2,val"] + rows) + "\n")
        with pytest.raises(ValueError) as refusal:
            read_fold_plan(path)
        assert str(refusal.value) == f"{path}{complaint}"
