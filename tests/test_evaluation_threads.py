"""The evaluators' threaded sweep.

* ``RankingEvaluator(n_workers=N)`` and ``beyond_accuracy_report`` rank
  contiguous user ranges of one in-process engine on threads
  (:func:`~repro.serving.engine.threaded_top_k_scored`); per-user metrics
  must equal the serial sweep's byte for byte, for representation models
  (float32 HAMs_m, Caser, SASRec) and for the inline ``score_all`` path
  of a count-based model (POP);
* the model forward, and so ``no_grad`` (a process-global flag), runs on
  the calling thread only, and no thread outlives the call;
* sweep arguments are refused when they are passed.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.autograd import is_grad_enabled
from repro.data import InteractionDataset, split_setting
from repro.evaluation import RankingEvaluator
from repro.evaluation.coverage import beyond_accuracy_report
from repro.models import Popularity, create_model
from repro.serving.engine import ScoringEngine, threaded_top_k_scored

pytestmark = pytest.mark.fast

# 61 evaluable users in blocks of 8: seven full blocks and one of 5.
NUM_USERS, NUM_ITEMS, BATCH = 61, 40, 8
KS = (1, 3, 20)
MODELS = ("HAMs_m", "Caser", "SASRec", "POP")
HYPERPARAMETERS = {
    "HAMs_m": {"embedding_dim": 8, "n_h": 4, "n_l": 2, "dtype": "float32"},
    "Caser": {"embedding_dim": 8},
    "SASRec": {"embedding_dim": 8},
}


def random_split(seed: int = 0):
    rng = np.random.default_rng(seed)
    sequences = [rng.integers(0, NUM_ITEMS, size=rng.integers(8, 16)).tolist()
                 for _ in range(NUM_USERS)]
    dataset = InteractionDataset.from_sequences(sequences, num_items=NUM_ITEMS)
    return split_setting(dataset, "80-20-CUT")


def make_model(name: str, split, seed: int = 3):
    if name == "POP":
        return Popularity(split.num_users, split.num_items).fit_counts(split.train)
    return create_model(name, split.num_users, split.num_items,
                        rng=np.random.default_rng(seed), **HYPERPARAMETERS[name])


def assert_same_result(expected, got):
    assert list(got.per_user) == list(expected.per_user)
    for name, values in expected.per_user.items():
        assert got.per_user[name].tobytes() == values.tobytes(), name
    assert got.metrics == expected.metrics
    assert got.num_users_evaluated == expected.num_users_evaluated


class TestThreadedSweep:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n_workers", [2, 3, 20])
    @pytest.mark.parametrize("mode, exclude_seen",
                             [("test", True), ("validation", True), ("test", False)])
    def test_equals_serial(self, name, n_workers, mode, exclude_seen):
        split = random_split()
        model = make_model(name, split)

        def evaluate(workers):
            return RankingEvaluator(split, ks=KS, mode=mode, exclude_seen=exclude_seen,
                                    batch_size=BATCH, n_workers=workers).evaluate(model)

        assert_same_result(evaluate(0), evaluate(n_workers))

    @pytest.mark.parametrize("name", MODELS)
    def test_beyond_accuracy_equals_serial(self, name):
        split = random_split(seed=1)
        model = make_model(name, split)
        serial = beyond_accuracy_report(model, split, k=5, batch_size=BATCH)
        assert beyond_accuracy_report(model, split, k=5, batch_size=BATCH,
                                      n_workers=3) == serial

    def test_engine_rows_match_for_any_user_order(self):
        # Shuffled users with repeats, 50 of them in blocks of 16: three
        # ranges of 2, 1 and 1 blocks.  Ranges cut off block boundaries
        # (17, 17, 16 users) would rank a one-row tail as a gemv and
        # change score bits on a 2 000-item float32 table.
        num_users, num_items = 40, 2000
        rng = np.random.default_rng(4)
        model = create_model("HAMs_m", num_users, num_items, rng=np.random.default_rng(1),
                             embedding_dim=48, n_h=4, n_l=2, dtype="float32")
        histories = [rng.integers(0, num_items, size=30).tolist()
                     for _ in range(num_users)]
        users = rng.integers(0, num_users, size=50)
        serial = ScoringEngine(model, histories, micro_batch_size=16).top_k_scored(users, 10)
        threaded = threaded_top_k_scored(ScoringEngine(model, histories, micro_batch_size=16),
                                         users, 10, n_workers=3)
        for expected, got in zip(serial, threaded):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_forward_on_calling_thread_and_no_thread_left(self, monkeypatch):
        split = random_split(seed=3)
        model = make_model("HAMs_m", split)
        caller = threading.get_ident()
        entered, ranked_on = [], []
        original_no_grad = engine_module.no_grad
        original_top_k = ScoringEngine.top_k_scored

        def recording_no_grad():
            entered.append(threading.get_ident())
            return original_no_grad()

        def recording_top_k(self, users, k, **kwargs):
            ranked_on.append(threading.get_ident())
            return original_top_k(self, users, k, **kwargs)

        monkeypatch.setattr(engine_module, "no_grad", recording_no_grad)
        monkeypatch.setattr(ScoringEngine, "top_k_scored", recording_top_k)
        threads_before = threading.enumerate()
        RankingEvaluator(split, batch_size=BATCH, n_workers=3).evaluate(model)
        assert entered and set(entered) == {caller}
        assert len(ranked_on) == 3 and caller not in ranked_on
        assert is_grad_enabled()
        assert threading.enumerate() == threads_before


class TestSweepArguments:
    @pytest.mark.parametrize("keyword, value", [("batch_size", 0), ("batch_size", -1),
                                                ("n_workers", -3)])
    def test_refused_when_passed(self, keyword, value):
        split = random_split(seed=9)
        model = make_model("POP", split)
        with pytest.raises(ValueError, match=keyword):
            RankingEvaluator(split, **{keyword: value})
        with pytest.raises(ValueError, match=keyword):
            beyond_accuracy_report(model, split, **{keyword: value})

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_zero_and_one_run_serially(self, n_workers, monkeypatch):
        split = random_split(seed=10)
        model = make_model("HAMs_m", split)
        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", None)
        result = RankingEvaluator(split, batch_size=BATCH, n_workers=n_workers).evaluate(model)
        assert result.num_users_evaluated == NUM_USERS
