#!/usr/bin/env python
"""Explainable recommendations with HAM's linear score (extension).

HAM's recommendation score (paper Eq. 7/8) is a sum of three dot products
— the user's general preference, the high-order association over the last
``n_h`` items (enhanced with item synergies in HAMs) and the low-order
association over the last ``n_l`` items.  Unlike the attention/gating
baselines, every recommendation therefore comes with an exact, additive
explanation of *why* the item was ranked where it was.

This example trains HAMs_m, serves top-k recommendations through a
:class:`repro.serving.ScoringEngine`, and prints the per-factor
decomposition of the top recommendations next to item-to-item similarity
queries.

Run with::

    python examples/explainable_recommendations.py [--dataset cds] [--epochs 12]
"""

import argparse

import numpy as np

from repro import ScoringEngine, explain_ham_score
from repro.data import load_benchmark, split_setting
from repro.experiments.reporting import format_table
from repro.models import HAMSynergy
from repro.training import Trainer, TrainingConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="cds")
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    parser.add_argument("--users", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()

    # Train HAMs_m --------------------------------------------------------
    dataset = load_benchmark(args.dataset, scale=args.scale)
    split = split_setting(dataset, "80-3-CUT")
    model = HAMSynergy(dataset.num_users, dataset.num_items, embedding_dim=32,
                       n_h=5, n_l=2, synergy_order=2, pooling="mean",
                       rng=np.random.default_rng(0))
    result = Trainer(model, TrainingConfig(num_epochs=args.epochs, seed=0)).fit(
        split.train_plus_valid())
    print(f"trained HAMs_m on {dataset.name} in {result.train_seconds:.1f}s\n")

    # Serve and explain ----------------------------------------------------
    histories = split.train_plus_valid()
    engine = ScoringEngine(model, histories)

    for user in args.users:
        recommendations = engine.recommend(user, k=3)
        rows = []
        for entry in recommendations:
            explanation = explain_ham_score(model, user, histories[user], entry.item)
            rows.append(explanation.as_row())
        print(format_table(
            rows,
            title=(f"user {user}: top-3 recommendations and their factor "
                   "decomposition (total = user_preference + high_order + low_order)"),
        ))
        print()

    # Item-to-item similarity under the learned embedding geometry ----------
    anchor = engine.recommend(args.users[0], k=1)[0].item
    similar = engine.similar_items(anchor, k=5)
    print(format_table(
        [{"rank": entry.rank, "item": entry.item, "cosine": round(entry.score, 4)}
         for entry in similar],
        title=f"items most similar to item {anchor} (candidate-embedding cosine)",
    ))


if __name__ == "__main__":
    main()
