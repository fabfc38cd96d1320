"""Command-line interface of the reproduction.

Usage examples::

    repro-ham list                       # list all reproducible experiments
    repro-ham stats                      # Table 2 dataset statistics
    repro-ham run table3 --scale tiny    # reproduce one table/figure
    repro-ham train --dataset cds --method HAMs_m --setting 80-20-CUT
    repro-ham serve --dataset cds --users 0 1 2 --k 10
    repro-ham serve --checkpoint model.npz --workers 4 --users 0 1 2
    repro-ham serve --dataset cds --gateway --max-batch 32 \
              --cache-size 256 --cache-ttl 30 --users 0 1 2
    repro-ham serve --dataset cds --workers 4 --request-timeout 5 \
              --gateway --max-queue 256 --users 0 1 2
    repro-ham serve-node --checkpoint model.npz --bind 127.0.0.1:7001
    repro-ham serve-node --checkpoint model.npz --journal /var/lib/ham/journal
    repro-ham route --nodes 127.0.0.1:7001 127.0.0.1:7002 --users 0 1 2
    repro-ham route --nodes 127.0.0.1:7001 127.0.0.1:7002 --wal-dir /var/lib/ham/wal
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.data.benchmarks import BENCHMARK_NAMES, SCALES, load_benchmark
from repro.data.splits import SETTINGS, split_setting
from repro.evaluation.evaluator import RankingEvaluator
from repro.experiments.configs import default_model_hyperparameters, default_training_config
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.reporting import format_table
from repro.models.registry import MODEL_REGISTRY, create_model
from repro.training.trainer import Trainer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-ham",
        description="Reproduction of 'HAM: Hybrid Associations Models for Sequential Recommendation'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all reproducible tables and figures")

    stats = subparsers.add_parser("stats", help="print dataset statistics (Table 2)")
    stats.add_argument("--scale", choices=sorted(SCALES), default=None)

    run = subparsers.add_parser("run", help="reproduce one table or figure")
    run.add_argument("experiment", help="experiment id, e.g. table3, fig4 or ext-synergy")
    run.add_argument("--scale", choices=sorted(SCALES), default=None)
    run.add_argument("--epochs", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--save-dir", default=None,
                     help="persist rows and report under this directory (ResultsStore)")

    def add_training_arguments(subparser):
        subparser.add_argument("--dataset", choices=BENCHMARK_NAMES, default="cds")
        subparser.add_argument("--method", choices=sorted(MODEL_REGISTRY), default="HAMs_m")
        subparser.add_argument("--setting", choices=SETTINGS, default="80-20-CUT")
        subparser.add_argument("--scale", choices=sorted(SCALES), default=None)
        subparser.add_argument("--epochs", type=int, default=None)
        subparser.add_argument("--seed", type=int, default=0)

    train = subparsers.add_parser("train", help="train and evaluate a single model")
    add_training_arguments(train)
    train.add_argument("--checkpoint", default=None,
                       help="write the trained parameters to this .npz path")

    serve = subparsers.add_parser(
        "serve", help="train a model (or load a checkpoint) and answer top-k "
                      "requests through the scoring engine")
    add_training_arguments(serve)
    serve.add_argument("--users", type=int, nargs="+", default=[0, 1, 2],
                       help="user ids to recommend for")
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--explain", action="store_true",
                       help="print the per-factor HAM score decomposition of each hit")
    serve.add_argument("--checkpoint", default=None,
                       help="serve this trained .npz checkpoint instead of "
                            "training (no trainer stack is instantiated)")
    serve.add_argument("--workers", type=int, default=0,
                       help="shard the engine over this many worker processes "
                            "(shared-memory fan-out; <= 1 stays in-process)")
    serve.add_argument("--gateway", action="store_true",
                       help="serve through the online gateway: requests are "
                            "coalesced into engine micro-batches and hot "
                            "users are answered from the top-k answer cache")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="gateway batch cap: most requests one engine "
                            "call takes (the flusher serves whatever is "
                            "queued the moment the engine is free)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="gateway answer cache capacity (answers; 0 "
                            "disables caching)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="gateway answer cache TTL in seconds "
                            "(default: no expiry)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="per-request deadline in seconds: bounds every "
                            "sharded fan-out and, with --gateway, every "
                            "queued request (default: the engine's 120 s)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="gateway admission watermark: submissions beyond "
                            "this backlog are shed with "
                            "GatewayOverloadedError (default: unbounded)")
    serve.add_argument("--retrieval", choices=("exact", "ann"),
                       default="exact",
                       help="top-k retrieval mode: 'exact' scores the full "
                            "catalogue; 'ann' generates candidates from a PQ "
                            "index and re-ranks them exactly")
    serve.add_argument("--n-probe", type=int, default=None,
                       help="ANN recall dial: coarse buckets probed per "
                            "query (higher = better recall, slower)")
    serve.add_argument("--candidate-multiplier", type=int, default=None,
                       help="ANN candidates kept per probed bucket, as a "
                            "multiple of k")

    serve_node = subparsers.add_parser(
        "serve-node",
        help="run one cluster engine node: train a model (or load a "
             "checkpoint) and serve the arena protocol on a socket until "
             "SIGTERM/SIGINT (graceful drain)")
    add_training_arguments(serve_node)
    serve_node.add_argument("--checkpoint", default=None,
                            help="serve this trained .npz checkpoint instead "
                                 "of training")
    serve_node.add_argument("--bind", default="127.0.0.1:0",
                            help="listen address: host:port (port 0 = OS "
                                 "assigned, printed at startup) or unix:/path")
    serve_node.add_argument("--workers", type=int, default=0,
                            help="shard the node's engine over this many "
                                 "worker processes (<= 1 stays in-process)")
    serve_node.add_argument("--node-index", type=int, default=0,
                            help="this node's index in the cluster node table")
    serve_node.add_argument("--read-timeout", type=float, default=None,
                            help="per-connection read/write timeout in "
                                 "seconds (default 30)")
    serve_node.add_argument("--request-timeout", type=float, default=None,
                            help="per-request deadline of a sharded engine")
    serve_node.add_argument("--journal", default=None, metavar="DIR",
                            help="durable local observe journal directory: "
                                 "observes are journaled before they are "
                                 "applied and replayed into the engine at "
                                 "the next start")
    serve_node.add_argument("--journal-fsync", default="always",
                            choices=("always", "interval", "never"),
                            help="fsync policy of the observe journal")

    route = subparsers.add_parser(
        "route",
        help="answer top-k requests through a ClusterRouter over running "
             "serve-node processes (consistent user-hash + replica failover)")
    route.add_argument("--nodes", nargs="+", required=True, metavar="ADDR",
                       help="node addresses (host:port or unix:/path), in "
                            "node-table order")
    route.add_argument("--users", type=int, nargs="+", default=[0, 1, 2],
                       help="user ids to recommend for")
    route.add_argument("--k", type=int, default=10)
    route.add_argument("--replication", type=int, default=2,
                       help="nodes per replica set (primary included)")
    route.add_argument("--request-timeout", type=float, default=None,
                       help="end-to-end deadline per request in seconds "
                            "(failover retries never exceed it)")
    route.add_argument("--gateway", action="store_true",
                       help="front the router with the micro-batching "
                            "gateway instead of calling it directly")
    route.add_argument("--wal-dir", default=None, metavar="DIR",
                       help="durable observe log directory: every observe "
                            "is journaled write-ahead and a restarted "
                            "router rebuilds its replay state from it")
    route.add_argument("--wal-fsync", default="always",
                       choices=("always", "interval", "never"),
                       help="fsync policy of the observe WAL")

    return parser


def _command_list() -> int:
    print(format_table(list_experiments(), title="Reproducible experiments"))
    return 0


def _command_stats(scale: str | None) -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        dataset = load_benchmark(name, scale=scale)
        rows.append({
            "dataset": dataset.name,
            "#users": dataset.num_users,
            "#items": dataset.num_items,
            "#intrns": dataset.num_interactions,
            "#intrns/u": round(dataset.interactions_per_user, 1),
            "#u/i": round(dataset.interactions_per_item, 1),
        })
    print(format_table(rows, title="Synthetic benchmark analogues (Table 2)"))
    return 0


def _command_run(experiment_id: str, scale: str | None, epochs: int | None, seed: int,
                 save_dir: str | None = None) -> int:
    spec = get_experiment(experiment_id)
    print(f"running {spec.experiment_id}: {spec.title} ({spec.paper_section})")
    output = spec.run(scale=scale, epochs=epochs, seed=seed)
    print(output["text"])
    if save_dir is not None:
        from repro.experiments.persistence import ResultsStore

        saved = ResultsStore(save_dir).save(
            spec.experiment_id, output,
            metadata={"scale": scale, "epochs": epochs, "seed": seed},
        )
        print(f"saved to {saved.path}")
    return 0


def _command_train(dataset: str, method: str, setting: str, scale: str | None,
                   epochs: int | None, seed: int, checkpoint: str | None = None) -> int:
    data = load_benchmark(dataset, scale=scale)
    split = split_setting(data, setting)
    print(data.summary())

    rng = np.random.default_rng(seed)
    hyperparameters = default_model_hyperparameters(method, dataset, setting)
    model = create_model(method, num_users=split.num_users, num_items=split.num_items,
                         rng=rng, **hyperparameters)
    print(model.describe())

    config = default_training_config(num_epochs=epochs, dataset=dataset,
                                     setting=setting, seed=seed)
    result = Trainer(model, config).fit(split.train_plus_valid())
    print(f"trained {config.num_epochs} epochs in {result.train_seconds:.1f}s "
          f"(final loss {result.final_loss:.4f})")

    metrics = RankingEvaluator(split, ks=(5, 10), mode="test").evaluate(model).metrics
    print(format_table([{"method": method, **{k: round(v, 4) for k, v in metrics.items()}}],
                       title=f"{method} on {data.name} in {setting}"))

    if checkpoint is not None:
        from repro.training.checkpoint import save_checkpoint

        # Everything engine_from_checkpoint needs to rebuild the model
        # without re-deriving defaults: method, dims, hyperparameters.
        path = save_checkpoint(model, checkpoint, metadata={
            "method": method, "dataset": dataset, "setting": setting, "seed": seed,
            "model": {"num_users": split.num_users, "num_items": split.num_items},
            "hyperparameters": hyperparameters,
            "metrics": {k: round(v, 6) for k, v in metrics.items()},
        })
        print(f"checkpoint written to {path}")
    return 0


def _train_for_serving(dataset: str, method: str, setting: str, scale: str | None,
                       epochs: int | None, seed: int):
    """Shared train-then-snapshot path of the serve/serve-node commands."""
    data = load_benchmark(dataset, scale=scale)
    split = split_setting(data, setting)
    rng = np.random.default_rng(seed)
    hyperparameters = default_model_hyperparameters(method, dataset, setting)
    model = create_model(method, num_users=split.num_users, num_items=split.num_items,
                         rng=rng, **hyperparameters)
    config = default_training_config(num_epochs=epochs, dataset=dataset,
                                     setting=setting, seed=seed)
    histories = split.train_plus_valid()
    Trainer(model, config).fit(histories)
    return model, histories


#: Exit code of serve/serve-node/route when the engine is degraded or a
#: breaker is open — distinct from argparse's 2, so scripts and liveness
#: probes can tell "unhealthy" from "bad invocation".
UNHEALTHY_EXIT_CODE = 3

#: Exit code of serve/serve-node when ``--checkpoint`` names a corrupt
#: file (torn write, bit flip, mangled archive) — one diagnostic line on
#: stderr instead of a traceback, and a code scripts can branch on.
CORRUPT_CHECKPOINT_EXIT_CODE = 4


def _print_health_line(health: dict | None) -> bool:
    """One-line shard-health summary of a sharded serve run.

    Returns ``True`` when the engine is unhealthy — any shard degraded
    or its circuit breaker open — in which case the summary goes to
    **stderr** (healthy summaries go to stdout) and the serve commands
    exit with :data:`UNHEALTHY_EXIT_CODE`, so scripts and liveness
    probes can consume the verdict without parsing output.
    """
    if not health or health.get("mode") != "sharded":
        return False
    shards = health.get("shards", [])
    alive = sum(1 for shard in shards if shard.get("alive"))
    restarts = sum(shard.get("restarts", 0) for shard in shards)
    degraded = health.get("degraded_shards", [])
    breakers_open = sum(1 for shard in shards
                        if shard.get("breaker_open_s", 0) > 0)
    unhealthy = bool(degraded or breakers_open)
    line = (f"health: {alive}/{health['n_workers']} shard workers alive, "
            f"{restarts} restart(s), "
            f"degraded shards: {degraded if degraded else 'none'}")
    if breakers_open:
        line += f", {breakers_open} circuit breaker(s) open"
    print(line, file=sys.stderr if unhealthy else sys.stdout)
    return unhealthy


def _command_serve(dataset: str, method: str, setting: str, scale: str | None,
                   epochs: int | None, seed: int, users: list[int], k: int,
                   explain: bool = False, checkpoint: str | None = None,
                   workers: int = 0, gateway: bool = False,
                   max_batch: int = 32, cache_size: int = 256,
                   cache_ttl: float | None = None,
                   request_timeout: float | None = None,
                   max_queue: int | None = None,
                   retrieval: str = "exact", n_probe: int | None = None,
                   candidate_multiplier: int | None = None) -> int:
    from repro.parallel import DEFAULT_REQUEST_TIMEOUT_S, make_scoring_engine
    from repro.retrieval import RetrievalConfig
    from repro.serving import ServingGateway, model_from_checkpoint, explain_ham_scores
    from repro.models.ham import HAM
    from repro.training.checkpoint import CheckpointCorruptError

    if checkpoint is not None:
        # Serve-only path: rebuild the trained model from the checkpoint;
        # the dataset/setting arguments only provide the histories.
        data = load_benchmark(dataset, scale=scale)
        split = split_setting(data, setting)
        histories = split.train_plus_valid()
        try:
            model, metadata = model_from_checkpoint(checkpoint)
        except CheckpointCorruptError as error:
            print(f"error: {error}", file=sys.stderr)
            return CORRUPT_CHECKPOINT_EXIT_CODE
        method = metadata.get("method", method)
    else:
        model, histories = _train_for_serving(dataset, method, setting, scale,
                                              epochs, seed)
    ann_config = None
    if retrieval == "ann":
        dials = {}
        if n_probe is not None:
            dials["n_probe"] = n_probe
        if candidate_multiplier is not None:
            dials["candidate_multiplier"] = candidate_multiplier
        ann_config = RetrievalConfig(**dials)
    engine = make_scoring_engine(
        model, histories, n_workers=workers, precompute=True,
        request_timeout_s=(request_timeout if request_timeout is not None
                           else DEFAULT_REQUEST_TIMEOUT_S),
        ann_config=ann_config)
    engine_name = type(engine).__name__
    if retrieval == "ann":
        engine_name = f"{engine_name}[ann]"
    if workers and workers > 1:
        print(f"sharded over {workers} worker processes "
              f"(user ranges, shared-memory snapshot)")
    print(model.describe())

    if gateway:
        # Online front-end: every user becomes one single-user request,
        # coalesced by the flusher into engine micro-batches (results
        # are bit-identical to engine.recommend_batch).
        engine_name = f"ServingGateway[{engine_name}]"
        try:
            front = ServingGateway(engine, max_batch=max_batch,
                                   cache_size=cache_size,
                                   cache_ttl_s=cache_ttl,
                                   max_queue=max_queue,
                                   request_timeout_s=request_timeout,
                                   own_engine=True,
                                   retrieval_mode=retrieval,
                                   n_probe=n_probe,
                                   candidate_multiplier=candidate_multiplier)
        except Exception:
            engine.close()
            raise
        with front:
            futures = [front.submit(user, k) for user in users]
            batches = [future.recommendations() for future in futures]
            stats = front.stats()
            health = front.health()
        cache = stats.cache
        cache_line = (
            f", cache {cache.hits}/{cache.requests} hits" if cache else ""
        )
        print(f"gateway: {stats.requests} requests in {stats.batches} "
              f"micro-batches (max {stats.max_batch_observed}, "
              f"{stats.flush_full} cut at max_batch, "
              f"{stats.shed} shed / {stats.expired} expired"
              f"{cache_line})")
        unhealthy = _print_health_line(health.get("engine"))
    else:
        try:
            # ANN mode: candidate generation + exact re-rank; dials
            # default to the index's RetrievalConfig when flags are omitted.
            batches = engine.recommend_batch(
                users, k, mode=retrieval, n_probe=n_probe,
                candidate_multiplier=candidate_multiplier)
            health = engine.health() if hasattr(engine, "health") else None
        finally:
            engine.close()
        unhealthy = _print_health_line(health)
    rows = []
    for user, recommendations in zip(users, batches):
        for entry in recommendations:
            rows.append({"user": user, "rank": entry.rank, "item": entry.item,
                         "score": round(entry.score, 4)})
    print(format_table(rows, title=f"top-{k} via {engine_name} ({method} on {dataset})"))

    if explain and isinstance(model, HAM):
        explanation_rows = []
        for user, recommendations in zip(users, batches):
            explanations = explain_ham_scores(model, user, list(histories[user]),
                                              [entry.item for entry in recommendations])
            explanation_rows.extend(
                {key: round(value, 4) if isinstance(value, float) else value
                 for key, value in explanation.as_row().items()}
                for explanation in explanations
            )
        print(format_table(explanation_rows, title="per-factor score decomposition"))
    return UNHEALTHY_EXIT_CODE if unhealthy else 0


def _command_serve_node(dataset: str, method: str, setting: str,
                        scale: str | None, epochs: int | None, seed: int,
                        checkpoint: str | None, bind: str, workers: int,
                        node_index: int, read_timeout: float | None,
                        request_timeout: float | None,
                        journal: str | None = None,
                        journal_fsync: str = "always") -> int:
    import signal as _signal

    from repro.cluster.node import DEFAULT_READ_TIMEOUT_S, EngineNode
    from repro.parallel import make_scoring_engine
    from repro.serving.deploy import node_from_checkpoint
    from repro.training.checkpoint import CheckpointCorruptError

    if read_timeout is None:
        read_timeout = DEFAULT_READ_TIMEOUT_S
    if checkpoint is not None:
        data = load_benchmark(dataset, scale=scale)
        split = split_setting(data, setting)
        try:
            node = node_from_checkpoint(
                checkpoint, split.train_plus_valid(), bind=bind,
                n_workers=workers, node_index=node_index,
                read_timeout_s=read_timeout, request_timeout_s=request_timeout,
                journal_dir=journal, journal_fsync=journal_fsync)
        except CheckpointCorruptError as error:
            print(f"error: {error}", file=sys.stderr)
            return CORRUPT_CHECKPOINT_EXIT_CODE
    else:
        model, histories = _train_for_serving(dataset, method, setting, scale,
                                              epochs, seed)
        engine = make_scoring_engine(model, histories, n_workers=workers,
                                     precompute=True)
        try:
            node = EngineNode(engine, bind=bind, read_timeout_s=read_timeout,
                              node_index=node_index, own_engine=True,
                              journal_dir=journal,
                              journal_fsync=journal_fsync)
        except Exception:
            engine.close()
            raise
    node.install_sigterm_drain()
    print(f"node {node_index} serving on {node.address} "
          f"(epoch {node.epoch}); SIGTERM drains gracefully", flush=True)
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        node.drain()
    # Exit-time health verdict, same convention as `serve`: degraded
    # shards or open breakers exit non-zero for scripts and probes.
    engine_health = getattr(node.engine, "health", None)
    unhealthy = _print_health_line(engine_health() if engine_health else None)
    node.close()
    return UNHEALTHY_EXIT_CODE if unhealthy else 0


def _command_route(nodes: list[str], users: list[int], k: int,
                   replication: int, request_timeout: float | None,
                   gateway: bool, wal_dir: str | None = None,
                   wal_fsync: str = "always") -> int:
    from repro.cluster.router import ClusterRouter
    from repro.serving import ServingGateway

    router_kwargs = {}
    if request_timeout is not None:
        router_kwargs["request_timeout_s"] = request_timeout
    router = ClusterRouter(nodes, replication=replication, wal_dir=wal_dir,
                           wal_fsync=wal_fsync, **router_kwargs)
    engine_name = f"ClusterRouter[{len(nodes)} nodes, r={router.replication}]"
    try:
        if gateway:
            engine_name = f"ServingGateway[{engine_name}]"
            with ServingGateway(router, own_engine=True) as front:
                futures = [front.submit(user, k) for user in users]
                batches = [future.recommendations() for future in futures]
                health = front.health().get("engine", {})
        else:
            batches = router.recommend_batch(users, k)
            health = router.health()
    finally:
        router.close()
    rows = []
    for user, recommendations in zip(users, batches):
        for entry in recommendations:
            rows.append({"user": user, "rank": entry.rank, "item": entry.item,
                         "score": round(entry.score, 4)})
    print(format_table(rows, title=f"top-{k} via {engine_name}"))
    up = sum(1 for node in health.get("nodes", []) if node.get("up"))
    unhealthy = not health.get("healthy", False)
    print(f"cluster health: {up}/{len(nodes)} nodes up, "
          f"{health.get('n_ranges')} ranges x {health.get('replication')} "
          f"replicas, observe log {health.get('observe_log_len', 0)}",
          file=sys.stderr if unhealthy else sys.stdout)
    return UNHEALTHY_EXIT_CODE if unhealthy else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "stats":
        return _command_stats(args.scale)
    if args.command == "run":
        return _command_run(args.experiment, args.scale, args.epochs, args.seed,
                            save_dir=args.save_dir)
    if args.command == "train":
        return _command_train(args.dataset, args.method, args.setting,
                              args.scale, args.epochs, args.seed,
                              checkpoint=args.checkpoint)
    if args.command == "serve":
        return _command_serve(args.dataset, args.method, args.setting,
                              args.scale, args.epochs, args.seed,
                              users=args.users, k=args.k, explain=args.explain,
                              checkpoint=args.checkpoint, workers=args.workers,
                              gateway=args.gateway, max_batch=args.max_batch,
                              cache_size=args.cache_size,
                              cache_ttl=args.cache_ttl,
                              request_timeout=args.request_timeout,
                              max_queue=args.max_queue,
                              retrieval=args.retrieval, n_probe=args.n_probe,
                              candidate_multiplier=args.candidate_multiplier)
    if args.command == "serve-node":
        return _command_serve_node(args.dataset, args.method, args.setting,
                                   args.scale, args.epochs, args.seed,
                                   checkpoint=args.checkpoint, bind=args.bind,
                                   workers=args.workers,
                                   node_index=args.node_index,
                                   read_timeout=args.read_timeout,
                                   request_timeout=args.request_timeout,
                                   journal=args.journal,
                                   journal_fsync=args.journal_fsync)
    if args.command == "route":
        return _command_route(args.nodes, args.users, args.k,
                              replication=args.replication,
                              request_timeout=args.request_timeout,
                              gateway=args.gateway, wal_dir=args.wal_dir,
                              wal_fsync=args.wal_fsync)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
