"""Command-line entry point.

Commands: index, ask, eval, graph. Exit codes: 0 success, 2 usage or
argument error, 3 missing artifact (corpus/snapshot/dataset), 4 runtime
pipeline error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

from .benchmark import (
    DATASET_FORMATS,
    load_dataset,
    run_benchmark,
    write_report_files,
)
from .config import Config, load_config
from .embedders import HashedBagEmbedder
from .errors import ConfigError, SubhopError
from .gateway import Gateway
from .indexer import build_graph_index, ingest_corpus
from .kg import encode_record
from .remote import RemoteBackend
from .solver import render_memory, solve, write_trace
from .stores import load_graph, load_stores, save_stores, snapshot_exists, Stores
from .stub import StubBackend, load_stub_script
from .templates import TemplateRegistry

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_RUNTIME = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subhop")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--backend", choices=["stub", "remote"])
    parser.add_argument("--model")
    parser.add_argument("--endpoint")
    parser.add_argument("--embedding-dim", type=int, dest="embedding_dim")
    parser.add_argument("--k-triples", type=int, dest="k_triples")
    parser.add_argument("--k-docs", type=int, dest="k_docs")
    parser.add_argument("--max-subquestions", type=int, dest="max_subquestions")
    parser.add_argument("--llm-budget", type=int, dest="llm_budget")
    parser.add_argument("--parallelism", type=int)
    parser.add_argument("--templates-dir", dest="templates_dir")
    parser.add_argument("--snapshot-dir", dest="snapshot_dir")
    parser.add_argument("--run-dir", dest="run_dir")
    parser.add_argument("--stub-script", dest="stub_script")
    parser.add_argument("--corpus-path", dest="corpus")
    parser.add_argument("--no-decomposition", dest="decomposition", action="store_false",
                        default=None)
    parser.add_argument("--no-rewriting", dest="rewriting", action="store_false", default=None)
    parser.add_argument("--no-update", dest="graph_update", action="store_false", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the graph and vector indexes")
    # SUPPRESS: unless given, it leaves the global or environment corpus standing
    p_index.add_argument("--corpus", default=argparse.SUPPRESS,
                         help="line-JSON corpus file (default: the corpus field)")
    p_index.add_argument("--force", action="store_true", help="overwrite an existing snapshot")

    p_ask = sub.add_parser("ask", help="answer one question")
    p_ask.add_argument("question")
    p_ask.add_argument("--trace", action="store_true", help="write the question trace JSON")
    p_ask.add_argument("--show-memory", action="store_true", help="print the graph memory")

    p_eval = sub.add_parser("eval", help="run a benchmark")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--format", choices=list(DATASET_FORMATS), default="generic")

    p_graph = sub.add_parser("graph", help="inspect or export the graph")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    graph_sub.add_parser("stats")
    p_export = graph_sub.add_parser("export")
    p_export.add_argument("--format", choices=["json", "edgelist"], default="json")

    return parser


def _config_from_args(args: argparse.Namespace) -> Config:
    fields = {f.name for f in dataclasses.fields(Config)}
    overrides = {name: value for name, value in vars(args).items() if name in fields}
    return load_config(path=args.config, overrides=overrides)


def build_gateway(config: Config) -> Gateway:
    registry = TemplateRegistry.load(config.templates_dir or None)
    if config.backend == "stub":
        if not config.stub_script:
            raise ConfigError("stub backend requires stub_script")
        backend = StubBackend(load_stub_script(config.stub_script))
    else:
        backend = RemoteBackend(
            endpoint=config.endpoint,
            model=config.model,
            api_key=config.api_key,
            retry_limit=config.retry_limit,
            backoff_base=config.backoff_base,
            timeout=config.request_timeout,
            max_in_flight=config.parallelism,
        )
    return Gateway(
        registry, backend, wire_log_path=config.wire_log or None, max_tokens=config.max_tokens
    )


def question_id_for(question: str) -> str:
    return "q-" + hashlib.sha256(question.encode("utf-8")).hexdigest()[:10]


def _load_snapshot(config: Config):
    embedder = HashedBagEmbedder(config.embedding_dim)
    stores = load_stores(
        config.snapshot_dir, embedder, corpus_path=config.corpus or None
    )
    return stores, embedder


def cmd_index(args: argparse.Namespace, config: Config) -> int:
    if not config.corpus:
        raise ConfigError("index needs a corpus: pass --corpus or set SUBHOP_CORPUS")
    corpus_path = Path(config.corpus)
    if snapshot_exists(config.snapshot_dir) and not args.force:
        print(
            f"error: snapshot already exists in {config.snapshot_dir} "
            "(use --force to overwrite)",
            file=sys.stderr,
        )
        return EXIT_MISSING
    corpus = ingest_corpus(corpus_path)
    embedder = HashedBagEmbedder(config.embedding_dim)
    gateway = build_gateway(config)
    graph, triple_index, passage_index, report = build_graph_index(
        corpus, gateway, embedder,
        char_budget=config.extract_char_budget,
        workers=config.parallelism,
    )
    stores = Stores(
        graph=graph, triple_index=triple_index, passage_index=passage_index, corpus=corpus
    )
    save_stores(stores, config.snapshot_dir, embedder, corpus_path)
    print(report.summary())
    return EXIT_OK


def cmd_ask(args: argparse.Namespace, config: Config) -> int:
    if not args.question.strip():
        print("error: the question is blank", file=sys.stderr)
        return EXIT_USAGE
    stores, embedder = _load_snapshot(config)
    gateway = build_gateway(config)
    question_id = question_id_for(args.question)
    trace = solve(question_id, args.question, config, stores, gateway, embedder)
    print(trace.final_answer)
    if args.show_memory and trace.memory:
        print(render_memory(trace.memory))
    if args.trace:
        path = write_trace(trace, Path(config.run_dir) / "traces")
        print(f"trace: {path}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, config: Config) -> int:
    dataset_path = Path(args.dataset)
    dataset = load_dataset(dataset_path, args.format)
    stores, embedder = _load_snapshot(config)
    gateway = build_gateway(config)

    def solve_fn(example):
        return solve(example.id, example.question, config, stores, gateway, embedder)

    report = run_benchmark(
        dataset,
        solve_fn,
        parallelism=config.parallelism,
        trace_dir=Path(config.run_dir) / "traces",
        dataset_name=dataset_path.stem,
        config=config.public_dict(),
    )
    write_report_files(report, config.run_dir)
    print(f"EM {report.em:.2f} F1 {report.f1:.2f}")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace, config: Config) -> int:
    graph = load_graph(config.snapshot_dir)
    if args.graph_command == "stats":
        stats = graph.stats()
        print(f"triples: {stats.triple_count}")
        print(f"entities: {stats.entity_count}")
        print(f"dynamic: {stats.dynamic_count}")
        return EXIT_OK
    if args.graph_command == "export":
        if args.format == "json":
            for triple in graph:
                print(encode_record(triple))
        else:
            for triple in graph:
                print(f"{triple.head}\t{triple.relation}\t{triple.tail}")
        return EXIT_OK
    return EXIT_USAGE


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _config_from_args(args)
        if args.command == "index":
            return cmd_index(args, config)
        if args.command == "ask":
            return cmd_ask(args, config)
        if args.command == "eval":
            return cmd_eval(args, config)
        if args.command == "graph":
            return cmd_graph(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): not a pipeline error
        return EXIT_OK
    except (SubhopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_USAGE


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is left to devnull so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
