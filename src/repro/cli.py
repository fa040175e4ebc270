"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tree``      print the loop tree of a kernel
``compile``   run the full pipeline and report the chosen schedule
``trace``     print the PREM API schedule trace of one component
``codegen``   emit the PREM-C of every compiled component
``gantt``     render the schedule timeline of the first component
``sweep``     makespan across bus speeds (mini Figure 6.1 for one kernel)
``pareto``    exact makespan/SPM/DMA/cores frontier per component
``analyze``   static PREM-compliance verification (no VM involved)
``faults``    seeded fault-injection campaign; injected vs detected
``cache``     persistent makespan-cache statistics / clearing / compaction
``shard``     sharded-compile coordination-log status
``shard-reduce``  merge shard results from the shared cache (exact winner)

Every command that compiles, except ``pareto``, takes ``--strategy``
— the component optimizer, one of :data:`repro.compiler.STRATEGIES`
(default ``heuristic``, Algorithm 1); ``compile --fallback`` instead
walks the staged ``pruned -> greedy -> sequential`` chain.  ``pareto``
is ``compile --strategy pareto`` whose ``--weights`` pick the
scalarized winners it prints.

Exit codes: 0 success, 1 expected failure (infeasible schedule,
error-severity diagnostics, missed faults), 2 bad invocation (unknown
kernel, preset, or fault kind, or a flag value out of range).

Examples
--------
    python -m repro compile lstm --preset LARGE --bus 1
    python -m repro compile lstm --preset MINI --jobs 4 --cache-dir .cache
    python -m repro compile lstm --preset MINI --strategy robust \
        --scenarios 32 --risk cvar --alpha 0.9 --seed 0
    python -m repro compile cnn --preset MINI --verify-static
    python -m repro compile lstm --preset MINI --fission auto
    python -m repro compile lstm --preset SMALL --strategy pareto
    python -m repro compile maxpool --preset MINI --fallback
    python -m repro pareto lstm --preset SMALL --cores 8
    python -m repro pareto cnn --preset MINI \
        --weights 0.7,0.1,0.1,0.1 --weights 0.25,0.25,0.25,0.25
    python -m repro tree cnn
    python -m repro sweep rnn --cores 8
    python -m repro analyze cnn --preset MINI
    python -m repro analyze lstm --preset MINI --source
    python -m repro analyze cnn --preset SMALL --cores 1 --spm 8 --json
    python -m repro analyze cnn --selftest 200 --seed 7
    python -m repro faults lstm --seed 7
    python -m repro cache stats --cache-dir .cache
    python -m repro cache compact --cache-dir .cache
    python -m repro compile cnn --preset MINI --strategy pruned \
        --shard 1/3 --cache-dir .cache
    python -m repro shard-reduce cnn --preset MINI --cache-dir .cache
    python -m repro shard status --cache-dir .cache
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .compiler import STRATEGIES, PremCompiler, validate_budget, validate_jobs
from .errors import KernelConfigError, ReproError
from .faults.scenarios import sample_scenarios
from .kernels import KERNELS, PRESET_NAMES, make_kernel
from .loopir import LoopTree
from .opt.cache import CACHE_ENV, PersistentCache
from .opt.robust import validate_risk
from .schedule.gantt import render_gantt
from .timing.platform import Platform


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel PREM compilation over nested loop structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_strategy(p):
        p.add_argument("--strategy", choices=tuple(STRATEGIES),
                       default="heuristic",
                       help="component optimizer (default: heuristic, "
                            "Algorithm 1)")

    def add_common(p, strategy=True):
        p.add_argument("kernel", choices=sorted(KERNELS))
        # Preset validation is deferred to make_kernel so a bad value
        # reports the offending token (argparse's choices= would hide it
        # behind a generic usage message).
        p.add_argument("--preset", default="LARGE", metavar="PRESET",
                       help="problem size preset: "
                            + ", ".join(PRESET_NAMES))
        p.add_argument("--cores", type=int, default=None)
        p.add_argument("--bus", type=float, default=16.0,
                       help="bus bandwidth in GB/s")
        p.add_argument("--spm", type=int, default=128,
                       help="per-core SPM size in KiB")
        if strategy:
            add_strategy(p)
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for candidate evaluation "
                            "(1 = serial; results are identical)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent makespan-cache directory (also "
                            f"honours ${CACHE_ENV})")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the persistent makespan cache")

    compile_cmd = sub.add_parser("compile", help="optimize and report")
    add_common(compile_cmd, strategy=False)
    modes = compile_cmd.add_mutually_exclusive_group()
    add_strategy(modes)
    modes.add_argument(
        "--fallback", action="store_true",
        help="graceful degradation: pruned -> greedy -> sequential")
    compile_cmd.add_argument(
        "--stage-budget", type=float, default=10.0, metavar="S",
        help="wall-clock budget per --fallback stage in seconds")
    compile_cmd.add_argument(
        "--scenarios", type=int, default=32, metavar="N",
        help="timing scenarios sampled for --strategy robust "
             "(0 = nominal winner)")
    compile_cmd.add_argument(
        "--risk", choices=("cvar", "worst", "mean"), default="cvar",
        help="risk objective over the scenario makespans")
    compile_cmd.add_argument(
        "--alpha", type=float, default=0.9,
        help="CVaR tail level (fraction of scenarios averaged: 1-alpha)")
    compile_cmd.add_argument(
        "--spread", type=float, default=0.2,
        help="half-width of the multiplicative timing noise interval")
    compile_cmd.add_argument(
        "--seed", type=int, default=0,
        help="compiler seed: heuristic random starts and robust "
             "scenario sampling (same seed => identical winner)")
    compile_cmd.add_argument(
        "--shard", default=None, metavar="I/N",
        help="score only shard I of N (1-based) of every component's "
             "candidate space against a shared --cache-dir; recover the "
             "exact winner afterwards with 'shard-reduce'")
    compile_cmd.add_argument(
        "--verify-static", action="store_true",
        help="gate the result on the static PREM-compliance verifier "
             "(exit 1 on any error-severity diagnostic)")
    compile_cmd.add_argument(
        "--fission", choices=("off", "auto"), default="off",
        help="run the dependence-verified loop-fission pre-pass before "
             "component extraction (auto = maximal legal distribution)")
    add_common(sub.add_parser("codegen", help="emit PREM-C"))
    add_common(sub.add_parser("trace", help="PREM API schedule trace"))
    add_common(sub.add_parser("gantt", help="schedule timeline"))

    tree_cmd = sub.add_parser("tree", help="print the loop tree")
    tree_cmd.add_argument("kernel", choices=sorted(KERNELS))
    tree_cmd.add_argument("--preset", default="LARGE", metavar="PRESET",
                          help="problem size preset: "
                               + ", ".join(PRESET_NAMES))

    sweep = sub.add_parser("sweep", help="makespan vs bus bandwidth")
    add_common(sweep)
    sweep.add_argument(
        "--speeds", default="0.0625,0.25,1,4,16",
        help="comma-separated bus speeds in GB/s")

    pareto = sub.add_parser(
        "pareto", help="exact multi-objective frontier per component")
    add_common(pareto, strategy=False)
    pareto.set_defaults(strategy="pareto")
    pareto.add_argument(
        "--weights", action="append", default=None, metavar="M,SPM,DMA,C",
        help="scalarization weight vector over (makespan, SPM bytes, "
             "DMA bytes, cores); repeatable, strictly positive; "
             "default: one emphasis per objective plus the balanced mix")

    analyze = sub.add_parser(
        "analyze", help="static PREM-compliance verification")
    add_common(analyze)
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics report as JSON")
    analyze.add_argument(
        "--source", action="store_true",
        help="analyze the loop IR itself (PREM5xx: structure, "
             "dependences, legality, fission) instead of compiling "
             "and verifying artifacts")
    analyze.add_argument(
        "--passes", default=None, metavar="NAMES",
        help="comma-separated analysis passes to run (default: all)")
    analyze.add_argument(
        "--selftest", type=int, default=0, metavar="N",
        help="also run an N-case seeded swap-corruption campaign and "
             "require >=90%% static detection of harmful cases")
    analyze.add_argument(
        "--seed", type=int, default=7,
        help="selftest campaign seed (deterministic per seed)")

    faults = sub.add_parser(
        "faults", help="seeded fault-injection campaign")
    add_common(faults)
    faults.set_defaults(preset="MINI")
    faults.add_argument("--seed", type=int, default=7,
                        help="campaign seed (deterministic per seed)")
    faults.add_argument("--per-kind", type=int, default=3, metavar="N",
                        help="faults injected per kind")
    faults.add_argument("--kinds", default=None,
                        help="comma-separated fault kinds (default: all)")

    cache_cmd = sub.add_parser(
        "cache", help="persistent makespan-cache maintenance")
    cache_cmd.add_argument("action", choices=("stats", "clear", "compact"))
    cache_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"cache directory (default: ${CACHE_ENV} or "
             f"the user cache dir)")

    reduce_cmd = sub.add_parser(
        "shard-reduce",
        help="merge shard results: exact winner from the shared cache")
    add_common(reduce_cmd)
    reduce_cmd.set_defaults(strategy="pruned")

    shard_cmd = sub.add_parser(
        "shard", help="sharded-compile coordination-log status")
    shard_cmd.add_argument("action", choices=("status",))
    shard_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"shared cache directory (also honours ${CACHE_ENV})")
    return parser


def _checked(flag: str, value, check):
    """``check(value)``, with the library's ValueError turned into a bad
    invocation (exit 2) that names *flag*."""
    try:
        return check(value)
    except ValueError as error:
        raise KernelConfigError(f"{flag} {value}: {error}") from None


def _at_least_one(count: int) -> int:
    """*count* when it is at least 1; ValueError otherwise."""
    if count < 1:
        raise ValueError("must be at least 1")
    return count


def _platform(args) -> Platform:
    platform = _checked("--spm", args.spm,
                        lambda kib: Platform(spm_bytes=kib * 1024))
    if args.cores is not None:
        _checked("--cores", args.cores, platform.with_cores)
    return _checked("--bus", args.bus,
                    lambda gbs: platform.with_bus(gbs * 1e9))


def _cache_dir(args, need: str = "") -> Optional[str]:
    """``--cache-dir``, else $REPRO_CACHE_DIR, else None (always None
    under ``--no-cache``); exit 2 instead of None when *need* is set."""
    directory = None if getattr(args, "no_cache", False) else \
        getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV)
    if not directory and need:
        raise KernelConfigError(
            f"{need} needs the shared cache directory: pass --cache-dir "
            f"or set ${CACHE_ENV}")
    return directory


def _cache(args) -> Optional[PersistentCache]:
    """Persistent cache per the CLI flags, or None.

    The cache only activates when a directory is named explicitly
    (``--cache-dir`` or $REPRO_CACHE_DIR) so that plain runs never write
    outside the working tree."""
    directory = _cache_dir(args)
    return PersistentCache(directory) if directory else None


def _parse_shard(token: str):
    """``--shard I/N`` (1-based on the wire) -> zero-based (index, count).

    Malformed values are a bad invocation, so they raise
    KernelConfigError and exit 2 like an unknown preset does."""
    try:
        index_text, count_text = token.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise KernelConfigError(
            f"malformed --shard value {token!r}: expected I/N, e.g. 2/3")
    if count < 1 or not 1 <= index <= count:
        raise KernelConfigError(
            f"--shard {token!r}: need 1 <= I <= N")
    return index - 1, count


def _shards(args):
    """Validated ``shards`` tuple for the compiler, or None."""
    token = getattr(args, "shard", None)
    if token is None:
        return None
    shards = _parse_shard(token)
    if STRATEGIES[args.strategy][2] is None:
        raise KernelConfigError(
            f"--shard needs an enumerated candidate space; --strategy "
            f"{args.strategy} has none (use pruned, robust or pareto)")
    _cache_dir(args, need="--shard")
    return shards


#: ``compile`` flags that reach :meth:`PremCompiler.compile` under their
#: own names; only the robust search reads them.
ROBUST_FLAGS = ("scenarios", "risk", "alpha", "spread")


def _compiler(args, seed: int = 0, use_cache: bool = True) -> PremCompiler:
    return PremCompiler(_platform(args), seed=seed,
                        jobs=_checked("--jobs", args.jobs, validate_jobs),
                        cache=_cache(args) if use_cache else None)


def _compile(args, seed: int = 0, use_cache: bool = True):
    """Compile per the flags every compiling command shares.  *seed* is
    the compiler seed: ``compile --seed``; other commands' ``--seed``
    seeds their own campaigns, not the compiler."""
    kernel = make_kernel(args.kernel, args.preset)
    knobs = {name: value for name, value in vars(args).items()
             if name in ROBUST_FLAGS}
    if args.strategy == "robust" and knobs:
        _checked("--alpha", args.alpha,
                 lambda alpha: validate_risk(args.risk, alpha))
        _checked("--scenarios", args.scenarios, sample_scenarios)
        _checked("--spread", args.spread,
                 lambda spread: sample_scenarios(0, spread=spread))
    return _compiler(args, seed, use_cache).compile(
        kernel, cores=args.cores, strategy=args.strategy,
        shards=_shards(args), fission=getattr(args, "fission", "off"),
        **knobs)


def cmd_tree(args) -> int:
    kernel = make_kernel(args.kernel, args.preset)
    tree = LoopTree.build(kernel)
    print(tree.render())
    print(f"\ndependences: {len(tree.dependences)}")
    return 0


def cmd_compile(args) -> int:
    if args.fallback:
        if args.shard:
            raise KernelConfigError(
                "--shard does not compose with the staged --fallback "
                "pipeline (shard a --strategy pruned, robust or pareto "
                "search instead)")
        kernel = make_kernel(args.kernel, args.preset)
        result = _compiler(args, args.seed).compile_fallback(
            kernel, cores=args.cores,
            stage_budget_s=_checked("--stage-budget", args.stage_budget,
                                    validate_budget),
            fission=args.fission)
    else:
        result = _compile(args, args.seed)
    if result.fission is not None:
        from .reporting import fission_note

        print(fission_note(result.fission))
    print(result.opt_result.describe())
    print(f"\nideal single-core : {result.ideal_ns:>16,.0f} ns")
    print(f"makespan          : {result.makespan_ns:>16,.0f} ns")
    if result.feasible:
        print(f"normalised        : {result.normalized_makespan:.4f}")
    opt = result.opt_result
    print(f"evaluations       : {opt.evaluations:>16,}")
    if opt.cache_hits:
        print(f"cache hits        : {opt.cache_hits:>16,} "
              f"({opt.cache_hit_rate:.1%} of probes)")
    if opt.pruned:
        print(f"pruned            : {opt.pruned:>16,}")
    if opt.bound_hits:
        print(f"bound hits        : {opt.bound_hits:>16,}")
    if opt.chains_pruned:
        print(f"chains pruned     : {opt.chains_pruned:>16,}")
    if args.fallback:
        print(f"strategy          : {result.strategy}"
              + (" (degraded)" if result.degraded else ""))
        for attempt in result.attempts:
            print(f"  {attempt.describe()}")
    if args.strategy == "robust":
        from .reporting import robust_note

        for choice in result.opt_result.choices:
            if hasattr(choice.result, "scenario_count"):
                print(f"{choice.component.label()}: "
                      f"{robust_note(choice.result)}")
    if args.strategy == "pareto":
        from .opt import DEFAULT_WEIGHTS

        _print_frontiers(result.opt_result, DEFAULT_WEIGHTS)
    if args.verify_static:
        report = result.verify_static()
        merged = report.merged
        print(f"static analysis   : {len(merged.errors)} error(s), "
              f"{len(merged.warnings)} warning(s)")
        if merged:
            print(report.render_text())
        if report.has_errors:
            return 1
    if args.shard:
        # A shard slice may hold no feasible candidate at all — that is
        # expected, not an error; the winner is recovered at reduce time.
        print(f"shard             : {args.shard} "
              f"(merge with 'shard-reduce' on the shared cache)")
        if not result.feasible:
            print("shard slice infeasible (expected for some shards)")
        return 0
    return 0 if result.feasible else 1


def cmd_codegen(args) -> int:
    result = _compile(args)
    for label, source in result.generate_c().items():
        print(f"/* ===== component {label} ===== */")
        print(source)
        print()
    return 0


def cmd_trace(args) -> int:
    from .prem.macros import MacroBuilder, render_trace

    result = _compile(args)
    if not result.components:
        print("no feasible components", file=sys.stderr)
        return 1
    compiled = result.components[0]
    builder = MacroBuilder(compiled.component, compiled.solution)
    outer = {var: 0 for var in compiled.component.outer_vars()}
    print(f"component {compiled.component.label()} "
          f"({compiled.solution.describe()})")
    print(render_trace(builder.trace(0, outer=outer)))
    return 0


def cmd_gantt(args) -> int:
    # Rendering needs a full SegmentPlan; a warm-cache winner arrives
    # plan-less, so re-plan just the chosen solution instead of
    # bypassing the cache for the whole compilation.
    result = _compile(args)
    if not result.components:
        print("no feasible components", file=sys.stderr)
        return 1
    compiled = result.components[0]
    plan = result.plan_of(compiled)
    print(f"component {compiled.component.label()} "
          f"({compiled.solution.describe()})")
    print(render_gantt(plan.cores))
    return 0


def cmd_sweep(args) -> int:
    kernel = make_kernel(args.kernel, args.preset)
    jobs = _checked("--jobs", args.jobs, validate_jobs)
    base = _platform(args)
    platforms = [
        _checked("--speeds", token, lambda gbs: (
            float(gbs), base.with_bus(float(gbs) * 1e9)))
        for token in args.speeds.split(",")]
    tree = LoopTree.build(kernel)
    print(f"{'bus GB/s':>10}  {'makespan ns':>16}  {'normalised':>10}")
    for speed, platform in platforms:
        compiler = PremCompiler(platform, jobs=jobs, cache=_cache(args))
        result = compiler.compile(
            kernel, cores=args.cores, strategy=args.strategy, tree=tree)
        print(f"{speed:>10.4f}  {result.makespan_ns:>16,.0f}  "
              f"{result.normalized_makespan:>10.4f}")
    return 0


def _print_frontiers(opt_result, weights) -> None:
    """Per-component frontier tables, each front's scalarized winner
    per weight vector, and the composed kernel front."""
    from .opt import kernel_front, scalarize
    from .reporting import pareto_note, pareto_table

    for choice in opt_result.choices:
        result = choice.result
        if not hasattr(result, "front"):
            continue
        print(f"\n{choice.component.label()}: {pareto_note(result)}")
        if not result.front:
            continue
        print(pareto_table(result.front))
        for scalar in (scalarize(result.front, w) for w in weights):
            text = ",".join(f"{w:g}" for w in scalar.weights)
            print(f"  weights ({text}) -> "
                  f"{scalar.point.makespan_ns:,.0f} ns, "
                  f"{scalar.point.spm_bytes:,} B SPM, "
                  f"{scalar.point.dma_bytes:,} B DMA, "
                  f"{scalar.point.cores} cores")
    composed = kernel_front(opt_result.choices)
    if composed and len(opt_result.choices) > 1:
        print()
        print(pareto_table(
            composed, title="kernel frontier (composed over components)"))


def _parse_weights(tokens):
    """``--weights`` vectors as float tuples; bad input exits 2."""
    vectors = []
    for token in tokens:
        parts = [part.strip() for part in token.split(",")]
        try:
            vector = tuple(float(part) for part in parts)
        except ValueError:
            raise KernelConfigError(
                f"malformed --weights value {token!r}: expected four "
                f"comma-separated numbers")
        if len(vector) != 4 or any(w <= 0 for w in vector):
            raise KernelConfigError(
                f"--weights {token!r}: need exactly four strictly "
                f"positive numbers (makespan, SPM, DMA, cores)")
        vectors.append(vector)
    return vectors


def cmd_pareto(args) -> int:
    """``compile --strategy pareto`` with the frontier report and
    ``--weights`` for its scalarized winners."""
    from .opt import DEFAULT_WEIGHTS

    weights = _parse_weights(args.weights) if args.weights \
        else DEFAULT_WEIGHTS
    result = _compile(args)
    print(result.opt_result.describe())
    _print_frontiers(result.opt_result, weights)
    return 0 if result.feasible else 1


def _analyze_source(args, passes) -> int:
    """``analyze --source``: PREM5xx loop-IR analysis, no compilation."""
    from .analysis import SOURCE_REGISTRY, analyze_source

    if passes:
        unknown = sorted(set(passes) - set(SOURCE_REGISTRY.names()))
        if unknown:
            print(f"unknown source passes: {', '.join(unknown)} "
                  f"(known: {', '.join(SOURCE_REGISTRY.names())})",
                  file=sys.stderr)
            return 2
    kernel = make_kernel(args.kernel, args.preset)
    report = analyze_source(kernel, passes=passes)
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    from .analysis import DEFAULT_REGISTRY

    passes = None
    if args.passes:
        passes = tuple(token.strip() for token in args.passes.split(","))
    if args.selftest:
        _checked("--selftest", args.selftest, _at_least_one)
    if args.source:
        if args.selftest:
            raise KernelConfigError(
                "--selftest corrupts compiled artifacts; it does not "
                "compose with the source-level --source analysis")
        return _analyze_source(args, passes)
    if passes:
        unknown = sorted(set(passes) - set(DEFAULT_REGISTRY.names()))
        if unknown:
            print(f"unknown analysis passes: {', '.join(unknown)} "
                  f"(known: {', '.join(DEFAULT_REGISTRY.names())})",
                  file=sys.stderr)
            return 2
    result = _compile(args, use_cache=False)
    report = result.verify_static(passes=passes)
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    status = 1 if report.has_errors else 0

    if args.selftest:
        from .faults import run_static_campaign

        campaign = run_static_campaign(
            args.kernel, preset=args.preset, seed=args.seed,
            cases=args.selftest, strategy=args.strategy,
            platform=_platform(args) if args.cores is None
            else _platform(args).with_cores(args.cores))
        print()
        print(campaign.describe())
        if campaign.detection_rate < 0.9:
            print(f"selftest FAILED: detection rate "
                  f"{campaign.detection_rate:.1%} below 90%",
                  file=sys.stderr)
            status = 1
    return status


def cmd_faults(args) -> int:
    from .faults import ALL_KINDS, run_campaign

    kinds = ALL_KINDS
    if args.kinds:
        kinds = tuple(token.strip() for token in args.kinds.split(","))
        unknown = sorted(set(kinds) - set(ALL_KINDS))
        if unknown:
            print(f"unknown fault kinds: {', '.join(unknown)} "
                  f"(known: {', '.join(ALL_KINDS)})", file=sys.stderr)
            return 2
    result = run_campaign(
        args.kernel, preset=args.preset, seed=args.seed, kinds=kinds,
        per_kind=_checked("--per-kind", args.per_kind, _at_least_one),
        platform=_platform(args),
        strategy=args.strategy)
    print(result.describe())
    for outcome in result.outcomes:
        if outcome.missed:
            print(f"MISSED: {outcome.spec.describe()}", file=sys.stderr)
    return 0 if result.all_affecting_detected else 1


def cmd_cache(args) -> int:
    cache = PersistentCache(_cache_dir(args))     # None: the default dir
    if args.action == "clear":
        removed = len(cache)
        cache.clear()
        print(f"cleared {removed} entries from {cache.path}")
        return 0
    if args.action == "compact":
        report = cache.compact()
        print(f"cache file : {cache.path}")
        print(f"lines      : {report['lines_before']:,} -> "
              f"{report['lines_after']:,} "
              f"({report['lines_reclaimed']:,} reclaimed)")
        print(f"bytes      : {report['bytes_before']:,} -> "
              f"{report['bytes_after']:,} "
              f"({report['bytes_reclaimed']:,} reclaimed)")
        return 0
    stats = cache.stats()
    print(f"cache file : {cache.path}")
    print(f"entries    : {len(cache):,}")
    print(f"size       : {stats['bytes']:,} bytes")
    return 0


def cmd_shard_reduce(args) -> int:
    """Merge shard results: one unsharded compile (``--strategy``,
    default pruned) on the now warm shared cache.  Every candidate a
    shard scored is a cache hit (zero fresh segment plans) and the
    incumbent walk re-runs the exact serial rank, so the reported
    winner is bit-identical to a single-process compile."""
    _cache_dir(args, need="shard-reduce")
    result = _compile(args)
    print(result.opt_result.describe())
    opt = result.opt_result
    print(f"\nmakespan          : {result.makespan_ns:>16,.0f} ns")
    print(f"evaluations       : {opt.evaluations:>16,}")
    if opt.cache_hits:
        print(f"cache hits        : {opt.cache_hits:>16,} "
              f"({opt.cache_hit_rate:.1%} of probes)")
    return 0 if result.feasible else 1


def cmd_shard(args) -> int:
    from .opt.shard import ShardLog, space_statuses

    log = ShardLog(_cache_dir(args, need="shard status"))
    statuses = space_statuses(log)
    if not statuses:
        print(f"no shard coordination records in {log.path}")
        return 0
    for status in statuses.values():
        print(status.describe())
    return 0


COMMANDS = {
    "tree": cmd_tree,
    "compile": cmd_compile,
    "codegen": cmd_codegen,
    "trace": cmd_trace,
    "gantt": cmd_gantt,
    "sweep": cmd_sweep,
    "pareto": cmd_pareto,
    "analyze": cmd_analyze,
    "faults": cmd_faults,
    "cache": cmd_cache,
    "shard": cmd_shard,
    "shard-reduce": cmd_shard_reduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except KernelConfigError as error:
        # Bad invocation (unknown preset/kernel variant): the message
        # names the offending value — surface it and exit 2 like
        # argparse does for unparseable flags.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
