"""Command-line front end: generate instances, solve, verify, benchmark.

Exit codes: 0 ok, 2 parse error, 3 solver failure, 4 budget exceeded.
The environment variable GALELEMKE_STEP_CAP overrides the default pivot cap.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import permutations

from . import gameio
from .errors import (
    BudgetExceededError,
    GaleLemkeError,
    GameFormatError,
    StepCapExceededError,
)
from .gale import lemke_path_length
from .game import UnitVectorGame, labels_of_profile, verify_equilibrium
from .generators import (
    PermutationGameSpec,
    morris_game,
    morris_polytope,
    permutation_game,
    random_game,
    random_permutation,
    shuffle_columns,
    triple_morris_game,
    triple_morris_polytope,
)
from .lemke_howson import DEFAULT_STEP_CAP, lh_solve
from .paths import path_to_csv
from .support import (
    AllColumnSubsets,
    randomized_support_search,
    search_equal_supports,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


def _step_cap(args) -> int:
    if getattr(args, "step_cap", None) is not None:
        return args.step_cap
    env = os.environ.get("GALELEMKE_STEP_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_STEP_CAP


def _parse_m_range(text: str) -> list[int]:
    """"4..16" -> even values 4, 6, ..., 16; a single value stands alone."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo % 2 or hi % 2 or lo < 2:
        raise ValueError("m range must cover even values >= 2")
    return list(range(lo, hi + 1, 2))


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    family = args.family
    if family in ("morris", "triple-morris"):
        if args.m is None:
            raise ValueError("--m is required for this family")
        build = morris_game if family == "morris" else triple_morris_game
        game: UnitVectorGame = build(args.m)
        if args.shuffle_columns:
            game = shuffle_columns(game, args.seed or 0)
        print(f"labels {gameio.format_label_string(game.ell)}")
        out = args.out or f"{family}-m{args.m}.uvg"
    elif family == "permutation":
        if args.n is None:
            raise ValueError("--n is required for this family")
        if args.pi:
            spec = PermutationGameSpec.of(int(v) for v in args.pi.split())
        else:
            spec = random_permutation(args.n, args.seed or 0)
        game = permutation_game(spec)
        out = args.out or f"permutation-n{args.n}.bgame"
    elif family == "random":
        if args.m is None or args.n is None:
            raise ValueError("--m and --n are required for this family")
        game = random_game(
            args.m,
            args.n,
            args.seed or 0,
            filter_degenerate=not args.no_filter,
        )
        out = args.out or f"random-{args.m}x{args.n}-s{args.seed or 0}.bgame"
    else:
        raise ValueError(f"unknown family {family!r}")
    gameio.save_game(out, game)
    print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    loaded = gameio.load_game(args.game)
    game = loaded.to_bimatrix() if isinstance(loaded, UnitVectorGame) else loaded
    if args.method == "lh":
        missing = args.missing_label or 1
        result = lh_solve(game, missing, step_cap=_step_cap(args))
        print(gameio.format_profile(result.equilibrium))
        print(f"path_length {result.path_length}")
        if args.path_csv:
            with open(args.path_csv, "w", encoding="utf-8", newline="") as handle:
                path_to_csv(result.path, handle, game.m, game.n)
    else:
        profile, guesses = search_equal_supports(game, seed=args.seed)
        print(gameio.format_profile(profile))
        print(f"guesses {guesses}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    loaded = gameio.load_game(args.game)
    game = loaded.to_bimatrix() if isinstance(loaded, UnitVectorGame) else loaded
    text = sys.stdin.readline() if args.profile == "-" else args.profile
    profile = gameio.parse_profile(text, game.m, game.n)
    x_labels, y_labels = labels_of_profile(game, profile)
    ok = verify_equilibrium(game, profile)
    print("true" if ok else "false")
    print(
        "labels "
        + ",".join(str(v) for v in sorted(x_labels))
        + " | "
        + ",".join(str(v) for v in sorted(y_labels))
    )
    if not ok:
        missing = sorted(
            set(range(1, game.m + game.n + 1)) - (x_labels | y_labels)
        )
        print("missing " + ",".join(str(v) for v in missing))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


@dataclass
class BenchRecord:
    """One benchmark measurement; exactly one of the metric fields is set."""

    instance: str
    m: int
    n: int
    solver: str  # lh | support | combinatorial-lemke
    missing_label: int | None = None
    seed: int | None = None
    path_length: int | None = None
    guesses: int | None = None
    equilibria: int | None = None
    wall_time: float = 0.0
    truncated: bool = False

    def row(self) -> list:
        return [_csv_cell(getattr(self, name)) for name in BENCH_HEADER]


BENCH_HEADER = [field.name for field in fields(BenchRecord)]


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def _bench_labels(m: int, choice: str) -> list[int]:
    if choice == "all":
        return list(range(1, m + 1))
    if choice == "1":
        return [1]
    if choice == "half":
        return [m // 2]
    raise ValueError(f"unknown label choice {choice!r}")


def _path_task(solver: str, family: str, m: int, label: int, cap: int):
    """Walk one label with the combinatorial engine or the tableau solver
    (``solver`` is the record's name for it); a capped walk is marked
    truncated with the pivots it was allowed."""
    morris = family == "morris"
    if solver == "lh":
        instance = (morris_game(m) if morris else triple_morris_game(m)).to_bimatrix()
    else:
        instance = morris_polytope(m) if morris else triple_morris_polytope(m)
    start = time.perf_counter()
    try:
        if solver == "lh":
            length = lh_solve(instance, label, step_cap=cap).path_length
        else:
            length, _ = lemke_path_length(instance, label, step_cap=cap)
        truncated = False
    except StepCapExceededError as exc:
        length, truncated = exc.steps_taken, True
    return BenchRecord(
        instance=f"{family}-m{m}",
        m=m,
        n=instance.n,
        solver=solver,
        missing_label=label,
        path_length=length,
        wall_time=time.perf_counter() - start,
        truncated=truncated,
    )


def _support_task(family: str, m: int, seed: int, _cap: int):
    build = morris_game if family == "morris" else triple_morris_game
    uv = build(m)
    game = uv.to_bimatrix()
    universe = AllColumnSubsets(game)
    start = time.perf_counter()
    _, stats = randomized_support_search(game, universe, seed)
    return BenchRecord(
        instance=f"{family}-m{m}",
        m=game.m,
        n=game.n,
        solver="support",
        seed=seed,
        guesses=stats.guesses,
        wall_time=time.perf_counter() - start,
    )


def _morris_bench(args, writer) -> list[BenchRecord]:
    cap = _step_cap(args)
    if not args.m_range:
        raise ValueError("--m is required for this family")
    ms = _parse_m_range(args.m_range)
    tasks = []
    for m in ms:
        if args.solver == "support":
            tasks += [(_support_task, (args.family, m, seed, cap)) for seed in range(args.seeds)]
        else:
            solver = "lh" if args.solver == "lh" else "combinatorial-lemke"
            tasks += [
                (_path_task, (solver, args.family, m, label, cap))
                for label in _bench_labels(m, args.labels)
            ]
    records = []
    with ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else nullcontext() as pool:
        # both maps yield in submission order, which keeps the CSV deterministic
        for record in (pool.map if pool else map)(_run_task, tasks):
            records.append(record)
            writer(record)
    return records


def _run_task(task):
    fn, fnargs = task
    return fn(*fnargs)


def _growth_summary(records: list[BenchRecord]) -> list[str]:
    by_m = {
        r.m: r.path_length
        for r in records
        if r.missing_label == 1 and not r.truncated and r.path_length
    }
    lines = []
    for m in sorted(by_m):
        prev = by_m.get(m - 2)
        if prev:
            ratio = Fraction(by_m[m], prev)
            lines.append(f"growth m={m}: {by_m[m]}/{prev} = {float(ratio):.4f}")
    return lines


def _permutation_bench(args, writer) -> None:
    n = args.n
    if args.exhaustive:
        total = Fraction(0)
        count = 0
        for rank, pi in enumerate(permutations(range(1, n + 1))):
            spec = PermutationGameSpec(n, pi)
            start = time.perf_counter()
            eq_count = (1 << len(spec.cycles())) - 1
            record = BenchRecord(
                instance=f"permutation-n{n}",
                m=n,
                n=n,
                solver="support",
                seed=rank,
                equilibria=eq_count,
                wall_time=time.perf_counter() - start,
            )
            writer(record)
            total += eq_count
            count += 1
        mean = total / count
        print(f"mean_equilibria {mean} ({float(mean):.4f}) over {count} games")
    else:
        for seed in range(args.seeds):
            spec = random_permutation(n, seed)
            game = permutation_game(spec)
            start = time.perf_counter()
            _, guesses = search_equal_supports(game, seed=seed)
            record = BenchRecord(
                instance=f"permutation-n{n}",
                m=n,
                n=n,
                solver="support",
                seed=seed,
                guesses=guesses,
                wall_time=time.perf_counter() - start,
            )
            writer(record)


def cmd_bench(args) -> int:
    out_path = args.out
    handle = open(out_path, "a", encoding="utf-8", newline="")
    writer = csv.writer(handle)
    if handle.tell() == 0:
        writer.writerow(BENCH_HEADER)
        handle.flush()

    def emit(record: BenchRecord) -> None:
        writer.writerow(record.row())
        handle.flush()

    try:
        if args.family in ("morris", "triple-morris"):
            records = _morris_bench(args, emit)
            for line in _growth_summary(records):
                print(line)
        elif args.family == "permutation":
            _permutation_bench(args, emit)
        else:
            raise ValueError(f"unknown bench family {args.family!r}")
    finally:
        handle.close()
    print(out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galelemke",
        description="Exact equilibrium solvers and hard-instance generators for bimatrix games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("family", choices=["morris", "triple-morris", "permutation", "random"])
    gen.add_argument("--m", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--pi", help="explicit permutation, space-separated")
    gen.add_argument("--out")
    gen.add_argument("--shuffle-columns", action="store_true")
    gen.add_argument("--no-filter", action="store_true", help="skip the nondegeneracy filter")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve a game file")
    solve.add_argument("game")
    solve.add_argument("--method", choices=["lh", "support"], default="lh")
    solve.add_argument("--missing-label", type=int)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--step-cap", type=int)
    solve.add_argument("--path-csv", help="dump the pivot path as CSV")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a profile against a game")
    verify.add_argument("game")
    verify.add_argument("--profile", required=True, help='"x... ; y..." or "-" for stdin')
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="measure path lengths or guess counts into CSV")
    bench.add_argument("family", choices=["morris", "triple-morris", "permutation"])
    bench.add_argument("--m", dest="m_range", help="even range like 4..16")
    bench.add_argument("--n", type=int)
    bench.add_argument("--labels", choices=["all", "1", "half"], default="1")
    bench.add_argument(
        "--solver", choices=["combinatorial", "lh", "support"], default="combinatorial"
    )
    bench.add_argument("--seeds", type=int, default=100)
    bench.add_argument("--exhaustive", action="store_true")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--step-cap", type=int)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceededError, StepCapExceededError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GaleLemkeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ValueError) else EXIT_SOLVER


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
