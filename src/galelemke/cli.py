"""Command-line front end: generate instances, solve, verify, benchmark.

Exit codes: 0 ok, 2 parse error, 3 solver or file failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import cache

from . import gameio
from .errors import (
    BudgetExceededError,
    GaleLemkeError,
    GameFormatError,
    StepCapExceededError,
)
from .gale import lemke_path_length
from .game import UnitVectorGame, as_integer, labels_of_profile
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
from .lemke_howson import lh_solve, path_to_csv
from .paths import DEFAULT_STEP_CAP
from .support import (
    AllColumnSubsets,
    randomized_support_search,
    search_equal_supports,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

# family -> (the unit-vector game of size m, the polytope its Gale walk reads)
UNIT_VECTOR_FAMILIES = {
    "morris": (morris_game, morris_polytope),
    "triple-morris": (triple_morris_game, triple_morris_polytope),
}


def _integer(text: str) -> int:
    """The argparse type of every integer option: ``game.as_integer``."""
    try:
        return as_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _m_range(text: str) -> tuple[int, int]:
    """The argparse type of bench's ``--m``: "4..16" -> (4, 16); a single
    value stands alone."""
    lo, dots, hi = text.partition("..")
    return _integer(lo), _integer(hi if dots else lo)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    family, seed = args.family, args.seed or 0
    if family in UNIT_VECTOR_FAMILIES:
        if args.seed is not None and not args.shuffle_columns:
            raise ValueError("--seed needs family random, permutation without --pi, or --shuffle-columns")
        game: UnitVectorGame = UNIT_VECTOR_FAMILIES[family][0](args.m)
        if args.shuffle_columns:
            game = shuffle_columns(game, seed)
        print(f"labels {gameio.format_label_string(game.ell)}")
        out = args.out or f"{family}-m{args.m}.uvg"
    elif family == "permutation":
        if args.pi is not None:
            spec = PermutationGameSpec.of(args.pi)
            if args.n not in (None, spec.n):
                raise ValueError(f"--n {args.n} disagrees with --pi of length {spec.n}")
        elif args.n is None:
            raise ValueError("--n or --pi is required for family permutation")
        else:
            spec = random_permutation(args.n, seed)
        game = permutation_game(spec)
        out = args.out or f"permutation-n{spec.n}.bgame"
    else:
        game = random_game(args.m, args.n, seed, filter_degenerate=not args.no_filter)
        out = args.out or f"random-{args.m}x{args.n}-s{seed}.bgame"
    gameio.save_game(out, game)
    print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _load_bimatrix(path: str):
    """The bimatrix game in a ``.bgame`` file, or the one a ``.uvg`` file's
    unit-vector game stands for."""
    loaded = gameio.load_game(path)
    return loaded.to_bimatrix() if isinstance(loaded, UnitVectorGame) else loaded


def cmd_solve(args) -> int:
    if args.method == "support":
        for dest in ("missing_label", "step_cap", "path_csv"):
            if getattr(args, dest) is not None:
                raise ValueError(f"--{dest.replace('_', '-')} needs --method lh")
    elif args.seed is not None:
        raise ValueError("--seed needs --method support")
    game = _load_bimatrix(args.game)
    if args.method == "lh":
        label = 1 if args.missing_label is None else args.missing_label
        cap = DEFAULT_STEP_CAP if args.step_cap is None else args.step_cap
        result = lh_solve(game, label, step_cap=cap)
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
    game = _load_bimatrix(args.game)
    text = sys.stdin.readline() if args.profile == "-" else args.profile
    profile = gameio.parse_profile(text, game.m, game.n)
    x_labels, y_labels = labels_of_profile(game, profile)
    missing = sorted(set(range(1, game.m + game.n + 1)) - (x_labels | y_labels))
    print("false" if missing else "true")
    sides = (",".join(str(v) for v in sorted(labels)) for labels in (x_labels, y_labels))
    print("labels " + " | ".join(sides))
    if missing:
        print("missing " + ",".join(str(v) for v in missing))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


BENCH_HEADER = [
    "instance", "m", "n", "solver", "missing_label", "seed",
    "path_length", "guesses", "equilibria", "wall_time", "truncated",
]


def _timed(run, instance: str, m: int, n: int, solver: str, **fields) -> dict:
    """The CSV row of one measurement, keyed by ``BENCH_HEADER``:
    ``wall_time`` covers ``run()`` alone, the measured call, which returns
    the metric fields it measured; exactly one metric field is set."""
    start = time.perf_counter()
    measured = run()
    wall_time = f"{time.perf_counter() - start:.6f}"
    row = {"instance": instance, "m": m, "n": n, "solver": solver, "truncated": "false", **fields}
    return row | measured | {"wall_time": wall_time}


def _path_task(solver: str, family: str, m: int, label: int, cap: int):
    """Walk one label with the combinatorial engine or the tableau solver
    (``solver`` is the row's name for it); a capped walk is marked
    truncated with the pivots it was allowed."""
    game, polytope = UNIT_VECTOR_FAMILIES[family]
    instance = game(m).to_bimatrix() if solver == "lh" else polytope(m)

    def walk():
        try:
            if solver == "lh":
                return {"path_length": lh_solve(instance, label, step_cap=cap).path_length}
            return {"path_length": lemke_path_length(instance, label, step_cap=cap)[0]}
        except StepCapExceededError as exc:
            return {"path_length": exc.steps_taken, "truncated": "true"}

    return _timed(walk, f"{family}-m{m}", m, instance.n, solver, missing_label=label)


def _support_task(family: str, m: int, seed: int):
    game = UNIT_VECTOR_FAMILIES[family][0](m).to_bimatrix()
    search = lambda: {"guesses": randomized_support_search(game, AllColumnSubsets(game), seed)[1].guesses}
    return _timed(search, f"{family}-m{m}", game.m, game.n, "support", seed=seed)


def _permutation_task(n: int, seed: int):
    game = permutation_game(random_permutation(n, seed))
    search = lambda: {"guesses": search_equal_supports(game, seed=seed)[1]}
    return _timed(search, f"permutation-n{n}", n, n, "support", seed=seed)


def _bench_tasks(args):
    """Check every bench argument and return the ``(function, arguments)``
    tasks of the run, in CSV order.  Nothing is opened or run before the
    checks pass."""
    permutation = args.family == "permutation"
    if not permutation and args.labels is not None and args.solver == "support":
        raise ValueError("--labels needs --solver combinatorial or lh")
    if not permutation and args.seeds is not None and args.solver != "support":
        raise ValueError("--seeds needs --solver support or family permutation")
    if not permutation and args.step_cap is not None and args.solver == "support":
        raise ValueError("--step-cap needs --solver combinatorial or lh")
    seeds = 100 if args.seeds is None else args.seeds
    if seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    # rows append to a nonempty --out under its first line, which must be ours
    if os.path.isfile(args.out) and os.path.getsize(args.out):
        with open(args.out, encoding="utf-8", newline="") as handle:
            if handle.readline().rstrip("\r\n") != ",".join(BENCH_HEADER):
                raise ValueError(f"{args.out} does not start with the bench CSV header")
    if permutation:
        n = args.n
        if n < 1:
            raise ValueError("n must be at least 1")
        return [(_permutation_task, (n, seed)) for seed in range(seeds)]
    step_cap = DEFAULT_STEP_CAP if args.step_cap is None else args.step_cap
    if step_cap < 0:
        raise ValueError(f"step cap must be nonnegative, got {step_cap}")
    lo, hi = args.m
    if lo % 2 or hi % 2 or lo < 2:
        raise ValueError("m range must cover even values >= 2")
    if lo > hi:
        raise ValueError(f"m range {lo}..{hi} is empty")
    tasks = []
    for m in range(lo, hi + 1, 2):
        if args.solver == "support":
            tasks += [(_support_task, (args.family, m, seed)) for seed in range(seeds)]
        else:
            name = "lh" if args.solver == "lh" else "combinatorial-lemke"
            labels = {"all": range(1, m + 1), "1": [1], "half": [m // 2]}[args.labels or "1"]
            tasks += [(_path_task, (name, args.family, m, label, step_cap)) for label in labels]
    return tasks


def _run_task(task):
    fn, fnargs = task
    return fn(*fnargs)


def cmd_bench(args) -> int:
    tasks = _bench_tasks(args)
    label_one = {}  # m -> uncapped label-1 path length, for the growth lines
    workers = min(args.jobs, os.cpu_count() or 1)  # CPU-bound; the pool starts every worker at once
    with (
        open(args.out, "a", encoding="utf-8", newline="") as handle,
        ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool,
    ):
        writer = csv.DictWriter(handle, BENCH_HEADER, restval="")
        if handle.tell() == 0:
            writer.writeheader()
            handle.flush()
        # both maps yield in submission order, which keeps the CSV deterministic
        rows = pool.map(_run_task, tasks) if pool else map(_run_task, tasks)
        for row in rows:
            writer.writerow(row)
            handle.flush()
            if row.get("missing_label") == 1 and row["truncated"] == "false":
                label_one[row["m"]] = row["path_length"]
    for m in sorted(label_one):
        prev = label_one.get(m - 2)
        if prev:
            print(f"growth m={m}: {label_one[m]}/{prev} = {label_one[m] / prev:.4f}")
    print(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """Reads an option only as spelled in full, never a prefix as the option
    it starts; ``add_subparsers`` gives it sub-parsers of the same class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``galelemke`` parser, built on the first call and shared by every
    later one: ``parse_args`` returns a fresh namespace each time and
    leaves the parser as it was."""
    parser = _Parser(
        prog="galelemke",
        description="Exact equilibrium solvers and hard-instance generators for bimatrix games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file").add_subparsers(dest="family", required=True)
    for family in UNIT_VECTOR_FAMILIES:
        unit = gen.add_parser(family, help=f"the {family} unit-vector game of size m")
        unit.add_argument("--m", type=_integer, required=True)
        unit.add_argument("--shuffle-columns", action="store_true")
        unit.add_argument("--seed", type=_integer, help="column shuffle seed, default: 0")
    permutation = gen.add_parser("permutation", help="the n x n game of a permutation")
    permutation.add_argument("--n", type=_integer, help="default: the length of --pi")
    pick = permutation.add_mutually_exclusive_group()
    pick.add_argument("--pi", type=lambda text: [*map(_integer, text.split())], help="explicit permutation, space-separated")
    pick.add_argument("--seed", type=_integer, help="random permutation seed, default: 0")
    rand = gen.add_parser("random", help="a random m x n game")
    rand.add_argument("--m", type=_integer, required=True)
    rand.add_argument("--n", type=_integer, required=True)
    rand.add_argument("--seed", type=_integer, help="default: 0")
    rand.add_argument("--no-filter", action="store_true", help="skip the nondegeneracy filter")
    for family in gen.choices.values():
        family.add_argument("--out")
        family.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve a game file")
    solve.add_argument("game")
    solve.add_argument("--method", choices=["lh", "support"], default="lh")
    solve.add_argument("--missing-label", type=_integer)
    solve.add_argument("--seed", type=_integer)
    solve.add_argument("--step-cap", type=_integer)
    solve.add_argument("--path-csv", help="dump the pivot path as CSV")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a profile against a game")
    verify.add_argument("game")
    verify.add_argument("--profile", required=True, help='"x... ; y..." or "-" for stdin')
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="measure path lengths or guess counts into CSV")
    bench = bench.add_subparsers(dest="family", required=True)
    for family in UNIT_VECTOR_FAMILIES:
        walks = bench.add_parser(family, help="Lemke path lengths, or support guesses with --solver support")
        walks.add_argument("--m", type=_m_range, required=True, help="even range like 4..16")
        walks.add_argument("--solver", choices=["combinatorial", "lh", "support"], default="combinatorial")
        walks.add_argument("--labels", choices=["all", "1", "half"], help="default: 1")
        walks.add_argument("--step-cap", type=_integer, help=f"default: {DEFAULT_STEP_CAP}")
    permutation = bench.add_parser("permutation", help="support guesses")
    permutation.add_argument("--n", type=_integer, required=True)
    for family in bench.choices.values():
        family.add_argument("--seeds", type=_integer, help="default: 100")
        family.add_argument("--jobs", type=_integer, default=1)
        family.add_argument("--out", required=True)
        family.set_defaults(func=cmd_bench)

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
