"""Calls from the benchmark into galelemke, with spans when traced.

Every call the benchmark makes into the program goes through a namespace
built by ``build_api``.  Untraced, its attributes are the program's own
functions, so the untraced run pays nothing for the indirection.  Traced,
each attribute is wrapped in a span named after the module it enters, so
layers are measured from outside the program: no file under ``src/`` is
instrumented.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter
from types import SimpleNamespace

# layer (= module) -> public callables the benchmark uses.  A dotted name
# reaches a method through its class.  The attribute on the namespace is the
# last component of the name.
LAYER_CALLS = {
    "gale": (
        "lemke_path_length",
        "combinatorial_lemke",
        "LabeledGalePolytope.is_completely_labeled",
    ),
    "lemke_howson": (
        "lh_solve",
        "lh_all_labels",
        "lemke_path_on_unit_vector_game",
        "project_path",
    ),
    "support": ("AllColumnSubsets", "randomized_support_search", "enumerate_equilibria"),
    "generators": (
        "morris_polytope",
        "triple_morris_polytope",
        "triple_morris_game",
        "random_game",
    ),
    "game": (
        "verify_equilibrium",
        "equilibria_by_vertex_enumeration",
        "UnitVectorGame.to_bimatrix",
    ),
    "gameio": ("write_bgame", "read_bgame", "parse_profile"),
    "cli": ("main",),
}

OP_LAYER = "op"


class Tracer:
    """Spans kept in memory: layer, function, op id, start, end, parent.

    A span's self time is its duration minus the time covered by its child
    spans.  Calls into the program are leaves as seen from the benchmark;
    their parent is the span of the op that made them.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.op: str | None = None
        self.phase = "setup"
        self.next_id = 0

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)

        return traced

    def span(self, layer: str, name: str):
        return _Span(self, layer, name)

    def take(self) -> list[dict]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, layer: str, name: str):
        self.tracer = tracer
        parent = tracer._open[-1]["id"] if tracer._open else None
        tracer.next_id += 1
        self.record = {
            "id": tracer.next_id,
            "parent": parent,
            "phase": tracer.phase,
            "op": tracer.op,
            "layer": layer,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "child_s": 0.0,
        }

    def __enter__(self):
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._open.append(self.record)
        self.record["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        record = self.record
        record["end"] = end
        tracer = self.tracer
        tracer._open.pop()
        if tracer._open:
            tracer._open[-1]["child_s"] += end - record["start"]
        return False


def build_api(tracer: Tracer | None) -> SimpleNamespace:
    """Namespace of program callables; wrapped in spans when a tracer is given.

    Imports the galelemke modules, so the caller times this as set-up.
    """
    attrs = {}
    for layer, names in LAYER_CALLS.items():
        module = importlib.import_module(f"galelemke.{layer}")
        for dotted in names:
            target = module
            for part in dotted.split("."):
                target = getattr(target, part)
            short = dotted.rsplit(".", 1)[-1]
            attrs[short] = target if tracer is None else tracer.wrap(layer, short, target)
    return SimpleNamespace(**attrs)


def self_times(spans: list[dict]) -> dict[tuple[str, str], list]:
    """(layer, function) -> [calls, self seconds] over the given spans."""
    out: dict[tuple[str, str], list] = {}
    for s in spans:
        entry = out.setdefault((s["layer"], s["name"]), [0, 0.0])
        entry[0] += 1
        entry[1] += s["end"] - s["start"] - s["child_s"]
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num/den scaled; a layer a workload never calls reports 0."""
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass plus the set-up spans.

    ``counts`` holds the exact work counts the ops recorded at the same
    call boundaries (pivots, guesses, support pairs, bytes, bit lengths).
    """
    t = self_times(spans)

    def calls(layer, *names):
        return sum(v[0] for (lay, fn), v in t.items() if lay == layer and (not names or fn in names))

    def secs(layer, *names):
        return sum((v[1] for (lay, fn), v in t.items() if lay == layer and (not names or fn in names)), 0.0)

    c = counts.get
    stream_s = secs("gale", "lemke_path_length")
    record_s = secs("gale", "combinatorial_lemke")
    lh_s = secs("lemke_howson", "lh_solve", "lh_all_labels")
    search_s = secs("support", "randomized_support_search")
    enum_s = secs("support", "enumerate_equilibria")
    guesses = c("support.guesses", 0)
    pairs = c("support.enum_pairs", 0)
    return {
        "gale.calls": calls("gale"),
        "gale.pivots": c("gale.stream_pivots", 0) + c("gale.record_pivots", 0),
        "gale.self_s": secs("gale"),
        "gale.stream_us_per_pivot": _ratio(stream_s, c("gale.stream_pivots", 0), 1e6),
        "gale.record_us_per_pivot": _ratio(record_s, c("gale.record_pivots", 0), 1e6),
        "lemke_howson.calls": calls("lemke_howson"),
        "lemke_howson.pivots": c("lemke_howson.pivots", 0),
        "lemke_howson.self_s": secs("lemke_howson"),
        "lemke_howson.ms_per_pivot": _ratio(lh_s, c("lemke_howson.pivots", 0), 1e3),
        "lemke_howson.project_self_s": secs("lemke_howson", "project_path"),
        "lemke_howson.result_bits_max": c("lemke_howson.result_bits_max", 0),
        "support.search_calls": calls("support", "randomized_support_search"),
        "support.guesses": guesses,
        "support.search_us_per_guess": _ratio(search_s, guesses, 1e6),
        "support.search_hit_ratio": _ratio(calls("support", "randomized_support_search"), guesses),
        "support.enum_pairs": pairs,
        "support.enum_us_per_pair": _ratio(enum_s, pairs, 1e6),
        "support.enum_hit_ratio": _ratio(c("support.enum_found", 0), pairs),
        "support.self_s": secs("support"),
        "generators.calls": calls("generators"),
        "generators.self_s": secs("generators"),
        "game.verify_calls": calls("game", "verify_equilibrium"),
        "game.verify_self_s": secs("game", "verify_equilibrium"),
        "game.vertex_enum_calls": calls("game", "equilibria_by_vertex_enumeration"),
        "game.vertex_enum_self_s": secs("game", "equilibria_by_vertex_enumeration"),
        "gameio.calls": calls("gameio"),
        "gameio.bytes": c("gameio.bytes", 0),
        "gameio.self_s": secs("gameio"),
        "cli.calls": calls("cli"),
        "cli.self_s": secs("cli"),
    }


def write_spans(path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps(s, separators=(",", ":")) + "\n")
