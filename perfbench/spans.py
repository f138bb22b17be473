"""Per-layer tracing from outside the program.

The traced pass wraps the public functions each layer exports, at the
names the calling modules import them under (``SITES``).  Each call
records a span (name, parent, command id, start, end, raised) plus the
work counts of the call and the time taken to count them; spans stay in
memory and are written once, when the pass ends.  ``layer_metrics`` turns
a dump into the per-layer metrics: a layer's self time is its spans' time
minus the part covered by child spans and their counters, so counting
is charged to no layer, and the self times of all layers add up to the
traced command time less the counting time.

A site whose module or attribute no longer exists is skipped and listed
as missing; metrics that need only missing spans are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ("cli", "simulate", "rng", "channel", "constellation", "codec", "secrecy", "diophantine")
ROOT = "cli.main"


def _sweep_trials(a, k, r):
    return {"trials": a[0].trials * len(a[0].P_grid)}


def _block_trials(a, k, r):
    return {"trials": a[0].trials}


def _leakage_trials(a, k, r):
    return {"trials": int(r.samples)}


def _transmit_samples(a, k, r):
    return {"samples": int(np.shape(a[0])[1])}


def _decode_samples(a, k, r):
    return {"samples": int(np.size(a[0]))}


def _lookup_hit(a, k, r):
    return {"hits": int(r is not None)}


def _codebook_rows(a, k, r):
    return {"rows": int(r.B * r.L)}


def _constellation_kind(a, k):
    return "constellation.exact_build" if a[0].exact else "constellation.float_build"


def _constellation_points(a, k, r):
    return {"points": (2 * int(a[1]) + 1) ** int(a[0].K)}


def _leakage_cells(a, k, r):
    tuples = np.asarray(a[0], dtype=np.int64)
    base = 2 * int(r.Q) + 1
    keys = np.zeros(tuples.shape[0], dtype=np.int64)
    for col in tuples.T:
        keys = keys * base + (col + int(r.Q))
    dense = np.unique(keys).size * int(r.n_bins)
    occupied = round(r.bias_bound_bits * 2.0 * r.n_samples * np.log(2.0)) + 1
    return {"dense": dense, "occupied": occupied}


def _linear_form_points(a, k, r):
    m, N = len(a[0]), int(a[1])
    return {"points": sum(N * (2 * N + 1) ** (m - 1 - j) for j in range(m))}


def _guarded(fn, args, kwargs, *rest):
    """Counters and span-name choosers read arguments whose shape a later
    commit may change; a failure there costs the count, never the call."""
    try:
        return fn(args, kwargs, *rest)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class Site:
    """One import site: ``module:attr`` or ``module:Class.attr``."""

    target: str
    name: str | Callable
    count: Callable | None = None
    names: tuple[str, ...] = ()  # span names a callable ``name`` can produce

    @property
    def provides(self) -> tuple[str, ...]:
        return self.names if callable(self.name) else (self.name,)


CONSTELLATION_BUILDS = ("constellation.exact_build", "constellation.float_build")

SITES = (
    Site("secmac.cli:parse_config", "cli.parse_config"),
    Site("secmac.cli:emit", "cli.emit"),
    Site("secmac.cli:run_symbol_sweep", "simulate.sweep", _sweep_trials),
    Site("secmac.cli:run_block_trials", "simulate.block", _block_trials),
    Site("secmac.cli:run_leakage", "simulate.leakage", _leakage_trials),
    Site("secmac.simulate:stream", "rng.stream"),
    Site("secmac.simulate:substream", "rng.substream"),
    Site("secmac.channel:stream", "rng.stream"),
    Site("secmac.codec:stream", "rng.stream"),
    Site("secmac.rng:substream", "rng.substream"),
    Site("secmac.simulate:transmit", "channel.transmit", _transmit_samples),
    Site("secmac.simulate:effective_power", "channel.effective_power"),
    Site("secmac.simulate:normalize_gains", "channel.normalize_gains"),
    Site("secmac.simulate:select_params", "constellation.select_params"),
    Site("secmac.simulate:received_constellation", _constellation_kind,
         _constellation_points, CONSTELLATION_BUILDS),
    Site("secmac.cli:received_constellation", _constellation_kind,
         _constellation_points, CONSTELLATION_BUILDS),
    Site("secmac.simulate:pe_upper_bound", "constellation.pe_upper_bound"),
    Site("secmac.simulate:build_codebook", "codec.build_codebook", _codebook_rows),
    Site("secmac.simulate:encode", "codec.encode"),
    Site("secmac.simulate:scale_to_channel", "codec.scale_to_channel"),
    Site("secmac.simulate:hard_decode", "codec.hard_decode", _decode_samples),
    Site("secmac.simulate:decode_messages", "codec.decode_messages"),
    Site("secmac.codec:Codebook.bin_of", "codec.lookup", _lookup_hit),
    Site("secmac.codec:Codebook.duplicate_stats", "codec.duplicate_stats"),
    Site("secmac.simulate:leakage_estimate", "secrecy.leakage_estimate", _leakage_cells),
    Site("secmac.simulate:sdof_fit", "secrecy.sdof_fit"),
    Site("secmac.simulate:sum_rate_lower_bound", "secrecy.sum_rate_lower_bound"),
    Site("secmac.cli:sum_entropy", "secrecy.sum_entropy"),
    Site("secmac.secrecy:sum_entropy", "secrecy.sum_entropy"),
    Site("secmac.cli:achievable_region", "secrecy.region"),
    Site("secmac.cli:load_mac_spec", "secrecy.load_mac_spec"),
    Site("secmac.cli:kg_profile", "diophantine.kg_profile"),
    Site("secmac.diophantine:min_linear_form", "diophantine.min_linear_form",
         _linear_form_points),
)


class Tracer:
    """In-memory span recorder.  Spans are lists: [name index, parent index
    or -1, command id, start, end, raised, counts, seconds spent counting]."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cmd = -1
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    def wrap(self, name, fn, count=None, fallback: str = ""):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nm = (_guarded(name, args, kwargs) or fallback) if callable(name) else name
            ix = len(spans)
            spans.append([self._name(nm), stack[-1] if stack else -1, self.cmd,
                          time.perf_counter(), 0.0, 1, None, 0.0])
            stack.append(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[ix][4] = time.perf_counter()
                stack.pop()
            spans[ix][5] = 0
            if count is not None:
                t = time.perf_counter()
                spans[ix][6] = _guarded(count, args, kwargs, result)
                spans[ix][7] = time.perf_counter() - t
            return result

        return wrapper

    def install(self, sites=SITES) -> None:
        for site in sites:
            module_name, path = site.target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(site.target)
                continue
            setattr(owner, attr, self.wrap(site.name, original, site.count, site.provides[0]))
            self._restore.append((owner, attr, original))
            self.installed.update(site.provides)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "installed": sorted(self.installed),
            "missing": self.missing,
        }


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the union of its children's intervals, each
    extended by the child's counting time, which follows its end."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[3], s[4] + s[7]))
    out = []
    for ix, s in enumerate(spans):
        start, end = s[3], s[4]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(ix, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(dump: dict) -> dict:
    """Per span name: calls, raised, self seconds and summed counts; plus
    per-layer self time and raised count, top-level rng derivations and
    the total traced command time less the time spent counting inside it."""
    names, spans = dump["names"], dump["spans"]
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    layers = {layer: {"self_s": 0.0, "raised": 0} for layer in LAYERS}
    rng_top = 0
    command_s = 0.0
    for s, self_s in zip(spans, selfs):
        name = names[s[0]]
        layer = name.split(".", 1)[0]
        entry = by_name.setdefault(name, {"calls": 0, "raised": 0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["raised"] += s[5]
        entry["self_s"] += self_s
        for key, val in (s[6] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + val
        if layer in layers:
            layers[layer]["self_s"] += self_s
            layers[layer]["raised"] += s[5]
        if layer == "rng" and (s[1] < 0 or not names[spans[s[1]][0]].startswith("rng.")):
            rng_top += 1
        if s[1] < 0:
            command_s += s[4] - s[3]
        else:
            command_s -= s[7]
    return {"names": by_name, "layers": layers, "rng_top": rng_top, "command_s": command_s}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better, span names it needs, value from the aggregate)
METRICS = (
    ("rng.streams", "count", "lower", ("rng.stream", "rng.substream"),
     lambda g, n: g["rng_top"]),
    ("rng.streams_per_trial", "ratio", "lower", ("rng.stream", "rng.substream"),
     lambda g, n: _ratio(g["rng_top"], n("simulate.sweep", "simulate.block",
                                          "simulate.leakage", key="trials"))),
    ("simulate.trials", "count", "higher", ("simulate.sweep", "simulate.block", "simulate.leakage"),
     lambda g, n: n("simulate.sweep", "simulate.block", "simulate.leakage", key="trials")),
    ("channel.transmit_calls", "count", "lower", ("channel.transmit",),
     lambda g, n: n("channel.transmit", key="calls")),
    ("channel.transmit_samples", "count", "lower", ("channel.transmit",),
     lambda g, n: n("channel.transmit", key="samples")),
    ("channel.transmit_self_s", "s", "lower", ("channel.transmit",),
     lambda g, n: n("channel.transmit", key="self_s")),
    ("codec.hard_decode_calls", "count", "lower", ("codec.hard_decode",),
     lambda g, n: n("codec.hard_decode", key="calls")),
    ("codec.hard_decode_samples", "count", "lower", ("codec.hard_decode",),
     lambda g, n: n("codec.hard_decode", key="samples")),
    ("codec.hard_decode_s", "s", "lower", ("codec.hard_decode",),
     lambda g, n: n("codec.hard_decode", key="self_s")),
    ("codec.encode_calls", "count", "lower", ("codec.encode",),
     lambda g, n: n("codec.encode", key="calls")),
    ("codec.encode_s", "s", "lower", ("codec.encode",),
     lambda g, n: n("codec.encode", key="self_s")),
    ("codec.lookups", "count", "lower", ("codec.lookup",),
     lambda g, n: n("codec.lookup", key="calls")),
    ("codec.lookup_s", "s", "lower", ("codec.lookup",),
     lambda g, n: n("codec.lookup", key="self_s")),
    ("codec.lookup_hit_ratio", "ratio", "higher", ("codec.lookup",),
     lambda g, n: _ratio(n("codec.lookup", key="hits"), n("codec.lookup", key="calls"))),
    ("codec.codebook_rows", "count", "higher", ("codec.build_codebook",),
     lambda g, n: n("codec.build_codebook", key="rows")),
    ("codec.build_codebook_s", "s", "lower", ("codec.build_codebook",),
     lambda g, n: n("codec.build_codebook", key="self_s")),
    ("codec.duplicate_stats_s", "s", "lower", ("codec.duplicate_stats",),
     lambda g, n: n("codec.duplicate_stats", key="self_s")),
    ("constellation.float_builds", "count", "lower", ("constellation.float_build",),
     lambda g, n: n("constellation.float_build", key="calls")),
    ("constellation.float_points", "count", "lower", ("constellation.float_build",),
     lambda g, n: n("constellation.float_build", key="points")),
    ("constellation.float_build_s", "s", "lower", ("constellation.float_build",),
     lambda g, n: n("constellation.float_build", key="self_s")),
    ("constellation.exact_builds", "count", "lower", ("constellation.exact_build",),
     lambda g, n: n("constellation.exact_build", key="calls")),
    ("constellation.exact_points", "count", "lower", ("constellation.exact_build",),
     lambda g, n: n("constellation.exact_build", key="points")),
    ("constellation.exact_build_s", "s", "lower", ("constellation.exact_build",),
     lambda g, n: n("constellation.exact_build", key="self_s")),
    ("secrecy.leakage_estimate_s", "s", "lower", ("secrecy.leakage_estimate",),
     lambda g, n: n("secrecy.leakage_estimate", key="self_s")),
    ("secrecy.leakage_dense_cells", "count", "lower", ("secrecy.leakage_estimate",),
     lambda g, n: n("secrecy.leakage_estimate", key="dense")),
    ("secrecy.leakage_occupied_ratio", "ratio", "higher", ("secrecy.leakage_estimate",),
     lambda g, n: _ratio(n("secrecy.leakage_estimate", key="occupied"),
                         n("secrecy.leakage_estimate", key="dense"))),
    ("secrecy.sum_entropy_s", "s", "lower", ("secrecy.sum_entropy",),
     lambda g, n: n("secrecy.sum_entropy", key="self_s")),
    ("secrecy.region_s", "s", "lower", ("secrecy.region",),
     lambda g, n: n("secrecy.region", key="self_s")),
    ("secrecy.sdof_fit_s", "s", "lower", ("secrecy.sdof_fit",),
     lambda g, n: n("secrecy.sdof_fit", key="self_s")),
    ("diophantine.min_linear_form_calls", "count", "lower", ("diophantine.min_linear_form",),
     lambda g, n: n("diophantine.min_linear_form", key="calls")),
    ("diophantine.grid_points", "count", "lower", ("diophantine.min_linear_form",),
     lambda g, n: n("diophantine.min_linear_form", key="points")),
    ("diophantine.min_linear_form_s", "s", "lower", ("diophantine.min_linear_form",),
     lambda g, n: n("diophantine.min_linear_form", key="self_s")),
    ("cli.parse_config_s", "s", "lower", ("cli.parse_config",),
     lambda g, n: n("cli.parse_config", key="self_s")),
    ("cli.emit_s", "s", "lower", ("cli.emit",),
     lambda g, n: n("cli.emit", key="self_s")),
    ("trace.command_s", "s", "lower", (ROOT,), lambda g, n: g["command_s"]),
) + tuple(
    (f"{layer}.self_s", "s", "lower", (), (lambda g, n, layer=layer: g["layers"][layer]["self_s"]))
    for layer in LAYERS
) + tuple(
    (f"{layer}.raised", "count", "lower", (), (lambda g, n, layer=layer: g["layers"][layer]["raised"]))
    for layer in LAYERS
)


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass; absent metrics are left out."""
    agg = aggregate(dump)
    installed = set(dump["installed"]) | {ROOT}

    def n(*names: str, key: str) -> float:
        total = 0
        for name in names:
            entry = agg["names"].get(name)
            if entry is None:
                continue
            total += entry[key] if key in ("calls", "self_s") else entry["counts"].get(key, 0)
        return total

    out = {}
    for metric, _unit, _better, needs, value in METRICS:
        if needs and not installed.intersection(needs):
            continue
        out[metric] = float(value(agg, n))
    return out
