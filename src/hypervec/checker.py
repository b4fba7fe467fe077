"""Deterministic sampling, report types, and the suite runner.

All verdicts are computed in exact arithmetic; the only randomness is a
seeded SplitMix64 stream used to pick sample tuples, so two runs with
the same config produce byte-identical reports on any platform.

sample_stream is the one function that draws. It draws the SplitMix64
tail a block at a time: one big-int pass over 128-bit lanes gives every
output of a block (_splitmix_block), bit for bit the outputs that
SplitMix64 gives one at a time, on any byte order. SUITES declares the
stream each suite reads (config, field, dimension and its arity, the
count of scalars and vectors per tuple) and that stream's one law
builder, and run_pass reads one stream in one loop, evaluating on each
tuple every planned suite that reads it through that builder. One
scheduler sequences every suite (_run_suite): within one run_suites
memo (one `hypervec check` run) the first suite that needs a stream
runs that pass for every planned suite of the stream, then each of
those suites' finish steps, and keeps their reports. The memo is the
plan too: a planned report (plan_run) is a memo entry that holds no
report yet. So each stream is drawn once, no stream or tally is kept,
and nothing outlives the memo. A check function called on its own is a
run of its one suite (run_one): it runs that suite on a fresh memo the
same way.

Several items make one status by a single rule, roll_up: unbounded,
else fail, else pass, and vacuous only when every item is vacuous. It
gives each summary item (summary_item: the normality verdicts and the
norm axioms) and each suite's verdict in the catalog table.

Value is the base of the package's value classes: the config and the
report types here, the shapes and families of `models`, the inner
products of `inner` and the parsed file of `dsl`. They are plain
__slots__ classes: defining one generates no code at import, and a
`hypervec check` process loads none of inspect, ast, dis or tokenize.
"""

from __future__ import annotations

import importlib
import itertools
import json
import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Iterable, Iterator, NamedTuple

from .scalars import FieldTag, GaussianRational, Scalar, _reduced
from .vectors import Vector, lattice_vector, unit_vector, zero_vector

_MASK64 = (1 << 64) - 1
# SplitMix64's state increment and its two mixing multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Suite(NamedTuple):
    """One suite: its module, the reports it reads, its stream and steps.

    laws, finish and rows name attributes of module. stream is the
    (scalars, vectors) arity of the sample tuples the suite reads, None
    when it reads reports only. laws names its stream's one law builder:
    laws(model, ip, suites, *reads), with one report per suite in reads,
    returns (rows, body) for the suites given, as run_pass takes them,
    so the suites of a stream share its work on each tuple. A model or
    report precondition is written in the builder only: it leaves out of
    rows a suite whose precondition fails, and that suite samples
    nothing.

    finish(cfg, items, *reads) turns the sampled items (None when the
    builder left the suite out) into the report's items. A suite without
    one reports its sampled items, or else every row of the table rows
    as vacuous. Each `inner` suite names rows: without an inner product
    it is vacuous.

    Every suite of one stream names the same module and builder and reads
    the same reports, so one pass calls one builder with one set of
    arguments.
    """

    module: str
    reads: tuple[str, ...] = ()
    stream: tuple[int, int] | None = None
    laws: str | None = None
    finish: str | None = None
    rows: str | None = None

    def step(self, field: str):
        # looked up at call time: the suite modules sit above this one in
        # the layering, and an attribute replaced by a tracer or a test
        # must take effect
        module = importlib.import_module(f"{__package__}.{self.module}")
        return getattr(module, getattr(self, field))


# the suites of one stream share one module, builder and reads: wvs_axioms
# and the two normality readings, real_ip and hip, lemma_34 and norm_props
_SUM_SUITE = Suite("models", (), (2, 2), "_sum_laws")
_PAIRING_SUITE = Suite("inner", (), (1, 3), "_pairing_laws")
_NORM_SUITE = Suite("inner", ("hip",), (1, 2), "_norm_laws")

SUITES = {
    "wvs_axioms": _SUM_SUITE,
    "lemma_basic": Suite("essential", ("strong_normal",), (2, 1), "_lemma_basic_laws"),
    "weak_normal": _SUM_SUITE,
    "strong_normal": _SUM_SUITE,
    "normal_equiv": Suite("essential", ("weak_normal", "strong_normal"), finish="_equivalence"),
    "real_ip": _PAIRING_SUITE._replace(rows="_REAL_IP_ITEMS"),
    "hip": _PAIRING_SUITE._replace(rows="_HIP_ITEMS"),
    "lemma_34": _NORM_SUITE._replace(finish="_lemma_34_items", rows="_LEMMA_34_ITEMS"),
    "theorem_normal": Suite(
        "inner",
        ("hip", "strong_normal"),
        (1, 1),
        "_theorem_laws",
        "_theorem_items",
        "_THEOREM_ITEMS",
    ),
    "norm_props": _NORM_SUITE._replace(finish="_norm_items", rows="_NORM_ITEMS"),
}

# Suite vocabulary; also the identifiers accepted by `check` directives.
SUITE_NAMES = tuple(SUITES)

# Per-item witness lists are truncated to this many entries, kept in
# evaluation order (forced degenerate tuples come first, so the classic
# counterexamples stay at the head).
MAX_WITNESSES = 5

# The largest sample count a config admits: a model file or a flag
# cannot ask for work without bound.
MAX_SAMPLES = 100_000


class SplitMix64:
    """SplitMix64: the public 64-bit mixing generator.

    state' = state + 0x9E3779B97F4A7C15; output mixes the new state with
    two xor-shift-multiply rounds. Chosen because it is tiny, documented,
    and identical on every platform. Draws below a bound use modulo; the
    bias is negligible at our ranges and verdicts never depend on the
    distribution, only on determinism.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


# sample_stream draws the outputs of _CHUNK tuples in one block, or of
# as many whole tuples as fit in _BLOCK outputs (one at least): a bound
# on outputs keeps each block's ints small at any dimension
_BLOCK = 4096


def _pack(words: list[int]) -> int:
    """The int whose 64-bit words, least significant first, are words."""
    return int.from_bytes(struct.pack(f"<{len(words)}Q", *words), "little")


def _unpack(z: int, n: int) -> tuple[int, ...]:
    """The n 64-bit words of z, least significant first; _pack's inverse."""
    return struct.unpack(f"<{n}Q", z.to_bytes(8 * n, "little"))


@lru_cache(maxsize=8)
def _lanes(n: int) -> tuple[int, int, int]:
    """(ones, steps, mask) for a block of n outputs, one 128-bit lane
    each: 1, (k + 1)*_GAMMA mod 2^64 and 2^64 - 1 in lane k."""
    words = [0] * (2 * n)
    words[0::2] = [k * _GAMMA & _MASK64 for k in range(1, n + 1)]
    ones = _pack([1, 0] * n)
    return ones, _pack(words), ones * _MASK64


def _splitmix_block(state: int, n: int) -> tuple[tuple[int, ...], int]:
    """The next n outputs of SplitMix64 from state, and the state after them.

    The k-th state is state + k*_GAMMA mod 2^64, so every state of the
    block sits in its own 128-bit lane of one int, and each round runs
    once for the whole block: masking the lanes before each multiply
    keeps every 64 x 64-bit product in its lane. The lanes are packed
    little-endian, so the outputs equal SplitMix64.next_u64's, drawn one
    at a time, on any host.
    """
    ones, steps, mask = _lanes(n)
    z = (state * ones + steps) & mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    z ^= (z >> 31) & mask
    return _unpack(z, 2 * n)[0::2], (state + n * _GAMMA) & _MASK64


class Value:
    """A value class: equal, hashed and shown by its fields.

    A subclass names its fields in _fields and keeps them in __slots__,
    as Vector does. The base sets, compares, hashes and shows a value by
    its fields: Value(*values) sets them in order. A subclass that
    checks, derives or copies a field defines its own __init__. Values
    of different classes are never equal. A value is immutable by
    convention, as a Vector is: nothing stops an assignment. A mutable
    one (CheckItem, CheckReport) sets __hash__ = None.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(self._fields)} fields, "
                f"got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class SampleConfig(Value):
    """Knobs for the deterministic sample stream.

    height bounds numerators in [-height, height] and denominators in
    [1, height]; samples is at most MAX_SAMPLES. Each is an int, never
    a bool.
    """

    __slots__ = _fields = ("seed", "samples", "height")

    def __init__(self, seed: int = 42, samples: int = 500, height: int = 10):
        for name, value in zip(self._fields, (seed, samples, height)):
            if value.__class__ is not int:  # a bool is no count
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if not 1 <= samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}")
        if height < 1:
            raise ValueError("height must be positive")
        self.seed, self.samples, self.height = seed, samples, height


class Witness:
    """One concrete violation: named exact values plus the relation broken.

    The values are kept as given and turned into text, str(value), the
    first time bindings is read, so a witness that no report keeps is
    never rendered. The values are immutable (scalars, vectors, sets,
    text), so the text does not depend on when it is rendered.
    """

    def __init__(self, bindings: dict[str, object], relation: str):
        self._values = bindings
        self.relation = relation

    @cached_property
    def bindings(self) -> dict[str, str]:
        """Each binding as its text form, str(value)."""
        return {name: str(value) for name, value in self._values.items()}

    def to_json(self) -> dict:
        return {"bindings": dict(self.bindings), "relation": self.relation}


class CheckItem(Value):
    # status: pass | fail | vacuous | unbounded
    __slots__ = _fields = ("id", "anchor", "status", "samples", "witnesses")
    __hash__ = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "samples": self.samples,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


class CheckReport(Value):
    __slots__ = _fields = ("model", "suite", "items")
    __hash__ = None

    @property
    def all_passed(self) -> bool:
        return all(item.status == "pass" for item in self.items)

    @property
    def clean(self) -> bool:
        """No item failed or hit an unbounded supremum."""
        return all(item.status not in ("fail", "unbounded") for item in self.items)

    def item(self, item_id: str) -> CheckItem:
        for it in self.items:
            if it.id == item_id:
                return it
        raise KeyError(item_id)

    def to_json(self) -> dict:
        return {"name": self.suite, "items": [it.to_json() for it in self.items]}


class Unbounded(Witness):
    """A supremum that grows without bound, instead of a value."""


class ItemCheck:
    """Accumulates per-tuple verdicts for one report item.

    Call sample(outcome) once per evaluated tuple, with what a law
    yields: a Witness, an Unbounded or a list of them (an empty list
    passes; run_pass counts a passing tuple in samples itself). finish()
    resolves the status with precedence unbounded > vacuous (no samples)
    > fail > pass.

    Each kind, ordinary and unbounded, keeps its first MAX_WITNESSES
    distinct witnesses in one map of its own, keyed on their text
    (bindings and relation) in the order they came. A kind that holds
    that many renders no further witness: none of them could be
    reported.
    """

    def __init__(self, item_id: str, anchor: str):
        self.id = item_id
        self.anchor = anchor
        self.samples = 0
        self._witnesses: dict[tuple, Witness] = {}
        self._unbounded: dict[tuple, Witness] = {}

    def sample(self, outcome: Witness | list[Witness]):
        self.samples += 1
        for witness in (outcome,) if isinstance(outcome, Witness) else outcome:
            into = self._unbounded if witness.__class__ is Unbounded else self._witnesses
            if len(into) < MAX_WITNESSES:
                # distinct sample tuples can reproduce the same violation; keep one
                key = (tuple(sorted(witness.bindings.items())), witness.relation)
                into.setdefault(key, witness)

    def finish(self) -> CheckItem:
        # a tuple that failed was sampled, so no samples means no witnesses
        status = (
            "unbounded" if self._unbounded
            else "fail" if self._witnesses
            else "pass" if self.samples
            else "vacuous"
        )
        witnesses = list((self._unbounded or self._witnesses).values())
        return CheckItem(self.id, self.anchor, status, self.samples, witnesses)


def vacuous_report(model_desc: str, suite: str, items: Iterable[tuple[str, str]]) -> CheckReport:
    """A report whose every item is vacuous (failed precondition)."""
    return CheckReport(
        model_desc,
        suite,
        [CheckItem(i, anchor, "vacuous", 0, []) for i, anchor in items],
    )


def roll_up(items: list[CheckItem]) -> str:
    """The one status of several items: unbounded > fail > pass, and
    vacuous only when every item is vacuous (no items give pass)."""
    statuses = {item.status for item in items}
    for status in ("unbounded", "fail"):
        if status in statuses:
            return status
    return "vacuous" if statuses == {"vacuous"} else "pass"


def summary_item(item_id: str, anchor: str, items: list[CheckItem]) -> CheckItem:
    """One item summing up others: their roll_up status, the largest
    sample count, and the first MAX_WITNESSES of their witnesses in
    item order."""
    witnesses = [w for item in items for w in item.witnesses][:MAX_WITNESSES]
    samples = max((item.samples for item in items), default=0)
    return CheckItem(item_id, anchor, roll_up(items), samples, witnesses)


def forced_scalars(field: FieldTag) -> list[Scalar]:
    if field is FieldTag.Q:
        return [Fraction(0), Fraction(1), Fraction(-1)]
    return [
        GaussianRational(0),
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(0, 1),
        GaussianRational(1, 1),
    ]


def forced_vectors(field: FieldTag, dim: int) -> list[Vector]:
    e1 = unit_vector(field, dim)
    return [zero_vector(field, dim), e1, -e1]


def sample_stream(
    cfg: SampleConfig,
    field: FieldTag,
    dim: int,
    n_scalars: int,
    n_vectors: int,
) -> Iterator[tuple]:
    """Yield exactly cfg.samples flat tuples (scalars first, then vectors).

    A forced prefix runs through every combination of the degenerate
    scalars (0, 1, -1, and over Qi also i and 1+i) and vectors (zero,
    e1, -e1) so the classic corner cases are always exercised; the
    SplitMix64 tail fills the rest. Every coordinate of the tail is a
    ratio num/den from two outputs of one generator seeded with
    cfg.seed: SplitMix64.below(2*height + 1) - height, then
    SplitMix64.below(height) + 1, so denominators are never zero. A Qi
    coordinate draws its real part, then its imaginary part. The tail
    is drawn in blocks of whole tuples, at most _BLOCK outputs each
    (_splitmix_block), equal to SplitMix64 drawn one output at a time.
    """
    count = 0
    slots = [forced_scalars(field)] * n_scalars + [forced_vectors(field, dim)] * n_vectors
    if slots:  # product() of no slots would yield one empty tuple
        for count, sample in enumerate(
            itertools.islice(itertools.product(*slots), cfg.samples), 1
        ):
            yield sample
    parts = 1 if field is FieldTag.Q else 2  # real, imaginary
    widths = [parts] * n_scalars + [parts * dim] * n_vectors
    per_tuple = 2 * sum(widths)  # outputs: a numerator and a denominator each
    per_block = max(1, min(_CHUNK, _BLOCK // max(1, per_tuple)))  # whole tuples
    height, span = cfg.height, 2 * cfg.height + 1
    state = cfg.seed
    while count < cfg.samples:
        n = min(per_block, cfg.samples - count)
        outputs, state = _splitmix_block(state, n * per_tuple)
        nums = [z % span - height for z in outputs[0::2]]
        dens = [z % height + 1 for z in outputs[1::2]]
        at = 0
        for _ in range(n):
            row = []
            for i, width in enumerate(widths):
                ns, ds = nums[at : at + width], dens[at : at + width]
                at += width
                if i >= n_scalars:  # a vector, on ints over the lcm of its denominators
                    den = lcm(*ds)
                    scaled = [p * (den // q) for p, q in zip(ns, ds)]
                    if parts == 1:
                        row.append(lattice_vector(tuple(scaled), None, den))
                    else:
                        row.append(lattice_vector(tuple(scaled[0::2]), tuple(scaled[1::2]), den))
                elif parts == 1:
                    row.append(Fraction(ns[0], ds[0]))
                else:  # n0/d0 + (n1/d1)*i, reduced once
                    (n0, n1), (d0, d1) = ns, ds
                    row.append(_reduced(n0 * d1, n1 * d0, d0 * d1))
            yield tuple(row)
        count += n


# run_pass takes this many tuples at a time from the stream. Taking a
# chunk and then evaluating it runs about 10% faster than alternating
# one draw with one evaluation (measured on the rays workload, CPython
# 3.11), and memory stays bounded by the chunk whatever the sample
# count. sample_stream draws one chunk's outputs in one block unless
# they pass _BLOCK: at dim 4 or less they never do, at dim 64 one chunk
# spans several blocks.
_CHUNK = 64


def run_pass(
    model, cfg: SampleConfig, arity: tuple[int, int], rows: dict, body: Callable
) -> dict[str, list[CheckItem]]:
    """Tally one law set on each tuple of one sample stream, drawn once.

    rows maps each suite to its (law id, anchor) rows, and body(*sample)
    runs once per tuple of sample_stream (arity is its count of scalars
    and of vectors), yielding ((suite, law id), outcome) for each law it
    decided on that tuple. A falsy outcome passes; any other is a
    Witness, an Unbounded or a list of them, and ItemCheck.sample takes
    it. A law not yielded on a tuple is not sampled on it. Returns each
    suite's finished items (ItemCheck.finish) in row order.
    """
    checks = {
        (suite, law): ItemCheck(law, anchor)
        for suite, items in rows.items()
        for law, anchor in items
    }
    stream = sample_stream(cfg, model.field, model.dim, *arity)
    while chunk := tuple(itertools.islice(stream, _CHUNK)):
        for sample in chunk:
            for key, outcome in body(*sample):
                if outcome:
                    checks[key].sample(outcome)
                else:
                    checks[key].samples += 1  # a pass keeps no witness
    return {
        suite: [checks[suite, law].finish() for law, _ in items] for suite, items in rows.items()
    }


def plan_run(memo: dict, model, ip, requests: Iterable[tuple[str, SampleConfig]]) -> None:
    """Plan in memo every report a run will compute: each requested
    (suite, config) and, through SUITES' reads, every report it reads,
    that memo holds no entry for. A planned report is an entry that
    holds None until the report is computed. An inner suite without an
    inner product reads nothing.

    A pass over a stream evaluates the planned suites that read it and
    nothing else, so a run that plans before its first suite runs reads
    each stream in one pass.
    """
    todo = list(requests)
    while todo:
        name, cfg = todo.pop()
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name!r}")
        if (name, cfg) not in memo:
            memo[name, cfg] = None
            if ip is not None or SUITES[name].module != "inner":
                todo += [(dep, cfg) for dep in SUITES[name].reads]


def run_suites(
    model, ip, cfg: SampleConfig, suites: list[str], memo: dict | None = None
) -> list[CheckReport]:
    """Run the named suites in order and return one report per suite.

    A memo belongs to one model and one inner product. It keeps every
    report of a run under its (suite, config), so one report per suite
    and config is computed however many suites read it; pass the same
    memo to the calls that belong to one run. The suites of the call are
    planned in the memo (plan_run); plan the whole run first, as the CLI
    does, and the one pass over each stream evaluates every suite of the
    run that reads it.

    Suites whose precondition fails (complex field for real_ip, missing
    or failed hyperinner axioms for the derived suites) are reported
    with vacuous items, never silently skipped.
    """
    memo = {} if memo is None else memo
    plan_run(memo, model, ip, [(name, cfg) for name in suites])
    return [_run_suite(name, model, ip, cfg, memo) for name in suites]


def run_one(
    suite: str, model, ip, cfg: SampleConfig | None, *reads: CheckReport
) -> CheckReport:
    """The report of suite run alone on a fresh memo, handed the reports
    it reads, one per suite in its reads (see Suite). cfg None is the
    default config."""
    cfg = cfg or SampleConfig()
    memo = {(dep, cfg): report for dep, report in zip(SUITES[suite].reads, reads)}
    return run_suites(model, ip, cfg, [suite], memo)[0]


def _run_suite(name: str, model, ip, cfg: SampleConfig, memo: dict) -> CheckReport:
    """The report of name at cfg, from memo or else computed into it;
    name is planned (plan_run).

    The reports name reads come first. Then one pass evaluates every
    planned suite of name's (config, stream) whose memo entry holds no
    report yet, and each of them is finished and kept, so no tally
    outlives the pass.
    Without an inner product every row of an inner suite is vacuous, and
    nothing is read or drawn for it.
    """
    if memo[name, cfg] is not None:
        return memo[name, cfg]
    spec, desc = SUITES[name], model.describe()
    if spec.module == "inner" and ip is None:
        memo[name, cfg] = vacuous_report(desc, name, spec.step("rows"))
        return memo[name, cfg]
    reads = [_run_suite(dep, model, ip, cfg, memo) for dep in spec.reads]
    group = {
        suite: other
        for suite, other in SUITES.items()
        if other.stream == spec.stream and (suite, cfg) in memo and memo[suite, cfg] is None
    }
    rows, body = spec.step("laws")(model, ip, tuple(group), *reads) if spec.laws else ({}, None)
    sampled = run_pass(model, cfg, spec.stream, rows, body) if rows else {}
    for suite, other in group.items():
        items = sampled.get(suite)
        if other.finish:
            items = other.step("finish")(cfg, items, *reads)
        memo[suite, cfg] = (
            vacuous_report(desc, suite, other.step("rows"))
            if items is None
            else CheckReport(desc, suite, items)
        )
    return memo[name, cfg]


def report_document(model_desc: str, seed: int, reports: list[CheckReport]) -> dict:
    return {
        "model": model_desc,
        "seed": seed,
        "suites": [r.to_json() for r in reports],
    }


def render_json(document: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
