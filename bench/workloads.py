"""The benchmark's workloads: seeded inputs, jobs, and output checks.

A workload is a fixed sequence of job groups ("parts", one class each
below).  A part builds its inputs in its constructor; `run` does one
job and `check` validates that job's output outside the timed region,
returning the number of items it completed or raising CheckFailed.
Jobs call trilam's public functions through their module attributes
(`builder.build`, not a name imported here), so the traced run sees
every call.

Every workload does the same amount of work on every seed: the seed
picks which inputs are used, never how many or of which cost class.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from trilam import builder, cli, formats, orbits, pullback, render
from trilam.angles import angle_str
from trilam.chords import Chord


class CheckFailed(Exception):
    """A job's output differs from the reference."""


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def chord_key(ch: Chord) -> str:
    return f"{angle_str(ch.a)} {angle_str(ch.b)}"


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def comajor_classes(max_block: int) -> dict[str, list[Chord]]:
    """Comajors of block <= max_block by class "<block><type>", e.g. "2B", in canonical order."""
    by_class: dict[str, list[Chord]] = {}
    for rec in builder.build(max_block).sorted_leaves():
        by_class.setdefault(f"{rec.block_period}{rec.ptype}", []).append(rec.chord)
    return by_class


def stratified_comajors(strata: dict[str, int], rng: random.Random) -> list[Chord]:
    """`strata[cls]` comajors drawn from each class, classes in the given order.

    Within one (block, type) class every comajor's pruned family has the
    same size, so a stratified sample costs the same on every seed.
    """
    by_class = comajor_classes(max(int(cls[:-1]) for cls in strata))
    picked: list[Chord] = []
    for cls, k in strata.items():
        picked.extend(rng.sample(by_class[cls], k))
    return picked


class Comajors:
    """Stresses orbits + builder (~85%) and JSON/CSV/SVG emission; bypasses legality and pullback."""

    SIZES = {"full": {"max_block": 7}, "small": {"max_block": 3}}
    items_are = "leaves emitted"

    def __init__(self, seed: int, size: str, expected: dict, workdir: Path):
        self.max_block = self.SIZES[size]["max_block"]
        self.expected = expected
        self.jobs = [self.max_block]

    def run(self, max_block: int):
        recs = builder.build(max_block).sorted_leaves()
        svg = render.render_svg([r.chord for r in recs], render.RenderConfig(),
                                classes=[r.ptype for r in recs],
                                blocks=[r.block_period for r in recs])
        return len(recs), formats.records_to_json(recs), formats.records_to_csv(recs), svg

    def check(self, job, out) -> int:
        n, js, csv, svg = out
        exp = self.expected
        _expect(n == exp["leaves"], f"{n} leaves, expected {exp['leaves']}")
        for label, text in (("json", js), ("csv", csv), ("svg", svg)):
            _expect(digest(text) == exp[label], f"{label} digest differs")
        return n


class Certify:
    """Stresses legality (~95%, every verdict legal, so each runs the full orbit pair scan)
    and the nesting audit; orbits and builder are small."""

    SIZES = {"full": {"max_block": 4}, "small": {"max_block": 3}}
    items_are = "leaves certified"

    def __init__(self, seed: int, size: str, expected: dict, workdir: Path):
        self.max_block = self.SIZES[size]["max_block"]
        self.expected = expected
        self.endpoints = set()
        for block in range(1, self.max_block + 1):
            for ptype in ("B", "D"):
                self.endpoints.update(orbits.preperiod1_points(block, ptype))
        self.jobs = [self.max_block]

    def run(self, max_block: int):
        # build(verify=True) raises unless every leaf's verdict is legal
        state = builder.build(max_block, verify=True)
        return state, builder.nesting_audit(state)

    def check(self, job, out) -> int:
        state, audit = out
        exp = self.expected
        n = len(state.leaves)
        _expect(n == exp["leaves"], f"{n} leaves certified, expected {exp['leaves']}")
        used = [v for rec in state.leaves for v in rec.chord.endpoints()]
        _expect(len(set(used)) == len(used) and set(used) == self.endpoints,
                "leaf endpoints do not cover each preperiod-1 point exactly once")
        _expect(len(audit.cross_type) == exp["cross_type"], "cross-type nesting count differs")
        _expect(len(audit.separated_same_type) == exp["separated_same_type"],
                "separated same-type nesting count differs")
        return n


class Prune:
    """Stresses pullback (~100%: seed system, level expansion, dedup, invariant checks, prune);
    bypasses legality (one seed check per job) and all output."""

    SIZES = {
        "full": {"depth": 8, "strata": {"1B": 1, "2D": 1, "2B": 1, "3D": 1}},
        "small": {"depth": 4, "strata": {"1B": 1, "2D": 1, "2B": 1}},
    }
    items_are = "pruned chords kept"

    def __init__(self, seed: int, size: str, expected: dict, workdir: Path):
        cfg = self.SIZES[size]
        self.depth = cfg["depth"]
        self.expected = expected
        self.jobs = stratified_comajors(cfg["strata"], random.Random(seed))

    def run(self, c: Chord):
        # criterion 9 on one comajor
        pruned = pullback.hyperbolic_prune(c, self.depth)
        hits = pruned.forward_orbit_hits(pullback.short_quad_edges(c))
        return len(pruned), pruned.contains(c), bool(hits.any())

    def check(self, c: Chord, out) -> int:
        kept, survives, hits = out
        _expect(survives, f"{c} did not survive its own pruning")
        _expect(not hits, f"a kept chord of {c} hits a short quadrilateral edge")
        want = self.expected["kept"][chord_key(c)]
        _expect(kept == want, f"{c}: {kept} chords kept, expected {want}")
        return kept


def _trilam(argv: list[str]) -> int:
    """Exit code of one `trilam` command (usage errors exit through SystemExit)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class Emit:
    """Stresses output (~75%: Prelamination.chords, JSON, SVG, chords_from_json) through the CLI,
    with pullback as most of the rest; bypasses the builder and legality."""

    SIZES = {
        "full": {"depth": 7, "strata": {"1D": 1, "2D": 1}},
        "small": {"depth": 4, "strata": {"1D": 1, "2B": 1}},
    }
    items_are = "chords emitted"

    def __init__(self, seed: int, size: str, expected: dict, workdir: Path):
        cfg = self.SIZES[size]
        self.depth = str(cfg["depth"])
        self.expected = expected
        self.workdir = workdir
        self.jobs = stratified_comajors(cfg["strata"], random.Random(seed))

    def paths(self, c: Chord) -> tuple[Path, Path, Path]:
        stem = chord_key(c).replace("/", "_").replace(" ", "-")
        return (self.workdir / f"{stem}.json", self.workdir / f"{stem}.svg",
                self.workdir / f"{stem}.render.svg")

    def run(self, c: Chord):
        js, svg, rendered = self.paths(c)
        a, b = angle_str(c.a), angle_str(c.b)
        base = ["pullback", a, b, "--depth", self.depth, "--prune"]
        return (_trilam(base + ["--format", "json", "--out", str(js)]),
                _trilam(base + ["--format", "svg", "--out", str(svg)]),
                _trilam(["render", "--in", str(js), "--out", str(rendered)]))

    def check(self, c: Chord, out) -> int:
        _expect(out == (0, 0, 0), f"{c}: exit codes {out}")
        exp = self.expected[chord_key(c)]
        js, svg, rendered = (p.read_bytes() for p in self.paths(c))
        _expect(digest(js) == exp["json"], f"{c}: pullback JSON digest differs")
        _expect(digest(svg) == exp["svg"], f"{c}: pullback SVG digest differs")
        # render --in of the JSON draws the same chords with the same style
        _expect(digest(rendered) == exp["svg"], f"{c}: rendered SVG digest differs")
        return svg.count(b"<path ")


PARTS = {"comajors": Comajors, "certify": Certify, "prune": Prune, "emit": Emit}

# Two workloads, not one per part: the run budget allows about 45 s per
# run for two workloads, and on a host whose speed drifts for tens of
# seconds at a time, shorter runs did not give steady figures.
WORKLOADS = {
    # orbits, builder and legality (plus record output); pullback absent
    "leaves": ("comajors", "certify"),
    # pullback and chord output through the CLI; builder absent, legality negligible
    "pullbacks": ("prune", "emit"),
}


class Workload:
    """The parts of one workload, run back to back as one pass."""

    def __init__(self, parts: tuple[str, ...], seed: int, size: str, expected: dict,
                 workdir: Path):
        self.parts = [PARTS[name](seed, size, expected.get(name, {}), workdir) for name in parts]
        self.jobs = [(part, job) for part in self.parts for job in part.jobs]
        self.items_are = " + ".join(part.items_are for part in self.parts)

    def run(self, job):
        part, args = job
        return part.run(args)

    def check(self, job, out) -> int:
        part, args = job
        return part.check(args, out)
