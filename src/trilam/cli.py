"""Command-line surface.

Subcommands: comajors (run the block-period construction), check
(certify a symmetric pair), orbit (angle dynamics), pullback (finite
pullback family of a legal pair), render (chords JSON to SVG).

Exit codes: 0 success, 1 verification or legality failure, 2 usage or
file error.  A failed contract (construction, certification, seed
legality, pullback invariant) prints its message on stderr, then its
witness, when it has one, as one JSON line; `check` prints its verdict
and witness on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .angles import angle_str, orbit_info, parse_angle, tripling
from .builder import BuildError, BuildState, VerificationError, build
from .chords import Chord, image
from .formats import (
    chords_from_json,
    prelamination_to_json,
    records_to_csv,
    records_to_json,
)
from .legality import is_legal_pair
from .orbits import classify_periodic
from .pullback import IllegalSeedError, InvariantError, build_prelamination, hyperbolic_prune
from .render import RenderConfig, render_svg


def _write(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(what: str,
          exc: BuildError | VerificationError | IllegalSeedError | InvariantError) -> int:
    """Report a failed contract on stderr, then its witness, if any, as one JSON line; exit 1."""
    print(f"{what}: {exc}", file=sys.stderr)
    if exc.witness is not None:
        print(json.dumps(exc.witness), file=sys.stderr)
    return 1


def _render_cfg(args) -> RenderConfig:
    return RenderConfig(
        size_px=args.size,
        geodesic_style=args.style,
        color_by=args.color_by,
    )


def _emit_records(state: BuildState, args) -> None:
    records = state.sorted_leaves()
    if args.type != "both":
        records = [r for r in records if r.ptype == args.type]
    if args.format == "json":
        _write(records_to_json(records), args.out)
    elif args.format == "csv":
        _write(records_to_csv(records), args.out)
    else:
        svg = render_svg(
            [r.chord for r in records],
            _render_cfg(args),
            classes=[r.ptype for r in records],
            blocks=[r.block_period for r in records],
        )
        _write(svg, args.out)


def cmd_comajors(args) -> int:
    try:
        state = build(args.max_block, verify=args.verify)
    except VerificationError as exc:
        return _fail("verification failure", exc)
    except BuildError as exc:
        return _fail("build failure", exc)
    _emit_records(state, args)
    return 0


def cmd_check(args) -> int:
    c = Chord(parse_angle(args.a), parse_angle(args.b))
    verdict = is_legal_pair(c)
    print(f"pair {{{c}, -{c}}}: {verdict.status.upper()}")
    if not verdict.is_legal:
        print(json.dumps(verdict.to_json()["witness"]))
        return 1
    if c.degenerate:
        info = orbit_info(c.a)
        print(f"degenerate pair; preperiod {info.preperiod}, period {info.period}")
        return 0
    infos = [orbit_info(v) for v in c.endpoints()]
    for v, info in zip(c.endpoints(), infos):
        print(f"endpoint {angle_str(v)}: preperiod {info.preperiod}, period {info.period}")
    if all(i.preperiod == 1 for i in infos):
        pc = classify_periodic(tripling(c.a))
        print(f"co-periodic comajor: type {pc.ptype}, block period {pc.block_period},"
              f" minor {image(c)}")
    return 0


def cmd_orbit(args) -> int:
    x = parse_angle(args.x)
    info = orbit_info(x)
    print(f"angle {angle_str(x)}: preperiod {info.preperiod}, period {info.period}")
    pts = []
    cur = x
    for _ in range(min(info.preperiod + info.period, args.max_steps)):
        pts.append(angle_str(cur))
        cur = tripling(cur)
    print("orbit: " + " -> ".join(pts) + " -> ...")
    tail = x * 3**info.preperiod % 1
    pc = classify_periodic(tail)
    print(f"periodic tail at {angle_str(tail)}: type {pc.ptype}, "
          f"block period {pc.block_period}, point period {pc.point_period}")
    return 0


def cmd_pullback(args) -> int:
    c = Chord(parse_angle(args.a), parse_angle(args.b))
    try:
        if args.prune:
            pre = hyperbolic_prune(c, args.depth)
        else:
            pre = build_prelamination(c, args.depth)
    except IllegalSeedError as exc:
        return _fail("illegal seed", exc)
    except InvariantError as exc:
        return _fail("invariant failure", exc)
    if args.format == "svg":
        svg = render_svg(pre.pairs, _render_cfg(args), modulus=pre.modulus)
        _write(svg, args.out)
    else:
        _write(prelamination_to_json(pre.seed, pre.depth, pre.pairs, pre.modulus), args.out)
    return 0


def cmd_render(args) -> int:
    if args.infile is None or args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    pairs, n, classes, blocks = chords_from_json(json.loads(text))
    svg = render_svg(pairs, _render_cfg(args), classes=classes, blocks=blocks, modulus=n)
    _write(svg, args.out)
    return 0


def _add_render_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, default=800, help="SVG size in pixels")
    p.add_argument("--style", choices=["straight", "arc"], default="arc",
                   help="chord rendering style (default: hyperbolic arc)")
    p.add_argument("--color-by", choices=["type", "block"], default="type", dest="color_by")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trilam",
                                 description="Exact comajor laminations of the tripling map")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("comajors", help="build all co-periodic comajors up to a block period")
    p.add_argument("--max-block", type=int, required=True, dest="max_block")
    p.add_argument("--type", choices=["B", "D", "both"], default="both")
    p.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    p.add_argument("--verify", action="store_true",
                   help="certify every leaf with the legality oracle")
    p.add_argument("--out", default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_comajors)

    p = sub.add_parser("check", help="decide legality of the symmetric pair {c, -c}")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit", help="orbit data of an angle under tripling")
    p.add_argument("x")
    p.add_argument("--max-steps", type=int, default=64, dest="max_steps")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("pullback", help="finite-depth pullback family of a legal pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--prune", action="store_true",
                   help="remove the short quadrilateral edges and their backward orbits")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument("--out", default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("render", help="render a chords JSON document to SVG")
    p.add_argument("--in", dest="infile", default=None, help="input JSON (default stdin)")
    p.add_argument("--out", default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_render)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        ap.exit(2, f"{ap.prog}: error: {exc}\n")
        return 2  # unreachable; keeps type checkers content


if __name__ == "__main__":
    sys.exit(main())
